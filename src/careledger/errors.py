"""Exception types shared across the package."""

# The rules a transaction can break; see `PolicyState.check`, `ConsentState.check`.
TX_RULES = ("not_author", "duplicate", "unknown", "bad_transition", "consent_signature", "malformed")


class CareLedgerError(Exception):
    """Base class for all domain errors raised by this package."""

    rule: str | None = None  # one of TX_RULES when the error refuses a transaction

    @classmethod
    def refuse(cls, rule: str, message: str) -> "CareLedgerError":
        assert rule in TX_RULES, rule
        err = cls(message)
        err.rule = rule
        return err


class EncodingError(CareLedgerError):
    """A value cannot be canonically encoded or decoded."""


class ChainError(CareLedgerError):
    """A ledger file or block structure is unreadable (truncated, garbled)."""


class PolicyError(CareLedgerError):
    """A policy operation was rejected (duplicate id, ownership, window, ...)."""


class ExchangeError(CareLedgerError):
    """A record-exchange operation was rejected (bad category, expired session, ...)."""


class ConsentError(CareLedgerError):
    """A consent-lifecycle or matching operation was rejected."""


class SimError(CareLedgerError):
    """Misuse of the simulator (fault on a down node, offline submission, ...)."""


class ScriptError(CareLedgerError):
    """A scenario script failed to parse or referenced unknown entities."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no

"""Off-chain record stores, delivery sessions, timelines, and local erasure.

Records never touch the chain; they live in each organization's store and
travel only inside simulated network messages. A session is the requester
node's bounded-lifetime view of delivered records. Shredding deletes an
organization's salt-vault row and record rows for one pseudonym, leaving the
chain untouched and the on-chain commitment permanently unlinkable from that
organization's perspective.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .errors import ExchangeError
from .ledger import Category, PrincipalId
from .policy import Decision


@dataclass(frozen=True)
class RecordEntry:
    record_id: str
    patient: str
    category: Category
    source_org: str
    measured_at: int
    value: str
    author: str


@dataclass
class Session:
    session_id: str
    request_tx: bytes
    requester: PrincipalId
    records: list[RecordEntry]
    opened_at: int
    ttl: int

    def expired(self, now: int) -> bool:
        return now >= self.opened_at + self.ttl


@dataclass
class VaultRow:
    salt: bytes
    true_id: str


@dataclass
class OffChainStore:
    """One organization's local record store plus its crypto-shredding vault."""

    org: str
    records: dict[tuple[str, Category], list[RecordEntry]] = field(default_factory=dict)
    vault: dict[str, VaultRow] = field(default_factory=dict)
    _next_record: int = 1

    def add_record(
        self, patient: str, category: Category, measured_at: int, value: str, author: str
    ) -> RecordEntry:
        entry = RecordEntry(
            record_id=f"{self.org}-r{self._next_record:05d}",
            patient=patient,
            category=category,
            source_org=self.org,
            measured_at=measured_at,
            value=value,
            author=author,
        )
        self._next_record += 1
        self.records.setdefault((patient, category), []).append(entry)
        return entry

    def fetch(self, patient: str, category: Category) -> list[RecordEntry]:
        """Records for (patient, category), oldest first. Absence is empty, not an error."""
        if not isinstance(category, Category):
            raise ExchangeError(f"unknown record category {category!r}")
        rows = self.records.get((patient, category), [])
        return sorted(rows, key=lambda e: (e.measured_at, e.record_id))

    def shred(self, pseudonym: str) -> None:
        if pseudonym not in self.vault:
            raise ExchangeError(f"unknown pseudonym {pseudonym!r} in {self.org}'s vault")
        del self.vault[pseudonym]
        for key in [k for k in self.records if k[0] == pseudonym]:
            del self.records[key]


def build_timeline(
    sessions: Iterable[Session],
    window: Optional[tuple[int, int]] = None,
) -> list[RecordEntry]:
    """Merge session records into one view, nondecreasing in measured_at.

    Ties break on (source org id, record id). The window, when given, is
    half-open [start, end) over measured_at.
    """
    if window is not None:
        start, end = window
        if end < start:
            raise ExchangeError(f"inverted timeline window [{start}, {end})")
    merged: list[RecordEntry] = []
    for session in sessions:
        merged.extend(session.records)
    if window is not None:
        start, end = window
        merged = [e for e in merged if start <= e.measured_at < end]
    merged.sort(key=lambda e: (e.measured_at, e.source_org, e.record_id))
    return merged


def timeline_rows(entries: Iterable[RecordEntry]) -> list[str]:
    """CLI rendering: measured_at, source org, category, value."""
    return [
        f"{e.measured_at}\t{e.source_org}\t{e.category.value}\t{e.value}"
        for e in entries
    ]


@dataclass(frozen=True)
class RequestOutcome:
    """Result of one exchange protocol run on the simulator."""

    request_tx: bytes
    decision: Optional[Decision]
    session: Optional[Session]

    @property
    def pending(self) -> bool:
        return self.decision is None


def submit_request(
    sim,
    requester: PrincipalId,
    requester_org: PrincipalId,
    sender_org: PrincipalId,
    patient: PrincipalId,
    category: Category,
    emergency: bool = False,
) -> RequestOutcome:
    """Run the request protocol to quiescence and report what happened.

    The request transaction always commits; when the sender node is offline
    the outcome is pending and completes after the node returns (the audit
    pair is then present). `sim` is a simnet.Simulation; this helper only
    drives its public surface.
    """
    request_tx = sim.start_request(
        requester, requester_org, sender_org, patient, category, emergency
    )
    sim.settle()
    return sim.request_outcome(request_tx)

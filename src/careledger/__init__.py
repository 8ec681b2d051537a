"""Permissioned-ledger engine with a deterministic multi-organization
care-network simulator: signed transactions on an endorsement-quorum chain,
patient-controlled access grants, auditable record exchange, quiz-based
research consent, and crypto-shredding for local erasure.
"""

from .errors import (
    CareLedgerError,
    ChainError,
    ConsentError,
    EncodingError,
    ExchangeError,
    PolicyError,
    ScriptError,
    SimError,
)
from .ledger import (
    Block,
    Category,
    Kind,
    LedgerState,
    PrincipalId,
    Transaction,
    block_hash,
    build_block,
    canonical_encode,
    query_audit,
    quorum,
    read_ledger,
    sign_tx,
    tx_hash,
    validate_chain,
    verify_tx,
    write_ledger,
)
from .policy import Decision, PolicyState, Reason, Verdict, evaluate_request
from .exchange import OffChainStore, RecordEntry, Session, build_timeline
from .consent import ConsentState, Quiz, consent_status, parse_quiz, quiz_hash
from .simnet import SimConfig, Simulation, spawn_network
from .scenario import run_scenario

__version__ = "0.1.0"

__all__ = [
    "Block",
    "CareLedgerError",
    "Category",
    "ChainError",
    "ConsentError",
    "ConsentState",
    "Decision",
    "EncodingError",
    "ExchangeError",
    "Kind",
    "LedgerState",
    "OffChainStore",
    "PolicyError",
    "PolicyState",
    "PrincipalId",
    "Quiz",
    "Reason",
    "RecordEntry",
    "ScriptError",
    "Session",
    "SimConfig",
    "SimError",
    "Simulation",
    "Transaction",
    "Verdict",
    "block_hash",
    "build_block",
    "build_timeline",
    "canonical_encode",
    "consent_status",
    "evaluate_request",
    "parse_quiz",
    "query_audit",
    "quiz_hash",
    "quorum",
    "read_ledger",
    "run_scenario",
    "sign_tx",
    "spawn_network",
    "tx_hash",
    "validate_chain",
    "verify_tx",
    "write_ledger",
]

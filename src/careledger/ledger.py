"""Authenticated append-only chain.

Transactions are the only thing that ever reaches the chain; they carry
pseudonymous ids and salted commitments, never names, measurements, or quiz
answers. Each transaction has one canonical byte encoding (see `codec`); its
id is the SHA-256 of that encoding, and the author signs the id. Blocks link
by header hash and are co-signed by an endorsement quorum of member
organizations; the header hash excludes the endorsements so every endorser
signs the same digest.

Every record type on the wire declares its fields once, with `wire(codec)`.
That declaration is the wire layout (fields in declaration order), the
decoder, and, for payloads, the audit view.
"""

from __future__ import annotations

import enum
import json
import weakref
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from itertools import islice
from operator import attrgetter, is_
from typing import ClassVar, Iterable, Iterator, Optional

from . import crypto
from .codec import (
    BOOL,
    U8,
    U32,
    U64,
    Codec,
    Enumerated,
    Opt,
    Pair,
    Raw,
    Seq,
    SortedSet,
    Source,
    Str,
    Struct,
    wire,
)
from .errors import ChainError, EncodingError

ZERO_HASH = bytes(32)
ID_BOUND = 64


class Kind(str, enum.Enum):
    ORGANIZATION = "organization"
    PRACTITIONER = "practitioner"
    PATIENT = "patient"
    RESEARCHER = "researcher"
    PARTICIPANT = "participant"


class Category(str, enum.Enum):
    VITALS = "vitals"
    MEDICATION = "medication"
    NOTES = "notes"
    TREATMENTS = "treatments"


def parse_category(name: str) -> Category:
    try:
        return Category(name)
    except ValueError:
        raise EncodingError(f"unknown record category {name!r}") from None


class PrincipalId:
    """Network identity: (kind, opaque id). Ids are 1-64 printable ASCII bytes.

    Interned: `PrincipalId(kind, id)` returns the one instance for that pair,
    as does the decoder, so equality and hashing are object identity, and a
    copy, deep copy or unpickled principal is that same instance. The table
    holds instances weakly: one nothing refers to, such as an id a damaged
    file invented, leaves it. The kind (a `Kind` or its value) and the id are
    checked only when the instance is first built; an invalid pair is never
    stored, so it raises every time. Principals sort by (kind value, id).
    """

    __slots__ = ("kind", "id", "_key", "__weakref__")
    kind: Kind
    id: str

    def __new__(cls, kind: Kind | str, id: str) -> PrincipalId:
        principal = _PRINCIPALS.get((kind, id))  # a Kind hashes and compares as its value
        if principal is None:
            try:
                kind = Kind(kind)
            except ValueError:
                raise EncodingError(f"unknown principal kind {kind!r}") from None
            if not 1 <= len(id) <= ID_BOUND:
                raise EncodingError(f"principal id length out of range: {id!r}")
            if not (id.isascii() and id.isprintable()):  # 0x20-0x7E
                raise EncodingError(f"principal id not printable ASCII: {id!r}")
            principal = object.__new__(cls)
            for name, value in (("kind", kind), ("id", id), ("_key", (kind.value, id))):
                object.__setattr__(principal, name, value)
            _PRINCIPALS[kind, id] = principal
        return principal

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError("a PrincipalId is shared and immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return PrincipalId, (self.kind, self.id)

    # `a > b` and `a <= b` run as their reflections `b < a` and `b >= a`.
    def __lt__(self, other):
        return self._key < other._key if type(other) is PrincipalId else NotImplemented

    def __ge__(self, other):
        return self._key >= other._key if type(other) is PrincipalId else NotImplemented

    def __repr__(self) -> str:
        return f"PrincipalId(kind={self.kind!r}, id={self.id!r})"

    def __str__(self) -> str:
        return f"{self.kind.value}:{self.id}"


_PRINCIPALS: weakref.WeakValueDictionary[tuple[Kind, str], PrincipalId] = weakref.WeakValueDictionary()


class _Principal(Codec):
    """Kind code, then the id as a bounded string; decodes through the intern
    table. Sorts as PrincipalId does (by the kind's value, then the id);
    shows in audit records as the id."""

    def write(self, out: list[bytes], value: PrincipalId) -> None:
        KIND.write(out, value.kind)
        ID.write(out, value.id)

    def emit(self, src: Source) -> str:
        # A damaged principal fails on its id's length, then its kind code,
        # then its UTF-8, then `PrincipalId`'s checks; a table hit skips the call.
        code, principal = U8.emit(src), src.local("principal")
        start = src.sized(ID_BOUND)
        src.line(f"if {code} > {KIND.limit}:")
        src.line(f"    {src.const(KIND.refuse, 'refuse')}({code})")
        text, key = src.text(start), src.local("key")
        interned, build = src.const(_PRINCIPALS.get, "interned"), src.const(PrincipalId, "PrincipalId")
        src.line(f"{key} = {src.const(KIND.members, 'kinds')}[{code}], {text}")
        src.line(f"{principal} = {interned}({key}) or {build}(*{key})")
        return principal

    def audit(self, value: PrincipalId) -> str:
        return value.id


KIND = Enumerated(Kind)
CATEGORY = Enumerated(Category)
PRINCIPAL = _Principal()
ID = Str(ID_BOUND)
HASH = Raw(32)
KEY = Raw(crypto.KEY_LEN)
SIGNATURE = Raw(crypto.SIGNATURE_LEN)


# ---------------------------------------------------------------------------
# Payloads. Each field's `wire()` declaration gives its wire type and its
# audit key: the field name unless `audit=` renames it, hidden when None,
# and the audit subject (by id) when SUBJECT.
# ---------------------------------------------------------------------------

SUBJECT = object()
_PAYLOAD_READERS: dict = {}  # tag -> the payload type's read function


class Payload:
    """Base of the payload types. `_payload(tag, writes)` derives the class
    attributes below from the class's `wire()` fields."""

    TAG: ClassVar[int]
    ACTION: ClassVar[str]  # the class name
    WIRE: ClassVar[Struct]
    SUBJECT_FIELD: ClassVar[Optional[str]] = None
    AUDIT: ClassVar[tuple] = ()  # (field name, audit key, codec)
    WRITES: ClassVar[tuple[str, ...]] = ()  # fields naming the fold entry; same kind, same fields

    def key(self) -> Optional[tuple]:
        """The fold entry this payload writes (see `_payload`), or None."""
        return (self.WRITES, self._WRITTEN(self)) if self.WRITES else None

    def audit_subject(self) -> str:
        return getattr(self, self.SUBJECT_FIELD).id if self.SUBJECT_FIELD else ""

    def audit_detail(self) -> dict:
        detail = {}
        for name, key, codec in self.AUDIT:
            value = getattr(self, name)
            if value is not None:
                detail[key] = codec.audit(value)
        return detail


def _payload(tag: int, writes: tuple[str, ...] = ()):
    def declare(cls):
        cls = dataclass(frozen=True)(cls)
        cls.TAG, cls.ACTION, cls.WIRE, cls.WRITES = tag, cls.__name__, Struct(cls), writes
        cls._WRITTEN = attrgetter(*writes) if writes else None  # the WRITES fields' values
        audit = []
        for f in fields(cls):
            key = f.metadata.get("audit", f.name)
            if key is SUBJECT:
                cls.SUBJECT_FIELD = f.name
            elif key is not None:
                audit.append((f.name, key, f.metadata["codec"]))
        cls.AUDIT = tuple(audit)
        _PAYLOAD_READERS[tag] = cls.WIRE.reader
        return cls

    return declare


@_payload(1, writes=("subject",))
class RegisterPrincipal(Payload):
    subject: PrincipalId = wire(PRINCIPAL, audit=None)
    public_key: bytes = wire(KEY, audit=None)
    org_binding: Optional[PrincipalId] = wire(Opt(PRINCIPAL), audit="org", default=None)
    identity_commitment: Optional[bytes] = wire(Opt(HASH), audit="commitment", default=None)

    def audit_subject(self) -> str:
        if self.subject.kind in (Kind.PATIENT, Kind.PARTICIPANT):
            return self.subject.id
        return ""

    def audit_detail(self) -> dict:
        return {"kind": self.subject.kind.value, "id": self.subject.id, **super().audit_detail()}


@_payload(2, writes=("plan_id",))
class CreatePlan(Payload):
    plan_id: str = wire(ID, audit="plan")
    patient: PrincipalId = wire(PRINCIPAL, audit=SUBJECT)
    member_orgs: frozenset[PrincipalId] = wire(SortedSet(PRINCIPAL), audit="orgs")
    # (practitioner, org)
    practitioners: frozenset[tuple[PrincipalId, PrincipalId]] = wire(
        SortedSet(Pair(PRINCIPAL, PRINCIPAL)), audit=None
    )

    def audit_detail(self) -> dict:
        pairs = sorted(f"{p.id}@{o.id}" for p, o in self.practitioners)
        return {**super().audit_detail(), "practitioners": pairs}


@_payload(3, writes=("grant_id",))
class GrantAccess(Payload):
    grant_id: str = wire(ID, audit="grant")
    plan_id: str = wire(ID, audit="plan")
    grantor: PrincipalId = wire(PRINCIPAL, audit=SUBJECT)
    grantee: PrincipalId = wire(PRINCIPAL)
    scope: frozenset[Category] = wire(SortedSet(CATEGORY))
    valid_from: int = wire(U64, audit="from")
    valid_until: int = wire(U64, audit="until")


@_payload(4, writes=("grant_id",))
class RevokeAccess(Payload):
    grant_id: str = wire(ID, audit="grant")
    patient: PrincipalId = wire(PRINCIPAL, audit=SUBJECT)


@_payload(5)
class DataRequestRecorded(Payload):
    requester: PrincipalId = wire(PRINCIPAL)
    requester_org: PrincipalId = wire(PRINCIPAL)
    sender_org: PrincipalId = wire(PRINCIPAL)
    patient: PrincipalId = wire(PRINCIPAL, audit=SUBJECT)
    category: Category = wire(CATEGORY)
    emergency: bool = wire(BOOL)


@_payload(6)
class AccessCompleted(Payload):
    request_tx: bytes = wire(HASH)
    patient: PrincipalId = wire(PRINCIPAL, audit=SUBJECT)
    verdict: str = wire(Str(32))  # allow | deny | allow_emergency
    reason: str = wire(Str(32))
    record_count: int = wire(U32, audit="records")


@_payload(7)
class EmergencyAccess(Payload):
    request_tx: bytes = wire(HASH)  # zero hash when invoked outside the exchange protocol
    requester: PrincipalId = wire(PRINCIPAL)
    patient: PrincipalId = wire(PRINCIPAL, audit=SUBJECT)
    category: Category = wire(CATEGORY)

    def audit_detail(self) -> dict:
        return {**super().audit_detail(), "emergency": True, "flagged_for_review": True}


@_payload(8, writes=("study_id",))
class RegisterStudy(Payload):
    study_id: str = wire(ID, audit="study")
    quiz_hash: bytes = wire(HASH)
    researchers: tuple[PrincipalId, ...] = wire(Seq(PRINCIPAL))
    question_count: int = wire(U32, audit="questions")


@_payload(9, writes=("study_id", "participant"))
class ConsentInvited(Payload):
    study_id: str = wire(ID, audit="study")
    participant: PrincipalId = wire(PRINCIPAL, audit=SUBJECT)


@_payload(10, writes=("study_id", "participant"))
class QuizAttemptRecorded(Payload):
    study_id: str = wire(ID, audit="study")
    participant: PrincipalId = wire(PRINCIPAL, audit=SUBJECT)
    ordinal: int = wire(U32, audit="attempt")
    mistakes: int = wire(U32)
    passed: bool = wire(BOOL)


@_payload(11, writes=("study_id", "participant"))
class ConsentSigned(Payload):
    study_id: str = wire(ID, audit="study")
    participant: PrincipalId = wire(PRINCIPAL, audit=SUBJECT)
    quiz_hash: bytes = wire(HASH)
    passing_attempt_tx: bytes = wire(HASH, audit="attempt_tx")
    # participant key over study_id || quiz_hash || attempt tx
    consent_signature: bytes = wire(SIGNATURE, audit=None)


@_payload(12, writes=("study_id", "participant"))
class ConsentWithdrawn(Payload):
    study_id: str = wire(ID, audit="study")
    participant: PrincipalId = wire(PRINCIPAL, audit=SUBJECT)


@_payload(13, writes=("participant",))
class ProfilePublished(Payload):
    participant: PrincipalId = wire(PRINCIPAL, audit=SUBJECT)
    commitments: frozenset[bytes] = wire(SortedSet(HASH))
    discoverable: bool = wire(BOOL)
    study_overrides: frozenset[tuple[str, bool]] = wire(SortedSet(Pair(ID, BOOL)), audit=None)

    def audit_detail(self) -> dict:
        return {**super().audit_detail(), "overrides": dict(sorted(self.study_overrides))}


class _Tagged(Codec):
    """A payload: its type's u8 tag, then its fields."""

    def write(self, out: list[bytes], value: Payload) -> None:
        U8.write(out, value.TAG)
        value.WIRE.write(out, value)

    def emit(self, src: Source) -> str:
        tag, read, payload = U8.emit(src), src.local("read"), src.local("payload")
        src.line(f"{read} = {src.const(_PAYLOAD_READERS, 'payload_readers')}.get({tag})")
        src.line(f"if {read} is None:")
        src.line(f"    raise EncodingError(f'unknown payload tag {{{tag}}}')")
        src.line(f"{payload}, pos = {read}(data, pos, end)")
        return payload


# ---------------------------------------------------------------------------
# Transactions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Transaction:
    timestamp: int = wire(U64)
    author: PrincipalId = wire(PRINCIPAL)
    author_org: PrincipalId = wire(PRINCIPAL)
    payload: Payload = wire(_Tagged())
    signature: Optional[bytes] = None

    @cached_property
    def tx_id(self) -> bytes:
        return tx_hash(self)

    @property
    def action(self) -> str:
        return self.payload.ACTION


_TX = Struct(Transaction)


def canonical_encode(tx: Transaction) -> bytes:
    """Signature-less wire form: timestamp, author, author org, payload tag, payload."""
    return _TX.encode(tx)


def decode_transaction(data: bytes) -> Transaction:
    return _TX.decode(data)


def tx_hash(tx: Transaction) -> bytes:
    return crypto.sha256(canonical_encode(tx))


class _Hashed(Codec):
    """A record written as `struct`, whose first `hashed` fields' exact bytes,
    as read, hash to its cached property `attr`. Decoding is strict, so those
    bytes are the ones the writer writes."""

    def __init__(self, struct: Struct, hashed: int, attr: str) -> None:
        self.struct, self.hashed, self.attr = struct, hashed, attr

    def write(self, out: list[bytes], value) -> None:
        self.struct.write(out, value)

    def emit(self, src: Source) -> str:
        start, digest, value = src.local("start"), src.local("digest"), src.local("value")
        src.line(f"{start} = pos")
        values = src.values(self.struct.codecs[: self.hashed])
        src.line(f"{digest} = {src.const(crypto, 'crypto')}.sha256(data[{start} : pos])")
        values += src.values(self.struct.codecs[self.hashed :])
        src.line(f"{value} = {src.const(self.struct.cls, 'cls')}({', '.join(values)})")
        src.line(f"{value}.__dict__[{self.attr!r}] = {digest}")  # seeds the cached_property
        return value


class _SignedTx(_Hashed):
    """A transaction in a block record: its canonical encoding, then its
    signature; the encoding hashes to the transaction id."""

    def write(self, out: list[bytes], tx: Transaction) -> None:
        if tx.signature is None:
            raise ChainError("cannot persist an unsigned transaction")
        super().write(out, tx)


_SIGNED_TX = _SignedTx(Struct(Transaction, _TX.fields + (("signature", SIGNATURE),)), len(_TX.fields), "tx_id")


def sign_tx(tx: Transaction, private_key: bytes) -> Transaction:
    signed = replace(tx, signature=crypto.sign(private_key, tx.tx_id))
    signed.__dict__["tx_id"] = tx.tx_id  # seeds the cached_property
    return signed


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    reason: str  # ok | unknown_author | missing_signature | bad_signature

    def __bool__(self) -> bool:
        return self.ok


def verify_tx(tx: Transaction, registry: dict[PrincipalId, bytes]) -> VerifyResult:
    """Check the envelope signature against the author's registered key.

    A RegisterPrincipal self-certifies: when the author is the subject being
    registered and no key is on file yet, the payload's key is used. That is
    what bootstraps genesis.
    """
    if tx.signature is None:
        return VerifyResult(False, "missing_signature")
    key = registry.get(tx.author)
    if key is None:
        p = tx.payload
        if isinstance(p, RegisterPrincipal) and p.subject == tx.author:
            key = p.public_key
        else:
            return VerifyResult(False, "unknown_author")
    if crypto.verify(key, tx.signature, tx.tx_id):
        return VerifyResult(True, "ok")
    return VerifyResult(False, "bad_signature")


# ---------------------------------------------------------------------------
# Blocks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Block:
    """As persisted: the header fields, then the signed transactions, then the
    endorsements as (org, signature) sorted by org."""

    height: int = wire(U64)
    prev_hash: bytes = wire(HASH)
    timestamp: int = wire(U64)
    proposer: PrincipalId = wire(PRINCIPAL)
    tx_root: bytes = wire(HASH)
    transactions: tuple[Transaction, ...] = wire(Seq(_SIGNED_TX))
    endorsements: tuple[tuple[PrincipalId, bytes], ...] = wire(
        SortedSet(Pair(PRINCIPAL, SIGNATURE), into=tuple), default=()
    )

    @cached_property
    def hash(self) -> bytes:
        return block_hash(self)


_BLOCK = Struct(Block)
_HEADER = Struct(Block, _BLOCK.fields[:5])  # everything before the transactions


_RECORD = _Hashed(_BLOCK, len(_HEADER.fields), "hash")  # a block as a ledger record


def compute_tx_root(transactions: Iterable[Transaction]) -> bytes:
    return crypto.sha256(b"".join(tx.tx_id for tx in transactions))


def header_bytes(block: Block) -> bytes:
    return _HEADER.encode(block)


def block_hash(block: Block) -> bytes:
    """Header digest; endorsements are excluded so all endorsers co-sign it."""
    return crypto.sha256(header_bytes(block))


def build_block(
    pending: list[Transaction],
    prev: Optional[Block],
    proposer: PrincipalId,
    timestamp: int,
    registry: dict[PrincipalId, bytes],
) -> Block:
    """A block of `first_writes(pending)` after `prev` (genesis when None);
    the rest stay pending."""
    txs = first_writes(pending)
    block = Block(
        height=0 if prev is None else prev.height + 1,
        prev_hash=ZERO_HASH if prev is None else prev.hash,
        timestamp=timestamp,
        proposer=proposer,
        tx_root=compute_tx_root(txs),
        transactions=tuple(txs),
    )
    violation = check_proposal(prev, block, registry)
    if violation is not None:
        raise ChainError(f"cannot build block: {violation}")
    return block


def first_writes(txs: Iterable[Transaction]) -> list[Transaction]:
    """`txs` in order, less each one that writes a fold entry an earlier one writes."""
    kept, written = [], set()
    for tx in txs:
        key = tx.payload.key()
        if key is None or key not in written:
            kept.append(tx)
            written.add(key)
    return kept


def endorse_block(block: Block, private_key: bytes) -> bytes:
    return crypto.sign(private_key, block.hash)


def quorum(org_count: int) -> int:
    """Endorsements required to commit with `org_count` member organizations."""
    return (2 * org_count) // 3 + 1


# ---------------------------------------------------------------------------
# Chain state and validation
# ---------------------------------------------------------------------------


@dataclass
class LedgerState:
    """A chain and its lookups. The state is built from a list of blocks and
    grows only through `append`. Both lookups are lazy and rely on that: the
    transaction index and the audit-subject index each catch up over the
    blocks appended since their last use, so building or growing a state
    does no per-transaction work."""

    blocks: list[Block] = field(default_factory=list)
    # Transaction id -> (height, position) over blocks[:_tx_indexed]; the
    # last occurrence of an id wins.
    _by_tx: dict[bytes, tuple[int, int]] = field(default_factory=dict, init=False, repr=False, compare=False)
    _tx_indexed: int = field(default=0, init=False, repr=False, compare=False)
    # Audit subject -> (height, position) rows in chain order over
    # blocks[:_indexed]; caught up by the first subject query after appends.
    _by_subject: dict[str, list[tuple[int, int]]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _indexed: int = field(default=0, init=False, repr=False, compare=False)

    def append(self, block: Block) -> None:
        if block.height != len(self.blocks):
            raise ChainError(
                f"append out of order: block height {block.height}, chain tip {len(self.blocks) - 1}"
            )
        self.blocks.append(block)

    @property
    def height_index(self) -> dict[bytes, tuple[int, int]]:
        """Transaction id -> (height, position), caught up to the tip."""
        for block in self.blocks[self._tx_indexed:]:
            for pos, tx in enumerate(block.transactions):
                self._by_tx[tx.tx_id] = (block.height, pos)
        self._tx_indexed = len(self.blocks)
        return self._by_tx

    @property
    def height(self) -> int:
        return len(self.blocks) - 1

    def tip(self) -> Block:
        if not self.blocks:
            raise ChainError("empty chain")
        return self.blocks[-1]

    def find_tx(self, tx_id: bytes) -> Optional[Transaction]:
        loc = self.height_index.get(tx_id)
        if loc is None:
            return None
        height, pos = loc
        return self.blocks[height].transactions[pos]

    def transactions(self) -> Iterator[tuple[int, int, Transaction]]:
        for block in self.blocks:
            for pos, tx in enumerate(block.transactions):
                yield block.height, pos, tx

    def _subject_rows(self, subject: str) -> Iterator[tuple[int, int, Transaction]]:
        """The transactions whose audit subject is `subject`, in chain order."""
        for block in self.blocks[self._indexed:]:
            for pos, tx in enumerate(block.transactions):
                self._by_subject.setdefault(tx.payload.audit_subject(), []).append((block.height, pos))
        self._indexed = len(self.blocks)
        for height, pos in self._by_subject.get(subject, ()):
            yield height, pos, self.blocks[height].transactions[pos]


class Registry(dict):
    """The key on file for each registered principal, folded from
    registrations, with `members`, the member organizations in registration
    order. The first key on file stays, and an organization joins `members`
    once; chain validation and every node's fold apply this one rule."""

    def __init__(self) -> None:
        super().__init__()
        self.members: list[PrincipalId] = []

    def register(self, p: RegisterPrincipal) -> bool:
        """File `p`'s key unless its subject has one; True when it was filed."""
        if p.subject in self:
            return False
        self[p.subject] = p.public_key
        if p.subject.kind is Kind.ORGANIZATION:
            self.members.append(p.subject)
        return True

    def fold(self, block: Block) -> None:
        """Register each of `block`'s registrations, in block order."""
        for tx in block.transactions:
            if isinstance(tx.payload, RegisterPrincipal):
                self.register(tx.payload)


@dataclass(frozen=True)
class Violation:
    height: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"height {self.height}: {self.rule}: {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violation: Optional[Violation] = None

    def __bool__(self) -> bool:
        return self.ok


def check_proposal(
    prev: Optional[Block], block: Block, registry: dict[PrincipalId, bytes]
) -> Optional[Violation]:
    """The rules a block must meet before anyone endorses it: it extends
    `prev` (genesis when None), its tx root recomputes, it is not empty,
    every transaction verifies against `registry` (the keys on file before
    the block), and no two transactions write the same fold entry.

    Endorsers also run the transaction rules, which need the folds; a
    quorum of endorsements certifies that they passed."""
    height = 0 if prev is None else prev.height + 1
    if block.height != height:
        return Violation(height, "height", f"expected height {height}, block says {block.height}")
    if prev is None:
        if block.prev_hash != ZERO_HASH:
            return Violation(height, "prev_hash", "genesis prev_hash must be 32 zero bytes")
    elif block.prev_hash != prev.hash:
        return Violation(height, "prev_hash", "does not match hash of previous block")
    if block.tx_root != compute_tx_root(block.transactions):
        return Violation(height, "tx_root", "root does not recompute from transactions")
    if not block.transactions:
        return Violation(height, "empty_block", "block carries no transactions")
    for pos, tx in enumerate(block.transactions):
        result = verify_tx(tx, registry)
        if not result:
            return Violation(height, "tx_signature", f"tx #{pos} ({tx.tx_id.hex()}): {result.reason}")
    if len(first_writes(block.transactions)) < len(block.transactions):
        return Violation(height, "conflict", "two transactions write the same fold entry")
    return None


def check_block(prev: Optional[Block], block: Block, registry: Registry) -> Optional[Violation]:
    """The rules a block must meet to be committed after `prev`.

    `registry` holds the keys and member organizations in force before the
    block; genesis is measured against its own registrations instead. On top
    of `check_proposal`: the proposer is a member, every listed endorsement
    comes from a distinct member and verifies (a single bad one is a
    violation even when the quorum margin would absorb it), and there are at
    least a quorum of them.
    """
    violation = check_proposal(prev, block, registry)
    if violation is not None:
        return violation
    height = block.height
    if prev is None:
        registry = Registry()
        registry.fold(block)
    members = registry.members
    if block.proposer not in members:
        return Violation(height, "proposer", f"{block.proposer} not a member organization")
    seen: set[PrincipalId] = set()
    digest = block.hash
    for org, sig in block.endorsements:
        if org not in members:
            return Violation(height, "endorsement", f"{org} not a member organization")
        if org in seen:
            return Violation(height, "endorsement", f"duplicate endorsement from {org}")
        seen.add(org)
        key = registry.get(org)
        if key is None or not crypto.verify(key, sig, digest):
            return Violation(height, "endorsement", f"signature from {org} does not verify")
    needed = quorum(len(members))
    if len(seen) < needed:
        return Violation(
            height, "quorum", f"{len(seen)} endorsements, quorum is {needed} of {len(members)}"
        )
    return None


# The valid chain prefix that `validate_chain` keeps between calls, for one
# chain: its blocks, the Registry folded from them, and, after each block,
# that registry's key count and member count.
_VALIDATED: tuple[list[Block], Registry, list[tuple[int, int]]] = ([], Registry(), [])


def validate_chain(ledger: LedgerState) -> ValidationReport:
    """Walk the chain from genesis; stop at the first block that fails
    `check_block`.

    Membership and keys are folded from the chain itself: an organization
    registered at height h counts toward the quorum denominator from height
    h+1.

    Between calls it keeps the valid prefix of one chain, with the registry
    folded from it and that registry's key and member counts after each
    block. Leading blocks that are that prefix's blocks at the same heights
    (the same objects, or equal ones) are neither checked nor folded: the
    registry before the first block that differs is the kept registry's
    first keys and members at the counts kept for the block before it. From
    that block on, every block runs `check_block`. Re-validating a chain
    with one block changed, or one that has only grown, therefore checks and
    folds only the blocks from the change or the old tip on. That is sound
    because the check at height h depends only on the values of the blocks
    up to h; blocks, transactions, payloads and principals are immutable;
    equal blocks carry equal cached `hash` and `tx_id` (decoding is strict,
    and everything else computes them from the fields); Ed25519
    verification is deterministic; and a `Registry` only ever adds keys and
    members, in fold order, which a dict and a list keep. The kept prefix is
    replaced only when a call finds valid blocks past the part it shares, so
    a chain that fails early does not discard a longer valid one.
    """
    global _VALIDATED
    blocks = ledger.blocks
    kept, folded, counts = _VALIDATED
    # Leading blocks that are the kept ones: find the non-identical ones in C
    # and compare only those by value; the sentinel marks the shorter end.
    same = [*map(is_, kept, blocks), False]
    shared = same.index(False)
    while shared < len(same) - 1 and blocks[shared] == kept[shared]:
        shared = same.index(False, shared + 1)
    registry = Registry()
    if shared:
        keys, members = counts[shared - 1]
        registry.update(islice(folded.items(), keys))
        registry.members = folded.members[:members]
    prev = blocks[shared - 1] if shared else None
    report, valid, grown = ValidationReport(True), len(blocks), []
    for height in range(shared, len(blocks)):
        block = blocks[height]
        violation = check_block(prev, block, registry)
        if violation is not None:
            report, valid = ValidationReport(False, violation), height
            break
        registry.fold(block)
        grown.append((len(registry), len(registry.members)))
        prev = block
    if valid > shared:
        _VALIDATED = (blocks[:valid], registry, counts[:shared] + grown)
    else:  # the same prefix as this chain's objects, so the next call matches it by identity
        _VALIDATED = (blocks[:shared] + kept[shared:], folded, counts)
    return report


# ---------------------------------------------------------------------------
# Audit queries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuditEntry:
    tx_id: bytes
    height: int
    position: int
    timestamp: int
    actor: PrincipalId
    actor_org: PrincipalId
    action: str
    subject: str
    detail: dict

    def to_json(self) -> str:
        row = {
            "tx_id": self.tx_id.hex(),
            "height": self.height,
            "timestamp": self.timestamp,
            "actor": str(self.actor),
            "actor_org": self.actor_org.id,
            "action": self.action,
            "subject": self.subject,
            "detail": self.detail,
        }
        return json.dumps(row, sort_keys=True, separators=(",", ":"))


def query_audit(
    ledger: LedgerState,
    subject: Optional[str] = None,
    actor: Optional[str] = None,
    action: Optional[str] = None,
    time_from: Optional[int] = None,
    time_to: Optional[int] = None,
) -> list[AuditEntry]:
    """Filtered audit entries in (height, intra-block position) order.

    The time range is inclusive on both ends. An empty filter returns one
    entry per committed transaction. A `subject` query reads only that
    subject's transactions, through the ledger's subject index.
    """
    if time_from is not None and time_to is not None and time_to < time_from:
        raise ValueError(f"time range end {time_to} before start {time_from}")
    rows = ledger.transactions() if subject is None else ledger._subject_rows(subject)
    out = []
    for height, pos, tx in rows:
        if actor is not None and tx.author.id != actor:
            continue
        if action is not None and tx.action != action:
            continue
        if time_from is not None and tx.timestamp < time_from:
            continue
        if time_to is not None and tx.timestamp > time_to:
            continue
        out.append(
            AuditEntry(
                tx_id=tx.tx_id,
                height=height,
                position=pos,
                timestamp=tx.timestamp,
                actor=tx.author,
                actor_org=tx.author_org,
                action=tx.action,
                subject=tx.payload.audit_subject(),
                detail=tx.payload.audit_detail(),
            )
        )
    return out


# ---------------------------------------------------------------------------
# Persistence: length-prefixed block records
# ---------------------------------------------------------------------------


def write_ledger(ledger: LedgerState, path: str) -> None:
    """Record layout: 8-byte BE record length, then the block's wire form
    (see `Block`). Transactions carry no length prefix; their encoding is
    self-delimiting."""
    with open(path, "wb") as fh:
        for block in ledger.blocks:
            body = _RECORD.encode(block)
            fh.write(len(body).to_bytes(8, "big") + body)


# The last successful read, of one file: its bytes, each record's end
# offset, and each record's block.
_LAST_READ: tuple[bytes, list[int], list[Block]] = (b"", [], [])


def _unchanged_run(data: bytes, last: memoryview, ends: list[int], first: int) -> int:
    """The j such that the last read's records first to j - 1 sit unchanged,
    byte for byte at the same offsets, in `data`, and its record j (if it
    has one) does not. An exponential search over record ranges: each probe
    compares only the range past the records already found unchanged, with
    one `memcmp`."""
    lo, hi, step = first, len(ends), 1
    while lo < hi:
        mid = min(lo + step, hi)
        start = ends[lo - 1] if lo else 0
        if data.startswith(last[start : ends[mid - 1]], start):
            lo, step = mid, step * 2
        else:
            hi, step = mid - 1, max(step // 2, 1)
    return lo


def read_ledger(path: str) -> LedgerState:
    """Read a ledger file written by `write_ledger`.

    Between calls it keeps its last successful read, of one file: the bytes,
    each record's end offset and each record's block. Whenever the parse
    reaches a record of that read at the record's old offset and height, it
    finds the run of records from there whose bytes are unchanged at the
    same offsets (byte comparisons, no copies or hashing) and takes their
    blocks with one list slice; it decodes only the records outside such
    runs. Re-reading a file with one byte changed, or one that has only
    grown, therefore decodes only the records that differ. That is sound
    because a byte range unchanged at the same offsets holds unchanged
    length prefixes, so its record boundaries hold; decoding is strict and
    deterministic; and blocks, transactions, payloads and principals are
    immutable: equal bytes decode to an equal value, and the cached `hash`
    and `tx_id` come from those same bytes. A read that raises leaves what
    was kept as it was."""
    global _LAST_READ
    with open(path, "rb") as fh:
        data = fh.read()
    last, last_ends, last_blocks = _LAST_READ
    blocks: list[Block] = []
    ends: list[int] = []
    pos = 0
    view = memoryview(last)
    while pos < len(data):
        height = len(blocks)
        if height < len(last_ends) and pos == (last_ends[height - 1] if height else 0):
            stop = _unchanged_run(data, view, last_ends, height)
            if stop > height:
                blocks += last_blocks[height:stop]
                ends += last_ends[height:stop]
                pos = ends[-1]
                continue
        if pos + 8 > len(data):
            raise ChainError("truncated record length")
        end = pos + 8 + int.from_bytes(data[pos : pos + 8], "big")
        if end > len(data):
            raise ChainError("truncated block record")
        try:
            block = _RECORD.decode(data, pos + 8, end)
        except EncodingError as exc:
            raise ChainError(f"unreadable block record at height {height}: {exc}") from exc
        if block.height != height:
            raise ChainError(f"record {height} carries height {block.height}")
        blocks.append(block)
        ends.append(end)
        pos = end
    if not blocks:
        raise ChainError("ledger file holds no blocks")
    _LAST_READ = (data, ends, blocks)
    return LedgerState(blocks[:])  # a copy: the caller's state may grow, the kept one may not

"""Canonical encoding primitives: determinism, locality, bounds."""

import hashlib
import random
from dataclasses import dataclass
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from careledger.codec import BOOL, U8, U32, U64, Codec, Enumerated, Opt, Pair, Raw, Seq, Str, Struct, wire
from careledger.errors import EncodingError
from careledger.ledger import (
    AccessCompleted,
    Category,
    ConsentInvited,
    ConsentSigned,
    ConsentWithdrawn,
    CreatePlan,
    DataRequestRecorded,
    EmergencyAccess,
    GrantAccess,
    Kind,
    PrincipalId,
    ProfilePublished,
    QuizAttemptRecorded,
    RegisterPrincipal,
    RegisterStudy,
    RevokeAccess,
    Transaction,
    canonical_encode,
    decode_transaction,
)


def test_empty_string_encodes_as_length_prefix_only():
    assert Str().encode("") == b"\x00\x00\x00\x00"


def test_string_round_trip_unicode():
    data = Str().encode("blood pressure élevated")
    assert Str().decode(data) == "blood pressure élevated"


def test_string_over_bound_rejected():
    with pytest.raises(EncodingError, match="string exceeds 64 byte bound"):
        Str(64).encode("x" * 65)
    with pytest.raises(EncodingError, match="string exceeds 64 byte bound"):
        Str(64).decode(Str(65).encode("x" * 65))


def test_integer_widths_and_bounds():
    data = BOOL.encode(True) + U32.encode(2**32 - 1) + U64.encode(2**64 - 1)
    assert data == b"\x01" + b"\xff" * 12
    assert Pair(BOOL, Pair(U32, U64)).decode(data) == (True, (2**32 - 1, 2**64 - 1))
    with pytest.raises(EncodingError, match="invalid boolean byte 2"):
        BOOL.decode(b"\x02")
    with pytest.raises(EncodingError):
        U8.encode(256)
    with pytest.raises(EncodingError):
        U32.encode(2**32)
    with pytest.raises(EncodingError):
        U64.encode(-1)


def test_write_side_range_and_bound_errors():
    with pytest.raises(EncodingError, match="^u8 out of range: 256$"):
        U8.encode(256)
    with pytest.raises(EncodingError, match="^u32 out of range: 4294967296$"):
        U32.encode(2**32)
    with pytest.raises(EncodingError, match="^u64 out of range: -1$"):
        U64.encode(-1)
    with pytest.raises(EncodingError, match="^expected 32 raw bytes, got 31$"):
        Raw(32).encode(bytes(31))
    with pytest.raises(EncodingError, match="^string exceeds 64 byte bound$"):
        Str(64).encode("é" * 33)  # 33 characters, 66 UTF-8 bytes


def test_primitive_encodings_at_their_edges():
    assert U8.encode(0) == b"\x00"
    assert U8.encode(255) == b"\xff"
    assert U32.encode(0) == bytes(4)
    assert U32.encode(2**32 - 1) == b"\xff" * 4
    assert U32.encode(0x01020304) == b"\x01\x02\x03\x04"
    assert U64.encode(0) == bytes(8)
    assert U64.encode(2**64 - 1) == b"\xff" * 8
    assert U64.encode(0x0102030405060708) == bytes(range(1, 9))
    assert BOOL.encode(False) == b"\x00"
    assert BOOL.encode(True) == b"\x01"
    assert Raw(0).encode(b"") == b""
    assert Raw(3).encode(b"\x00\x7f\xff") == b"\x00\x7f\xff"
    assert Str(64).encode("x" * 64) == b"\x00\x00\x00\x40" + b"x" * 64
    assert Str(5).encode("é€") == b"\x00\x00\x00\x05" + "é€".encode("utf-8")
    assert Enumerated(Kind).encode(Kind.ORGANIZATION) == b"\x00"
    assert Enumerated(Kind).encode(list(Kind)[-1]) == bytes([len(Kind) - 1])
    assert Opt(U8).encode(None) == b"\x00"
    assert Opt(U8).encode(0) == b"\x01\x00"
    assert Seq(U8).encode(()) == bytes(4)
    assert Seq(U8).encode((1, 255)) == b"\x00\x00\x00\x02\x01\xff"


def test_reader_truncation_detected():
    with pytest.raises(EncodingError, match="input truncated"):
        U32.decode(b"\x00\x00")


def test_fixed_width_fields_fail_in_field_order_when_cut_short():
    # A run of fixed-width fields is read at once, but a bad flag that fits
    # before the cut is still reported ahead of the truncation after it.
    @dataclass(frozen=True)
    class Flags:
        first: bool = wire(BOOL)
        count: int = wire(U32)
        last: bool = wire(BOOL)

    codec = Struct(Flags)
    assert codec.decode(b"\x01\x00\x00\x00\x02\x00") == Flags(True, 2, False)
    with pytest.raises(EncodingError, match="invalid boolean byte 7"):
        codec.decode(b"\x07\x00\x00")
    with pytest.raises(EncodingError, match="input truncated"):
        codec.decode(b"\x01\x00\x00\x00\x00")


def test_trailing_bytes_detected():
    with pytest.raises(EncodingError, match="1 trailing bytes after value"):
        BOOL.decode(b"\x01\x02")


def test_a_codec_without_a_compiled_reader_fails_its_record_declaration():
    class Opaque(Codec):
        def write(self, out, value):
            U8.write(out, value)

    @dataclass(frozen=True)
    class Record:
        count: int = wire(U32)
        flag: int = wire(Opaque())

    with pytest.raises(TypeError, match="Opaque has no compiled reader"):
        Struct(Record)


def _tx(timestamp: int) -> Transaction:
    return Transaction(
        timestamp,
        PrincipalId(Kind.PRACTITIONER, "nurse1"),
        PrincipalId(Kind.ORGANIZATION, "homecare"),
        DataRequestRecorded(
            PrincipalId(Kind.PRACTITIONER, "nurse1"),
            PrincipalId(Kind.ORGANIZATION, "homecare"),
            PrincipalId(Kind.ORGANIZATION, "hospital"),
            PrincipalId(Kind.PATIENT, "p001"),
            Category.VITALS,
            False,
        ),
    )


def test_timestamp_difference_is_local_to_timestamp_bytes():
    a = canonical_encode(_tx(1000))
    b = canonical_encode(_tx(1001))
    assert len(a) == len(b)
    # The timestamp is the first u64; everything after it is identical.
    assert a[:8] != b[:8]
    assert a[8:] == b[8:]


def test_decoded_principals_are_checked_every_time():
    # Decoding goes through the intern table; a bad kind code or id is
    # still refused, on every attempt, after a good one was decoded.
    good = canonical_encode(_tx(1000))
    first, second = decode_transaction(good), decode_transaction(good)
    assert first.author == PrincipalId(Kind.PRACTITIONER, "nurse1")
    assert second.author is first.author
    bad_kind = good[:8] + bytes([len(Kind)]) + good[9:]
    bad_id = good[:13] + b"nurse\x01" + good[19:]
    for data in (bad_kind, bad_id, bad_kind, bad_id):
        with pytest.raises(EncodingError):
            decode_transaction(data)


_PRINTABLE_ID = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E), min_size=1, max_size=6)


@given(st.lists(st.tuples(st.sampled_from(Kind), _PRINTABLE_ID)))
@settings(max_examples=200, deadline=None)
def test_principals_sort_by_kind_value_then_id(pairs):
    principals = [PrincipalId(kind, id) for kind, id in pairs]
    assert sorted(principals) == sorted(principals, key=lambda p: (p.kind.value, p.id))


def _principal(rng: random.Random, kind: Optional[Kind] = None) -> PrincipalId:
    # Mixed kinds matter: a principal set sorts by the kind's value, which
    # is not the order of the kind codes on the wire.
    return PrincipalId(kind or rng.choice(list(Kind)), f"id{rng.randrange(30)}")


def _digest(rng: random.Random, width: int = 32) -> bytes:
    return rng.getrandbits(8 * width).to_bytes(width, "big")


def _some(rng: random.Random, make) -> list:
    """0, 1 or several results of make() (duplicates allowed: sets collapse them)."""
    return [make() for _ in range(rng.choice([0, 1, rng.randint(2, 6)]))]


def _random_payload(rng: random.Random, kind: Optional[int] = None):
    study = f"study{rng.randrange(20)}"
    kind = rng.randrange(13) if kind is None else kind
    if kind == 0:
        return RegisterPrincipal(
            _principal(rng),
            _digest(rng),
            _principal(rng, Kind.ORGANIZATION) if rng.random() < 0.5 else None,
            _digest(rng) if rng.random() < 0.5 else None,
        )
    if kind == 1:
        return CreatePlan(
            f"plan{rng.randrange(100)}",
            _principal(rng, Kind.PATIENT),
            frozenset(_some(rng, lambda: _principal(rng))),
            frozenset(_some(rng, lambda: (_principal(rng), _principal(rng)))),
        )
    if kind == 2:
        start = rng.randrange(10**6)
        return GrantAccess(
            f"g{rng.randrange(10**4)}",
            f"plan{rng.randrange(100)}",
            _principal(rng, Kind.PATIENT),
            _principal(rng, Kind.PRACTITIONER),
            frozenset(_some(rng, lambda: rng.choice(list(Category)))),
            start,
            start + 1 + rng.randrange(10**6),
        )
    if kind == 3:
        return RevokeAccess(f"g{rng.randrange(10**4)}", _principal(rng, Kind.PATIENT))
    if kind == 4:
        return DataRequestRecorded(
            _principal(rng, Kind.PRACTITIONER),
            _principal(rng, Kind.ORGANIZATION),
            _principal(rng, Kind.ORGANIZATION),
            _principal(rng, Kind.PATIENT),
            rng.choice(list(Category)),
            rng.random() < 0.2,
        )
    if kind == 5:
        return AccessCompleted(
            _digest(rng),
            _principal(rng, Kind.PATIENT),
            rng.choice(["allow", "deny", "allow_emergency"]),
            rng.choice(["ok", "no_grant", "outside_window"]),
            rng.randrange(2**32),
        )
    if kind == 6:
        return EmergencyAccess(
            _digest(rng), _principal(rng), _principal(rng, Kind.PATIENT), rng.choice(list(Category))
        )
    if kind == 7:
        researchers = tuple(_some(rng, lambda: _principal(rng, Kind.RESEARCHER)))
        return RegisterStudy(study, _digest(rng), researchers, rng.randrange(1, 40))
    if kind == 8:
        return ConsentInvited(study, _principal(rng, Kind.PARTICIPANT))
    if kind == 9:
        return QuizAttemptRecorded(
            study, _principal(rng, Kind.PARTICIPANT), rng.randrange(1, 9), rng.randrange(6), rng.random() < 0.4
        )
    if kind == 10:
        return ConsentSigned(
            study, _principal(rng, Kind.PARTICIPANT), _digest(rng), _digest(rng), _digest(rng, 64)
        )
    if kind == 11:
        return ConsentWithdrawn(study, _principal(rng, Kind.PARTICIPANT))
    return ProfilePublished(
        _principal(rng, Kind.PARTICIPANT),
        frozenset(_some(rng, lambda: _digest(rng))),
        rng.random() < 0.5,
        frozenset(_some(rng, lambda: (f"study{rng.randrange(5)}", rng.random() < 0.5))),
    )


def _random_tx(rng: random.Random, kind: Optional[int] = None) -> Transaction:
    return Transaction(
        rng.randrange(2**40), _principal(rng), _principal(rng, Kind.ORGANIZATION), _random_payload(rng, kind)
    )


def test_encoding_is_repeatable_over_random_transactions():
    rng = random.Random(2024)
    for _ in range(1000):
        tx = _random_tx(rng)
        first = canonical_encode(tx)
        assert canonical_encode(tx) == first
        rebuilt = Transaction(tx.timestamp, tx.author, tx.author_org, tx.payload)
        assert canonical_encode(rebuilt) == first


def test_decode_inverts_encode_over_random_transactions():
    rng = random.Random(99)
    actions = set()
    for _ in range(300):
        tx = _random_tx(rng)
        encoding = canonical_encode(tx)
        decoded = decode_transaction(encoding)
        assert decoded.timestamp == tx.timestamp
        assert decoded.author == tx.author
        assert decoded.author_org == tx.author_org
        assert decoded.payload == tx.payload
        assert canonical_encode(decoded) == encoding
        assert decoded.tx_id == hashlib.sha256(encoding).digest()
        actions.add(decoded.action)
    assert len(actions) == 13


@settings(max_examples=400)
@given(st.integers(0, 12), st.integers(0, 2**32), st.sampled_from(["flip", "insert", "remove"]), st.data())
def test_mutated_wire_bytes_decode_only_to_their_one_valid_form(kind, seed, mutation, data):
    # Decoding either refuses the bytes or returns the one value whose
    # canonical encoding is exactly those bytes.
    encoding = canonical_encode(_random_tx(random.Random(seed), kind))
    at = data.draw(st.integers(0, len(encoding) - 1))
    if mutation == "flip":
        changed = bytes([encoding[at] ^ data.draw(st.integers(1, 255))])
        mutated = encoding[:at] + changed + encoding[at + 1 :]
    elif mutation == "insert":
        mutated = encoding[:at] + bytes([data.draw(st.integers(0, 255))]) + encoding[at:]
    else:
        mutated = encoding[:at] + encoding[at + 1 :]
    try:
        decoded = decode_transaction(mutated)
    except EncodingError:
        return
    assert canonical_encode(decoded) == mutated


def test_principal_id_bounds():
    with pytest.raises(EncodingError):
        PrincipalId(Kind.PATIENT, "")
    with pytest.raises(EncodingError):
        PrincipalId(Kind.PATIENT, "x" * 65)
    with pytest.raises(EncodingError):
        PrincipalId(Kind.PATIENT, "café")  # non-ASCII


@given(st.integers(min_value=0, max_value=2**64 - 1), st.text(max_size=40))
def test_u64_and_string_round_trip(n, text):
    codec = Pair(U64, Str(4096))
    assert codec.decode(codec.encode((n, text))) == (n, text)

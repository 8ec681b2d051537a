"""Canonical encoding primitives: determinism, locality, bounds."""

import hashlib
import random
from typing import Optional

import pytest
from hypothesis import given, strategies as st

from careledger.codec import Reader, Writer
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
    w = Writer()
    w.string("")
    assert w.getvalue() == b"\x00\x00\x00\x00"


def test_string_round_trip_unicode():
    w = Writer()
    w.string("blood pressure élevated")
    r = Reader(w.getvalue())
    assert r.string() == "blood pressure élevated"
    r.expect_end()


def test_string_over_bound_rejected():
    w = Writer()
    with pytest.raises(EncodingError):
        w.string("x" * 65, bound=64)


def test_integer_widths_and_bounds():
    w = Writer()
    w.u8(255)
    w.u32(2**32 - 1)
    w.u64(2**64 - 1)
    r = Reader(w.getvalue())
    assert (r.u8(), r.u32(), r.u64()) == (255, 2**32 - 1, 2**64 - 1)
    with pytest.raises(EncodingError):
        Writer().u8(256)
    with pytest.raises(EncodingError):
        Writer().u64(-1)


def test_reader_truncation_detected():
    r = Reader(b"\x00\x00")
    with pytest.raises(EncodingError):
        r.u32()


def test_trailing_bytes_detected():
    r = Reader(b"\x01\x02")
    r.u8()
    with pytest.raises(EncodingError):
        r.expect_end()


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
    # Decoding caches principals by their bytes; a bad kind code or id is
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


def _principal(rng: random.Random, kind: Optional[Kind] = None) -> PrincipalId:
    # Mixed kinds matter: a principal set sorts by the kind's value, which
    # is not the order of the kind codes on the wire.
    return PrincipalId(kind or rng.choice(list(Kind)), f"id{rng.randrange(30)}")


def _digest(rng: random.Random, width: int = 32) -> bytes:
    return rng.getrandbits(8 * width).to_bytes(width, "big")


def _some(rng: random.Random, make) -> list:
    """0, 1 or several results of make() (duplicates allowed: sets collapse them)."""
    return [make() for _ in range(rng.choice([0, 1, rng.randint(2, 6)]))]


def _random_payload(rng: random.Random):
    study = f"study{rng.randrange(20)}"
    kind = rng.randrange(13)
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


def _random_tx(rng: random.Random) -> Transaction:
    return Transaction(
        rng.randrange(2**40), _principal(rng), _principal(rng, Kind.ORGANIZATION), _random_payload(rng)
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


def test_principal_id_bounds():
    with pytest.raises(EncodingError):
        PrincipalId(Kind.PATIENT, "")
    with pytest.raises(EncodingError):
        PrincipalId(Kind.PATIENT, "x" * 65)
    with pytest.raises(EncodingError):
        PrincipalId(Kind.PATIENT, "café")  # non-ASCII


@given(st.integers(min_value=0, max_value=2**64 - 1), st.text(max_size=40))
def test_u64_and_string_round_trip(n, text):
    w = Writer()
    w.u64(n)
    w.string(text, bound=4096)
    r = Reader(w.getvalue())
    assert r.u64() == n
    assert r.string(bound=4096) == text
    r.expect_end()

"""Ed25519 key derivation, signing and strict verification."""

import ctypes
import ctypes.util
import importlib.util
import os
import random
import sys
import threading
from dataclasses import replace

import pytest
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey, Ed25519PublicKey

from careledger import crypto
from careledger.ledger import Category, DataRequestRecorded, Kind, PrincipalId, Transaction, verify_tx

# RFC 8032 section 7.1: (seed, public key, message, signature).
RFC8032_TEST1 = (
    "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
    "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a",
    "",
    "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e065224901555fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b",
)
RFC8032_TEST2 = (
    "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
    "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c",
    "72",
    "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00",
)

# The order of the Ed25519 base point.
L = 2**252 + 27742317777372353535851937790883648493

# The identity point (0, 1) encoded as a public key, and the signature
# R = identity, S = 0. [S]B = R + [k]A holds for every message k, so a key of
# small order lets anyone sign anything.
IDENTITY_KEY = bytes([1]) + bytes(31)
IDENTITY_FORGERY = bytes([1]) + bytes(63)
MESSAGES = (b"", b"any message", bytes(32), b"\xff" * 100)


class _Seeds:
    """A fixed `random.Random` stand-in whose 256 random bits are `seed`."""

    def __init__(self, seed: bytes) -> None:
        self.seed = seed

    def getrandbits(self, k: int) -> int:
        assert k == 256
        return int.from_bytes(self.seed, "big")


def _oracle_verify(public: bytes, signature: bytes, message: bytes) -> bool:
    try:
        Ed25519PublicKey.from_public_bytes(public).verify(signature, message)
    except (InvalidSignature, ValueError):
        return False
    return True


def _flip(data: bytes, bit: int) -> bytes:
    out = bytearray(data)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


@pytest.fixture
def foreign_verifies(monkeypatch):
    calls = []
    foreign = crypto._verify_detached

    def counted(*args):
        calls.append(args)
        return foreign(*args)

    monkeypatch.setattr(crypto, "_verify_detached", counted)
    return calls


class TestLoading:
    def test_missing_libsodium_is_an_import_error_naming_it(self, monkeypatch):
        def no_library(name, *args, **kwargs):
            raise OSError(f"{name}: cannot open shared object file")

        monkeypatch.setattr(ctypes, "CDLL", no_library)
        monkeypatch.setattr(ctypes.util, "find_library", lambda name: None)
        spec = importlib.util.spec_from_file_location("crypto_without_sodium", crypto.__file__)
        with pytest.raises(ImportError, match="libsodium"):
            spec.loader.exec_module(importlib.util.module_from_spec(spec))


class TestRfc8032:
    @pytest.mark.parametrize("vector", [RFC8032_TEST1, RFC8032_TEST2], ids=["test1", "test2"])
    def test_vector(self, vector, monkeypatch):
        seed, public, message, signature = map(bytes.fromhex, vector)
        assert crypto.generate_keypair(_Seeds(seed)) == (seed, public)
        assert crypto.sign(seed, message) == signature
        monkeypatch.setattr(crypto, "_verify_memo", {})
        assert crypto.verify(public, signature, message)
        assert crypto._verify_detached(signature, message, len(message), public) == 0


class TestAgainstOracle:
    def test_keys_signatures_and_verdicts_match_cryptography(self, monkeypatch):
        rng = random.Random(8032)
        for _ in range(200):
            private, public = crypto.generate_keypair(rng)
            message = rng.randbytes(rng.randrange(301))
            oracle = Ed25519PrivateKey.from_private_bytes(private)
            assert public == oracle.public_key().public_bytes_raw()
            signature = crypto.sign(private, message)
            assert signature == oracle.sign(message)
            monkeypatch.setattr(crypto, "_verify_memo", {})
            assert crypto.verify(public, signature, message)
            assert crypto._verify_detached(signature, message, len(message), public) == 0
            cases = [
                (_flip(public, rng.randrange(8 * crypto.KEY_LEN)), signature, message),
                (public, _flip(signature, rng.randrange(8 * crypto.SIGNATURE_LEN)), message),
                (public, signature, _flip(message, rng.randrange(8 * len(message))) if message else b"\x00"),
            ]
            for case in cases:
                assert crypto.verify(*case) == _oracle_verify(*case), case


class TestSigningSeedsTheMemo:
    """`sign` records its own verdict; every other input still reaches libsodium."""

    def test_sign_adds_exactly_its_own_verdict(self):
        seed, public, message, signature = map(bytes.fromhex, RFC8032_TEST2)
        assert crypto.sign(seed, message) == signature
        assert crypto._verify_memo == {(public, signature, message): True}

    def test_own_signature_verifies_without_a_foreign_call(self, foreign_verifies):
        seed, public, message, signature = map(bytes.fromhex, RFC8032_TEST2)
        crypto.sign(seed, message)
        assert crypto.verify(public, signature, message)
        assert foreign_verifies == []

    def test_any_other_input_reaches_libsodium(self, foreign_verifies):
        seed, public, message, signature = map(bytes.fromhex, RFC8032_TEST2)
        other_public = crypto.generate_keypair(random.Random(1))[1]
        crypto.sign(seed, message)
        cases = [
            (other_public, signature, message),
            (public, _flip(signature, 300), message),
            (public, signature, _flip(message, 3)),
        ]
        for case in cases:
            assert not crypto.verify(*case), case
        assert len(foreign_verifies) == len(cases)

    def test_seeding_keeps_the_memo_limit(self, monkeypatch):
        monkeypatch.setattr(crypto, "_VERIFY_MEMO_LIMIT", 3)
        rng = random.Random(19)
        private, _ = crypto.generate_keypair(rng)
        for n in range(10):
            crypto.sign(private, n.to_bytes(4, "big"))
            assert 1 <= len(crypto._verify_memo) <= 3

    @pytest.mark.parametrize("r, seeded", [(IDENTITY_KEY, False), (_flip(IDENTITY_KEY, 1), True)],
                             ids=["identity", "other"])
    def test_a_signature_whose_r_is_the_identity_is_not_seeded(self, monkeypatch, r, seeded):
        made = r + (5).to_bytes(32, "little")

        def fake_sign(out, _length, _message, _message_len, _secret):
            out.raw = made
            return 0

        monkeypatch.setattr(crypto, "_sign_detached", fake_sign)
        seed, public, message, _ = map(bytes.fromhex, RFC8032_TEST1)
        assert crypto.sign(seed, message) == made
        assert ((public, made, message) in crypto._verify_memo) is seeded


class TestStrictVerification:
    def test_non_canonical_s_is_rejected(self):
        seed, public, message, signature = map(bytes.fromhex, RFC8032_TEST2)
        s = int.from_bytes(signature[32:], "little")
        malleated = signature[:32] + (s + L).to_bytes(32, "little")
        assert not crypto.verify(public, malleated, message)

    @pytest.mark.parametrize("key_len", [31, 33])
    def test_key_of_wrong_length_is_false(self, key_len):
        seed, public, message, signature = map(bytes.fromhex, RFC8032_TEST1)
        assert not crypto.verify((public + b"\x00")[:key_len], signature, message)

    @pytest.mark.parametrize("sig_len", [63, 65])
    def test_signature_of_wrong_length_is_false(self, sig_len):
        seed, public, message, signature = map(bytes.fromhex, RFC8032_TEST1)
        assert not crypto.verify(public, (signature + b"\x00")[:sig_len], message)

    def test_small_order_key_does_not_verify_a_forgery(self):
        for message in MESSAGES:
            assert not crypto.verify(IDENTITY_KEY, IDENTITY_FORGERY, message), message

    def test_transaction_by_a_small_order_key_does_not_verify(self):
        nurse = PrincipalId(Kind.PRACTITIONER, "nurse1")
        homecare = PrincipalId(Kind.ORGANIZATION, "homecare")
        payload = DataRequestRecorded(
            nurse, homecare, PrincipalId(Kind.ORGANIZATION, "hospital"),
            PrincipalId(Kind.PATIENT, "p001"), Category.VITALS, False,
        )
        tx = replace(Transaction(1000, nurse, homecare, payload), signature=IDENTITY_FORGERY)
        result = verify_tx(tx, {nurse: IDENTITY_KEY})
        assert not result
        assert result.reason == "bad_signature"


def _strict_cases() -> list[tuple[bytes, bytes, bytes]]:
    """`TestStrictVerification`'s inputs, each beside the valid triple it is made from."""
    _, public1, message1, signature1 = map(bytes.fromhex, RFC8032_TEST1)
    _, public2, message2, signature2 = map(bytes.fromhex, RFC8032_TEST2)
    s = int.from_bytes(signature2[32:], "little")
    return [
        (public1, signature1, message1),
        (public2, signature2, message2),
        (public2, signature2[:32] + (s + L).to_bytes(32, "little"), message2),
        *[((public1 + b"\x00")[:n], signature1, message1) for n in (31, 33)],
        *[(public1, (signature1 + b"\x00")[:n], message1) for n in (63, 65)],
        *[(IDENTITY_KEY, IDENTITY_FORGERY, message) for message in MESSAGES],
        (public2, signature2, _flip(message2, 3)),
    ]


def _signed(count: int) -> list[tuple[bytes, bytes, bytes]]:
    rng = random.Random(count)
    private, public = crypto.generate_keypair(rng)
    return [(public, crypto.sign(private, n.to_bytes(4, "big")), n.to_bytes(4, "big")) for n in range(count)]


class TestVerifyMany:
    @pytest.fixture
    def started(self, monkeypatch) -> list:
        """The threads started from here on."""
        started, start = [], threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread) or start(thread))
        return started

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_verdicts_are_verifys(self, monkeypatch, cpus):
        cases = _strict_cases()
        monkeypatch.setattr(crypto, "_verify_memo", {})
        expected = [crypto.verify(*case) for case in cases]
        assert expected.count(True) == 2
        monkeypatch.setattr(crypto, "_verify_memo", {})
        monkeypatch.setattr(crypto, "_cpu_count", lambda: cpus)
        monkeypatch.setattr(crypto, "_SHARE_MIN", 1)
        assert crypto.verify_many(cases) == expected
        assert crypto._verify_memo == dict(zip(cases, expected))

    def test_each_unknown_triple_reaches_libsodium_once(self, monkeypatch, foreign_verifies):
        monkeypatch.setattr(crypto, "_cpu_count", lambda: 2)
        monkeypatch.setattr(crypto, "_SHARE_MIN", 1)
        signed = _signed(6)  # signing seeds the memo with these six
        forged = [(public, _flip(signature, 300), message) for public, signature, message in signed]
        assert crypto.verify_many(signed + forged + forged) == [True] * 6 + [False] * 12
        assert sorted(foreign_verifies) == sorted((sig, message, len(message), public) for public, sig, message in forged)

    def test_keeps_the_memo_limit(self, monkeypatch):
        monkeypatch.setattr(crypto, "_VERIFY_MEMO_LIMIT", 3)
        monkeypatch.setattr(crypto, "_cpu_count", lambda: 2)
        monkeypatch.setattr(crypto, "_SHARE_MIN", 1)
        signed = _signed(10)
        monkeypatch.setattr(crypto, "_verify_memo", {})
        assert crypto.verify_many(signed) == [True] * 10
        assert 1 <= len(crypto._verify_memo) <= 3

    @pytest.mark.parametrize("cpus, count, threads", [(1, 100, 0), (4, 15, 0), (4, 16, 1), (4, 100, 3), (64, 40, 4)])
    def test_threads_started(self, monkeypatch, started, cpus, count, threads):
        """One thread for each share but the caller's, each share of at least `_SHARE_MIN` triples."""
        assert crypto._SHARE_MIN == 8
        monkeypatch.setattr(crypto, "_cpu_count", lambda: cpus)
        signed = _signed(count)
        monkeypatch.setattr(crypto, "_verify_memo", {})
        before = threading.active_count()
        assert crypto.verify_many(signed) == [True] * count
        assert len(started) == threads
        assert threading.active_count() == before
        assert not any(thread.is_alive() for thread in started)

    def test_more_threads_than_cpus_with_a_short_switch_interval(self, monkeypatch):
        monkeypatch.setattr(crypto, "_cpu_count", lambda: 8)
        monkeypatch.setattr(crypto, "_SHARE_MIN", 1)
        signed = _signed(40)
        cases = signed + [(public, _flip(signature, 300), message) for public, signature, message in signed]
        expected = [True] * 40 + [False] * 40
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                monkeypatch.setattr(crypto, "_verify_memo", {})
                assert crypto.verify_many(cases) == expected
                assert crypto._verify_memo == dict(zip(cases, expected))
        finally:
            sys.setswitchinterval(interval)

    def test_cpu_count_is_the_affinity_or_the_machine_count(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert crypto._cpu_count() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert crypto._cpu_count() == 3

    def test_memo_hits_start_no_thread(self, monkeypatch, started):
        monkeypatch.setattr(crypto, "_cpu_count", lambda: 4)
        assert crypto.verify_many(_signed(100)) == [True] * 100
        assert started == []

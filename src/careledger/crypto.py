"""Hashing, Ed25519 signing, and salted identity commitments.

Ed25519 goes through libsodium, called with `ctypes`; importing this module
raises ImportError when libsodium cannot be loaded. RFC 8032 signing is
deterministic, so keys and signatures are the bytes any conforming library
gives. Verification is strict: S must be canonical, and neither the public
key nor R may be a point of small order, so no one can forge signatures for
a key such as the identity point.

Keys are carried everywhere as raw 32-byte strings so that simulation state
stays plain data (copyable, hashable). A private key is the 32-byte seed;
libsodium's 64-byte secret key (seed, then public key) is memoized per seed.
Verification results are memoized by the exact (public key, signature,
message) bytes, which is sound because the verdict is a function of those
bytes alone and any tampering changes the memo key. `sign` and `verify` take
`bytes`; libsodium reads fixed-width buffers, so lengths are checked first.

`sign` seeds the memo with the verdict it makes certain: (public key,
signature, message) -> True, so a process does not verify its own signatures
again. Ed25519 correctness makes an honest signature verify, and libsodium's
strict rules refuse none: S comes out reduced mod L, and a clamped seed gives
a key in the prime-order subgroup. The one exception, R equal to the identity
encoding (probability about 2**-252), is not seeded. The public half comes
from the seed's cached secret key, which only `crypto_sign_seed_keypair`
fills, so it matches the seed. A forged or tampered input is a different memo
key and still reaches libsodium, and a fresh process verifies every signature
it reads through libsodium.

`verify_many` verifies a batch across the CPUs the process may run on:
libsodium runs with the GIL released, so one thread per CPU checks its share
at once. `validate_chain` hands it the signatures of the blocks it is about
to check, so a fresh process verifies a ledger's signatures in parallel. A
verdict depends only on the bytes, so it is the one `verify` gives, and the
reports built on it do not change.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import hashlib
import os
import random
import threading

SALT_LEN = 16
SIGNATURE_LEN = 64
KEY_LEN = 32


def _open_sodium() -> ctypes.CDLL:
    # On Linux, find_library runs ldconfig, so the sonames of libsodium 1.0.x go first.
    for soname in ("libsodium.so.23", "libsodium.so.26"):
        try:
            return ctypes.CDLL(soname)
        except OSError:
            pass
    path = ctypes.util.find_library("sodium")
    if path is None:
        raise ImportError("careledger needs libsodium for Ed25519 (apt install libsodium23, or brew install libsodium)")
    return ctypes.CDLL(path)


def _foreign(name: str, *argtypes):
    function = getattr(_sodium, name)
    function.argtypes = argtypes
    function.restype = ctypes.c_int
    return function


_sodium = _open_sodium()
if _foreign("sodium_init")() < 0:
    raise ImportError("libsodium failed to initialise")
_BUF = ctypes.c_char_p
_LEN = ctypes.c_ulonglong
# (public key out, secret key out, seed)
_seed_keypair = _foreign("crypto_sign_seed_keypair", _BUF, _BUF, _BUF)
# (signature out, signature length out or NULL, message, message length, secret key)
_sign_detached = _foreign("crypto_sign_detached", _BUF, ctypes.c_void_p, _BUF, _LEN, _BUF)
# (signature, message, message length, public key) -> 0 when valid
_verify_detached = _foreign("crypto_sign_verify_detached", _BUF, _BUF, _LEN, _BUF)

_signer_cache: dict[bytes, bytes] = {}
_verify_memo: dict[tuple[bytes, bytes, bytes], bool] = {}
_VERIFY_MEMO_LIMIT = 250_000
# `verify_many` gives each thread at least this many triples; a smaller batch
# is verified inline.
_SHARE_MIN = 8
# The identity point (0, 1) as an encoded R.
_IDENTITY_R = bytes([1]) + bytes(KEY_LEN - 1)


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def _secret_key(seed: bytes) -> bytes:
    """libsodium's 64-byte secret key for `seed`: the seed, then the public key."""
    secret = _signer_cache.get(seed)
    if secret is None:
        if len(seed) != KEY_LEN:
            raise ValueError(f"an Ed25519 private key is {KEY_LEN} bytes, not {len(seed)}")
        public_out = ctypes.create_string_buffer(KEY_LEN)
        secret_out = ctypes.create_string_buffer(2 * KEY_LEN)
        if _seed_keypair(public_out, secret_out, seed) != 0:
            raise RuntimeError("crypto_sign_seed_keypair failed")
        secret = _signer_cache[seed] = secret_out.raw
    return secret


def generate_keypair(rng: random.Random) -> tuple[bytes, bytes]:
    """Derive an Ed25519 keypair from the seeded generator. Returns (private, public)."""
    seed = rng.getrandbits(256).to_bytes(32, "big")
    return seed, _secret_key(seed)[KEY_LEN:]


def sign(private: bytes, message: bytes) -> bytes:
    secret = _secret_key(private)
    out = ctypes.create_string_buffer(SIGNATURE_LEN)
    if _sign_detached(out, None, message, len(message), secret) != 0:
        raise RuntimeError("crypto_sign_detached failed")
    signature = out.raw
    # Strict verification refuses an honest signature only when R is the identity.
    if signature[:KEY_LEN] != _IDENTITY_R:
        _remember((secret[KEY_LEN:], signature, message), True)
    return signature


def _remember(memo_key: tuple[bytes, bytes, bytes], ok: bool) -> None:
    if len(_verify_memo) >= _VERIFY_MEMO_LIMIT:
        _verify_memo.clear()
    _verify_memo[memo_key] = ok


def _verdict(public: bytes, signature: bytes, message: bytes) -> bool:
    """libsodium's strict verdict, unmemoized; False for a wrong-length key or signature."""
    if len(public) != KEY_LEN or len(signature) != SIGNATURE_LEN:
        return False
    return _verify_detached(signature, message, len(message), public) == 0


def verify(public: bytes, signature: bytes, message: bytes) -> bool:
    memo_key = (public, signature, message)
    cached = _verify_memo.get(memo_key)
    if cached is not None:
        return cached
    ok = _verdict(public, signature, message)
    _remember(memo_key, ok)
    return ok


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def verify_many(triples: list[tuple[bytes, bytes, bytes]]) -> list[bool]:
    """`verify`'s verdict on each (public key, signature, message) triple, in order.

    The distinct triples not yet in the memo are split into one share per
    CPU the process may run on, each of at least `_SHARE_MIN` triples: the
    calling thread verifies the first share and one thread each verifies
    the others. Every thread is joined before this returns, and only the
    calling thread writes the memo.
    """
    verdicts = {t: _verify_memo.get(t) for t in triples}
    todo = [t for t, ok in verdicts.items() if ok is None]
    n = min(_cpu_count(), len(todo) // _SHARE_MIN) or 1
    shares = [todo[i::n] for i in range(n)]
    results: list = [None] * n  # a share whose thread raised stays None and fails the merge

    def run(i: int) -> None:
        results[i] = [_verdict(*t) for t in shares[i]]

    threads = [threading.Thread(target=run, args=(i,)) for i in range(1, n)]
    for thread in threads:
        thread.start()
    run(0)
    for thread in threads:
        thread.join()
    for share, oks in zip(shares, results):
        for t, ok in zip(share, oks):
            verdicts[t] = ok
            _remember(t, ok)
    return [verdicts[t] for t in triples]


def new_salt(rng: random.Random) -> bytes:
    return rng.getrandbits(8 * SALT_LEN).to_bytes(SALT_LEN, "big")


def commitment(salt: bytes, identifier: str) -> bytes:
    """Salted binding of an off-chain identifier: SHA-256(salt || UTF-8 identifier)."""
    return sha256(salt + identifier.encode("utf-8"))

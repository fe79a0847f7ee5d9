"""Toy-but-real cryptographic primitives for the simulated TLS layer.

This is *not* production cryptography -- key sizes are deliberately tiny
so that handshakes are fast inside tests -- but the algorithms are real:
Miller-Rabin primality testing, textbook RSA key generation and
signatures, and a SHAKE-128 stream cipher with an HMAC-SHA-256
integrity tag.
Using real asymmetric primitives (instead of pretending) is what lets the
man-in-the-middle proxy in :mod:`repro.net.proxy` work exactly the way
mitmproxy does in the paper: it succeeds if and only if the victim trusts
the proxy's CA and does not pin the upstream key.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
import random
from dataclasses import dataclass
from typing import Optional, Tuple

_MR_ROUNDS = 24

#: Entries each module-level memo below keeps.  One seed-2019 honey run
#: followed by a wild run leaves at most 1,319 in any of them, so no
#: pipeline run recomputes a value; a long-lived process stays bounded.
MEMO_CAP = 4096


class _FifoMemo(dict):
    """A memo dict that forgets its oldest entry once it holds ``cap``.

    Every memo here caches a pure function, so an evicted entry only
    costs its recomputation on the next miss, never a different answer.
    """

    def __init__(self, cap: int = MEMO_CAP) -> None:
        super().__init__()
        self.cap = cap

    def __setitem__(self, key, value) -> None:
        if len(self) >= self.cap and key not in self:
            del self[next(iter(self))]
        super().__setitem__(key, value)


def _miller_rabin_witness(candidate: int, witness: int, d: int, r: int) -> bool:
    """True if ``witness`` proves ``candidate`` composite."""
    x = pow(witness, d, candidate)
    if x in (1, candidate - 1):
        return False
    for _ in range(r - 1):
        x = (x * x) % candidate
        if x == candidate - 1:
            return False
    return True


def is_probable_prime(candidate: int, rng: random.Random) -> bool:
    """Miller-Rabin primality test with ``_MR_ROUNDS`` random witnesses."""
    if candidate < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if candidate % small == 0:
            return candidate == small
    d = candidate - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(_MR_ROUNDS):
        witness = rng.randrange(2, candidate - 1)
        if _miller_rabin_witness(candidate, witness, d, r):
            return False
    return True


def generate_prime(bits: int, rng: random.Random) -> int:
    """A random probable prime with exactly ``bits`` bits."""
    if bits < 8:
        raise ValueError("prime too small to be useful")
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(candidate, rng):
            return candidate


def _egcd(a: int, b: int) -> Tuple[int, int, int]:
    if a == 0:
        return b, 0, 1
    g, x, y = _egcd(b % a, a)
    return g, y - (b // a) * x, x


def modular_inverse(a: int, modulus: int) -> int:
    g, x, _ = _egcd(a % modulus, modulus)
    if g != 1:
        raise ValueError("no modular inverse")
    return x % modulus


@dataclass(frozen=True)
class RsaPublicKey:
    modulus: int
    exponent: int

    def fingerprint(self) -> str:
        """Hex digest identifying this key; used for certificate pinning."""
        material = f"{self.modulus:x}:{self.exponent:x}".encode("ascii")
        return hashlib.sha256(material).hexdigest()


@dataclass(frozen=True)
class RsaPrivateKey:
    modulus: int
    exponent: int  # private exponent d
    #: The modulus factors, when known (fresh keypairs keep them;
    #: keys restored from a pre-factor checkpoint may not).  They allow
    #: CRT decryption — two half-width exponentiations instead of one
    #: full-width one, with a bit-identical result.
    prime_p: Optional[int] = None
    prime_q: Optional[int] = None

    @property
    def public(self) -> RsaPublicKey:
        raise AttributeError("private key does not embed e; keep the pair")


@dataclass(frozen=True)
class RsaKeyPair:
    public: RsaPublicKey
    private: RsaPrivateKey


_PUBLIC_EXPONENT = 65537


def generate_keypair(bits: int, rng: random.Random) -> RsaKeyPair:
    """Textbook RSA key generation (two primes of ``bits // 2`` bits)."""
    if bits < 128:
        raise ValueError("modulus too small")
    while True:
        p = generate_prime(bits // 2, rng)
        q = generate_prime(bits // 2, rng)
        if p == q:
            continue
        n = p * q
        phi = (p - 1) * (q - 1)
        if phi % _PUBLIC_EXPONENT == 0:
            continue
        d = modular_inverse(_PUBLIC_EXPONENT, phi)
        return RsaKeyPair(
            public=RsaPublicKey(modulus=n, exponent=_PUBLIC_EXPONENT),
            private=RsaPrivateKey(modulus=n, exponent=d,
                                  prime_p=p, prime_q=q),
        )


def _digest_as_int(data: bytes, modulus: int) -> int:
    return int.from_bytes(hashlib.sha256(data).digest(), "big") % modulus


#: Memo caches for the modular exponentiations that repeat across a
#: run: the same certificate is signed once but *verified* on every
#: handshake against it, so the (digest, signature, key) triple recurs
#: thousands of times.  Both operations are pure functions of their
#: arguments, so caching cannot change any output — it only skips
#: re-deriving a value already derived.
_SIGN_CACHE = _FifoMemo()
_VERIFY_CACHE = _FifoMemo()


def sign(data: bytes, key: RsaPrivateKey) -> int:
    """RSA signature over SHA-256(data)."""
    digest = _digest_as_int(data, key.modulus)
    cache_key = (digest, key.modulus, key.exponent)
    signature = _SIGN_CACHE.get(cache_key)
    if signature is None:
        signature = pow(digest, key.exponent, key.modulus)
        _SIGN_CACHE[cache_key] = signature
    return signature


def verify(data: bytes, signature: int, key: RsaPublicKey) -> bool:
    """Check an RSA signature produced by :func:`sign`."""
    expected = _digest_as_int(data, key.modulus)
    cache_key = (expected, signature, key.modulus, key.exponent)
    verdict = _VERIFY_CACHE.get(cache_key)
    if verdict is None:
        verdict = pow(signature, key.exponent, key.modulus) == expected
        _VERIFY_CACHE[cache_key] = verdict
    return verdict


def encrypt(plaintext_int: int, key: RsaPublicKey) -> int:
    """Raw RSA encryption of a small integer (the pre-master secret)."""
    if not 0 <= plaintext_int < key.modulus:
        raise ValueError("plaintext out of range for modulus")
    return pow(plaintext_int, key.exponent, key.modulus)


#: CRT exponent/coefficient triples, memoised per private key (there
#: are only as many keys as servers + minted mitm identities).
_CRT_CACHE = _FifoMemo()


def decrypt(ciphertext_int: int, key: RsaPrivateKey) -> int:
    p, q = key.prime_p, key.prime_q
    if p is None or q is None:
        return pow(ciphertext_int, key.exponent, key.modulus)
    # CRT decryption: exact same integer as the full-width pow, via two
    # half-width exponentiations (~4x fewer word operations).
    cache_key = (key.modulus, key.exponent)
    crt = _CRT_CACHE.get(cache_key)
    if crt is None:
        crt = (key.exponent % (p - 1), key.exponent % (q - 1),
               modular_inverse(q, p))
        _CRT_CACHE[cache_key] = crt
    dp, dq, q_inverse = crt
    mp = pow(ciphertext_int % p, dp, p)
    mq = pow(ciphertext_int % q, dq, q)
    return mq + ((mp - mq) * q_inverse % p) * q


def keystream_xor(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """Symmetric stream cipher: XOR with a SHAKE-128 keystream.

    Encryption and decryption are the same operation.  SHAKE-128 is an
    extendable-output function, so the whole keystream for a record —
    whatever its length — comes back from a single C call, and the XOR
    itself runs as one big-integer operation; no per-block Python loop
    touches the bytes.
    """
    length = len(data)
    if not length:
        return b""
    stream = hashlib.shake_128(key + nonce).digest(length)
    return (int.from_bytes(data, "big")
            ^ int.from_bytes(stream, "big")).to_bytes(length, "big")


#: HMAC objects with the key pads absorbed, memoised per key: a full
#: handshake's base keys MAC its finished message, its ticket and every
#: resumption's key derivation, and re-deriving the inner/outer pads per
#: call costs two extra compressions each time.  Record MACs do not come
#: here (each record codec holds its own).  Forking a copy yields the
#: same digest as ``hmac.new(key, data)``.
_HMAC_BASES = _FifoMemo()


def hmac_sha256(key: bytes, data: bytes) -> bytes:
    base = _HMAC_BASES.get(key)
    if base is None:
        base = _hmac.new(key, digestmod=hashlib.sha256)
        _HMAC_BASES[key] = base
    mac = base.copy()
    mac.update(data)
    return mac.digest()


def constant_time_equal(a: bytes, b: bytes) -> bool:
    return _hmac.compare_digest(a, b)


def derive_keys(pre_master: bytes, client_random: bytes, server_random: bytes) -> Tuple[bytes, bytes]:
    """Derive (encryption key, MAC key) from handshake secrets."""
    seed = pre_master + client_random + server_random
    enc_key = hashlib.sha256(b"enc" + seed).digest()
    mac_key = hashlib.sha256(b"mac" + seed).digest()
    return enc_key, mac_key

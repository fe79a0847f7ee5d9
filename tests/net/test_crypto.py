"""Crypto primitive tests: primes, RSA, stream cipher, key derivation."""

import hashlib
import hmac
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import crypto


class TestPrimes:
    def test_small_primes_detected(self):
        rng = random.Random(0)
        for p in (2, 3, 5, 7, 11, 101, 7919):
            assert crypto.is_probable_prime(p, rng)

    def test_small_composites_rejected(self):
        rng = random.Random(0)
        for c in (0, 1, 4, 9, 15, 561, 7917):  # 561 is a Carmichael number
            assert not crypto.is_probable_prime(c, rng)

    def test_generated_prime_has_requested_bits(self):
        rng = random.Random(42)
        for bits in (16, 32, 64):
            p = crypto.generate_prime(bits, rng)
            assert p.bit_length() == bits
            assert crypto.is_probable_prime(p, rng)

    def test_too_small_prime_request_rejected(self):
        with pytest.raises(ValueError):
            crypto.generate_prime(4, random.Random(0))


class TestModularInverse:
    def test_inverse_property(self):
        assert (crypto.modular_inverse(3, 11) * 3) % 11 == 1

    def test_no_inverse(self):
        with pytest.raises(ValueError):
            crypto.modular_inverse(6, 9)


class TestRsa:
    def setup_method(self):
        self.rng = random.Random(99)
        self.pair = crypto.generate_keypair(256, self.rng)

    def test_sign_verify(self):
        signature = crypto.sign(b"offer wall", self.pair.private)
        assert crypto.verify(b"offer wall", signature, self.pair.public)

    def test_verify_rejects_tampered_data(self):
        signature = crypto.sign(b"offer wall", self.pair.private)
        assert not crypto.verify(b"offer wal1", signature, self.pair.public)

    def test_verify_rejects_wrong_key(self):
        other = crypto.generate_keypair(256, self.rng)
        signature = crypto.sign(b"data", self.pair.private)
        assert not crypto.verify(b"data", signature, other.public)

    def test_encrypt_decrypt_round_trip(self):
        secret = self.rng.getrandbits(192)
        assert crypto.decrypt(crypto.encrypt(secret, self.pair.public),
                              self.pair.private) == secret

    def test_encrypt_rejects_oversized_plaintext(self):
        with pytest.raises(ValueError):
            crypto.encrypt(self.pair.public.modulus + 1, self.pair.public)

    def test_fingerprint_is_stable_and_distinct(self):
        assert self.pair.public.fingerprint() == self.pair.public.fingerprint()
        other = crypto.generate_keypair(256, self.rng)
        assert other.public.fingerprint() != self.pair.public.fingerprint()

    def test_keypair_too_small_rejected(self):
        with pytest.raises(ValueError):
            crypto.generate_keypair(64, self.rng)


class TestStreamCipher:
    def test_round_trip(self):
        key, nonce = b"k" * 32, b"n" * 8
        data = b"the offers json payload" * 10
        sealed = crypto.keystream_xor(key, nonce, data)
        assert sealed != data
        assert crypto.keystream_xor(key, nonce, sealed) == data

    def test_different_nonce_different_keystream(self):
        key = b"k" * 32
        data = b"x" * 64
        assert (crypto.keystream_xor(key, b"a" * 8, data)
                != crypto.keystream_xor(key, b"b" * 8, data))

    @settings(max_examples=25)
    @given(st.binary(max_size=512), st.binary(min_size=8, max_size=8))
    def test_involution_property(self, data, nonce):
        key = b"fixed-key-material-for-testing!!"
        once = crypto.keystream_xor(key, nonce, data)
        assert crypto.keystream_xor(key, nonce, once) == data


class TestKeyDerivation:
    def test_deterministic(self):
        args = (b"p" * 24, b"c" * 16, b"s" * 16)
        assert crypto.derive_keys(*args) == crypto.derive_keys(*args)

    def test_enc_and_mac_keys_differ(self):
        enc, mac = crypto.derive_keys(b"p" * 24, b"c" * 16, b"s" * 16)
        assert enc != mac

    def test_sensitive_to_every_input(self):
        base = crypto.derive_keys(b"p" * 24, b"c" * 16, b"s" * 16)
        assert crypto.derive_keys(b"q" * 24, b"c" * 16, b"s" * 16) != base
        assert crypto.derive_keys(b"p" * 24, b"d" * 16, b"s" * 16) != base
        assert crypto.derive_keys(b"p" * 24, b"c" * 16, b"t" * 16) != base


class TestHmac:
    def test_constant_time_equal(self):
        assert crypto.constant_time_equal(b"abc", b"abc")
        assert not crypto.constant_time_equal(b"abc", b"abd")

    def test_hmac_keyed(self):
        assert (crypto.hmac_sha256(b"k1", b"data")
                != crypto.hmac_sha256(b"k2", b"data"))


class TestMemoCap:
    """The module-level memos forget their oldest entries at the cap
    and keep returning the same values."""

    def test_fifo_memo_stays_at_its_cap(self):
        memo = crypto._FifoMemo(cap=4)
        for key in range(10):
            memo[key] = key * key
        assert len(memo) == 4
        assert list(memo) == [6, 7, 8, 9]
        memo[9] = -1  # overwriting a present key evicts nothing
        assert list(memo.items())[-1] == (9, -1) and len(memo) == 4

    def test_hmac_memo_is_bounded_and_outputs_unchanged(self, monkeypatch):
        monkeypatch.setattr(crypto, "_HMAC_BASES", crypto._FifoMemo(cap=8))
        keys = [b"key-%03d" % i for i in range(20)]
        for _ in range(2):  # the second pass recomputes evicted bases
            for key in keys:
                assert (crypto.hmac_sha256(key, b"data")
                        == hmac.new(key, b"data", hashlib.sha256).digest())
                assert len(crypto._HMAC_BASES) <= 8

    def test_rsa_memos_are_bounded_and_outputs_unchanged(self, monkeypatch):
        for name in ("_SIGN_CACHE", "_VERIFY_CACHE", "_CRT_CACHE"):
            monkeypatch.setattr(crypto, name, crypto._FifoMemo(cap=3))
        rng = random.Random(5)
        pairs = [crypto.generate_keypair(256, rng) for _ in range(5)]
        messages = [b"cert-%d" % i for i in range(4)]
        first = [crypto.sign(message, pair.private)
                 for pair in pairs for message in messages]
        second = [crypto.sign(message, pair.private)
                  for pair in pairs for message in messages]
        assert first == second
        assert first == [
            pow(int.from_bytes(hashlib.sha256(message).digest(), "big")
                % pair.private.modulus,
                pair.private.exponent, pair.private.modulus)
            for pair in pairs for message in messages]
        for pair in pairs:
            for message in messages:
                signature = crypto.sign(message, pair.private)
                assert crypto.verify(message, signature, pair.public)
                assert not crypto.verify(message + b"!", signature,
                                         pair.public)
            secret = rng.getrandbits(128)
            assert crypto.decrypt(crypto.encrypt(secret, pair.public),
                                  pair.private) == secret
        for name in ("_SIGN_CACHE", "_VERIFY_CACHE", "_CRT_CACHE"):
            assert len(getattr(crypto, name)) <= 3

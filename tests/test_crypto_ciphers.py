"""Tests for the probabilistic and deterministic cell ciphers."""

import pytest

from repro.crypto.deterministic import DeterministicCipher, _pad, _unpad
from repro.crypto.keys import KeyGen
from repro.crypto.probabilistic import ProbabilisticCipher
from repro.exceptions import DecryptionError, EncryptionError


@pytest.fixture
def key():
    return KeyGen.symmetric_from_seed(123)


class TestProbabilisticCipher:
    def test_roundtrip(self, key):
        cipher = ProbabilisticCipher(key)
        assert cipher.decrypt(cipher.encrypt("hello world")) == "hello world"

    def test_roundtrip_non_string_values(self, key):
        cipher = ProbabilisticCipher(key)
        assert cipher.decrypt(cipher.encrypt(12345)) == "12345"

    def test_same_plaintext_different_ciphertexts(self, key):
        cipher = ProbabilisticCipher(key)
        assert cipher.encrypt("value") != cipher.encrypt("value")

    def test_variant_makes_encryption_deterministic(self, key):
        cipher = ProbabilisticCipher(key)
        assert cipher.encrypt("value", variant="v1") == cipher.encrypt("value", variant="v1")

    def test_different_variants_differ(self, key):
        cipher = ProbabilisticCipher(key)
        assert cipher.encrypt("value", variant="v1") != cipher.encrypt("value", variant="v2")

    def test_different_plaintexts_same_variant_differ(self, key):
        cipher = ProbabilisticCipher(key)
        assert cipher.encrypt("a", variant="v") != cipher.encrypt("b", variant="v")

    def test_decrypt_with_wrong_key_fails_or_differs(self, key):
        cipher = ProbabilisticCipher(key)
        other = ProbabilisticCipher(KeyGen.symmetric_from_seed(999))
        ciphertext = cipher.encrypt("payload")
        try:
            assert other.decrypt(ciphertext) != "payload"
        except DecryptionError:
            pass  # invalid UTF-8 after XOR with the wrong pad is also correct

    def test_decrypt_rejects_non_ciphertext(self, key):
        with pytest.raises(DecryptionError):
            ProbabilisticCipher(key).decrypt("not-a-ciphertext")

    def test_unicode_roundtrip(self, key):
        cipher = ProbabilisticCipher(key)
        assert cipher.decrypt(cipher.encrypt("café ☕")) == "café ☕"

    def test_empty_string_roundtrip(self, key):
        cipher = ProbabilisticCipher(key)
        assert cipher.decrypt(cipher.encrypt("")) == ""

    def test_nonce_length_configurable(self, key):
        cipher = ProbabilisticCipher(key, nonce_length=24)
        assert len(cipher.encrypt("x").nonce) == 24

    def test_too_short_nonce_rejected(self, key):
        with pytest.raises(EncryptionError):
            ProbabilisticCipher(key, nonce_length=4)

    def test_ciphertexts_are_hashable(self, key):
        cipher = ProbabilisticCipher(key)
        values = {cipher.encrypt("a", variant="v"), cipher.encrypt("a", variant="v")}
        assert len(values) == 1


class TestDeterministicCipher:
    @pytest.mark.parametrize("backend", ["prf", "aes"])
    def test_roundtrip(self, key, backend):
        cipher = DeterministicCipher(key, backend=backend)
        assert cipher.decrypt(cipher.encrypt("hello")) == "hello"

    @pytest.mark.parametrize("backend", ["prf", "aes"])
    def test_determinism(self, key, backend):
        cipher = DeterministicCipher(key, backend=backend)
        assert cipher.encrypt("same") == cipher.encrypt("same")

    @pytest.mark.parametrize("backend", ["prf", "aes"])
    def test_distinct_plaintexts_distinct_ciphertexts(self, key, backend):
        cipher = DeterministicCipher(key, backend=backend)
        assert cipher.encrypt("a") != cipher.encrypt("b")

    def test_unknown_backend_rejected(self, key):
        with pytest.raises(EncryptionError):
            DeterministicCipher(key, backend="rot13")

    def test_decrypt_rejects_non_ciphertext(self, key):
        with pytest.raises(DecryptionError):
            DeterministicCipher(key).decrypt(42)

    def test_frequency_preservation_property(self, key):
        """Deterministic encryption preserves the frequency histogram exactly."""
        from collections import Counter

        cipher = DeterministicCipher(key)
        plaintexts = ["x"] * 5 + ["y"] * 3 + ["z"]
        ciphertexts = [cipher.encrypt(value) for value in plaintexts]
        assert sorted(Counter(plaintexts).values()) == sorted(Counter(ciphertexts).values())


class TestPadding:
    def test_pad_unpad_roundtrip(self):
        for length in range(0, 40):
            message = bytes(range(length % 256))[:length]
            assert _unpad(_pad(message)) == message

    def test_pad_length_multiple_of_block(self):
        for length in range(0, 40):
            assert len(_pad(b"x" * length)) % 16 == 0

    def test_unpad_rejects_garbage(self):
        with pytest.raises(DecryptionError):
            _unpad(b"")
        with pytest.raises(DecryptionError):
            _unpad(b"\x00" * 16)
        with pytest.raises(DecryptionError):
            _unpad(b"abc\x05")

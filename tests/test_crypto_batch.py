"""The batched crypto hot path: PRF batch evaluation, batch encryption.

The contract under test is *byte-identity*: every batch API must produce
exactly the bytes of its per-cell loop equivalent — including the order in
which entropy is consumed — because the golden-ciphertext pins in
``test_backend_equivalence.py`` hold for every batching configuration.
"""

from __future__ import annotations

import hashlib
import hmac
import random

import pytest

from repro.backend import get_backend, numpy_available
from repro.backend.base import BackendError
from repro.crypto.keys import KeyGen
from repro.crypto.prf import Prf, xor_bytes
from repro.crypto.probabilistic import Ciphertext, ProbabilisticCipher
from repro.exceptions import DecryptionError

needs_numpy = pytest.mark.skipif(not numpy_available(), reason="NumPy not installed")

KEY = KeyGen.symmetric_from_seed(99)


def _patch_urandom(monkeypatch, seed: int = 1234) -> None:
    rng = random.Random(seed)
    monkeypatch.setattr(
        "repro.crypto.probabilistic.os.urandom",
        lambda n: bytes(rng.getrandbits(8) for _ in range(n)),
    )


def _counter_mode_reference(key: bytes, message: bytes, length: int) -> bytes:
    """The counter-mode expansion spelled out by hand (no one-shot shortcut)."""
    blocks = []
    produced = 0
    counter = 0
    while produced < length:
        block = hmac.new(key, message + counter.to_bytes(4, "big"), hashlib.sha256).digest()
        blocks.append(block)
        produced += len(block)
        counter += 1
    return b"".join(blocks)[:length]


# ----------------------------------------------------------------------
# Prf.evaluate edge cases (satellite: boundary + one-shot equivalence)
# ----------------------------------------------------------------------
class TestPrfEvaluateEdges:
    def test_zero_length_output(self):
        prf = Prf(b"k" * 32)
        assert prf.evaluate(b"msg", 0) == b""

    @pytest.mark.parametrize("length", [1, 31, 32])
    def test_one_shot_path_matches_counter_mode(self, length):
        """<= 32 bytes takes the single-HMAC shortcut; the bytes must equal
        the counter-mode loop's first block (counter 0 is the b"\\x00"*4
        suffix the shortcut appends)."""
        key = b"k" * 32
        prf = Prf(key)
        assert prf.evaluate(b"msg", length) == _counter_mode_reference(key, b"msg", length)

    @pytest.mark.parametrize("length", [33, 64, 65, 100])
    def test_multi_block_matches_reference(self, length):
        key = b"edge-key"
        prf = Prf(key)
        assert prf.evaluate(b"payload", length) == _counter_mode_reference(
            key, b"payload", length
        )

    def test_block_boundary_is_prefix_consistent(self):
        """33 bytes extends 32 bytes: same first block, one more counter."""
        prf = Prf(b"k" * 32)
        at_32 = prf.evaluate(b"m", 32)
        at_33 = prf.evaluate(b"m", 33)
        assert at_33[:32] == at_32

    def test_negative_length_rejected(self):
        prf = Prf(b"k" * 32)
        with pytest.raises(ValueError):
            prf.evaluate(b"m", -1)


class TestPrfEvaluateMany:
    @pytest.mark.parametrize("length", [0, 1, 16, 32, 33, 64, 100])
    def test_matches_evaluate_per_message(self, length):
        prf = Prf(b"batch-key")
        messages = [b"", b"a", b"hello world", b"x" * 200]
        batch = prf.evaluate_many(messages, length)
        assert batch == [prf.evaluate(message, length) for message in messages]

    def test_per_message_lengths(self):
        prf = Prf(b"batch-key")
        messages = [b"a", b"b", b"c", b"d"]
        lengths = [0, 7, 32, 41]
        batch = prf.evaluate_many(messages, lengths)
        assert [len(output) for output in batch] == lengths
        assert batch == [
            prf.evaluate(message, length) for message, length in zip(messages, lengths)
        ]

    @pytest.mark.parametrize("key_length", [1, 32, 63, 64, 65, 200])
    def test_matches_hmac_for_every_key_length(self, key_length):
        """The batch's precomputed pad states follow RFC 2104 for keys
        shorter than, equal to and longer than SHA-256's block."""
        key = bytes(range(256))[:key_length]
        prf = Prf(key)
        messages = [b"", b"m", b"x" * 100]
        for length in (0, 16, 32, 33, 70):
            assert prf.evaluate_many(messages, length) == [
                _counter_mode_reference(key, message, length) for message in messages
            ]

    def test_empty_batch(self):
        assert Prf(b"k").evaluate_many([], 16) == []

    def test_length_count_mismatch_rejected(self):
        prf = Prf(b"k")
        with pytest.raises(ValueError):
            prf.evaluate_many([b"a", b"b"], [16])

    def test_negative_length_rejected(self):
        prf = Prf(b"k")
        with pytest.raises(ValueError):
            prf.evaluate_many([b"a"], [-3])


# ----------------------------------------------------------------------
# Backend xor_blocks
# ----------------------------------------------------------------------
class TestXorBlocks:
    def test_python_matches_reference_xor(self):
        backend = get_backend("python")
        rng = random.Random(7)
        first = bytes(rng.getrandbits(8) for _ in range(333))
        second = bytes(rng.getrandbits(8) for _ in range(333))
        assert backend.xor_blocks(first, second) == xor_bytes(first, second)

    def test_empty_buffers(self):
        assert get_backend("python").xor_blocks(b"", b"") == b""

    def test_length_mismatch_rejected(self):
        with pytest.raises(BackendError):
            get_backend("python").xor_blocks(b"ab", b"a")

    @needs_numpy
    def test_numpy_matches_python(self):
        python_backend = get_backend("python")
        numpy_backend = get_backend("numpy")
        rng = random.Random(11)
        for size in (0, 1, 16, 1024, 4097):
            first = bytes(rng.getrandbits(8) for _ in range(size))
            second = bytes(rng.getrandbits(8) for _ in range(size))
            assert numpy_backend.xor_blocks(first, second) == python_backend.xor_blocks(
                first, second
            )

    @needs_numpy
    def test_numpy_length_mismatch_rejected(self):
        with pytest.raises(BackendError):
            get_backend("numpy").xor_blocks(b"abc", b"ab")


# ----------------------------------------------------------------------
# Batch encryption / decryption
# ----------------------------------------------------------------------
def _mixed_items() -> list[tuple[object, object]]:
    """Instance cells (variants), random cells (None), and repeats."""
    return [
        ("Hoboken", "mas0:v1"),
        ("07030", None),
        (12345, "mas1:v2"),
        ("Hoboken", "mas0:v1"),  # same (value, variant): identical ciphertext
        ("free-text cell", None),
        ("", None),  # empty plaintext
        ("", "mas0:v9"),
    ]


class TestEncryptBatch:
    def test_byte_identical_to_per_cell_loop(self, monkeypatch):
        items = _mixed_items()
        _patch_urandom(monkeypatch, seed=55)
        cipher = ProbabilisticCipher(KEY)
        serial = [cipher.encrypt(value, variant) for value, variant in items]
        _patch_urandom(monkeypatch, seed=55)
        cipher = ProbabilisticCipher(KEY)
        batch = cipher.encrypt_batch(items)
        assert batch == serial

    @needs_numpy
    def test_numpy_backend_byte_identical(self, monkeypatch):
        items = _mixed_items()
        _patch_urandom(monkeypatch, seed=55)
        reference = ProbabilisticCipher(KEY).encrypt_batch(items)
        _patch_urandom(monkeypatch, seed=55)
        via_numpy = ProbabilisticCipher(KEY).encrypt_batch(
            items, backend=get_backend("numpy")
        )
        assert via_numpy == reference

    def test_empty_batch(self):
        assert ProbabilisticCipher(KEY).encrypt_batch([]) == []


class TestDecryptBatch:
    def test_matches_per_cell_decrypt(self):
        cipher = ProbabilisticCipher(KEY)
        batch = cipher.encrypt_batch(_mixed_items())
        assert cipher.decrypt_batch(batch) == [
            cipher.decrypt(ciphertext) for ciphertext in batch
        ]

    @needs_numpy
    def test_numpy_backend_matches(self):
        cipher = ProbabilisticCipher(KEY)
        batch = cipher.encrypt_batch(_mixed_items())
        assert cipher.decrypt_batch(batch, backend=get_backend("numpy")) == (
            cipher.decrypt_batch(batch)
        )

    def test_rejects_non_ciphertext(self):
        cipher = ProbabilisticCipher(KEY)
        with pytest.raises(DecryptionError):
            cipher.decrypt_batch([b"not-a-ciphertext"])

    def test_wrong_key_raises(self):
        batch = ProbabilisticCipher(KEY).encrypt_batch([("secret", None)] * 3)
        other = ProbabilisticCipher(KeyGen.symmetric_from_seed(1000))
        with pytest.raises(DecryptionError):
            other.decrypt_batch(batch)

    def test_empty_batch(self):
        assert ProbabilisticCipher(KEY).decrypt_batch([]) == []


def _mixed_row_plans(num_rows: int = 24):
    """Row plans mixing instance, random (some repeated) and fresh cells."""
    from repro.core.plan import (
        FreshCell,
        InstanceCell,
        RandomCell,
        RowPlan,
    )
    from repro.core.encrypted import RowProvenance
    from repro.relational.table import Relation

    relation = Relation(("A", "B", "C"), name="plans")
    plans = []
    for row in range(num_rows):
        relation.append([f"a{row}", f"b{row % 5}", f"c{row}"])
        cells = {
            "A": InstanceCell(value=f"a{row % 6}", variant=f"mas0:v{row % 3}"),
            "B": RandomCell(value=f"b-{row % 5}"),
            "C": FreshCell(token=f"=t:{row % 7}") if row % 2 else RandomCell(value=f"c-{row}"),
        }
        plans.append(
            RowPlan(
                cells=cells,
                provenance=RowProvenance(
                    kind="original", source_row=row, authentic_attributes=frozenset("ABC")
                ),
            )
        )
    return relation, plans


class TestMaterializeRowPlans:
    """The materialiser's one batch equals encrypting cell by cell."""

    @pytest.mark.parametrize("with_log", [False, True])
    def test_byte_identical_to_per_cell_loop(self, monkeypatch, with_log):
        from repro.api.stages import materialize_row_plans
        from repro.core.plan import FreshCell, FreshValueFactory, InstanceCell

        relation, plans = _mixed_row_plans()
        _patch_urandom(monkeypatch, seed=5)
        encrypted, provenance = materialize_row_plans(
            relation,
            plans,
            ProbabilisticCipher(KEY),
            FreshValueFactory(seed=7),
            nonce_log={} if with_log else None,
        )

        # Reference: row-major, one encrypt per cell; with a nonce log a
        # repeated random cell reuses its first ciphertext.
        _patch_urandom(monkeypatch, seed=5)
        cipher, factory, log = ProbabilisticCipher(KEY), FreshValueFactory(seed=7), {}
        expected = []
        for plan in plans:
            row = []
            for attribute in relation.attributes:
                spec = plan.cells[attribute]
                if type(spec) is InstanceCell:
                    row.append(cipher.encrypt(spec.value, spec.variant))
                elif type(spec) is FreshCell:
                    row.append(factory.materialize(spec.token))
                elif with_log:
                    key = (attribute, str(spec.value))
                    if key not in log:
                        log[key] = cipher.encrypt(spec.value)
                    row.append(log[key])
                else:
                    row.append(cipher.encrypt(spec.value))
            expected.append(tuple(row))
        assert [tuple(row) for row in encrypted.rows()] == expected
        assert [p.source_row for p in provenance] == list(range(len(plans)))

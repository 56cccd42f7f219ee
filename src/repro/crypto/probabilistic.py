"""The paper's probabilistic cell cipher: ``e = <r, F_k(r) XOR p>``.

Section 2.3 and Section 3.2.2 describe the construction: to encrypt a
plaintext cell ``p``, draw a fresh random string ``r`` of length ``lambda``,
and output the pair ``(r, F_k(r) XOR p)`` where ``F`` is a pseudorandom
function keyed by ``k``.  Decryption recomputes ``F_k(r)`` and XORs it away.
Encrypting the same plaintext twice yields different ciphertexts (different
``r``), which is what lets F2 split one equivalence class into several
distinct ciphertext instances.

For F2's purposes the cipher exposes one extra knob: a *variant tag*.  F2
needs the copies of the same plaintext that belong to the same split to be
*identical* ciphertext values (so the server sees a frequency), while copies
belonging to different splits must be *distinct*.  Passing the same
``variant`` value reproduces the same ciphertext; different variants produce
different ciphertexts.  Internally the variant simply selects the random
string ``r`` deterministically from (key, plaintext, variant), which keeps
the construction identical to the paper's while making encryption
reproducible for the data owner.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Any

from repro.crypto.keys import SymmetricKey
from repro.crypto.prf import Prf, xor_bytes
from repro.exceptions import DecryptionError, EncryptionError
from repro.obs import metrics as _metrics

# Batch-shape metrics only — no timing, no entropy: the byte-identity
# contract pins the urandom stream, so observability must stay read-only
# here.  All no-ops under the REPRO_METRICS=0 kill switch.
_ENCRYPT_BATCH_CELLS = _metrics.histogram(
    "crypto.encrypt_batch_cells", buckets=_metrics.SIZE_BUCKETS
)
_DECRYPT_BATCH_CELLS = _metrics.histogram(
    "crypto.decrypt_batch_cells", buckets=_metrics.SIZE_BUCKETS
)
_CELLS_ENCRYPTED = _metrics.counter("crypto.cells_encrypted")
_CELLS_DECRYPTED = _metrics.counter("crypto.cells_decrypted")


@dataclass(frozen=True, slots=True)
class Ciphertext:
    """A probabilistic ciphertext ``<r, F_k(r) XOR p>``.

    The object is hashable and comparable so it can live inside a
    :class:`repro.relational.table.Relation` cell and be grouped/counted by
    the server-side algorithms exactly like any other value.
    """

    nonce: bytes
    payload: bytes

    def __str__(self) -> str:
        return f"{self.nonce.hex()}:{self.payload.hex()}"

    def to_bytes(self) -> bytes:
        """Length-prefixed binary form: ``len(nonce) || nonce || payload``.

        The nonce length fits a single byte (the cipher caps it well below
        256); the payload length is implied by the enclosing frame, so the
        wire codec can embed ciphertexts without a second prefix.
        """
        if len(self.nonce) > 0xFF:
            raise EncryptionError("nonce longer than 255 bytes cannot be serialized")
        return bytes([len(self.nonce)]) + self.nonce + self.payload

    @classmethod
    def from_bytes(cls, data: bytes) -> "Ciphertext":
        """Inverse of :meth:`to_bytes` (consumes the whole buffer)."""
        if not data:
            raise DecryptionError("empty ciphertext buffer")
        nonce_length = data[0]
        if len(data) < 1 + nonce_length:
            raise DecryptionError("truncated ciphertext buffer")
        return cls(nonce=bytes(data[1 : 1 + nonce_length]), payload=bytes(data[1 + nonce_length :]))


class ProbabilisticCipher:
    """The PRF-based probabilistic cipher of Section 2.3.

    Parameters
    ----------
    key:
        The symmetric key produced by :class:`repro.crypto.keys.KeyGen`.
    nonce_length:
        Length (bytes) of the random string ``r``; the paper's ``lambda``.
    """

    def __init__(self, key: SymmetricKey, nonce_length: int = 16):
        if nonce_length < 8:
            raise EncryptionError("nonce_length below 8 bytes is not allowed")
        self._prf = Prf(key.material)
        self._nonce_prf = Prf(key.subkey("nonce-derivation").material)
        self._nonce_length = nonce_length

    @property
    def nonce_length(self) -> int:
        return self._nonce_length

    # ------------------------------------------------------------------
    # Core API (Encrypt / Decrypt of Section 2.3)
    # ------------------------------------------------------------------
    def encrypt(self, plaintext: Any, variant: Any = None) -> Ciphertext:
        """Encrypt one cell value.

        Parameters
        ----------
        plaintext:
            The cell value; serialized with ``str`` (cells are opaque values).
        variant:
            ``None`` draws a fresh random nonce (pure probabilistic
            encryption — every call returns a new ciphertext).  Any other
            value derives the nonce deterministically from
            ``(key, plaintext, variant)`` so the same (plaintext, variant)
            pair always maps to the same ciphertext; F2 uses this to realise
            the "split into t unique instances" requirement of Definition 3.1.
        """
        message = _encode(plaintext)
        if variant is None:
            nonce = os.urandom(self._nonce_length)
        else:
            nonce = self._nonce_prf.evaluate(
                _encode(plaintext) + b"|variant|" + _encode(variant),
                self._nonce_length,
            )
        pad = self._prf.evaluate(nonce, len(message))
        return Ciphertext(nonce=nonce, payload=xor_bytes(pad, message))

    def decrypt(self, ciphertext: Ciphertext) -> str:
        """Recover the plaintext cell (as text) from a ciphertext."""
        if not isinstance(ciphertext, Ciphertext):
            raise DecryptionError(f"not a ciphertext: {ciphertext!r}")
        pad = self._prf.evaluate(ciphertext.nonce, len(ciphertext.payload))
        try:
            return xor_bytes(pad, ciphertext.payload).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DecryptionError("decryption produced invalid UTF-8 (wrong key?)") from exc

    # ------------------------------------------------------------------
    # Batch API (the materialiser's hot path)
    # ------------------------------------------------------------------
    def encrypt_batch(
        self,
        items: Sequence[tuple[Any, Any]],
        backend=None,
    ) -> list[Ciphertext]:
        """Encrypt many ``(plaintext, variant)`` cells in one vectorised pass.

        Byte-identical to calling :meth:`encrypt` per item in order —
        including the entropy consumption: every ``variant=None`` item
        draws from ``os.urandom`` in item order, as one bulk draw sliced
        per cell (``urandom`` is a stream, so the slices equal the per-call
        draws).

        Parameters
        ----------
        items:
            ``(plaintext, variant)`` pairs, exactly as :meth:`encrypt` takes
            them.
        backend:
            Optional :class:`repro.backend.base.ComputeBackend` whose
            ``xor_blocks`` applies the pads (NumPy vectorises it); ``None``
            uses the big-int reference XOR.
        """
        count = len(items)
        # ``str(value).encode()`` is :func:`_encode` for every value.
        messages = list(map(str.encode, map(str, (plaintext for plaintext, _ in items))))
        variants = [variant for _, variant in items]

        # Nonce plan: deterministic variants batch through the nonce PRF;
        # the remaining draws come from one bulk urandom read, sliced in
        # item order.
        nonce_length = self._nonce_length
        out_nonces: list[bytes] = [b""] * count
        derive_slots = [index for index, variant in enumerate(variants) if variant is not None]
        draw_slots = [index for index, variant in enumerate(variants) if variant is None]
        if derive_slots:
            derived = self._nonce_prf.evaluate_many(
                [
                    messages[index] + b"|variant|" + _encode(variants[index])
                    for index in derive_slots
                ],
                nonce_length,
            )
            for slot, nonce in zip(derive_slots, derived):
                out_nonces[slot] = nonce
        if draw_slots:
            blob = os.urandom(len(draw_slots) * nonce_length)
            for position, slot in enumerate(draw_slots):
                start = position * nonce_length
                out_nonces[slot] = blob[start : start + nonce_length]

        # Pads: one PRF evaluation per cell over the shared key schedule,
        # then a single XOR over the concatenated buffers.
        lengths = list(map(len, messages))
        pads = self._prf.evaluate_many(out_nonces, lengths)
        pad_buffer = b"".join(pads)
        message_buffer = b"".join(messages)
        if backend is not None:
            payload_buffer = backend.xor_blocks(pad_buffer, message_buffer)
        else:
            payload_buffer = xor_bytes(pad_buffer, message_buffer)

        ends = list(accumulate(lengths))
        payloads = map(payload_buffer.__getitem__, map(slice, chain((0,), ends), ends))
        ciphertexts = list(map(Ciphertext, out_nonces, payloads))
        _ENCRYPT_BATCH_CELLS.observe(count)
        _CELLS_ENCRYPTED.inc(count)
        return ciphertexts

    def decrypt_batch(
        self,
        ciphertexts: Sequence[Ciphertext],
        backend=None,
    ) -> list[str]:
        """Batched :meth:`decrypt`: recover many cells in one vectorised pass."""
        for ciphertext in ciphertexts:
            if not isinstance(ciphertext, Ciphertext):
                raise DecryptionError(f"not a ciphertext: {ciphertext!r}")
        lengths = [len(ciphertext.payload) for ciphertext in ciphertexts]
        pads = self._prf.evaluate_many(
            [ciphertext.nonce for ciphertext in ciphertexts], lengths
        )
        pad_buffer = b"".join(pads)
        payload_buffer = b"".join(ciphertext.payload for ciphertext in ciphertexts)
        if backend is not None:
            plain_buffer = backend.xor_blocks(pad_buffer, payload_buffer)
        else:
            plain_buffer = xor_bytes(pad_buffer, payload_buffer)
        try:
            texts: list[str] = []
            cursor = 0
            for length in lengths:
                texts.append(plain_buffer[cursor : cursor + length].decode("utf-8"))
                cursor += length
            _DECRYPT_BATCH_CELLS.observe(len(ciphertexts))
            _CELLS_DECRYPTED.inc(len(ciphertexts))
            return texts
        except UnicodeDecodeError as exc:
            raise DecryptionError("decryption produced invalid UTF-8 (wrong key?)") from exc


def _encode(value: Any) -> bytes:
    """Serialize a cell value for encryption (cells are opaque strings)."""
    if type(value) is str:
        return value.encode("utf-8")
    return str(value).encode("utf-8")

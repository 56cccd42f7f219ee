"""Pseudorandom function used by the probabilistic and deterministic ciphers.

The paper's cipher needs a keyed pseudorandom function ``F_k`` whose output is
XOR-ed with the plaintext.  HMAC-SHA256 in counter mode is the standard
construction: it is a PRF under the usual assumptions, available in the Python
standard library, and extensible to arbitrary output lengths.
"""

from __future__ import annotations

import hashlib
import hmac
from collections.abc import Sequence

#: SHA-256's input block size: HMAC pads (or first hashes) the key to it.
_SHA256_BLOCK = 64


class Prf:
    """HMAC-SHA256 based pseudorandom function with arbitrary output length."""

    _BLOCK_BYTES = 32

    def __init__(self, key: bytes):
        if not key:
            raise ValueError("the PRF key must be non-empty")
        self._key = bytes(key)
        # Precomputed key schedule for ``evaluate_many``: the SHA-256 states
        # after the inner and outer HMAC pads (RFC 2104), derived from the
        # key once and copied per message, so a batch pays the key setup a
        # single time and calls hashlib directly instead of through the
        # ``hmac`` module's Python wrappers.
        padded = self._key
        if len(padded) > _SHA256_BLOCK:
            padded = hashlib.sha256(padded).digest()
        padded = padded.ljust(_SHA256_BLOCK, b"\x00")
        self._inner = hashlib.sha256(bytes(byte ^ 0x36 for byte in padded))
        self._outer = hashlib.sha256(bytes(byte ^ 0x5C for byte in padded))

    @property
    def key(self) -> bytes:
        return self._key

    def evaluate(self, message: bytes, output_length: int) -> bytes:
        """Return ``F_k(message)`` truncated/extended to ``output_length`` bytes.

        Outputs longer than one HMAC block are produced in counter mode:
        ``HMAC(k, message || counter)`` for counter = 0, 1, ... — each block is
        an independent PRF evaluation, so the concatenation is still
        pseudorandom.
        """
        if output_length < 0:
            raise ValueError("output_length must be non-negative")
        if output_length <= self._BLOCK_BYTES:
            # One-shot C path; bytes identical to the counter-mode loop below.
            block = hmac.digest(self._key, message + b"\x00\x00\x00\x00", "sha256")
            return block[:output_length]
        blocks = []
        produced = 0
        counter = 0
        while produced < output_length:
            block = hmac.digest(self._key, message + counter.to_bytes(4, "big"), "sha256")
            blocks.append(block)
            produced += len(block)
            counter += 1
        return b"".join(blocks)[:output_length]

    def evaluate_many(
        self,
        messages: Sequence[bytes],
        output_lengths: "int | Sequence[int]",
    ) -> list[bytes]:
        """Batched :meth:`evaluate`: one PRF output per message.

        ``output_lengths`` is either one length shared by every message or a
        parallel sequence of per-message lengths.  The outputs are
        byte-identical to calling :meth:`evaluate` per message; the batch
        only amortises the HMAC key schedule (precomputed pad states,
        ``copy()`` per message) and the Python call overhead.
        """
        if isinstance(output_lengths, int):
            lengths: Sequence[int] = [output_lengths] * len(messages)
        else:
            lengths = output_lengths
            if len(lengths) != len(messages):
                raise ValueError("one output length per message is required")
        inner, outer = self._inner.copy, self._outer.copy

        def block(message: bytes, counter: bytes) -> bytes:
            mac = inner()
            mac.update(message)
            mac.update(counter)
            digest = outer()
            digest.update(mac.digest())
            return digest.digest()

        block_bytes = self._BLOCK_BYTES
        first = b"\x00\x00\x00\x00"
        outputs: list[bytes] = []
        append = outputs.append
        for message, length in zip(messages, lengths):
            if length < 0:
                raise ValueError("output_length must be non-negative")
            if length <= block_bytes:
                # block(message, first), inlined: the batch's hot path.
                mac = inner()
                mac.update(message)
                mac.update(first)
                digest = outer()
                digest.update(mac.digest())
                append(digest.digest()[:length])
                continue
            blocks = [
                block(message, counter.to_bytes(4, "big"))
                for counter in range(-(-length // block_bytes))
            ]
            append(b"".join(blocks)[:length])
        return outputs

    def evaluate_int(self, message: bytes, bits: int) -> int:
        """Return ``F_k(message)`` as an integer with at most ``bits`` bits."""
        num_bytes = (bits + 7) // 8
        raw = int.from_bytes(self.evaluate(message, num_bytes), "big")
        return raw >> (num_bytes * 8 - bits) if bits % 8 else raw


def xor_bytes(first: bytes, second: bytes) -> bytes:
    """Byte-wise XOR of two equal-length byte strings."""
    if len(first) != len(second):
        raise ValueError("xor_bytes requires equal-length inputs")
    length = len(first)
    return (int.from_bytes(first, "big") ^ int.from_bytes(second, "big")).to_bytes(length, "big")

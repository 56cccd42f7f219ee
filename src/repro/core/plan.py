"""Symbolic cell/row plans used while assembling the ciphertext table.

F2's steps reason about *which rows exist* and *which ciphertext instance each
cell belongs to* long before any actual encryption happens: splitting assigns
rows to instances, conflict resolution rewires assignments and creates rows,
false-positive elimination adds rows of entirely fresh values.  Doing all of
this symbolically — and only materialising ciphertexts at the very end — keeps
the steps independent, testable, and cheap (no ciphertext is ever thrown
away).

Three kinds of cell specifications exist:

* :class:`InstanceCell` — the cell carries the plaintext value of a MAS
  instance and must encrypt identically across every row of that instance
  (the probabilistic cipher is called with the instance's variant tag).
* :class:`RandomCell` — the cell carries a plaintext value that is encrypted
  with a fresh random nonce (pure probabilistic encryption); used for
  attributes outside every MAS, whose values are unique anyway.
* :class:`FreshCell` — the cell carries *no* plaintext: it is an artificial
  value that must simply be unique (or shared with explicitly named peers);
  used for fake ECs, scaling copies outside the MAS, conflict-resolution
  replacements, and false-positive elimination records.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any, Union

from repro.core.encrypted import RowProvenance
from repro.crypto.probabilistic import Ciphertext


@dataclass(frozen=True, slots=True)
class InstanceCell:
    """A cell bound to a ciphertext instance of a MAS equivalence class."""

    value: Any
    variant: str

    def cache_key(self) -> tuple[str, str, str]:
        return ("instance", str(self.value), self.variant)


@dataclass(frozen=True, slots=True)
class RandomCell:
    """A cell encrypted with a fresh random nonce (frequency-one plaintext)."""

    value: Any


@dataclass(frozen=True, slots=True)
class FreshCell:
    """An artificial cell value identified by a unique token.

    Two fresh cells with the same token materialise to the same ciphertext
    value; distinct tokens always materialise to distinct values.
    """

    token: str


CellSpec = Union[InstanceCell, RandomCell, FreshCell]


@dataclass(slots=True)
class RowPlan:
    """A planned ciphertext row: one cell specification per attribute.

    ``provenance`` is the owner-side record the materialised row carries
    into the encrypted table.  Rows may share cell specification objects
    and provenance objects: an instance or fresh cell object materialises
    to one value however many cells hold it, while a :class:`RandomCell`
    is resolved per cell that holds it.
    """

    cells: dict[str, CellSpec]
    provenance: RowProvenance

    def replace_cell(self, attribute: str, spec: CellSpec) -> None:
        self.cells[attribute] = spec


#: Tokens whose values :meth:`FreshValueFactory.materialize_many` draws in
#: one RNG call (bounds the call's temporary buffers to a few hundred KiB).
_DRAW_CHUNK = 4096


class FreshValueFactory:
    """Generates unique artificial ciphertext-looking values.

    Artificial values must be indistinguishable from real ciphertexts to the
    server (Section 3.2.1: "the server cannot distinguish the fake values from
    real ones ... because both true and fake values are encrypted before
    outsourcing").  The factory therefore emits :class:`Ciphertext` objects
    with random nonce and payload.  Each distinct token maps to one value;
    distinct tokens receive distinct values except with negligible
    probability (40 independent random bytes per value).
    """

    def __init__(self, seed: int | None = 0, nonce_length: int = 16, payload_length: int = 24):
        self._rng = random.Random(seed)
        self._nonce_length = nonce_length
        self._payload_length = payload_length
        self._counter = 0
        self._materialized: dict[str, Ciphertext] = {}

    def new_token(self, label: str = "fresh") -> str:
        """Return a new unique token (one artificial value identity)."""
        self._counter += 1
        return f"{label}#{self._counter}"

    def fresh_cell(self, label: str = "fresh") -> FreshCell:
        """Convenience: a :class:`FreshCell` with a brand-new token."""
        return FreshCell(token=self.new_token(label))

    def materialize(self, token: str) -> Ciphertext:
        """Return the ciphertext value for ``token`` (stable per token)."""
        return self.materialize_many((token,))[0]

    def materialize_many(self, tokens: Sequence[str]) -> list[Ciphertext]:
        """:meth:`materialize` for each token in order, drawing the values
        of the tokens seen for the first time a few thousand at a time."""
        known = self._materialized
        new = [token for token in dict.fromkeys(tokens) if token not in known]
        nonce_length = self._nonce_length
        width = nonce_length + self._payload_length
        for first in range(0, len(new), _DRAW_CHUNK):
            chunk = new[first : first + _DRAW_CHUNK]
            # The exact RNG consumption pattern is part of the byte-identity
            # contract for seeded runs: a value's bytes are what one
            # getrandbits(8) call per byte would return, nonce then payload,
            # token after token.  getrandbits(32 * n) concatenates n 32-bit
            # outputs, first one least significant, and getrandbits(8) is one
            # output's top byte, so every fourth byte of the little-endian
            # form is that stream.  Distinct tokens get distinct values with
            # overwhelming probability (40 random bytes), so no uniqueness
            # bookkeeping is kept.
            words = width * len(chunk)
            drawn = self._rng.getrandbits(32 * words).to_bytes(4 * words, "little")[3::4]
            for index, token in enumerate(chunk):
                start = index * width
                known[token] = Ciphertext(
                    drawn[start : start + nonce_length], drawn[start + nonce_length : start + width]
                )
        return [known[token] for token in tokens]

    @property
    def tokens_issued(self) -> int:
        return self._counter

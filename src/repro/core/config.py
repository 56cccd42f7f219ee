"""Configuration of the F2 encryption scheme.

The paper exposes two user-facing knobs — the security threshold ``alpha`` of
alpha-security (Definition 2.1) and the split factor ``split_factor`` (the
paper's ``omega``, Section 3.2.2).  The remaining options control
reproducibility, the compute backend, and two implementation guards
documented in DESIGN.md.  MAS discovery (Step 1) has no options: it is one
exact, deterministic walk (:mod:`repro.fd.mas`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any

from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class F2Config:
    """Parameters of an F2 encryption run.

    Attributes
    ----------
    alpha:
        The alpha-security threshold in ``(0, 1]``.  Every equivalence-class
        group is padded to at least ``ceil(1/alpha)`` members, which bounds
        the frequency-analysis adversary's success probability by ``alpha``.
    split_factor:
        The paper's split factor ``omega`` (>= 1): the number of distinct
        ciphertext instances a split equivalence class is divided into.
    seed:
        Seed for every randomised choice (fake values, conflict-pair
        order).  ``None`` uses nondeterministic entropy.
    nonce_length:
        Length in bytes of the random string ``r`` of the probabilistic
        cipher (the paper's ``lambda``, in bytes).
    eliminate_false_positives:
        Run Step 4.  Disabling it reproduces the "Step 1-3 only" intermediate
        tables used in the paper's own examples (Figure 4 (b)) and in the
        ablation benchmarks.
    resolve_conflicts:
        Run Step 3.  Only disable for ablation experiments on single-MAS
        datasets.
    keep_pairs_together:
        Implementation guard (see DESIGN.md): when splitting an equivalence
        class with at least two original rows, never create a split chunk with
        fewer than two original rows.  This preserves the cross-attribute
        FD-violation witnesses that Theorem 3.7 implicitly relies on, and
        matches the paper's observation that the optimal split point splits
        only the largest classes.
    verify_and_repair:
        After Step 4, compare the FDs of the plaintext and ciphertext tables
        (TANE, LHS size capped at ``verify_max_lhs``) and insert additional
        artificial violation pairs for any residual false positive.  Off by
        default; useful for strict guarantees on small tables.
    verify_max_lhs:
        LHS-size cap used by ``verify_and_repair``.
    backend:
        Compute backend for the coded-columnar engine: ``"python"``,
        ``"numpy"``, or ``None``/``"auto"`` to consult the ``REPRO_BACKEND``
        environment variable and fall back to pure Python.  The ciphertext
        of a seeded run is byte-identical on every backend.
    """

    alpha: float = 0.2
    split_factor: int = 2
    seed: int | None = 0
    nonce_length: int = 16
    eliminate_false_positives: bool = True
    resolve_conflicts: bool = True
    keep_pairs_together: bool = True
    verify_and_repair: bool = False
    verify_max_lhs: int = 3
    backend: str | None = None

    def __post_init__(self) -> None:
        if not 0 < self.alpha <= 1:
            raise ConfigurationError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.split_factor < 1:
            raise ConfigurationError(f"split_factor must be >= 1, got {self.split_factor}")
        if self.nonce_length < 8:
            raise ConfigurationError(f"nonce_length must be >= 8 bytes, got {self.nonce_length}")
        if self.verify_max_lhs < 1:
            raise ConfigurationError("verify_max_lhs must be >= 1")
        if self.backend is not None and self.backend not in {"auto", "python", "numpy"}:
            raise ConfigurationError(
                f"unknown backend: {self.backend!r} (expected 'python', 'numpy', or 'auto')"
            )

    @property
    def group_size(self) -> int:
        """The minimum ECG size ``k = ceil(1/alpha)`` (Section 3.2.1)."""
        return max(1, math.ceil(1.0 / self.alpha))

    def with_alpha(self, alpha: float) -> "F2Config":
        """Return a copy with a different alpha (parameter sweeps)."""
        return replace(self, alpha=alpha)

    def with_split_factor(self, split_factor: int) -> "F2Config":
        """Return a copy with a different split factor."""
        return replace(self, split_factor=split_factor)

    def to_dict(self) -> dict[str, Any]:
        """Flat dictionary form for reports and benchmark metadata."""
        return {
            "alpha": self.alpha,
            "split_factor": self.split_factor,
            "group_size": self.group_size,
            "seed": self.seed,
            "nonce_length": self.nonce_length,
            "eliminate_false_positives": self.eliminate_false_positives,
            "resolve_conflicts": self.resolve_conflicts,
            "keep_pairs_together": self.keep_pairs_together,
            "verify_and_repair": self.verify_and_repair,
            "backend": self.backend,
        }

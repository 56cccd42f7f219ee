"""Functional dependency machinery.

Provides the FD objects and algorithms that the paper relies on:

* :class:`~repro.fd.fd.FunctionalDependency` and :class:`~repro.fd.fd.FDSet` —
  the dependency objects and their algebra (closure, implication, minimal
  cover).
* :func:`~repro.fd.tane.tane` — the TANE discovery algorithm [Huhtala et al.],
  which the paper uses both for the server-side discovery on the ciphertext
  and for the "local FD discovery vs. outsourcing" comparison of Section 5.4.
* :func:`~repro.fd.discovery.discover_fds_naive` — a brute-force oracle used
  by the test suite to validate TANE and the FD-preservation theorem.
* :func:`~repro.fd.mas.find_maximal_attribute_sets` — Step 1 of F2: maximal
  non-unique column combination discovery (the DUCC adaptation of Section 3.1),
  one exact, deterministic walk with no options.
* :mod:`~repro.fd.verify` — checking whether specific FDs hold and comparing
  FD sets between the plaintext and ciphertext tables.
"""

from repro.fd.discovery import discover_fds_naive
from repro.fd.fd import FDSet, FunctionalDependency
from repro.fd.mas import MaximalAttributeSet, find_maximal_attribute_sets
from repro.fd.tane import tane
from repro.fd.verify import fd_holds, fds_equivalent, violating_row_pairs

__all__ = [
    "FDSet",
    "FunctionalDependency",
    "MaximalAttributeSet",
    "discover_fds_naive",
    "fd_holds",
    "fds_equivalent",
    "find_maximal_attribute_sets",
    "tane",
    "violating_row_pairs",
]

"""Regression coverage for the (fixed) FD-preservation false negative.

ROADMAP ("Known algorithmic bug", PR 1): on small tables with several
overlapping MASs plus conflicts, conflict resolution could *lose* a true
FD — a version of a conflicting row kept an instance's ciphertext on part
of a MAS while freshening the rest, so the instance's prefix appeared next
to a value the instance never had, violating Theorem 3.7.  Fixed in
``repro.core.conflict._uncorrupted``: a version only retains bindings whose
MAS is untouched by its fresh set (a fully kept MAS cannot break an FD,
because by MAS maximality the RHS of any FD whose LHS lies inside the MAS
also lies inside it).

The pinned falsifying example now encrypts correctly; the detection pass in
:class:`repro.api.stages.VerifyRepairStage` stays, and its warning path is
exercised directly against a doctored ciphertext.
"""

from __future__ import annotations

import random
import warnings
from types import SimpleNamespace

import pytest

from repro.api.stages import VerifyRepairStage
from repro.core.config import F2Config
from repro.core.scheme import F2Scheme
from repro.crypto.keys import KeyGen
from repro.exceptions import FdPreservationWarning
from repro.fd.fd import FunctionalDependency
from repro.fd.tane import tane
from repro.fd.verify import fd_holds
from repro.relational.table import Relation
from tests.conftest import make_random_table

#: The ROADMAP falsifying example: plaintext holds {X0, X2} -> X3; before
#: the conflict-resolution fix the ciphertext only held {X0, X1, X2} -> X3
#: (a conflict version carried a partial MAS instance, losing the witness).
LOST_FD_TABLE = Relation(
    ["X0", "X1", "X2", "X3"],
    [
        ["v0_0", "v1_0", "v2_1", "v3_0"],
        ["v0_0", "v1_0", "v2_0", "v3_1"],
        ["v0_0", "v1_1", "v2_0", "v3_1"],
        ["v0_0", "v1_1", "v2_1", "v3_0"],
        ["v0_1", "v1_0", "v2_0", "v3_0"],
    ],
    name="roadmap-lost-fd",
)
KEY_SEED = 1
CONFIG_SEED = 1
ALPHA = 0.5
LOST_FD = FunctionalDependency(["X0", "X2"], "X3")


def _encrypt(**config_overrides):
    config = F2Config(alpha=ALPHA, seed=CONFIG_SEED, **config_overrides)
    scheme = F2Scheme(key=KeyGen.symmetric_from_seed(KEY_SEED), config=config)
    return scheme.encrypt(LOST_FD_TABLE.copy())


def test_plaintext_holds_the_fd():
    assert fd_holds(LOST_FD_TABLE, LOST_FD)
    assert any(fd == LOST_FD for fd in tane(LOST_FD_TABLE))


def test_lost_fd_is_preserved():
    """The historical falsifying example survives encryption intact."""
    encrypted = _encrypt()
    assert fd_holds(encrypted.server_view(), LOST_FD), (
        "Theorem 3.7 violated: plaintext FD absent from the ciphertext"
    )
    assert tane(LOST_FD_TABLE).equivalent_to(tane(encrypted.server_view()))


def test_verify_repair_is_quiet_on_the_fixed_example():
    """verify_and_repair no longer warns on the pinned table."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", FdPreservationWarning)
        encrypted = _encrypt(verify_and_repair=True)
    assert "lost_fds" not in encrypted.metadata


def test_lost_fd_detection_still_fires_on_a_doctored_ciphertext():
    """The false-negative detector itself keeps working.

    No known input reproduces a lost FD any more, so the warning path is
    driven directly: a fake ciphertext relation breaks {X0, X2} -> X3 by
    giving two rows the same (X0, X2) pair but different X3 values.
    """
    doctored = Relation(
        ["X0", "X1", "X2", "X3"],
        [
            ["c0", "c1a", "c2", "c3a"],
            ["c0", "c1b", "c2", "c3b"],
        ],
        name="doctored",
    )
    ctx = SimpleNamespace(
        relation=LOST_FD_TABLE,
        config=F2Config(alpha=ALPHA, verify_and_repair=True),
        backend=None,
        metadata={},
    )
    encrypted = SimpleNamespace(relation=doctored, metadata={})
    ciphertext_fds = tane(doctored)
    with pytest.warns(FdPreservationWarning, match=r"X0.*X2.*X3"):
        VerifyRepairStage._warn_about_lost_fds(ctx, encrypted, ciphertext_fds)
    assert encrypted.metadata.get("lost_fds")
    assert any("X3" in text for text in encrypted.metadata["lost_fds"])


def test_verify_repair_is_quiet_when_fds_survive(zipcode_table):
    """No spurious warnings on a table whose FDs all survive encryption."""
    config = F2Config(alpha=0.25, seed=7, verify_and_repair=True)
    scheme = F2Scheme(key=KeyGen.symmetric_from_seed(43), config=config)
    with warnings.catch_warnings():
        warnings.simplefilter("error", FdPreservationWarning)
        encrypted = scheme.encrypt(zipcode_table)
    assert "lost_fds" not in encrypted.metadata


# ----------------------------------------------------------------------
# Open: ROADMAP item 10 (Theorem 1 on every table)
# ----------------------------------------------------------------------
#: Random tables on which F2 still loses a plaintext FD: ``(table seed,
#: attributes, rows, alpha, the FD lost)``.  Each table is
#: ``make_random_table(seed, num_rows=rows, num_attributes=attributes)``
#: under ``F2Config(alpha=alpha, seed=seed)`` and the key derived from
#: ``seed``.  The 4-attribute rows are ``random.Random(seed).randint(3, 8)``
#: and the 5-attribute ones ``randint(4, 12)``, the sweeps that found them.
OPEN_LOST_FDS = [
    (233, 4, 8, 0.5, FunctionalDependency(["X3"], "X2")),
    (233, 4, 8, 0.25, FunctionalDependency(["X3"], "X2")),
    (644, 4, 6, 0.25, FunctionalDependency(["X1"], "X3")),
    (201, 5, 5, 0.25, FunctionalDependency(["X1"], "X3")),
]


@pytest.mark.parametrize(("seed", "attributes", "rows", "alpha", "fd"), OPEN_LOST_FDS)
def test_open_lost_fd_tables_hold_the_fd(seed, attributes, rows, alpha, fd):
    """The pinned tables are the sweeps' tables, and their plaintext holds
    the FD, so the strict xfail below fails only where F2 loses it."""
    assert rows == random.Random(seed).randint(*{4: (3, 8), 5: (4, 12)}[attributes])
    table = make_random_table(seed, num_rows=rows, num_attributes=attributes)
    assert any(found == fd for found in tane(table))


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 10: conflict resolution still loses this FD; the fix must flip it",
)
@pytest.mark.parametrize(("seed", "attributes", "rows", "alpha", "fd"), OPEN_LOST_FDS)
def test_open_lost_fd_is_preserved(seed, attributes, rows, alpha, fd):
    table = make_random_table(seed, num_rows=rows, num_attributes=attributes)
    scheme = F2Scheme(key=KeyGen.symmetric_from_seed(seed), config=F2Config(alpha=alpha, seed=seed))
    assert fd_holds(scheme.encrypt(table).server_view(), fd)

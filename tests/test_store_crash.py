"""Crash-point injection for the segment store's table log.

:class:`CrashInjector` stands in for :mod:`repro.store.manifest`'s ``os``
module — the one seam every store mutation goes through.  It numbers each
write, fsync, rename, truncate and unlink under the table directory and
fails the k-th.  In ``crash`` mode the process "dies" there and the
injector rewrites the directory as a power loss at that point would leave
it:

* bytes written to a file after its last fsync are lost;
* directory entries created or renamed after the directory's last fsync
  are lost (a renamed-over file comes back);
* unlinks are taken as durable at once — the harsher case for a deletion.

In ``error`` mode the call raises :class:`OSError` (a write first lands
half its bytes) and the process carries on with the same store.

Every scenario — a 1-row append commit, a folding commit, a log rotation,
a ``replace`` and the first ``replace`` into an empty directory — runs
for every k, plus one crash right after the commit returned.  After the reopen the table must be
in its pre-commit or its post-commit state; the post-commit state once the
commit's last fsync had returned; and the commit version never below the
acknowledged one.  The recovered store must verify and take the next
commit.
"""

from __future__ import annotations

import os
import shutil
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import pytest

from repro.api.delta import ViewDelta, apply_view_delta, compute_view_delta
from repro.backend import get_backend
from repro.exceptions import StoreIntegrityWarning
from repro.relational.table import Relation
from repro.store import FOLD_LOG_RECORDS, FOLD_VIEW_SLICES, SegmentTableStore
from repro.store import manifest as manifest_module

DIRECTORY = object()  # the fd-map marker of the table directory itself


class InjectedCrash(BaseException):
    """The process died at an injected crash point (nothing may catch it)."""


class CrashInjector:
    """The ``os`` module of :mod:`repro.store.manifest`, with crash points."""

    def __init__(self, directory: Path, fail_at: "int | None" = None, mode: str = "crash"):
        self.directory = directory
        self.fail_at = fail_at
        self.mode = mode
        self.ops: list[tuple[str, str]] = []
        self.crashed = False
        self._fds: dict[int, object] = {}  # fd -> inode id, or DIRECTORY
        self._next_inode = 0
        self._live: dict[str, int] = {}  # name -> inode
        self._durable_names: dict[str, int] = {}  # as of the last directory fsync
        self._durable_data: dict[int, bytes] = {}  # inode -> bytes at its last fsync
        for name in os.listdir(directory):
            inode = self._new_inode(name)
            self._durable_data[inode] = (directory / name).read_bytes()
        self._durable_names = dict(self._live)

    def __getattr__(self, name):
        return getattr(os, name)

    def _new_inode(self, name: str) -> int:
        self._next_inode += 1
        self._live[name] = self._next_inode
        return self._next_inode

    def _name_of(self, inode: int) -> str:
        return next(name for name, live in self._live.items() if live == inode)

    def _op(self, kind: str, name: str) -> None:
        if self.crashed:
            raise InjectedCrash("the process is gone")
        self.ops.append((kind, name))
        if len(self.ops) == self.fail_at:
            if self.mode == "crash":
                self.crashed = True
                raise InjectedCrash(f"crash at {kind} of {name}")
            raise OSError(5, f"injected {kind} failure on {name}")

    def _ours(self, path) -> bool:
        return Path(path).parent == self.directory

    # -- the intercepted calls ------------------------------------------
    def open(self, path, flags, mode=0o777):
        if Path(path) == self.directory:
            fd = os.open(path, flags, mode)
            self._fds[fd] = DIRECTORY
            return fd
        if not self._ours(path):
            return os.open(path, flags, mode)
        name = Path(path).name
        fd = os.open(path, flags, mode)
        inode = self._live.get(name)
        if inode is None:
            inode = self._new_inode(name)
        self._fds[fd] = inode
        return fd

    def close(self, fd):
        self._fds.pop(fd, None)
        os.close(fd)

    def write(self, fd, data):
        inode = self._fds.get(fd)
        if inode is None:
            return os.write(fd, data)
        try:
            self._op("write", self._name_of(inode))
        except OSError:
            os.write(fd, bytes(data[: max(1, len(data) // 2)]))
            raise
        return os.write(fd, data)

    def fsync(self, fd):
        target = self._fds.get(fd)
        if target is None:
            return os.fsync(fd)
        name = "." if target is DIRECTORY else self._name_of(target)
        self._op("fsync", name)
        os.fsync(fd)
        if target is DIRECTORY:
            self._durable_names = dict(self._live)
        else:
            self._durable_data[target] = (self.directory / name).read_bytes()

    def replace(self, src, dst):
        self._op("rename", f"{Path(src).name}->{Path(dst).name}")
        os.replace(src, dst)
        self._live[Path(dst).name] = self._live.pop(Path(src).name)

    def ftruncate(self, fd, length):
        self._op("truncate", self._name_of(self._fds[fd]))
        os.ftruncate(fd, length)

    def truncate(self, path, length):
        self._op("truncate", Path(path).name)
        os.truncate(path, length)

    def unlink(self, path):
        name = Path(path).name
        self._op("unlink", name)
        os.unlink(path)
        inode = self._live.pop(name)
        if self._durable_names.get(name) == inode:
            del self._durable_names[name]

    # -- the power loss -------------------------------------------------
    def lose_unsynced_state(self) -> None:
        """Rewrite the directory as the disk holds it after a power loss."""
        for name in os.listdir(self.directory):
            os.unlink(self.directory / name)
        for name, inode in self._durable_names.items():
            (self.directory / name).write_bytes(self._durable_data.get(inode, b""))


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
BACKEND = get_backend("python")


def table(rows: int, tag: str = "r") -> Relation:
    return Relation.from_columns(
        {
            "city": [f"city{i % 9}" for i in range(rows)],
            "zip": [f"{i % 13:05d}" for i in range(rows)],
            "street": [f"{tag}{i}" for i in range(rows)],
        },
        name="orders",
    )


def grow_by_one(relation: Relation, tag: str) -> Relation:
    middle = relation.num_rows // 2
    rows = [list(relation.row(i)) for i in range(relation.num_rows)]
    rows.insert(middle, ["city-new", "99999", tag])
    return Relation(list(relation.attributes), rows, name=relation.name)


def drop_last(relation: Relation) -> ViewDelta:
    return ViewDelta(
        base_rows=relation.num_rows,
        segments=[["c", 0, relation.num_rows - 1]],
        table_name=relation.name,
    )


def interleave(relation: Relation) -> ViewDelta:
    """A delta cutting the view into one slice per row and per new row."""
    rows = relation.num_rows
    return ViewDelta(
        base_rows=rows,
        segments=[seg for i in range(rows) for seg in (["c", i, 1], ["l", 1])],
        literals=Relation(
            list(relation.attributes),
            [["city-x", f"{i:05d}", f"x{i}"] for i in range(rows)],
            name=relation.name,
        ),
        table_name=relation.name,
    )


@dataclass
class Scenario:
    """``build`` fills a directory and returns the committed (rows, version);
    ``commit`` runs the write under test on an open store (``None`` when
    ``opens`` is false: the commit creates the store) and returns the rows
    after it."""

    build: Callable[[Path], tuple[Relation, int]]
    commit: Callable[[Path, "SegmentTableStore | None", Relation], Relation]
    opens: bool = True


def build_with_deltas(directory: Path, base: Relation, deltas: int, make) -> tuple[Relation, int]:
    store = SegmentTableStore(directory, BACKEND, create=True)
    store.replace(base)
    current = base
    for step in range(deltas):
        delta = make(current, step)
        store.apply_delta(delta)
        current = apply_view_delta(current, delta)
    version = store.commit_version
    store.close()
    return current, version


def apply(store, current, delta) -> Relation:
    store.apply_delta(delta)
    return apply_view_delta(current, delta)


def grow_delta(current: Relation, step) -> ViewDelta:
    return compute_view_delta(current, grow_by_one(current, f"g{step}"))


def first_replace(directory: Path, store, current) -> Relation:
    fresh = SegmentTableStore(directory, BACKEND, create=True)
    fresh.replace(table(12, "f"))
    fresh.close()
    return table(12, "f")


def build_empty(directory: Path) -> tuple[None, int]:
    directory.mkdir(parents=True)
    return None, 0  # no committed table


SCENARIOS = {
    "append": Scenario(
        build=lambda d: build_with_deltas(d, table(20), 2, grow_delta),
        commit=lambda d, store, current: apply(store, current, grow_delta(current, "c")),
    ),
    "fold": Scenario(
        build=lambda d: build_with_deltas(d, table(FOLD_VIEW_SLICES // 2 + 1), 1, grow_delta),
        commit=lambda d, store, current: apply(store, current, interleave(current)),
    ),
    "rotation": Scenario(
        build=lambda d: build_with_deltas(
            d, table(FOLD_LOG_RECORDS + 10), FOLD_LOG_RECORDS, lambda c, _: drop_last(c)
        ),
        commit=lambda d, store, current: apply(store, current, drop_last(current)),
    ),
    "replace": Scenario(
        build=lambda d: build_with_deltas(d, table(20), 2, grow_delta),
        commit=lambda d, store, current: (store.replace(table(7, "n")), table(7, "n"))[1],
    ),
    "first-replace": Scenario(build=build_empty, commit=first_replace, opens=False),
}


@pytest.fixture(scope="module")
def templates(tmp_path_factory):
    """Each scenario's pre-commit directory, built once."""
    built = {}
    for name, scenario in SCENARIOS.items():
        directory = tmp_path_factory.mktemp(name) / "t.f2s"
        built[name] = (directory, *scenario.build(directory))
    return built


def reopen(directory: Path) -> SegmentTableStore:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StoreIntegrityWarning)
        return SegmentTableStore(directory, BACKEND, create=True)


def state_of(store: SegmentTableStore) -> tuple["Relation | None", int]:
    version = store.commit_version
    return (store.relation() if version else None), version


def follow_up(store: SegmentTableStore, rows: "Relation | None") -> Relation:
    """The next commit after ``rows``: a 1-row delta, or a first replace."""
    if rows is None:
        store.replace(table(5, "next"))
        return table(5, "next")
    return apply(store, rows, grow_delta(rows, "follow"))


def run(name, templates, workdir: Path, fail_at=None, mode="crash"):
    """One scenario run; returns (injector, store-or-None, outcome)."""
    template, pre, pre_version = templates[name]
    scenario = SCENARIOS[name]
    directory = workdir / "t.f2s"
    if directory.exists():
        shutil.rmtree(directory)
    shutil.copytree(template, directory)
    store = SegmentTableStore(directory, BACKEND) if scenario.opens else None
    injector = CrashInjector(directory, fail_at, mode)
    real_os = manifest_module.os
    manifest_module.os = injector
    try:
        post = scenario.commit(directory, store, pre)
        outcome = "returned"
    except InjectedCrash:
        post, outcome = None, "crashed"
    except OSError:
        post, outcome = None, "failed"
    finally:
        manifest_module.os = real_os
    return injector, store, post, outcome


def expected_post(name, templates, workdir: Path):
    """The scenario's post-commit rows and version, and its op list."""
    injector, store, post, outcome = run(name, templates, workdir)
    assert outcome == "returned"
    store = store or reopen(workdir / "t.f2s")
    version = store.commit_version
    store.close()
    return post, version, injector.ops


def check_recovered(directory: Path, allowed: dict, must_be_post: bool, post) -> None:
    store = reopen(directory)
    try:
        state = state_of(store)
        assert state in allowed.values(), state[1]
        if must_be_post:
            assert state == allowed["post"]
        if state[1]:
            assert store.verify() is True
        # The recovered directory takes the next commit, durably.
        rows, version = state
        follow = follow_up(store, rows)
        store.close()
        store = reopen(directory)
        assert state_of(store) == (follow, version + 1)
        assert store.verify() is True
    finally:
        store.close()


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_every_crash_point_recovers_to_pre_or_post(name, templates, tmp_path):
    _, pre, pre_version = templates[name]
    post, post_version, ops = expected_post(name, templates, tmp_path)
    allowed = {"pre": (pre, pre_version), "post": (post, post_version)}
    assert post_version > pre_version
    durable = max(i for i, (kind, _) in enumerate(ops, start=1) if kind == "fsync")
    outcomes = set()
    # k = len(ops) + 1 crashes right after the commit returned.
    for fail_at in range(1, len(ops) + 2):
        injector, store, _, outcome = run(name, templates, tmp_path, fail_at)
        assert outcome == ("crashed" if fail_at <= len(ops) else "returned")
        if store is not None:
            store.close()
        injector.lose_unsynced_state()
        directory = tmp_path / "t.f2s"
        probe = reopen(directory)
        outcomes.add("post" if state_of(probe) == allowed["post"] else "pre")
        probe.close()
        check_recovered(directory, allowed, fail_at > durable, post)
    assert outcomes == {"pre", "post"}


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_every_failed_call_leaves_a_consistent_store(name, templates, tmp_path):
    _, pre, pre_version = templates[name]
    post, post_version, ops = expected_post(name, templates, tmp_path)
    allowed = {"pre": (pre, pre_version), "post": (post, post_version)}
    directory = tmp_path / "t.f2s"
    for fail_at in range(1, len(ops) + 1):
        _, store, _, outcome = run(name, templates, tmp_path, fail_at, mode="error")
        if store is None:
            store = reopen(directory)
        try:
            # Memory is in the pre- or post-commit state, and a failed
            # commit never leaves it ahead of or behind the disk.
            state = state_of(store)
            assert state in allowed.values()
            if outcome == "returned":
                assert state == allowed["post"]
            disk = reopen(directory)
            assert state_of(disk) == state
            disk.close()
            rows, version = state
            follow = follow_up(store, rows)
        finally:
            store.close()
        reopened = reopen(directory)
        assert state_of(reopened) == (follow, version + 1)
        assert reopened.verify() is True
        reopened.close()


def test_scenarios_cover_each_commit_kind(templates, tmp_path):
    """The ops each scenario numbers: an append is one write + one fsync;
    the checkpoints fsync the directory before and after the CURRENT flip."""
    kinds = {}
    for name in SCENARIOS:
        _, _, ops = expected_post(name, templates, tmp_path)
        kinds[name] = [kind for kind, _ in ops]
    assert kinds["append"] == ["write", "fsync"]
    for name in ("fold", "rotation", "replace", "first-replace"):
        ops = kinds[name]
        rename = ops.index("rename")
        assert ops[rename - 1] == "fsync" and ops[rename + 1] == "fsync"
        # Superseded files go only after the last directory fsync.
        assert set(ops[rename + 2 :]) == (set() if name == "first-replace" else {"unlink"})

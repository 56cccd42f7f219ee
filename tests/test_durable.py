"""Durable file replacement outside the segment store.

The tenant registry and the metrics dump replace a whole file at a time,
and the server creates its storage root and the registry its parent
directories: each must leave its directory entries durable.  A recording monkeypatch of ``os.fsync``/``os.replace``
pins the order — fsync the new file, rename it over the target, fsync the
directory — so a rename that returned survives power loss.
"""

import os
import stat

import pytest

from repro import obs
from repro.api.auth import TenantRegistry
from repro.api.protocol import ProtocolServer
from repro.durable import replace_file
from repro.store import manifest as manifest_module


@pytest.fixture
def recorded(monkeypatch):
    """Every fsync (of a file or a directory) and rename, in call order."""
    calls: list = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        calls.append("fsync-dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "fsync-file")
        real_fsync(fd)

    def replace(source, target):
        calls.append(("rename", os.path.basename(target)))
        real_replace(source, target)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    return calls


def durable_replace(name: str) -> list:
    return ["fsync-file", ("rename", name), "fsync-dir"]


def test_replace_file_fsyncs_file_then_renames_then_fsyncs_directory(tmp_path, recorded):
    target = tmp_path / "state.json"
    target.write_bytes(b"old")
    replace_file(target, b"new")
    assert recorded == durable_replace("state.json")
    assert target.read_bytes() == b"new"
    assert os.listdir(tmp_path) == ["state.json"]


def test_failed_write_keeps_the_target_and_no_temp_file(tmp_path, monkeypatch):
    target = tmp_path / "state.json"
    target.write_bytes(b"old")

    def broken_write(fd, data):
        raise OSError("disk full")

    monkeypatch.setattr(os, "write", broken_write)
    with pytest.raises(OSError, match="disk full"):
        replace_file(target, b"new")
    assert target.read_bytes() == b"old"
    assert os.listdir(tmp_path) == ["state.json"]


def test_tenant_registry_save_is_durable(tmp_path, recorded):
    path = tmp_path / "tenants.json"
    registry = TenantRegistry(path)
    registry.mint("acme", "owner")
    assert recorded == durable_replace("tenants.json")
    recorded.clear()
    registry.revoke("acme", "owner")
    assert recorded == durable_replace("tenants.json")
    assert TenantRegistry(path).key_for("acme", "owner").revoked


def test_metrics_dump_is_durable(tmp_path, recorded):
    obs.write_metrics_file(str(tmp_path / "metrics.prom"))
    assert recorded == durable_replace("metrics.prom") + durable_replace("metrics.prom.json")
    assert sorted(os.listdir(tmp_path)) == ["metrics.prom", "metrics.prom.json"]


def test_server_creates_its_storage_root_durably(tmp_path, monkeypatch):
    synced: list = []
    real = manifest_module.fsync_dir

    def fsync_dir(directory):
        synced.append(directory)
        real(directory)

    monkeypatch.setattr(manifest_module, "fsync_dir", fsync_dir)
    ProtocolServer(storage_dir=tmp_path / "a" / "b")
    # Each new directory is fsynced into its parent, outermost first.
    assert synced == [tmp_path, tmp_path / "a"]


def test_registry_creates_its_parent_directories_durably(tmp_path, monkeypatch):
    synced: list = []
    real = manifest_module.fsync_dir

    def fsync_dir(directory):
        synced.append(directory)
        real(directory)

    monkeypatch.setattr(manifest_module, "fsync_dir", fsync_dir)
    TenantRegistry(tmp_path / "a" / "b" / "tenants.json").mint("acme", "owner")
    # The missing parents are fsynced into theirs before the file lands.
    assert synced == [tmp_path, tmp_path / "a"]

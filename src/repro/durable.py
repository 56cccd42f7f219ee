"""Durable whole-file replacement for the files outside the segment store.

The tenant registry and the metrics dump rewrite one small file at a time.
:func:`replace_file` writes a temporary file beside the target, fsyncs it,
renames it over the target and fsyncs the directory: after a crash the
path holds the old bytes or the new ones, and a rename that returned
survives power loss (the "rename not persisted" class of Pillai et al.,
"All File Systems Are Not Created Equal", OSDI 2014).  Segment stores do
their own file mutation through :mod:`repro.store.manifest`.
"""

from __future__ import annotations

import os
import tempfile


def replace_file(path: "str | os.PathLike[str]", data: bytes) -> None:
    """Atomically and durably replace ``path``'s contents with ``data``.

    The temporary file is ``.<name>.<random>.tmp`` beside the target.
    """
    directory, name = os.path.split(os.path.abspath(path))
    fd, temp = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp", dir=directory)
    try:
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view) :]
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(temp, path)
    except BaseException:
        try:
            os.unlink(temp)
        except OSError:
            pass
        raise
    dir_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)

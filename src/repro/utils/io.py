"""Durable file writes.

Checkpoint files are the crash-recovery story of the serving tier: a
torn write (process killed mid-``write``, disk full halfway) must never
leave a half-checkpoint that a restart then tries to restore.
:func:`atomic_write_bytes` gives every checkpoint save path the same
guarantee: readers observe either the old complete file or the new
complete file, never a prefix of the new one.

The recipe is the classic POSIX one: write the payload to a temporary
file in the *same directory* (so the final rename cannot cross a
filesystem boundary), flush and ``fsync`` the temporary file so the
bytes are on disk before the rename publishes them, then
``os.replace`` — an atomic rename that overwrites any existing file —
and finally ``fsync`` the directory, because the rename lives in the
directory's entries, not in the file: without that sync a committed
rename (the service's manifest commit point) can vanish on power loss
on common filesystems (Pillai et al., "All File Systems Are Not
Created Equal", OSDI 2014). The temporary file is unlinked on any
failure, so aborted writes leave no debris next to the real
checkpoints.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

__all__ = ["atomic_write_bytes", "atomic_write_text"]


def atomic_write_bytes(path: str | Path, payload: bytes) -> None:
    """Write ``payload`` to ``path`` atomically (write-tmp + ``os.replace``).

    The payload is fsynced before the rename and the directory after
    it, so after this returns the new contents survive a crash; a
    reader racing the write sees either the previous file or the
    complete new one.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    if os.name == "posix":  # directories cannot be opened on Windows
        dir_fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)


def atomic_write_text(
    path: str | Path, text: str, encoding: str = "utf-8"
) -> None:
    """:func:`atomic_write_bytes` for text payloads."""
    atomic_write_bytes(path, text.encode(encoding))

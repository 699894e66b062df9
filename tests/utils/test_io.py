"""Durable writes: the rename is made durable by a directory fsync."""

import os

from repro.utils.io import atomic_write_bytes


def test_directory_synced_after_replace(tmp_path, monkeypatch):
    """Record every fsync and the replace: the file is synced before
    the rename publishes it, and the parent directory after."""
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def recording_fsync(fd):
        events.append(("fsync", os.fstat(fd).st_ino))
        real_fsync(fd)

    def recording_replace(src, dst):
        events.append(("replace", os.stat(src).st_ino))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    monkeypatch.setattr(os, "replace", recording_replace)
    target = tmp_path / "manifest.json"
    atomic_write_bytes(target, b"{}")
    file_inode = os.stat(target).st_ino
    assert events == [
        ("fsync", file_inode),
        ("replace", file_inode),
        ("fsync", os.stat(tmp_path).st_ino),
    ]
    assert target.read_bytes() == b"{}"

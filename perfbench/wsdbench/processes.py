"""Stop and reap every process a run started.

The process backend's workers are joined by the session's ``close``.
Its shared-memory slot ring also starts multiprocessing's resource
tracker, a helper process that lives until its pipe closes. Left to
the interpreter's exit, the tracker outlives the run: it ends after
its parent, is re-parented, and nothing waits for it. ``stop_children``
ends the run's children while the run can still wait for them.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
from multiprocessing import resource_tracker

_JOIN_S = 5.0


def child_pids() -> list[int]:
    """Process ids whose parent is this process, read from ``/proc``."""
    me = os.getpid()
    pids = []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return pids
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue
        # The command name, in parentheses, may hold spaces; the
        # parent id is the second field after its closing bracket.
        fields = stat[stat.rfind(b")") + 2 :].split()
        if len(fields) > 1 and int(fields[1]) == me:
            pids.append(int(entry))
    return pids


def _tracker_pid() -> int | None:
    return getattr(resource_tracker._resource_tracker, "_pid", None)


def stop_children() -> None:
    """End every child of this process and wait until each has ended.

    Multiprocessing children get ``terminate`` and then ``kill``. The
    resource tracker is stopped through its own pipe, so that it still
    unlinks any shared-memory segment left registered, and it is
    stopped last because forked children hold that pipe open too. Any
    other child is killed. Every child is reaped.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(_JOIN_S)
        if child.is_alive():
            child.kill()
            child.join()
    tracker = _tracker_pid()
    for pid in child_pids():
        if pid == tracker:
            continue
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        try:
            stop()
        except ChildProcessError:
            pass

"""Metric names, units and the small statistics the benchmark reports.

``END_TO_END`` and ``PER_LAYER`` are the benchmark's declared metric
set; ``BENCHMARK.json`` at the repository root lists the same names and
the benchmark's own tests keep the two in step.
"""

from __future__ import annotations

import math
import os
import re

from wsdbench.inputs import TABLE_ALGORITHMS

__all__ = [
    "END_TO_END",
    "PER_LAYER",
    "NAME_RE",
    "percentile",
    "median",
    "peak_rss_mib",
    "reset_peak_rss",
]

#: name -> unit, measured with tracing off.
END_TO_END = {
    "setup_s": "s",
    "events_per_s": "ev/s",
    "visible_p50_ms": "ms",
    "visible_p90_ms": "ms",
    "checkpoint_p50_ms": "ms",
    "peak_rss_mb": "MiB",
}

#: name -> unit, measured in the traced run.
PER_LAYER = {
    **{f"runner.trial_s.{alg}": "s" for alg in TABLE_ALGORITHMS},
    **{f"runner.stopwatch_s.{alg}": "s" for alg in TABLE_ALGORITHMS},
    **{f"runner.are.{alg}": "%" for alg in TABLE_ALGORITHMS},
    "quality.are_pct": "%",
    "patterns.truth_s": "s",
    "samplers.process_calls": "count",
    "samplers.process_s": "s",
    "samplers.process_batch_events": "count",
    "samplers.process_batch_s": "s",
    "weights.learned_calls": "count",
    "weights.learned_s": "s",
    "graph.block_encode_s": "s",
    "graph.block_decode_s": "s",
    "graph.block_bytes": "bytes",
    "ingest.send_s": "s",
    "ingest.handoff_wait_s": "s",
    "codec.encode_calls": "count",
    "codec.decode_calls": "count",
    "codec.busy_s": "s",
    "codec.bytes": "bytes",
    "queries.stats_s": "s",
    "service.ingest_calls": "count",
    "service.ingest_s": "s",
    "service.snapshot_calls": "count",
    "service.checkpoint_s": "s",
    "service.checkpoint_bytes": "bytes",
    "service.wal_events_max": "count",
    "service.recoveries": "count",
    "executor.ingest_s": "s",
    "executor.partition_s": "s",
    "executor.barrier_wait_s": "s",
    "executor.shard_skew": "ratio",
    "workers.send_block_calls": "count",
    "workers.send_block_s": "s",
    "workers.shm_ratio": "ratio",
    "trace.overhead": "ratio",
    "trace.coverage": "ratio",
}

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0-100), linear between closest ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values) -> float:
    return percentile(values, 50.0)


def _proc_kib(path: str, fields: tuple[str, ...]) -> int | None:
    """Sum of the ``fields`` (in kB) of a ``/proc`` status-like file."""
    total = 0
    try:
        with open(path, encoding="ascii") as handle:
            for line in handle:
                name, _, rest = line.partition(":")
                if name in fields:
                    total += int(rest.split()[0])
    except (OSError, ValueError, IndexError):
        return None
    return total


def _child_pids() -> list[int]:
    """Live direct children of this process (Linux ``/proc`` scan)."""
    me = os.getpid()
    children = []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return children
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                stat = handle.read()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        fields = stat.rsplit(")", 1)[-1].split()
        if len(fields) > 1 and fields[1] == str(me):
            children.append(int(entry))
    return children


def reset_peak_rss() -> bool:
    """Restart this process's RSS high-water mark at its current RSS.

    Writing ``5`` to ``/proc/self/clear_refs`` resets ``VmHWM``, so a
    later :func:`peak_rss_mib` covers only what ran after this call,
    not the set-up before it. Returns whether the kernel allowed it.
    """
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        return False
    return True


def peak_rss_mib() -> float:
    """Peak RSS of this process plus its live children's private memory, MiB.

    This process's peak is ``VmHWM``, counted from the last
    :func:`reset_peak_rss`. A forked worker shares the pages it
    inherited with this process, so each child counts only its own
    pages (``Private_Clean`` + ``Private_Dirty`` of ``smaps_rollup``),
    read now; call this before tearing worker processes down.
    """
    own = _proc_kib("/proc/self/status", ("VmHWM",)) or 0
    children = [
        _proc_kib(f"/proc/{pid}/smaps_rollup", ("Private_Clean", "Private_Dirty"))
        for pid in _child_pids()
    ]
    return (own + sum(kib for kib in children if kib is not None)) / 1024.0

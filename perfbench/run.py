"""Run one benchmark workload and print its metrics as JSON.

Usage, from the repository root::

    python3 perfbench/run.py --workload socket-sparse --seed 1 \
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs an untraced half-window, then a traced half-window
that wraps each layer's public calls, and reports the per-layer
metrics. The last line of standard output is the result object
(``correct``, ``attempted``, ``failed``, ``metrics``); the line before
it records the host and run metadata. A failed correctness gate prints
the result with ``"correct": false`` and exits 1. See
``perfbench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SETUP_REPEATS = 3


def _git_commit(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        packed = git / "packed-refs"
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def _host_speed(seconds: float = 0.25) -> float:
    """Iterations per second of a fixed pure-Python loop on this host.

    Recorded beside each result so that a reader can tell a slower
    program from a slower host: a shared virtual machine's speed moves
    by tens of percent over minutes.
    """
    start = time.perf_counter()
    rounds = 0
    while time.perf_counter() - start < seconds:
        total = 0
        for i in range(10_000):
            total += i * i
        rounds += 1
    return rounds / (time.perf_counter() - start)


def _metadata(args, started_utc: str, wall_s: float) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(ROOT),
        "started_utc": started_utc,
        "run_wall_s": wall_s,
    }


def _end_to_end(setup_times, window, rss) -> dict[str, float]:
    from wsdbench.metrics import median, percentile

    visible_ms = [s * 1000.0 for s in window.visible]
    checkpoint_ms = [s * 1000.0 for s in window.checkpoints]
    return {
        "setup_s": median(setup_times),
        "events_per_s": window.events_per_s,
        "visible_p50_ms": percentile(visible_ms, 50) if visible_ms else 0.0,
        "visible_p90_ms": percentile(visible_ms, 90) if visible_ms else 0.0,
        "checkpoint_p50_ms": median(checkpoint_ms) if checkpoint_ms else 0.0,
        "peak_rss_mb": rss,
    }


def _per_layer(workload, ctx, untraced, traced, tracer, handoff, state, load_thread):
    from wsdbench.inputs import TABLE_ALGORITHMS
    from wsdbench.layers import layer_metrics

    values = layer_metrics(
        tracer, handoff, state, window_s=traced.wall, load_thread=load_thread
    )
    for alg in TABLE_ALGORITHMS:
        values[f"runner.trial_s.{alg}"] = traced.trial_wall.get(alg, 0.0)
        values[f"runner.stopwatch_s.{alg}"] = traced.trial_stopwatch.get(alg, 0.0)
        values[f"runner.are.{alg}"] = 0.0
    values["executor.shard_skew"] = workload.shard_skew(ctx)
    values["trace.overhead"] = (
        1.0 - traced.events_per_s / untraced.events_per_s
        if untraced.events_per_s
        else 0.0
    )
    values.update(workload.quality(ctx))
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    from wsdbench.layers import HandoffClock, install
    from wsdbench.metrics import END_TO_END, PER_LAYER, peak_rss_mib, reset_peak_rss
    from wsdbench.tracing import Tracer
    from wsdbench.workloads import WORKLOADS

    phases: dict = {}
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    started_utc = datetime.datetime.now(datetime.timezone.utc).isoformat()
    run_start = time.perf_counter()
    phases["host_loop_per_s"] = [_host_speed()]

    setup_times = []
    ctx = None
    for _ in range(SETUP_REPEATS):
        if ctx is not None:
            workload.teardown(ctx)
            ctx = None
        start = time.perf_counter()
        ctx = workload.setup(args.seed, args.seconds, ROOT)
        setup_times.append(time.perf_counter() - start)
    try:
        if args.trace:
            untraced = workload.window(ctx, args.seconds / 2)
            tracer = Tracer()
            handoff = HandoffClock(tracer.clock)
            state: dict = {}
            install(tracer, handoff, state)
            try:
                traced = workload.window(ctx, args.seconds / 2)
            finally:
                tracer.restore()
        else:
            phases["rss_reset"] = reset_peak_rss()
            window = workload.window(ctx, args.seconds)
            rss = peak_rss_mib()
        phases["host_loop_per_s"].append(_host_speed())
        gate_start = time.perf_counter()
        problems = workload.gate(ctx)
        phases["gate_s"] = time.perf_counter() - gate_start
        if args.trace:
            values = _per_layer(
                workload, ctx, untraced, traced, tracer, handoff, state,
                threading.get_ident(),
            )
            units = PER_LAYER
        else:
            values = _end_to_end(setup_times, window, rss)
            units = END_TO_END
        ops = ctx["ops"]
    finally:
        teardown_start = time.perf_counter()
        workload.teardown(ctx)
        phases["teardown_s"] = time.perf_counter() - teardown_start

    for problem in problems:
        print(f"perfbench: gate failed: {problem}", file=sys.stderr)
    meta = _metadata(args, started_utc, time.perf_counter() - run_start)
    meta["errors"] = ops.errors
    meta["setup_s"] = setup_times
    meta.update(phases)
    print(json.dumps({"meta": meta}))
    result = {
        "correct": not problems,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    from wsdbench.processes import stop_children

    try:
        code = main()
    finally:
        stop_children()
    sys.exit(code)

"""The three workloads: set-up, timed window, correctness gate, teardown.

Each workload is closed loop and driven from the benchmark's main
thread: the next operation starts when the previous one returned. A
window may be run more than once on one set-up (the traced run measures
an untraced half, then a traced half); each call continues where the
last one stopped, and the gate checks everything the windows sent.

See README.md for why each workload exists and which layers it loads.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro
from repro.errors import ReproError
from repro.estimators.metrics import (
    absolute_relative_error,
    mean_absolute_relative_error,
)
from repro.experiments import runner
from repro.graph.stream import EdgeStream, EventBlock
from repro.samplers.checkpoint import sampler_state_dict, state_to_wire
from repro.streams.executor import ExecutorOptions
from repro.streams.ingest import ServiceClient
from repro.streams.service import CountingService, ServiceConfig, StreamConfig
from repro.utils.rng import RngFactory, derive_seed

from wsdbench.inputs import (
    TABLE_ALGORITHMS,
    dense_churn_blocks,
    frozen_policy,
    sparse_light_deletion_block,
    split_blocks,
    table_config,
)
from wsdbench.metrics import median

__all__ = [
    "WORKLOADS",
    "Window",
    "Ops",
    "parity_problems",
    "serial_reference",
    "repeat_problems",
]

#: Latency samples a window collects at least, so the 90th percentile
#: has ten samples beyond it.
MIN_PROBES = 100
#: A window stops at this multiple of its nominal length, whatever work
#: is left, so a much slower program still ends within the time limit.
MAX_STRETCH = 3.0
#: Events per columnar block the block-pushing workloads send.
BLOCK_EVENTS = 1024

clock = time.perf_counter


@dataclass
class Ops:
    """Attempted and failed operations, failures by error type."""

    attempted: int = 0
    failed: int = 0
    errors: dict[str, int] = field(default_factory=dict)

    def run(self, fn, *args, **kwargs):
        """Call ``fn``; return ``(True, result)`` or ``(False, error)``.

        Any :class:`repro.errors.ReproError` counts as a failed
        operation, by type (``ServiceOverloadedError``,
        ``OperationTimeoutError``, ``WorkerCrashError``,
        ``ProtocolError``, ...); anything else is a benchmark bug and
        propagates.
        """
        self.attempted += 1
        try:
            return True, fn(*args, **kwargs)
        except ReproError as exc:
            self.failed += 1
            kind = type(exc).__name__
            self.errors[kind] = self.errors.get(kind, 0) + 1
            return False, exc


@dataclass
class Window:
    """What one timed window measured."""

    events: int = 0
    #: Wall time of the window.
    wall: float = 0.0
    #: Seconds spent in checkpoints that the throughput excludes.
    paused: float = 0.0
    #: Seconds from handing a probed unit of work to the system to the
    #: return of the read that reflects it.
    visible: list[float] = field(default_factory=list)
    #: Seconds per checkpoint call.
    checkpoints: list[float] = field(default_factory=list)
    #: Wall and self-reported seconds per algorithm (table-massive).
    trial_wall: dict[str, float] = field(default_factory=dict)
    trial_stopwatch: dict[str, float] = field(default_factory=dict)
    #: Events per second of each closed segment (see :meth:`close_segment`).
    segment_rates: list[float] = field(default_factory=list)

    @property
    def elapsed(self) -> float:
        """Seconds the window spent applying events."""
        return self.wall - self.paused

    @property
    def events_per_s(self) -> float:
        """The median segment rate; events over elapsed time without segments.

        The host's speed wanders by tens of percent over a few seconds;
        the median of a window's segments leaves slow stretches out.
        Every run of one seed cuts the same segments.
        """
        if self.segment_rates:
            return median(self.segment_rates)
        return self.events / self.elapsed if self.elapsed > 0 else 0.0

    def mark(self) -> tuple[int, float, float]:
        """The start of a segment: events, clock and paused time so far."""
        return self.events, clock(), self.paused

    def close_segment(self, mark: tuple[int, float, float]):
        """Record the rate since ``mark``, paused time left out; start a new one."""
        events, start, paused = mark
        seconds = clock() - start - (self.paused - paused)
        if seconds > 0:
            self.segment_rates.append((self.events - events) / seconds)
        return self.mark()

    def time_checkpoint(self, ops: "Ops", fn, *args) -> None:
        """Run and time one checkpoint, kept out of the throughput."""
        start = clock()
        ok, _ = ops.run(fn, *args)
        seconds = clock() - start
        if ok:
            self.checkpoints.append(seconds)
        self.paused += seconds


def _overdue(start: float, seconds: float) -> bool:
    return clock() - start >= seconds * MAX_STRETCH


def _stop(start: float, seconds: float, samples: int) -> bool:
    if _overdue(start, seconds):
        return True
    return clock() - start >= seconds and samples >= MIN_PROBES


# -- correctness gates (pure comparisons) -------------------------------------


def parity_problems(
    label: str,
    observed_estimate: float,
    observed_clock: int,
    reference_estimate: float,
    reference_clock: int,
    expected_clock: int,
) -> list[str]:
    """Bit-identity of an estimate against its serial reference."""
    problems = []
    if observed_clock != expected_clock:
        problems.append(
            f"{label}: final clock {observed_clock} != events sent {expected_clock}"
        )
    if reference_clock != observed_clock:
        problems.append(
            f"{label}: reference clock {reference_clock} != observed {observed_clock}"
        )
    if reference_estimate != observed_estimate:
        problems.append(
            f"{label}: estimate {observed_estimate!r} is not bit-identical to "
            f"the serial reference {reference_estimate!r}"
        )
    return problems


def serial_reference(config: StreamConfig, name: str, blocks) -> tuple[float, int]:
    """Estimate and clock of ``repro.open_stream`` fed ``blocks`` serially."""
    session = repro.open_stream(config, name=name)
    try:
        for block in blocks:
            session.ingest(block)
        snapshot = session.queries.stats()
        return snapshot.estimate, snapshot.clock
    finally:
        session.close()


def repeat_problems(
    label: str,
    observed: tuple[float, float],
    first: runner.TrialResult,
    second: runner.TrialResult,
    truths: tuple[int, ...],
) -> list[str]:
    """A trial re-run twice must reproduce itself and the window's numbers."""
    problems = []
    if first.estimates != second.estimates:
        problems.append(f"{label}: a repeated trial changed its estimates")
    recomputed = (
        absolute_relative_error(first.final_estimate, truths[-1]),
        mean_absolute_relative_error(first.estimates, truths),
    )
    if recomputed != observed:
        problems.append(
            f"{label}: re-run ARE/MARE {recomputed} differ from the timed "
            f"window's {observed}"
        )
    return problems


def _temp_dir(root: Path) -> Path:
    base = root / ".perfbench_tmp"
    base.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(dir=base))


def _stream_blocks_truth_pct(blocks, pattern: str, estimate: float) -> tuple[float, float]:
    """ARE (%) of ``estimate`` against the exact count; and the truth time."""
    stream = EventBlock(
        np.concatenate([b.is_insert for b in blocks]),
        np.concatenate([b.u for b in blocks]),
        np.concatenate([b.v for b in blocks]),
        canonical=True,
    )
    start = clock()
    truth = runner.compute_ground_truth(stream, pattern, 1)
    seconds = clock() - start
    if truth.final_truth == 0:
        return 0.0, seconds
    return absolute_relative_error(estimate, truth.final_truth), seconds


# -- table-massive ----------------------------------------------------------------


#: Paper-table cells per run: independent cit-PT instances, so one
#: run's numbers do not hinge on one generated graph (the instances'
#: stream lengths range from about 12k to 26k events).
TABLE_CELLS = 8
#: A trial's latency sample is its wall time scaled to a stream of this
#: many events. Unscaled, the 12k-26k spread of the cells' lengths,
#: which the seed picks, moved the trial-time percentiles by more than
#: the host and the program did.
TABLE_TRIAL_EVENTS = 20_000


@dataclass(frozen=True)
class TableCell:
    """One paper-table cell: its stream, exact truth and budget."""

    config: object
    stream: object
    truth: runner.GroundTruthTrace
    budget: int

    def trial(self, alg: str, policy):
        """One ``run_algorithm`` trial, seeded like the runner's ``run_cell``."""
        return runner.run_algorithm(
            alg, self.stream, self.truth, self.config.pattern, self.budget,
            trials=1, seed=self.config.seed, policy=policy,
        )

    def trial_sampler(self, alg: str, policy=None):
        """The sampler :meth:`trial` builds, for re-running it by hand."""
        return runner.make_trial_sampler(
            alg, self.config.pattern, self.budget,
            RngFactory(self.config.seed), 0, policy=policy,
        )


def _massive_cells(seed: int, count: int):
    """Cell configs drawn from ``seed``, enough to find ``count`` with deletions.

    The massive scenario expects four mass-deletion events per stream
    (``MASSIVE.alpha``), so now and then a stream draws none and
    replays no deletion at all; set-up skips those. Four times
    ``count`` draws bound the search.
    """
    for k in range(4 * count):
        yield table_config(derive_seed(seed, f"table-cell-{k}"))


class TableMassive:
    """The paper-table path in process: ``run_algorithm`` per trial.

    The window cycles cell by cell through the six algorithms. Every
    cycle repeats the same trials, so the ARE does not depend on how
    many cycles fit, and each repeat must reproduce bit for bit.
    """

    name = "table-massive"

    def setup(self, seed: int, seconds: float, root: Path) -> dict:
        cells = []
        truth_s = 0.0
        for config in _massive_cells(seed, TABLE_CELLS):
            stream = config.build_stream()
            if stream.num_deletions == 0:
                continue
            start = clock()
            truth = runner.compute_ground_truth(
                stream, config.pattern, config.checkpoints
            )
            truth_s += clock() - start
            cells.append(
                TableCell(config, stream, truth, config.effective_budget(stream))
            )
            if len(cells) == TABLE_CELLS:
                break
        samplers = []
        for cell in cells:
            # Fed the cell's insertions only, so every checkpoint
            # serialises a full reservoir. At the end of the whole
            # stream the reservoir holds whatever the cell's mass
            # deletions left, a size that moves with the seed.
            sampler = cell.trial_sampler("WSD-H")
            sampler.process_stream(
                EdgeStream([e for e in cell.stream if e.is_insertion])
            )
            samplers.append(sampler)
        return {
            "cells": cells,
            "samplers": samplers,
            "truth_s": truth_s,
            "policy": frozen_policy(),
            "next": 0,
            "seen": {},
            "problems": [],
            "ops": Ops(),
        }

    def window(self, ctx: dict, seconds: float) -> Window:
        window = Window()
        ops: Ops = ctx["ops"]
        seen: dict = ctx["seen"]
        cells = ctx["cells"]
        algs = TABLE_ALGORITHMS
        round_trials = len(algs) * len(cells)
        start = clock()
        mark = window.mark()
        while True:
            index = ctx["next"]
            ctx["next"] += 1
            alg = algs[index % len(algs)]
            k = (index // len(algs)) % len(cells)
            cell = cells[k]
            t0 = clock()
            ok, result = ops.run(cell.trial, alg, ctx["policy"])
            t1 = clock()
            if ok:
                window.events += len(cell.stream)
                window.visible.append(
                    (t1 - t0) * TABLE_TRIAL_EVENTS / len(cell.stream)
                )
                window.trial_wall[alg] = window.trial_wall.get(alg, 0.0) + t1 - t0
                window.trial_stopwatch[alg] = (
                    window.trial_stopwatch.get(alg, 0.0) + result.seconds[0]
                )
                numbers = (result.ares[0], result.mares[0])
                if seen.setdefault((k, alg), numbers) != numbers:
                    ctx["problems"].append(
                        f"table-massive: {alg} on cell {k} did not reproduce: "
                        f"{seen[(k, alg)]} vs {numbers}"
                    )
            if ctx["next"] % len(algs) == 0:
                # One checkpoint per algorithm cycle, spread over the window.
                window.time_checkpoint(ops, _checkpoint_frames, ctx["samplers"])
            # Stop only after whole rounds over every (cell, algorithm)
            # pair, so every window holds the same mix of trials; each
            # round is one throughput segment.
            if ctx["next"] % round_trials == 0:
                mark = window.close_segment(mark)
                if _stop(start, seconds, len(window.visible)):
                    break
        window.wall = clock() - start
        return window

    def gate(self, ctx: dict) -> list[str]:
        problems = list(ctx["problems"])
        if len(ctx["cells"]) != TABLE_CELLS:
            problems.append(
                f"table-massive: found {len(ctx['cells'])} of {TABLE_CELLS} "
                "massive cells with deletions"
            )
        for k, cell in enumerate(ctx["cells"]):
            if cell.stream.num_deletions == 0:
                problems.append(f"table-massive: cell {k}'s massive stream has no deletions")
        key = (0, "WSD-L")
        if key not in ctx["seen"]:
            return problems + ["table-massive: no WSD-L trial completed"]
        cell = ctx["cells"][0]
        reruns = [
            runner.run_sampler_trial(
                cell.trial_sampler("WSD-L", ctx["policy"]), cell.stream, cell.truth
            )
            for _ in range(2)
        ]
        return problems + repeat_problems(
            "table-massive WSD-L", ctx["seen"][key], *reruns, cell.truth.truths
        )

    def quality(self, ctx: dict) -> dict[str, float]:
        per_alg = {}
        for alg in TABLE_ALGORITHMS:
            ares = [v[0] for (_, a), v in ctx["seen"].items() if a == alg]
            per_alg[alg] = float(np.mean(ares)) if ares else 0.0
        return {
            **{f"runner.are.{alg}": are for alg, are in per_alg.items()},
            "quality.are_pct": (per_alg["WSD-H"] + per_alg["WSD-L"]) / 2,
            "patterns.truth_s": ctx["truth_s"],
        }

    def shard_skew(self, ctx: dict) -> float:
        return 0.0

    def teardown(self, ctx: dict) -> None:
        pass


def _checkpoint_frames(samplers) -> list[bytes]:
    """The paper-table path has no service, so its checkpoint is the
    sampler-level one: each state dict framed for the wire, in memory."""
    return [state_to_wire(sampler_state_dict(sampler)) for sampler in samplers]


# -- the two block-pushing workloads ----------------------------------------------


class BlockWorkload:
    """Window, gate and quality shared by ``dense-churn`` and ``socket-sparse``.

    The window pushes blocks in order; every ``probe_every``-th block is
    followed by a barrier read (a visibility probe) and every
    ``checkpoint_every``-th by a checkpoint. The gate replays every block
    sent into a serial ``repro.open_stream`` session of the same config
    and stream name. ``ctx["last"]`` holds the final barrier read as
    ``(estimate, clock, shard_times)``.

    A window sends a fixed number of blocks, sized from its nominal
    length at ``window_rate`` events per second (:meth:`window_blocks`),
    not as many as fit in the time. Blocks differ in cost (the
    session's snapshot cycle, the sampler's changing state), so a
    window that stopped on time would measure other blocks on a faster
    run than on a slower one.
    """

    name = ""
    probe_every = 1
    checkpoint_every = 1
    #: Events per second of nominal window length the window sends.
    window_rate = 1

    def config(self, seed: int) -> StreamConfig:
        raise NotImplementedError

    def send(self, ctx: dict, block: EventBlock) -> None:
        raise NotImplementedError

    def read(self, ctx: dict) -> tuple[float, int, tuple]:
        raise NotImplementedError

    def checkpoint(self, ctx: dict) -> None:
        raise NotImplementedError

    def sent_blocks(self, ctx: dict) -> list[EventBlock]:
        return ctx["blocks"][: ctx["next"]]

    def window_blocks(self, seconds: float) -> int:
        """Blocks one window of ``seconds`` sends.

        Enough for MIN_PROBES probes, rounded up to whole checkpoint
        intervals: each interval is one throughput segment.
        """
        nominal = -(-int(self.window_rate * seconds) // BLOCK_EVENTS)
        blocks = max(nominal, MIN_PROBES * self.probe_every)
        return -(-blocks // self.checkpoint_every) * self.checkpoint_every

    def run_events(self, seconds: float) -> int:
        """Events set-up generates: one window, or the traced run's two halves."""
        blocks = max(self.window_blocks(seconds), 2 * self.window_blocks(seconds / 2))
        return blocks * BLOCK_EVENTS

    def window(self, ctx: dict, seconds: float) -> Window:
        window = Window()
        ops: Ops = ctx["ops"]
        blocks = ctx["blocks"]
        end = min(len(blocks), ctx["next"] + self.window_blocks(seconds))
        start = clock()
        mark = window.mark()
        while ctx["next"] < end:
            block = blocks[ctx["next"]]
            t0 = clock()
            ok, _ = ops.run(self.send, ctx, block)
            if not ok:
                break
            ctx["next"] += 1
            window.events += len(block)
            if ctx["next"] % self.probe_every == 0:
                ok, _ = ops.run(self.read, ctx)
                if ok:
                    window.visible.append(clock() - t0)
            if ctx["next"] % self.checkpoint_every == 0:
                window.time_checkpoint(ops, self.checkpoint, ctx)
                mark = window.close_segment(mark)
            if _overdue(start, seconds):
                break
        ok, last = ops.run(self.read, ctx)
        window.wall = clock() - start
        if ok:
            ctx["last"] = last
        return window

    def gate(self, ctx: dict) -> list[str]:
        problems = list(ctx["problems"])
        if ctx["last"] is None:
            return problems + [f"{self.name}: no final barrier read succeeded"]
        estimate, observed_clock, _ = ctx["last"]
        sent = self.sent_blocks(ctx)
        reference = serial_reference(self.config(ctx["seed"]), self.name, sent)
        return problems + parity_problems(
            self.name, estimate, observed_clock, *reference,
            sum(len(block) for block in sent),
        )

    def quality(self, ctx: dict) -> dict[str, float]:
        are, seconds = _stream_blocks_truth_pct(
            self.sent_blocks(ctx), self.config(ctx["seed"]).pattern, ctx["last"][0]
        )
        return {"quality.are_pct": are, "patterns.truth_s": seconds}

    def shard_skew(self, ctx: dict) -> float:
        times = ctx["last"][2]
        return max(times) / (sum(times) / len(times))


# -- dense-churn ------------------------------------------------------------------

DENSE_VERTICES = 400
DENSE_BUDGET = 40_000
DENSE_FILL = 55_000


class DenseChurn(BlockWorkload):
    """A 2-shard process-backend session under constant-density churn."""

    name = "dense-churn"
    probe_every = 2
    #: Each checkpoint ships both shards' reservoirs back from the
    #: workers. Its time is kept out of the throughput, and the cadence
    #: keeps the write-ahead log below the session's snapshot limit, so
    #: no other snapshot runs in the window.
    checkpoint_every = 50
    #: Between today's rates on a quiet and a busy host (30k and 12k
    #: ev/s on the recording box).
    window_rate = 20_000

    def config(self, seed: int) -> StreamConfig:
        return StreamConfig(
            algorithm="WSD-H", pattern="triangle", budget=DENSE_BUDGET,
            seed=seed, shards=2, mode="partition",
        )

    def setup(self, seed: int, seconds: float, root: Path) -> dict:
        fill, churn = dense_churn_blocks(
            seed, DENSE_VERTICES, DENSE_FILL, self.run_events(seconds)
        )
        session = repro.open_stream(
            self.config(seed), name=self.name,
            executor=ExecutorOptions(backend="process", transport="shm"),
        )
        try:
            for block in split_blocks(fill, 8192):
                session.ingest(block)
            # Trim the write-ahead log so every window starts from the
            # same point of the session's snapshot cycle.
            session.checkpoint()
        except BaseException:
            session.close()
            raise
        return {
            "seed": seed,
            "session": session,
            "fill": fill,
            "blocks": split_blocks(churn, BLOCK_EVENTS),
            "next": 0,
            "problems": [],
            "ops": Ops(),
            "last": None,
        }

    def send(self, ctx: dict, block: EventBlock) -> None:
        ctx["session"].ingest(block)

    def read(self, ctx: dict) -> tuple[float, int, tuple]:
        snapshot = ctx["session"].queries.stats()
        return snapshot.estimate, snapshot.clock, snapshot.shard_times

    def checkpoint(self, ctx: dict) -> None:
        ctx["session"].checkpoint()

    def sent_blocks(self, ctx: dict) -> list[EventBlock]:
        return [ctx["fill"]] + super().sent_blocks(ctx)

    def teardown(self, ctx: dict) -> None:
        ctx["session"].close()


# -- socket-sparse ----------------------------------------------------------------

SOCKET_BUDGET = 10_000


class SocketSparse(BlockWorkload):
    """A loopback ``CountingService`` fed by one ``ServiceClient``.

    Set-up pins the benchmark process to one CPU before the service
    starts its threads. The client, the asyncio front and the session's
    executor thread share one interpreter lock; on a virtual machine
    each hand-off of that lock between two CPUs wakes a halted virtual
    CPU, and the host's wake-up delay depends on its other tenants. On
    a 2-vCPU recording box unpinned runs lost 5-20 % of their CPU time
    to the host (steal) and throughput moved by a factor of two between
    runs of the same inputs; pinned, the hand-offs stay on one CPU.
    Teardown restores the affinity.
    """

    name = "socket-sparse"
    #: Every block is followed by its barrier read (lockstep): one
    #: CPU serves client and server, so sending ahead buys no overlap,
    #: only forced lock hand-offs mid-block.
    probe_every = 1
    #: A durable checkpoint's time is dominated by the file system's
    #: sync latency, which the program does not control; it is reported
    #: as ``checkpoint_p50_ms`` and kept out of the throughput. Between
    #: checkpoints the session's own in-memory snapshots (every
    #: ``DEFAULT_WAL_LIMIT`` events) run inside ingest, as in any hosted
    #: stream.
    checkpoint_every = 256
    #: About today's rate, so a window lasts about its nominal length.
    window_rate = 350_000

    def config(self, seed: int) -> StreamConfig:
        return StreamConfig(
            algorithm="WSD-H", pattern="triangle", budget=SOCKET_BUDGET, seed=seed
        )

    def setup(self, seed: int, seconds: float, root: Path) -> dict:
        affinity = _pin_to_one_cpu()
        stream = sparse_light_deletion_block(seed, self.run_events(seconds))
        state_dir = _temp_dir(root)
        service = CountingService(
            ServiceConfig(state_dir=state_dir, checkpoint_interval=None)
        )
        client = None
        try:
            client = ServiceClient(service.start())
            client.create_stream(self.name, self.config(seed))
        except BaseException:
            if client is not None:
                client.close()
            service.stop()
            shutil.rmtree(state_dir, ignore_errors=True)
            _restore_affinity(affinity)
            raise
        return {
            "seed": seed,
            "affinity": affinity,
            "service": service,
            "client": client,
            "state_dir": state_dir,
            "blocks": split_blocks(stream, BLOCK_EVENTS),
            "next": 0,
            "problems": [],
            "ops": Ops(),
            "last": None,
        }

    def send(self, ctx: dict, block: EventBlock) -> None:
        ctx["client"].send_block(block)

    def read(self, ctx: dict) -> tuple[float, int, tuple]:
        stats = ctx["client"].stats()
        return stats["estimate"], stats["clock"], tuple(stats["shard_times"])

    def checkpoint(self, ctx: dict) -> None:
        ctx["client"].checkpoint()

    def teardown(self, ctx: dict) -> None:
        try:
            ctx["client"].close()
            ctx["service"].stop()
        finally:
            shutil.rmtree(ctx["state_dir"], ignore_errors=True)
            _restore_affinity(ctx["affinity"])


def _pin_to_one_cpu() -> set[int] | None:
    """Pin the calling thread, and the threads it starts, to one CPU.

    Returns the previous affinity, or ``None`` where the platform has no
    affinity call.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    previous = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(previous)})
    return previous


def _restore_affinity(previous: set[int] | None) -> None:
    if previous is not None:
        os.sched_setaffinity(0, previous)


WORKLOADS = {
    workload.name: workload
    for workload in (TableMassive(), DenseChurn(), SocketSparse())
}

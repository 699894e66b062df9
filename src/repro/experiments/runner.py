"""Experiment runner: repeated trials, shared ground truth, aggregation.

Running one table cell means: build the stream once (deterministic given
the config seed), compute the exact checkpoint trace once, then run N
independent sampler trials against the cached truth — timing only the
sampler — and aggregate ARE/MARE/time. A trial feeds the sampler one
checkpoint segment at a time through ``process_batch``, the same batched
path that ``process_stream``, sessions and the service run, so the
tables time the production path. The paper averages 100 sampling
repetitions per cell; the default here is smaller but configurable.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.estimators.metrics import (
    absolute_relative_error,
    mean_absolute_relative_error,
)
from repro.estimators.tracker import checkpoint_schedule, checkpoint_segments
from repro.experiments.algorithms import make_sampler
from repro.experiments.config import ExperimentConfig
from repro.graph.stream import EdgeStream
from repro.patterns.exact import ExactCounter
from repro.patterns.matching import get_pattern
from repro.rl.policy import Policy
from repro.streams.executor import ExecutorOptions, ShardedStreamExecutor
from repro.utils.rng import RngFactory, derive_seed, spawn_generators
from repro.utils.timer import Stopwatch

__all__ = [
    "GroundTruthTrace",
    "TrialResult",
    "AlgorithmResult",
    "compute_ground_truth",
    "run_sampler_trial",
    "make_trial_sampler",
    "run_algorithm",
    "run_cell",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class GroundTruthTrace:
    """Exact counts at checkpoint event indices (shared across trials)."""

    checkpoints: tuple[int, ...]
    truths: tuple[int, ...]

    @property
    def final_truth(self) -> int:
        return self.truths[-1]


@dataclass(frozen=True)
class TrialResult:
    """One sampler run against a cached ground-truth trace."""

    estimates: tuple[float, ...]
    seconds: float
    final_truth: int

    @property
    def final_estimate(self) -> float:
        return self.estimates[-1]


@dataclass
class AlgorithmResult:
    """Aggregated trials of one algorithm on one cell."""

    name: str
    ares: list[float] = field(default_factory=list)
    mares: list[float] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)

    @property
    def mean_are(self) -> float:
        return float(np.mean(self.ares))

    @property
    def mean_mare(self) -> float:
        return float(np.mean(self.mares))

    @property
    def mean_seconds(self) -> float:
        return float(np.mean(self.seconds))

    @property
    def std_are(self) -> float:
        return float(np.std(self.ares))


def compute_ground_truth(
    stream: EdgeStream, pattern: str, num_checkpoints: int
) -> GroundTruthTrace:
    """Exact counts of ``pattern`` at ``num_checkpoints`` even checkpoints."""
    checkpoints = checkpoint_schedule(len(stream), num_checkpoints)
    counter = ExactCounter(pattern)
    truths = tuple(
        counter.process_stream(segment)
        for _, segment in checkpoint_segments(stream, checkpoints)
    )
    return GroundTruthTrace(checkpoints, truths)


def run_sampler_trial(
    sampler, stream: EdgeStream, truth: GroundTruthTrace
) -> TrialResult:
    """Run one sampler over the stream, sampling estimates at checkpoints.

    The sampler consumes the stream one checkpoint segment at a time
    through ``process_batch``, which is bit-identical to per-event
    ``process`` whatever the segment bounds, so the estimates match an
    event-at-a-time run exactly. A checkpoint beyond the stream raises
    :class:`ConfigurationError`.

    Consumers exposing ``close()`` (the process-backend executor) are
    closed when the trial ends, successfully or not, so worker
    processes never outlive their trial. The stopwatch brackets each
    segment's ingestion *and* its checkpoint estimate read: for the
    process backend an estimate read is the synchronisation barrier
    where the pipelined ingestion actually completes, so excluding it
    would record enqueue-side time only and make the reported seconds
    incomparable with serial rows.
    """
    estimates: list[float] = []
    watch = Stopwatch()
    close = getattr(sampler, "close", None)
    try:
        for _, segment in checkpoint_segments(stream, truth.checkpoints):
            with watch:
                estimates.append(sampler.process_batch(segment))
    except BaseException:
        # The trial failure is the interesting exception; a teardown
        # failure on top of it is logged, not raised, so it cannot
        # mask it.
        if close is not None:
            try:
                close()
            except Exception:
                logger.debug(
                    "closing %s after a failed trial also failed",
                    type(sampler).__name__,
                    exc_info=True,
                )
        raise
    if close is not None:
        close()  # clean trial: a teardown failure is a real failure
    return TrialResult(tuple(estimates), watch.elapsed, truth.final_truth)


def _resolve_executor_options(
    executor: ExecutorOptions | None,
    executor_backend: str,
    executor_transport: str,
    executor_hosts: tuple[str, ...],
    executor_poll_seconds: float | None,
    executor_slot_poll_seconds: float | None,
    executor_stop_timeout: float | None,
    executor_recovery=None,
    executor_heartbeat_interval: float | None = None,
    executor_heartbeat_timeout: float | None = None,
) -> ExecutorOptions:
    """One options object from either spelling (both at once rejected)."""
    if executor is None:
        return ExecutorOptions(
            backend=executor_backend,
            transport=executor_transport,
            hosts=tuple(executor_hosts),
            poll_seconds=executor_poll_seconds,
            slot_poll_seconds=executor_slot_poll_seconds,
            stop_timeout=executor_stop_timeout,
            recovery_policy=executor_recovery,
            heartbeat_interval=executor_heartbeat_interval,
            heartbeat_timeout=executor_heartbeat_timeout,
        )
    overridden = [
        name
        for name, value, default in (
            ("executor_backend", executor_backend, "serial"),
            ("executor_transport", executor_transport, "auto"),
            ("executor_hosts", executor_hosts, ()),
            ("executor_poll_seconds", executor_poll_seconds, None),
            ("executor_slot_poll_seconds", executor_slot_poll_seconds, None),
            ("executor_stop_timeout", executor_stop_timeout, None),
            ("executor_recovery", executor_recovery, None),
            (
                "executor_heartbeat_interval",
                executor_heartbeat_interval,
                None,
            ),
            ("executor_heartbeat_timeout", executor_heartbeat_timeout, None),
        )
        if value != default
    ]
    if overridden:
        raise ConfigurationError(
            "pass execution knobs either through executor= or as flat "
            f"executor_* kwargs, not both; flat kwargs also given: "
            f"{overridden}"
        )
    return executor


def make_trial_sampler(
    name: str,
    pattern: str,
    budget: int,
    factory: RngFactory,
    trial: int,
    policy: Policy | None = None,
    temporal_aggregation: str = "max",
    shards: int = 1,
    shard_mode: str = "partition",
    executor_backend: str = "serial",
    executor_transport: str = "auto",
    executor_hosts: tuple[str, ...] = (),
    executor_poll_seconds: float | None = None,
    executor_slot_poll_seconds: float | None = None,
    executor_stop_timeout: float | None = None,
    executor_recovery=None,
    executor_heartbeat_interval: float | None = None,
    executor_heartbeat_timeout: float | None = None,
    executor: ExecutorOptions | None = None,
):
    """Build one trial's consumer: a sampler, or a sharded executor.

    With ``shards > 1`` the trial runs a
    :class:`~repro.streams.executor.ShardedStreamExecutor` over
    ``shards`` replicas. Per-shard generators are spawned from one
    trial-level root via :func:`~repro.utils.rng.spawn_generators`
    (``numpy.random.SeedSequence.spawn``), so the replica randomness is
    a pure function of ``(seed, algorithm, trial, shard index)`` — the
    same for the serial and process backends, which is what makes the
    two result-identical. Partition mode splits the budget M across the
    replicas (total memory parity with the single-sampler run, floored
    at |H| per replica so the estimators stay defined); broadcast
    replicas each keep the full budget, as each one samples the whole
    stream.

    Execution knobs are taken from ``executor``
    (:class:`~repro.streams.executor.ExecutorOptions`, the preferred
    spelling) or the equivalent flat ``executor_*`` keyword arguments,
    which are kept for backwards compatibility.
    """
    if shards == 1:
        return make_sampler(
            name,
            pattern,
            budget,
            rng=factory.generator(f"{name}-trial-{trial}"),
            policy=policy,
            temporal_aggregation=temporal_aggregation,
        )
    if shard_mode == "partition":
        shard_budget = max(get_pattern(pattern).num_edges, budget // shards)
    else:
        shard_budget = budget

    shard_rngs = spawn_generators(
        derive_seed(factory.seed, f"{name}-trial-{trial}"), shards
    )

    def shard_factory(index: int):
        return make_sampler(
            name,
            pattern,
            shard_budget,
            rng=shard_rngs[index],
            policy=policy,
            temporal_aggregation=temporal_aggregation,
        )

    return ShardedStreamExecutor(
        shard_factory,
        shards,
        mode=shard_mode,
        options=_resolve_executor_options(
            executor,
            executor_backend,
            executor_transport,
            executor_hosts,
            executor_poll_seconds,
            executor_slot_poll_seconds,
            executor_stop_timeout,
            executor_recovery,
            executor_heartbeat_interval,
            executor_heartbeat_timeout,
        ),
    )


def run_algorithm(
    name: str,
    stream: EdgeStream,
    truth: GroundTruthTrace,
    pattern: str,
    budget: int,
    trials: int,
    seed: int = 0,
    policy: Policy | None = None,
    temporal_aggregation: str = "max",
    shards: int = 1,
    shard_mode: str = "partition",
    executor_backend: str = "serial",
    executor_transport: str = "auto",
    executor_hosts: tuple[str, ...] = (),
    executor_poll_seconds: float | None = None,
    executor_slot_poll_seconds: float | None = None,
    executor_stop_timeout: float | None = None,
    executor_recovery=None,
    executor_heartbeat_interval: float | None = None,
    executor_heartbeat_timeout: float | None = None,
    executor: ExecutorOptions | None = None,
) -> AlgorithmResult:
    """Run ``trials`` independent repetitions of one algorithm."""
    if truth.final_truth == 0:
        raise ConfigurationError(
            "final ground truth is zero; ARE undefined — re-seed the "
            "scenario or enlarge the dataset"
        )
    factory = RngFactory(seed)
    result = AlgorithmResult(name=name)
    for trial in range(trials):
        sampler = make_trial_sampler(
            name,
            pattern,
            budget,
            factory,
            trial,
            policy=policy,
            temporal_aggregation=temporal_aggregation,
            shards=shards,
            shard_mode=shard_mode,
            executor=_resolve_executor_options(
                executor,
                executor_backend,
                executor_transport,
                executor_hosts,
                executor_poll_seconds,
                executor_slot_poll_seconds,
                executor_stop_timeout,
                executor_recovery,
                executor_heartbeat_interval,
                executor_heartbeat_timeout,
            ),
        )
        trial_result = run_sampler_trial(sampler, stream, truth)
        result.ares.append(
            absolute_relative_error(
                trial_result.final_estimate, truth.final_truth
            )
        )
        result.mares.append(
            mean_absolute_relative_error(trial_result.estimates, truth.truths)
        )
        result.seconds.append(trial_result.seconds)
    return result


def run_cell(
    config: ExperimentConfig,
    algorithms: tuple[str, ...],
    policy: Policy | None = None,
    temporal_aggregation: str = "max",
) -> dict[str, AlgorithmResult]:
    """Run one table cell (one dataset) for several algorithms.

    The stream and ground truth are computed once and shared. With
    ``config.shards > 1`` every trial runs sharded (see
    :func:`make_trial_sampler`).
    """
    config.validate()
    stream = config.build_stream()
    truth = compute_ground_truth(stream, config.pattern, config.checkpoints)
    budget = config.effective_budget(stream)
    results: dict[str, AlgorithmResult] = {}
    for name in algorithms:
        results[name] = run_algorithm(
            name,
            stream,
            truth,
            config.pattern,
            budget,
            trials=config.trials,
            seed=config.seed,
            policy=policy,
            temporal_aggregation=temporal_aggregation,
            shards=config.shards,
            shard_mode=config.shard_mode,
            executor=config.executor_options(),
        )
    return results

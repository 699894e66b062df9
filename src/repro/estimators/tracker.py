"""Checkpointed estimate-vs-truth traces.

:class:`EstimateTrace` drives a sampler and an exact counter over the
same stream, recording both values at evenly spaced checkpoints. It is
the measurement core behind every ARE/MARE cell in the paper tables and
the per-time-step series of the figures.

:func:`checkpoint_schedule` and :func:`checkpoint_segments` are the one
checkpoint schedule and segmented feed shared by this module and the
experiment runner: a sampler consumes each segment between two
checkpoints through its batched ``process_batch`` path, which is
bit-identical to per-event ``process`` whatever the segment bounds.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.estimators.metrics import (
    absolute_relative_error,
    mean_absolute_relative_error,
)
from repro.graph.stream import EdgeStream
from repro.patterns.exact import ExactCounter
from repro.samplers.base import SubgraphCountingSampler
from repro.utils.timer import Stopwatch

__all__ = [
    "EstimateTrace",
    "checkpoint_schedule",
    "checkpoint_segments",
    "run_with_trace",
]


def checkpoint_schedule(n: int, num_checkpoints: int) -> tuple[int, ...]:
    """Evenly spaced checkpoints over ``n`` events: every ``n // k``-th
    event (at least every event) plus the last one.

    A checkpoint is a 1-based event count: the estimate at checkpoint
    ``c`` is read after the first ``c`` events. An empty stream has no
    checkpoints.
    """
    if num_checkpoints < 1:
        raise ConfigurationError("num_checkpoints must be >= 1")
    step = max(1, n // num_checkpoints)
    points = list(range(step, n + 1, step))
    if points and points[-1] != n:
        points.append(n)
    return tuple(points)


def checkpoint_segments(
    stream: Sequence, checkpoints: Sequence[int]
) -> Iterator[tuple[int, Sequence]]:
    """Yield ``(checkpoint, events)``: the events since the previous
    checkpoint, as a slice of ``stream``, for each checkpoint in turn.

    A checkpoint that does not increase, or lies beyond the stream,
    raises :class:`ConfigurationError` when it is reached. Events after
    the last checkpoint are not yielded.
    """
    n = len(stream)
    prev = 0
    for cp in checkpoints:
        if not prev < cp <= n:
            raise ConfigurationError(
                f"checkpoint mismatch: checkpoint {cp} after {prev} does "
                f"not fit a stream of {n} events"
            )
        yield cp, stream[prev:cp]
        prev = cp


@dataclass
class EstimateTrace:
    """Paired (estimate, truth) samples along one stream run."""

    checkpoints: list[int] = field(default_factory=list)
    estimates: list[float] = field(default_factory=list)
    truths: list[int] = field(default_factory=list)
    #: Wall-clock seconds spent inside the sampler (truth excluded).
    sampler_seconds: float = 0.0

    @property
    def final_estimate(self) -> float:
        if not self.estimates:
            raise ConfigurationError("empty trace")
        return self.estimates[-1]

    @property
    def final_truth(self) -> int:
        if not self.truths:
            raise ConfigurationError("empty trace")
        return self.truths[-1]

    def are(self) -> float:
        """ARE (%) at the last checkpoint."""
        return absolute_relative_error(self.final_estimate, self.final_truth)

    def mare(self) -> float:
        """MARE (%) across all checkpoints."""
        return mean_absolute_relative_error(self.estimates, self.truths)


def run_with_trace(
    sampler: SubgraphCountingSampler,
    stream: EdgeStream,
    num_checkpoints: int = 50,
    exact: ExactCounter | None = None,
) -> EstimateTrace:
    """Run ``sampler`` over ``stream`` recording a checkpoint trace.

    The exact counter may be shared across trials via ``exact`` — pass a
    *fresh* counter (or None to build one); it is consumed by the run.
    The sampler consumes each segment between two checkpoints through
    ``process_batch``; only that call (estimate included) is
    accumulated into ``sampler_seconds``, so timing comparisons are not
    polluted by ground-truth bookkeeping.
    """
    checkpoints = checkpoint_schedule(len(stream), num_checkpoints)
    if not checkpoints:
        raise ConfigurationError("cannot trace an empty stream")
    if exact is None:
        exact = ExactCounter(sampler.pattern)
    trace = EstimateTrace()
    watch = Stopwatch()
    for cp, segment in checkpoint_segments(stream, checkpoints):
        with watch:
            estimate = sampler.process_batch(segment)
        trace.checkpoints.append(cp)
        trace.estimates.append(estimate)
        trace.truths.append(exact.process_stream(segment))
    trace.sampler_seconds = watch.elapsed
    return trace

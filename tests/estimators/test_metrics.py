"""Tests for ARE / MARE metrics and the estimate tracker."""

import pytest

from repro.errors import ConfigurationError
from repro.estimators.metrics import (
    absolute_relative_error,
    mean_absolute_relative_error,
)
from repro.estimators.tracker import EstimateTrace, run_with_trace
from repro.graph.generators import powerlaw_cluster
from repro.patterns.exact import ExactCounter
from repro.samplers.thinkd import ThinkD
from repro.samplers.wsd import WSD
from repro.streams.scenarios import light_deletion_stream
from repro.utils.timer import Stopwatch
from repro.weights.heuristic import UniformWeight


class TestARE:
    def test_exact_is_zero(self):
        assert absolute_relative_error(10.0, 10) == 0.0

    def test_percentage(self):
        assert absolute_relative_error(110.0, 100) == pytest.approx(10.0)

    def test_symmetric_in_error_direction(self):
        assert absolute_relative_error(90.0, 100) == pytest.approx(10.0)

    def test_zero_truth_rejected(self):
        with pytest.raises(ConfigurationError):
            absolute_relative_error(5.0, 0)

    def test_negative_truth_supported(self):
        assert absolute_relative_error(-9.0, -10) == pytest.approx(10.0)


class TestMARE:
    def test_mean_over_checkpoints(self):
        value = mean_absolute_relative_error([11.0, 18.0], [10, 20])
        assert value == pytest.approx((10.0 + 10.0) / 2)

    def test_zero_truth_checkpoints_skipped(self):
        value = mean_absolute_relative_error([5.0, 11.0], [0, 10])
        assert value == pytest.approx(10.0)

    def test_all_zero_truth_rejected(self):
        with pytest.raises(ConfigurationError):
            mean_absolute_relative_error([1.0, 2.0], [0, 0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            mean_absolute_relative_error([1.0], [1, 2])


class TestRunWithTrace:
    @pytest.fixture(scope="class")
    def workload(self):
        edges = powerlaw_cluster(100, m=4, triangle_probability=0.7, rng=0)
        return light_deletion_stream(edges, beta_l=0.2, rng=1)

    def test_trace_lengths(self, workload):
        sampler = WSD("triangle", 50, UniformWeight(), rng=2)
        trace = run_with_trace(sampler, workload, num_checkpoints=10)
        assert len(trace.estimates) == len(trace.truths)
        assert len(trace.checkpoints) == len(trace.estimates)
        assert trace.checkpoints[-1] == len(workload)

    def test_truths_match_exact_counter(self, workload):
        sampler = WSD("triangle", 50, UniformWeight(), rng=2)
        trace = run_with_trace(sampler, workload, num_checkpoints=5)
        assert trace.final_truth == ExactCounter("triangle").process_stream(
            workload
        )

    def test_sampler_time_recorded(self, workload):
        sampler = WSD("triangle", 50, UniformWeight(), rng=2)
        trace = run_with_trace(sampler, workload)
        assert trace.sampler_seconds > 0.0

    def test_are_and_mare_computable(self, workload):
        sampler = WSD("triangle", 50, UniformWeight(), rng=2)
        trace = run_with_trace(sampler, workload)
        assert trace.are() >= 0.0
        assert trace.mare() >= 0.0

    def test_empty_trace_raises(self):
        trace = EstimateTrace()
        with pytest.raises(ConfigurationError):
            _ = trace.final_estimate

    def test_invalid_checkpoints(self, workload):
        sampler = WSD("triangle", 50, UniformWeight(), rng=2)
        with pytest.raises(ConfigurationError):
            run_with_trace(sampler, workload, num_checkpoints=0)

    @pytest.mark.parametrize("num_checkpoints", [1, 7, 50, 10_000])
    @pytest.mark.parametrize(
        "build",
        [
            lambda: WSD("triangle", 50, UniformWeight(), rng=2),
            lambda: ThinkD("wedge", 40, rng=3),
        ],
        ids=["wsd-triangle", "thinkd-wedge"],
    )
    def test_segmented_trace_matches_per_event(
        self, workload, build, num_checkpoints
    ):
        """The segmented ``process_batch`` trace equals the former
        event-at-a-time loop exactly, checkpoints and truths included."""
        sampler, exact = build(), ExactCounter(build().pattern)
        n = len(workload)
        step = max(1, n // num_checkpoints)
        expected = EstimateTrace()
        watch = Stopwatch()
        for i, event in enumerate(workload, start=1):
            with watch:
                sampler.process(event)
            exact.process(event)
            if i % step == 0 or i == n:
                expected.checkpoints.append(i)
                expected.estimates.append(sampler.estimate)
                expected.truths.append(exact.count)
        trace = run_with_trace(build(), workload, num_checkpoints)
        assert trace.checkpoints == expected.checkpoints
        assert trace.estimates == expected.estimates
        assert trace.truths == expected.truths

"""Metric names: well-formed, and declared in BENCHMARK.json exactly once."""

import json
import re
from pathlib import Path

import pytest

from wsdbench.metrics import END_TO_END, NAME_RE, PER_LAYER, median, percentile

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _declared():
    return json.loads(BENCHMARK.read_text())


def test_every_metric_name_is_well_formed():
    for name, unit in {**END_TO_END, **PER_LAYER}.items():
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
        assert NAME_RE.match(name), name
        assert UNIT_RE.match(unit), (name, unit)
    assert not set(END_TO_END) & set(PER_LAYER)


def test_end_to_end_metrics_match_benchmark_json():
    declared = _declared()["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == END_TO_END
    for metric in declared:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert metric["better"] in ("lower", "higher")
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in declared if m["name"] == "setup_s")
    assert setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in declared)


def test_per_layer_metrics_match_benchmark_json():
    declared = _declared()["per_layer"]
    assert {m["name"]: m["unit"] for m in declared} == PER_LAYER
    for metric in declared:
        assert set(metric) == {"name", "unit", "better"}


def test_workloads_match_benchmark_json():
    from wsdbench.workloads import WORKLOADS

    declared = _declared()
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert declared["command"] == ["python3", "perfbench/run.py"]
    assert declared["paths"] == ["perfbench"]


def test_percentiles():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert percentile([0.0, 10.0], 90) == pytest.approx(9.0)
    assert percentile(list(range(101)), 90) == pytest.approx(90.0)
    with pytest.raises(ValueError):
        percentile([], 50)


@pytest.mark.parametrize("name", ["dense-churn", "socket-sparse"])
def test_block_windows_hold_a_fixed_amount_of_work(name):
    from wsdbench.workloads import BLOCK_EVENTS, MIN_PROBES, WORKLOADS

    workload = WORKLOADS[name]
    for seconds in (0.5, 1, 15, 60):
        blocks = workload.window_blocks(seconds)
        assert blocks // workload.probe_every >= MIN_PROBES
        assert blocks % workload.checkpoint_every == 0
        assert blocks * BLOCK_EVENTS >= workload.window_rate * seconds
        # Set-up generates enough for one window or the traced run's halves.
        assert workload.run_events(seconds) >= blocks * BLOCK_EVENTS
        assert (
            workload.run_events(seconds)
            >= 2 * workload.window_blocks(seconds / 2) * BLOCK_EVENTS
        )


def test_peak_rss_leaves_out_what_ran_before_the_reset():
    import numpy as np

    from wsdbench.metrics import peak_rss_mib, reset_peak_rss

    big = np.ones(64 << 20, dtype=np.uint8)  # 64 MiB, touched
    del big
    before = peak_rss_mib()
    if not reset_peak_rss():
        pytest.skip("the kernel refused to reset the RSS high-water mark")
    assert peak_rss_mib() < before - 32

"""Each correctness gate passes on a faithful reference and trips on a perturbed one."""

import repro
from repro.experiments import runner
from repro.graph.stream import EdgeStream
from repro.streams.executor import ExecutorOptions
from repro.streams.service import StreamConfig
from repro.utils.rng import RngFactory

from wsdbench.inputs import (
    dense_churn_blocks,
    frozen_policy,
    sparse_light_deletion_block,
    split_blocks,
    table_config,
)
from wsdbench.workloads import parity_problems, repeat_problems, serial_reference


def _sparse_blocks():
    block = sparse_light_deletion_block(1, 4000, component_vertices=200, m=3)
    return split_blocks(block, 512)


def _drop_last_event(blocks):
    return blocks[:-1] + [blocks[-1][: len(blocks[-1]) - 1]]


def test_serial_parity_gate():
    config = StreamConfig(budget=300, seed=3)
    blocks = _sparse_blocks()
    sent = sum(len(b) for b in blocks)
    estimate, clock = serial_reference(config, "socket-sparse", blocks)
    assert estimate > 0
    same = serial_reference(config, "socket-sparse", blocks)
    assert parity_problems("t", estimate, clock, *same, sent) == []
    # A reference fed one event fewer.
    short = serial_reference(config, "socket-sparse", _drop_last_event(blocks))
    assert parity_problems("t", estimate, clock, *short, sent)
    # A reference with other randomness (another stream name).
    other = serial_reference(config, "another-name", blocks)
    assert other[0] != estimate
    assert parity_problems("t", estimate, clock, *other, sent)
    # An observed clock that missed events.
    assert parity_problems("t", estimate, clock, *same, sent + 1)


def test_process_backend_parity_gate():
    fill, churn = dense_churn_blocks(2, 60, 900, 1500)
    blocks = [fill] + split_blocks(churn, 256)
    config = StreamConfig(budget=400, seed=2, shards=2)
    session = repro.open_stream(
        config, name="dense-churn",
        executor=ExecutorOptions(backend="process", transport="shm"),
    )
    try:
        for block in blocks:
            session.ingest(block)
        observed = session.queries.stats()
    finally:
        session.close()
    sent = sum(len(b) for b in blocks)
    reference = serial_reference(config, "dense-churn", blocks)
    assert parity_problems(
        "t", observed.estimate, observed.clock, *reference, sent
    ) == []
    short = serial_reference(config, "dense-churn", _drop_last_event(blocks))
    assert parity_problems("t", observed.estimate, observed.clock, *short, sent)


def test_trial_repeat_gate():
    config = table_config(1)
    stream = config.build_stream()
    truth = runner.compute_ground_truth(stream, config.pattern, config.checkpoints)
    budget = config.effective_budget(stream)
    policy = frozen_policy()

    def trial(events, trace):
        sampler = runner.make_trial_sampler(
            "WSD-L", config.pattern, budget, RngFactory(11), 0, policy=policy
        )
        return runner.run_sampler_trial(sampler, events, trace)

    window = runner.run_algorithm(
        "WSD-L", stream, truth, config.pattern, budget, trials=1, seed=11,
        policy=policy,
    )
    observed = (window.ares[0], window.mares[0])
    first, second = trial(stream, truth), trial(stream, truth)
    assert repeat_problems("t", observed, first, second, truth.truths) == []
    # A reference fed one event fewer: the first insertion of an edge that
    # is never deleted, so the shorter stream stays valid.
    events = list(stream)
    deleted = {e.edge for e in events if not e.is_insertion}
    drop = next(i for i, e in enumerate(events) if e.edge not in deleted)
    short_stream = EdgeStream(events[:drop] + events[drop + 1:])
    short_truth = runner.compute_ground_truth(
        short_stream, config.pattern, config.checkpoints
    )
    short = trial(short_stream, short_truth)
    assert repeat_problems("t", observed, first, short, truth.truths)
    assert repeat_problems("t", observed, short, short, short_truth.truths)

"""The workload generators: deterministic per seed, different across seeds, valid."""

import numpy as np

from wsdbench.inputs import (
    dense_churn_blocks,
    sparse_light_deletion_block,
    split_blocks,
    table_config,
)


def _assert_valid(block, alive=None):
    """Every deletion hits an alive edge; every insertion an absent one."""
    alive = set() if alive is None else alive
    for is_insert, u, v in zip(
        block.is_insert.tolist(), block.u.tolist(), block.v.tolist()
    ):
        assert u < v
        if is_insert:
            assert (u, v) not in alive
            alive.add((u, v))
        else:
            alive.remove((u, v))
    return alive


def test_dense_churn_is_deterministic_and_seeded():
    first = dense_churn_blocks(3, 40, 300, 500)
    again = dense_churn_blocks(3, 40, 300, 500)
    other = dense_churn_blocks(4, 40, 300, 500)
    assert first == again
    assert first != other


def test_dense_churn_is_valid_and_keeps_density():
    fill, churn = dense_churn_blocks(5, 40, 300, 2000)
    assert len(fill) == 300 and bool(fill.is_insert.all())
    alive = _assert_valid(churn, _assert_valid(fill))
    # 50/50 churn: the alive count stays near the fill size.
    assert abs(len(alive) - 300) < 150
    assert 0.4 < churn.num_deletions / len(churn) < 0.6


def test_sparse_stream_is_deterministic_and_seeded():
    first = sparse_light_deletion_block(1, 3000, component_vertices=200, m=3)
    again = sparse_light_deletion_block(1, 3000, component_vertices=200, m=3)
    other = sparse_light_deletion_block(2, 3000, component_vertices=200, m=3)
    assert len(first) == 3000
    assert first == again
    assert first != other


def test_sparse_stream_is_a_valid_light_deletion_stream():
    block = sparse_light_deletion_block(7, 5000, component_vertices=200, m=3)
    _assert_valid(block)
    share = block.num_deletions / len(block)
    assert 0.05 < share < 0.25


def test_split_blocks_covers_the_stream_in_order():
    block = sparse_light_deletion_block(1, 2500, component_vertices=200, m=3)
    parts = split_blocks(block, 1024)
    assert [len(part) for part in parts] == [1024, 1024, 452]
    assert np.array_equal(np.concatenate([p.u for p in parts]), block.u)


def test_table_stream_depends_on_the_seed_only():
    first = table_config(1).build_stream()
    again = table_config(1).build_stream()
    other = table_config(2).build_stream()
    assert first == again
    assert first != other
    assert first.num_deletions > 0

"""Seeded input generators for the three workloads.

Every generator is a pure function of its seed and size arguments: the
same seed gives the same inputs, and the program under test receives
only what these functions return.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.config import MASSIVE, ExperimentConfig
from repro.graph.generators import powerlaw_cluster
from repro.graph.stream import EventBlock
from repro.patterns.matching import get_pattern
from repro.rl.policy import FrozenPolicy
from repro.utils.rng import derive_seed
from repro.weights.features import state_dimension

__all__ = [
    "TABLE_ALGORITHMS",
    "table_config",
    "frozen_policy",
    "dense_churn_blocks",
    "sparse_light_deletion_block",
    "split_blocks",
]

#: The paper's dynamic-stream algorithms, in its table column order.
TABLE_ALGORITHMS = ("WSD-L", "WSD-H", "GPS-A", "Triest", "ThinkD", "WRS")


def table_config(seed: int) -> ExperimentConfig:
    """The paper-table cell: cit-PT, triangles, massive deletions."""
    return ExperimentConfig(
        dataset="cit-PT", pattern="triangle", scenario=MASSIVE, seed=seed
    )


def frozen_policy(pattern: str = "triangle") -> FrozenPolicy:
    """A deterministic frozen WSD-L actor (nothing trained or downloaded).

    The same hand-set parameters the repository's A/B harness uses:
    positive weights keep every temporal feature live.
    """
    dim = state_dimension(get_pattern(pattern).num_edges)
    return FrozenPolicy(np.linspace(0.05, 0.45, dim), 0.1)


def dense_churn_blocks(
    seed: int, num_vertices: int, num_fill: int, num_churn: int
) -> tuple[EventBlock, EventBlock]:
    """A pure-insertion fill plus constant-density 50/50 churn.

    The fill inserts ``num_fill`` distinct edges of the complete graph
    on ``num_vertices`` vertices. Each churn event then deletes a
    uniformly random alive edge or inserts a uniformly random absent
    one with equal probability, so the density, and with it the
    per-event common-neighbour work, stays stationary. Every deletion
    targets an alive edge and every insertion an absent one.
    """
    us, vs = np.triu_indices(num_vertices, 1)
    max_edges = len(us)
    if num_fill >= max_edges:
        raise ValueError(
            f"{num_fill} fill edges do not fit {num_vertices} vertices "
            f"({max_edges} possible edges)"
        )
    rng = np.random.default_rng(derive_seed(seed, "dense-churn"))
    order = rng.permutation(max_edges)
    alive = order[:num_fill].tolist()
    absent = order[num_fill:].tolist()
    fill = EventBlock(
        np.ones(num_fill, dtype=np.bool_),
        us[order[:num_fill]],
        vs[order[:num_fill]],
        canonical=True,
    )
    deletes = rng.random(num_churn) < 0.5
    picks = rng.random(num_churn)
    chosen = np.empty(num_churn, dtype=np.int64)
    for i in range(num_churn):
        source, target = (alive, absent) if deletes[i] else (absent, alive)
        j = int(picks[i] * len(source))
        edge = source[j]
        source[j] = source[-1]
        source.pop()
        target.append(edge)
        chosen[i] = edge
    churn = EventBlock(~deletes, us[chosen], vs[chosen], canonical=True)
    return fill, churn


def sparse_light_deletion_block(
    seed: int,
    num_events: int,
    component_vertices: int = 10_000,
    m: int = 5,
    beta: float = 0.2,
) -> EventBlock:
    """A large sparse light-deletion stream over power-law clustered graphs.

    One Holme–Kim graph (:func:`repro.graph.generators.powerlaw_cluster`)
    of ``component_vertices`` vertices is generated and laid out as
    disjoint copies with shifted vertex ids, in generation order, until
    ``num_events`` events are reached — the graph-generation cost stays
    fixed however long the stream. Each edge is deleted with
    probability ``beta`` at a uniformly random later position (the
    light-deletion scenario of the paper), vectorised.
    """
    base = np.asarray(
        powerlaw_cluster(
            component_vertices, m=m,
            rng=derive_seed(seed, "socket-sparse-graph"),
        ),
        dtype=np.int64,
    )
    per_copy = len(base) * (1.0 + beta)
    copies = int(np.ceil(num_events / per_copy)) + 1
    offsets = np.repeat(
        np.arange(copies, dtype=np.int64) * component_vertices, len(base)
    )
    u = np.tile(base[:, 0], copies) + offsets
    v = np.tile(base[:, 1], copies) + offsets
    n = len(u)
    rng = np.random.default_rng(derive_seed(seed, "socket-sparse-deletions"))
    deleted = np.flatnonzero(rng.random(n) < beta)
    # A deletion of edge i lands right after the insertion at a random
    # slot in [i, n); slot n - 1 stands for the tail of the stream.
    slots = rng.integers(deleted, n)
    slot = np.concatenate([np.arange(n), slots])
    kind = np.concatenate([np.zeros(n, np.int8), np.ones(len(deleted), np.int8)])
    sequence = np.concatenate([np.arange(n), np.arange(len(deleted))])
    order = np.lexsort((sequence, kind, slot))
    edge_index = np.concatenate([np.arange(n), deleted])[order]
    is_insert = (kind == 0)[order]
    block = EventBlock(is_insert, u[edge_index], v[edge_index], canonical=True)
    return block[:num_events]


def split_blocks(block: EventBlock, size: int) -> list[EventBlock]:
    """Cut a block into consecutive blocks of ``size`` events."""
    return [block[start:start + size] for start in range(0, len(block), size)]

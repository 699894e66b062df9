"""Tests for sampler checkpoint/restore (WSD and the kernel family)."""

import json
import struct
import zlib

import numpy as np
import pytest

from repro.errors import ConfigurationError, ProtocolError
from repro.graph.generators import powerlaw_cluster
from repro.graph.stream import EdgeEvent
from repro.patterns import get_pattern
from repro.rl.policy import FrozenPolicy
from repro.samplers import GPS, GPSA, WRS, ThinkD, Triest
from repro.samplers.checkpoint import (
    load_sampler,
    load_wsd,
    restore_sampler,
    restore_wsd,
    sampler_state_dict,
    save_sampler,
    save_wsd,
    state_from_wire,
    state_to_wire,
    wsd_state_dict,
)
from repro.samplers.wsd import WSD
from repro.streams.scenarios import light_deletion_stream
from repro.weights.features import state_dimension
from repro.weights.heuristic import GPSHeuristicWeight
from repro.weights.learned import LearnedWeight


@pytest.fixture(scope="module")
def stream():
    edges = powerlaw_cluster(100, m=4, triangle_probability=0.7, rng=0)
    return light_deletion_stream(edges, beta_l=0.3, rng=1)


def fresh_sampler(seed=7):
    return WSD("triangle", 40, GPSHeuristicWeight(), rng=seed)


class TestCheckpoint:
    def test_round_trip_preserves_state(self, stream):
        sampler = fresh_sampler()
        for event in stream[: len(stream) // 2]:
            sampler.process(event)
        state = wsd_state_dict(sampler)
        restored = restore_wsd(state, GPSHeuristicWeight())
        assert restored.estimate == sampler.estimate
        assert restored.tau_p == sampler.tau_p
        assert restored.tau_q == sampler.tau_q
        assert restored.time == sampler.time
        assert set(restored.sampled_edges()) == set(sampler.sampled_edges())

    def test_resume_equals_uninterrupted(self, stream):
        """Checkpoint mid-stream, restore, finish: *bit-identical* to a
        run that never stopped (same rng continuation, same floats)."""
        half = len(stream) // 2
        uninterrupted = fresh_sampler()
        for event in stream:
            uninterrupted.process(event)

        first = fresh_sampler()
        for event in stream[:half]:
            first.process(event)
        restored = restore_wsd(
            wsd_state_dict(first), GPSHeuristicWeight()
        )
        for event in stream[half:]:
            restored.process(event)
        assert restored.estimate == uninterrupted.estimate
        assert set(restored.sampled_edges()) == set(
            uninterrupted.sampled_edges()
        )
        assert restored.tau_p == uninterrupted.tau_p
        assert restored.tau_q == uninterrupted.tau_q

    def test_resume_batch_path_bit_identical(self, stream):
        """The restored sampler's batched fast path continues exactly
        like the uninterrupted batched run — the regression guard for
        stale memoized state after restore."""
        half = len(stream) // 2
        uninterrupted = fresh_sampler()
        uninterrupted.process_batch(list(stream))

        first = fresh_sampler()
        first.process_batch(list(stream[:half]))
        restored = restore_wsd(wsd_state_dict(first), GPSHeuristicWeight())
        restored.process_batch(list(stream[half:]))
        assert restored.estimate == uninterrupted.estimate
        assert restored.tau_q == uninterrupted.tau_q

    def test_generation_counter_restored(self, stream):
        """The τq generation counter round-trips, so consumers keyed on
        it see a monotone counter across the checkpoint boundary, and
        the probability memo starts empty (no stale entries)."""
        sampler = fresh_sampler()
        for event in stream[: len(stream) // 2]:
            sampler.process(event)
        assert sampler.tau_q_generation > 0
        restored = restore_wsd(wsd_state_dict(sampler), GPSHeuristicWeight())
        assert restored.tau_q_generation == sampler.tau_q_generation
        assert restored._prob_cache == {}
        # Probabilities recomputed after restore match the originals.
        for edge in sampler.sampled_edges():
            assert restored.inclusion_probability(
                edge
            ) == sampler.inclusion_probability(edge)

    def test_state_is_json_serialisable(self, stream):
        """Everything but the columns is plain JSON; the columns are
        1-D arrays of the frame's closed dtype set."""
        sampler = fresh_sampler()
        for event in stream[:200]:
            sampler.process(event)
        state = wsd_state_dict(sampler)
        columns = state.pop("columns")
        text = json.dumps(state)
        assert json.loads(text)["pattern"] == "triangle"
        assert len(columns["reservoir.u"]) == sampler.sample_size
        for column in columns.values():
            assert isinstance(column, np.ndarray) and column.ndim == 1
            assert column.dtype.str in ("<i8", "<f8", "|b1")

    def test_older_formats_fail_closed(self, stream):
        """Format 1-4 states (one JSON object per reservoir entry) and
        version-1 frames are refused with errors naming the version."""
        sampler = fresh_sampler()
        for event in stream[:200]:
            sampler.process(event)
        state = wsd_state_dict(sampler)
        state["format"] = 4
        with pytest.raises(ConfigurationError, match="format 4"):
            restore_wsd(state, GPSHeuristicWeight())
        payload = json.dumps({"format": 4, "algorithm": "wsd"}).encode()
        v1_frame = struct.pack(
            "<4sBxxxIQ", b"RPCK", 1, zlib.crc32(payload), len(payload)
        ) + payload
        with pytest.raises(ProtocolError, match="version 1"):
            state_from_wire(v1_frame)

    def test_file_round_trip(self, stream, tmp_path):
        sampler = fresh_sampler()
        for event in stream[:300]:
            sampler.process(event)
        path = tmp_path / "wsd.json"
        save_wsd(sampler, path)
        restored = load_wsd(path, GPSHeuristicWeight())
        assert restored.estimate == sampler.estimate

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_wsd(tmp_path / "missing.json", GPSHeuristicWeight())

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError):
            load_wsd(path, GPSHeuristicWeight())

    def test_unsupported_format_version(self, stream):
        sampler = fresh_sampler()
        state = wsd_state_dict(sampler)
        state["format"] = 999
        with pytest.raises(ConfigurationError):
            restore_wsd(state, GPSHeuristicWeight())

    def test_big_int_vertices_round_trip(self):
        """Labels ship in the JSON header, so ints beyond int64 survive."""
        from repro.graph.stream import EdgeEvent

        big = 2**70
        sampler = WSD("triangle", 10, GPSHeuristicWeight(), rng=0)
        for u, v in ((big, big + 1), (big + 1, 3), (3, big)):
            sampler.process(EdgeEvent.insertion(u, v))
        restored = restore_wsd(
            state_from_wire(state_to_wire(wsd_state_dict(sampler))),
            GPSHeuristicWeight(),
        )
        assert set(restored.sampled_edges()) == set(sampler.sampled_edges())
        assert restored.estimate == sampler.estimate

    def test_string_vertices_supported(self):
        sampler = WSD("triangle", 10, GPSHeuristicWeight(), rng=0)
        from repro.graph.stream import EdgeEvent

        sampler.process(EdgeEvent.insertion("alice", "bob"))
        restored = restore_wsd(
            wsd_state_dict(sampler), GPSHeuristicWeight()
        )
        assert ("alice", "bob") in set(restored.sampled_edges())

    def test_unsupported_vertex_type_rejected(self):
        sampler = WSD("triangle", 10, GPSHeuristicWeight(), rng=0)
        from repro.graph.stream import EdgeEvent

        sampler.process(EdgeEvent.insertion((1, 2), (3, 4)))
        with pytest.raises(ConfigurationError):
            wsd_state_dict(sampler)


def _insertion_only(stream):
    return [e for e in stream if e.is_insertion]


def _wsd_l(pattern):
    """WSD-L on a frozen actor (the kernels' block-serving path)."""
    dim = state_dimension(get_pattern(pattern).num_edges)
    policy = FrozenPolicy(np.linspace(0.05, 0.45, dim), 0.1)
    return WSD(pattern, 40, LearnedWeight(policy), rng=9)


ALGORITHMS = {
    "wsd": lambda p: WSD(p, 40, GPSHeuristicWeight(), rng=9),
    "gps": lambda p: GPS(p, 40, GPSHeuristicWeight(), rng=9),
    "gps-a": lambda p: GPSA(p, 40, GPSHeuristicWeight(), rng=9),
    "thinkd": lambda p: ThinkD(p, 40, rng=9),
    "triest": lambda p: Triest(p, 40, rng=9),
    "wrs": lambda p: WRS(p, 40, rng=9),
    "wsd-l": _wsd_l,
}


class TestKernelCheckpoints:
    """Generic save/restore for every kernel-based sampler."""

    @pytest.mark.parametrize("labels", ["int", "str"])
    @pytest.mark.parametrize("pattern", ["triangle", "wedge", "4-clique"])
    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_resume_equals_uninterrupted(self, stream, name, pattern, labels):
        """Checkpoint mid-stream, frame and unframe the state, restore,
        finish: bit-identical to a run that never stopped. WSD-L
        restores from the actor embedded in the state."""
        events = _insertion_only(stream) if name == "gps" else list(stream)
        if labels == "str":
            events = [
                EdgeEvent(e.op, (f"v{e.edge[0]}", f"v{e.edge[1]}"))
                for e in events
            ]
        half = len(events) // 2
        uninterrupted = ALGORITHMS[name](pattern)
        for event in events:
            uninterrupted.process(event)

        first = ALGORITHMS[name](pattern)
        for event in events[:half]:
            first.process(event)
        weight_fn = (
            GPSHeuristicWeight() if name in ("wsd", "gps", "gps-a") else None
        )
        state = state_from_wire(state_to_wire(sampler_state_dict(first)))
        restored = restore_sampler(state, weight_fn)
        for event in events[half:]:
            restored.process(event)
        assert restored.estimate == uninterrupted.estimate
        assert set(restored.sampled_edges()) == set(
            uninterrupted.sampled_edges()
        )
        assert restored.sample_size == uninterrupted.sample_size
        assert restored.time == uninterrupted.time

    def test_4clique_resume_bit_identical(self):
        """Id-order-sensitive patterns (the clique enumerators sort by
        interned vertex id) stay bit-identical across restore: the
        checkpoint persists the interner's id order, so the restored
        sampler's enumeration — and float accumulation — order matches
        a run that never stopped."""
        from repro.graph.generators import powerlaw_cluster
        from repro.streams.scenarios import light_deletion_stream

        edges = powerlaw_cluster(80, m=10, triangle_probability=0.9, rng=4)
        clique_stream = light_deletion_stream(edges, beta_l=0.2, rng=2)
        half = len(clique_stream) // 2

        uninterrupted = WSD("4-clique", 200, GPSHeuristicWeight(), rng=4)
        for event in clique_stream:
            uninterrupted.process(event)

        first = WSD("4-clique", 200, GPSHeuristicWeight(), rng=4)
        for event in clique_stream[:half]:
            first.process(event)
        restored = restore_sampler(
            sampler_state_dict(first), GPSHeuristicWeight()
        )
        # The interner round-trips exactly (ids survive edge eviction,
        # so the reservoir alone could not reconstruct them).
        original = first._sampled_graph.interner
        cloned = restored._sampled_graph.interner
        assert cloned.labels() == original.labels()
        for event in clique_stream[half:]:
            restored.process(event)
        assert restored.estimate == uninterrupted.estimate

    def test_gps_resume_insertion_only(self, stream):
        events = _insertion_only(stream)
        half = len(events) // 2
        uninterrupted = GPS("triangle", 40, GPSHeuristicWeight(), rng=9)
        for event in events:
            uninterrupted.process(event)
        first = GPS("triangle", 40, GPSHeuristicWeight(), rng=9)
        for event in events[:half]:
            first.process(event)
        restored = restore_sampler(
            sampler_state_dict(first), GPSHeuristicWeight()
        )
        assert isinstance(restored, GPS)
        assert restored.threshold == first.threshold
        assert restored.threshold_generation == first.threshold_generation
        for event in events[half:]:
            restored.process(event)
        assert restored.estimate == uninterrupted.estimate
        assert restored.threshold == uninterrupted.threshold

    def test_gpsa_tags_round_trip(self, stream):
        sampler = GPSA("triangle", 40, GPSHeuristicWeight(), rng=4)
        for event in stream:
            sampler.process(event)
        assert sampler.num_tagged > 0, "fixture should tag some edges"
        restored = restore_sampler(
            sampler_state_dict(sampler), GPSHeuristicWeight()
        )
        assert restored.num_tagged == sampler.num_tagged
        assert restored.useful_sample_size == sampler.useful_sample_size
        assert restored._tagged == sampler._tagged
        assert set(restored.sampled_edges()) == set(sampler.sampled_edges())

    def test_thinkd_rp_counters_round_trip(self, stream):
        sampler = ThinkD("triangle", 40, rng=3)
        for event in stream:
            sampler.process(event)
        restored = restore_sampler(sampler_state_dict(sampler))
        assert restored._rp.d_i == sampler._rp.d_i
        assert restored._rp.d_o == sampler._rp.d_o
        assert restored._rp.population == sampler._rp.population
        assert restored.estimate == sampler.estimate

    def test_wrs_waiting_room_round_trips(self, stream):
        """WRS state splits across the waiting-room FIFO and the RP
        reservoir; both halves round-trip with their order (FIFO exit
        order and eviction-index order) intact."""
        sampler = WRS("triangle", 40, rng=3)
        for event in stream:
            sampler.process(event)
        assert sampler.waiting_room_size > 0
        restored = restore_sampler(sampler_state_dict(sampler))
        assert isinstance(restored, WRS)
        assert restored.waiting_room_capacity == sampler.waiting_room_capacity
        assert restored._rp.capacity == sampler._rp.capacity
        assert list(restored._waiting_room.items()) == list(
            sampler._waiting_room.items()
        )
        assert list(restored._rp) == list(sampler._rp)
        assert restored._rp.population == sampler._rp.population
        assert restored.estimate == sampler.estimate
        assert restored.sample_size == sampler.sample_size

    def test_wrs_custom_fraction_capacity_restored_exactly(self, stream):
        """A non-default waiting_room_fraction must survive restore:
        the capacity is stored, not re-derived from the default
        fraction."""
        sampler = WRS("triangle", 40, waiting_room_fraction=0.4, rng=5)
        for event in stream[:300]:
            sampler.process(event)
        restored = restore_sampler(sampler_state_dict(sampler))
        assert restored.waiting_room_capacity == 16
        assert restored._rp.capacity == 24
        for event in stream[300:500]:
            sampler.process(event)
            restored.process(event)
        assert restored.estimate == sampler.estimate

    def test_wrs_resume_batched_path_bit_identical(self, stream):
        """The restored WRS continues bit-identically through the
        batched ingestion driver too."""
        half = len(stream) // 2
        uninterrupted = WRS("triangle", 40, rng=11)
        uninterrupted.process_batch(list(stream))
        first = WRS("triangle", 40, rng=11)
        first.process_batch(list(stream[:half]))
        restored = restore_sampler(sampler_state_dict(first))
        restored.process_batch(list(stream[half:]))
        assert restored.estimate == uninterrupted.estimate
        assert set(restored.sampled_edges()) == set(
            uninterrupted.sampled_edges()
        )

    def test_triest_tau_round_trips(self, stream):
        sampler = Triest("triangle", 40, rng=3)
        for event in stream:
            sampler.process(event)
        restored = restore_sampler(sampler_state_dict(sampler))
        assert restored.tau == sampler.tau
        assert restored.estimate == sampler.estimate

    @pytest.mark.parametrize(
        "factory,needs_weight_fn",
        [
            (lambda: GPSA("triangle", 30, GPSHeuristicWeight(), rng=6), True),
            (lambda: ThinkD("triangle", 30, rng=6), False),
        ],
        ids=["gps-a", "thinkd"],
    )
    def test_file_round_trip(self, stream, tmp_path, factory, needs_weight_fn):
        sampler = factory()
        for event in stream[:400]:
            sampler.process(event)
        path = tmp_path / "sampler.json"
        save_sampler(sampler, path)
        weight_fn = GPSHeuristicWeight() if needs_weight_fn else None
        restored = load_sampler(path, weight_fn)
        assert type(restored) is type(sampler)
        assert restored.estimate == sampler.estimate
        assert restored.time == sampler.time

    def test_threshold_restore_requires_weight_fn(self, stream):
        sampler = GPSA("triangle", 30, GPSHeuristicWeight(), rng=1)
        for event in stream[:100]:
            sampler.process(event)
        with pytest.raises(ConfigurationError):
            restore_sampler(sampler_state_dict(sampler))

    def test_unknown_algorithm_tag_rejected(self, stream):
        sampler = ThinkD("triangle", 30, rng=0)
        for event in stream[:50]:
            sampler.process(event)
        state = sampler_state_dict(sampler)
        # Relabelling a ThinkD state as WRS leaves the waiting-room
        # fields missing; the restore must reject it cleanly.
        state["algorithm"] = "wrs"
        with pytest.raises(ConfigurationError):
            restore_sampler(state)
        state["algorithm"] = "corrupted"
        with pytest.raises(ConfigurationError):
            restore_sampler(state)
        # A v2 state that lost its tag entirely is corrupt, not WSD.
        del state["algorithm"]
        with pytest.raises(ConfigurationError):
            restore_sampler(state)

    def test_unsupported_sampler_rejected(self):
        from repro.samplers import ThinkDFast

        sampler = ThinkDFast("triangle", 0.5, rng=0)
        with pytest.raises(ConfigurationError):
            sampler_state_dict(sampler)

    def test_wsd_aliases_reject_other_algorithms(self, stream):
        thinkd = ThinkD("triangle", 30, rng=0)
        with pytest.raises(ConfigurationError):
            wsd_state_dict(thinkd)
        gpsa = GPSA("triangle", 30, GPSHeuristicWeight(), rng=0)
        for event in stream[:50]:
            gpsa.process(event)
        with pytest.raises(ConfigurationError):
            restore_wsd(sampler_state_dict(gpsa), GPSHeuristicWeight())


def _corrupt(mutate):
    """A real mid-stream WSD state, edited by ``mutate`` then framed."""

    def build(stream):
        sampler = fresh_sampler()
        for event in stream[:300]:
            sampler.process(event)
        state = wsd_state_dict(sampler)
        state["columns"] = {k: v.copy() for k, v in state["columns"].items()}
        mutate(state)
        return state_from_wire(state_to_wire(state))

    return build


def _set_first(name, value):
    def mutate(state):
        state["columns"][name][0] = value(state)

    return mutate


class TestHostileStates:
    """A frame that passes its CRC can still carry a state no sampler
    wrote; every such state fails with a typed error at restore."""

    @pytest.mark.parametrize(
        "build,match",
        [
            (
                _corrupt(lambda s: s["columns"].update(
                    {"reservoir.rank": s["columns"]["reservoir.rank"][:-1]}
                )),
                "mismatched lengths",
            ),
            (
                _corrupt(lambda s: s["columns"].update(
                    {"reservoir.v": s["columns"]["reservoir.v"][1:]}
                )),
                "mismatched lengths",
            ),
            (
                _corrupt(_set_first("reservoir.u", lambda s: len(s["labels"]))),
                "outside",
            ),
            (_corrupt(_set_first("reservoir.v", lambda s: -1)), "outside"),
            (
                _corrupt(lambda s: s["columns"].update(
                    {"reservoir.time": s["columns"]["reservoir.time"] * 0.5}
                )),
                "<i8",
            ),
            (_corrupt(lambda s: s["columns"].pop("reservoir.weight")), "missing"),
            (_corrupt(lambda s: s["labels"].append(True)), "bool"),
            (_corrupt(lambda s: s["labels"].append(1.5)), "float"),
            (
                _corrupt(lambda s: s["labels"].append(s["labels"][0])),
                "repeat",
            ),
            (_corrupt(lambda s: s.pop("threshold")), "threshold"),
            (_corrupt(lambda s: s.update(rng_state="junk")), "malformed"),
            (_corrupt(lambda s: s.update(labels={"a": 1})), "not a list"),
        ],
        ids=[
            "short-rank", "short-v", "id-past-labels", "negative-id",
            "float-time", "missing-weight", "bool-label", "float-label",
            "repeated-label", "missing-threshold", "bad-rng", "labels-dict",
        ],
    )
    def test_rejected_with_configuration_error(self, stream, build, match):
        state = build(stream)
        with pytest.raises(ConfigurationError, match=match):
            restore_wsd(state, GPSHeuristicWeight())

    def test_repeated_reservoir_edge_rejected(self, stream):
        def mutate(state):
            for name in ("reservoir.u", "reservoir.v"):
                state["columns"][name][1] = state["columns"][name][0]

        with pytest.raises(ConfigurationError, match="twice"):
            restore_wsd(_corrupt(mutate)(stream), GPSHeuristicWeight())

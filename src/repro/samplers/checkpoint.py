"""Checkpoint / restore for kernel-based samplers.

Long-running stream consumers need to survive restarts. A sampler's
full state is small — for the threshold kernels (WSD, GPS, GPS-A) the
reservoir entries (edge, rank, weight, arrival time), the thresholds
with their generation counter, the running estimate, the clock, and the
rank-randomness generator state; for the random-pairing kernels
(ThinkD, Triest, WRS) the sampled edges plus the RP counters (and, for
WRS, the waiting-room FIFO). Restoring yields a sampler that continues
*bit-for-bit* identically to one that never stopped (verified by
tests). This is also the transport the process-parallel executor uses
to ship shard replicas into worker processes
(:mod:`repro.streams.workers`).

The state is **columnar**. :func:`sampler_state_dict` returns a dict of
scalars (the format tag, generator state, thresholds, counters, the
learned-weight block, and ``labels``: every interned vertex label in
interner id order) plus ``state["columns"]``, a mapping of column name
→ 1-D little-endian numpy array that holds every per-edge and
per-vertex list. Columns come in groups (``reservoir.*``, ``sample.*``,
``waiting.*``, ``wedge.*``, ``arrival.*``, ``arena.slabbed``) whose
members run in parallel, in heap order for the reservoir and list order
otherwise; vertex columns hold int64 ids into ``labels``. The worker
queue pickles that dict as it is; :func:`state_to_wire` frames it as
``RPCK`` version 2 (a JSON header, then the raw column bytes) for
files and sockets.

The generic entry points are :func:`sampler_state_dict` /
:func:`restore_sampler` (and the file-level :func:`save_sampler` /
:func:`load_sampler`); the ``*_wsd`` names are kept as the historical
WSD-specific aliases.

Vertex labels must be ``int`` or ``str`` (integers are the library
convention throughout); both round-trip exactly, big integers
included. Only format 5 is read: formats 1–4 (the per-entry JSON
documents) fail with a :class:`~repro.errors.ConfigurationError` naming
the format.
"""

from __future__ import annotations

import json
import struct
import zlib
from itertools import repeat
from operator import itemgetter
from pathlib import Path

import numpy as np

from repro.errors import ConfigurationError, ProtocolError
from repro.samplers.gps import GPS
from repro.samplers.gps_a import GPSA
from repro.samplers.kernel import PairingSamplerKernel, ThresholdSamplerKernel
from repro.samplers.random_pairing import RandomPairingReservoir
from repro.samplers.thinkd import ThinkD
from repro.samplers.triest import Triest
from repro.samplers.wrs import WRS
from repro.samplers.wsd import WSD
from repro.utils.io import atomic_write_bytes
from repro.weights.base import WeightFunction

__all__ = [
    "sampler_state_dict",
    "restore_sampler",
    "save_sampler",
    "load_sampler",
    "state_to_wire",
    "state_from_wire",
    "wsd_state_dict",
    "restore_wsd",
    "save_wsd",
    "load_wsd",
]

#: Format 5 is the columnar state. Formats 1–4 stored one JSON object
#: per reservoir entry and are no longer read.
_FORMAT_VERSION = 5

_THRESHOLD_ALGORITHMS: dict[str, type[ThresholdSamplerKernel]] = {
    "wsd": WSD,
    "gps": GPS,
    "gps-a": GPSA,
}
_PAIRING_ALGORITHMS: dict[str, type[PairingSamplerKernel]] = {
    "thinkd": ThinkD,
    "triest": Triest,
    "wrs": WRS,
}
_ALGORITHM_NAMES = {
    cls: name
    for name, cls in {**_THRESHOLD_ALGORITHMS, **_PAIRING_ALGORITHMS}.items()
}

_I8 = np.dtype("<i8")
_F8 = np.dtype("<f8")
_B1 = np.dtype("|b1")
#: The closed set of column dtypes a frame may declare.
_WIRE_DTYPES = {dtype.str: dtype for dtype in (_I8, _F8, _B1)}

#: Every column a state may carry, with its dtype. The prefix before
#: the dot names the column's group; columns of one group have equal
#: lengths.
_COLUMNS = {
    "reservoir.u": _I8,
    "reservoir.v": _I8,
    "reservoir.rank": _F8,
    "reservoir.weight": _F8,
    "reservoir.time": _I8,
    "reservoir.tagged": _B1,
    "sample.u": _I8,
    "sample.v": _I8,
    "waiting.u": _I8,
    "waiting.v": _I8,
    "waiting.time": _I8,
    "wedge.vertex": _I8,
    "wedge.light_inv": _F8,
    "arrival.vertex": _I8,
    "arrival.sum": _I8,
    "arrival.max": _I8,
    "arena.slabbed": _I8,
}
#: Columns holding vertex ids into ``state["labels"]``.
_VERTEX_COLUMNS = frozenset(
    ("reservoir.u", "reservoir.v", "sample.u", "sample.v", "waiting.u",
     "waiting.v", "wedge.vertex", "arrival.vertex", "arena.slabbed")
)


def _check_labels(labels: list) -> None:
    """Reject vertex labels other than ``int`` and ``str`` (``bool`` too)."""
    for kind in set(map(type, labels)) - {int, str}:
        if issubclass(kind, bool) or not issubclass(kind, (int, str)):
            raise ConfigurationError(
                f"checkpointing supports int/str vertices, got {kind.__name__}"
            )


def _id_column(ids: dict, vertices) -> np.ndarray:
    """Interner ids of ``vertices`` (a sized sequence) as an int64 column."""
    return np.fromiter(map(ids.__getitem__, vertices), _I8, len(vertices))


_first, _second = itemgetter(0), itemgetter(1)


def _pairs(items) -> tuple[tuple, tuple]:
    """Unzip a re-iterable collection of pairs into two tuples."""
    return tuple(map(_first, items)), tuple(map(_second, items))


# -- WSD-L serving state ------------------------------------------------------


def _learned_weight_state(weight_fn) -> dict | None:
    """Serialise a learned weight function, or ``None`` if not one.

    The actor is a single linear layer, so the whole serving artifact —
    parameters plus the feature settings that must match training — fits
    in a few JSON fields. Imported lazily: this module loads during
    ``repro.samplers`` initialisation, before ``repro.rl`` (which
    imports the samplers back) can be touched at module level.
    """
    from repro.rl.policy import Policy
    from repro.weights.learned import LearnedWeight

    if not isinstance(weight_fn, LearnedWeight):
        return None
    policy = weight_fn.policy
    if not isinstance(policy, Policy):
        # Foreign policy objects (training-time actors, test doubles)
        # have no declared parameter layout; the caller must re-supply
        # the weight function on restore.
        return None
    return {
        "weights": [float(w) for w in policy.weights],
        "bias": policy.bias,
        "metadata": policy.metadata,
        "frozen": _is_frozen(policy),
        "temporal_aggregation": weight_fn.temporal_aggregation,
        "normalize": weight_fn.normalize,
        "minimum_weight": weight_fn.minimum_weight,
        "block_serving": weight_fn.block_serving,
    }


def _is_frozen(policy) -> bool:
    from repro.rl.policy import FrozenPolicy

    return isinstance(policy, FrozenPolicy)


def _learned_weight_from_state(state: dict):
    """Rebuild the checkpointed learned weight function, if any."""
    info = state.get("learned_weight")
    if info is None:
        return None
    from repro.rl.policy import FrozenPolicy, Policy
    from repro.weights.learned import LearnedWeight

    cls = FrozenPolicy if info.get("frozen", True) else Policy
    policy = cls(
        np.asarray(info["weights"], dtype=np.float64),
        float(info["bias"]),
        info.get("metadata"),
    )
    return LearnedWeight(
        policy,
        temporal_aggregation=info.get("temporal_aggregation", "max"),
        normalize=bool(info.get("normalize", True)),
        minimum_weight=float(info.get("minimum_weight", 1e-6)),
        block_serving=bool(info.get("block_serving", False)),
    )


# -- state extraction ---------------------------------------------------------


def sampler_state_dict(sampler) -> dict:
    """Extract a columnar snapshot of a sampler's state.

    Supports every kernel-based sampler registered for restore: WSD,
    GPS, GPS-A (threshold kernels) and ThinkD, Triest, WRS (pairing
    kernels). The scalars are JSON-representable; the per-edge and
    per-vertex lists are numpy arrays under ``state["columns"]`` (see
    the module docstring for the layout).
    """
    name = _ALGORITHM_NAMES.get(type(sampler))
    if name is None:
        raise ConfigurationError(
            f"checkpointing not supported for {type(sampler).__name__}; "
            f"supported: {sorted(_ALGORITHM_NAMES.values())}"
        )
    graph = sampler._sampled_graph
    # The vertex interner's full id order. Ids are assigned in
    # first-seen order and survive edge eviction, so they cannot be
    # reconstructed from the sample alone; the id-ordered clique
    # enumerators need the exact order for the restored sampler's float
    # accumulation to stay bit-identical. Grows with the number of
    # vertices ever sampled. Every vertex column is an id into it.
    labels = graph.interner.labels()
    _check_labels(labels)
    ids = graph.interner._ids
    columns: dict[str, np.ndarray] = {}
    state = {
        "format": _FORMAT_VERSION,
        "algorithm": name,
        "pattern": sampler.pattern.name,
        "budget": sampler.budget,
        "time": sampler.time,
        "rng_state": sampler.rng.bit_generator.state,
        "labels": labels,
    }
    if graph.arena is not None:
        # Slab membership is trajectory state, not derivable from the
        # sample: hysteresis keeps a slab while the degree sits in
        # [cutoff/2, cutoff), and which path computes a delta decides
        # its float grouping. Record cutoff + the exact slabbed set so
        # the restored sampler routes queries identically.
        state["arena"] = {"cutoff": graph.slab_cutoff}
        columns["arena.slabbed"] = np.array(
            graph.arena.slab_ids(), dtype=_I8
        )
    if isinstance(sampler, ThresholdSamplerKernel):
        ranks, edges = _pairs(sampler._reservoir._heap)
        us, vs = _pairs(edges)
        columns["reservoir.u"] = _id_column(ids, us)
        columns["reservoir.v"] = _id_column(ids, vs)
        columns["reservoir.rank"] = np.array(ranks, dtype=_F8)
        columns["reservoir.weight"] = np.array(
            list(map(sampler._edge_weights.__getitem__, edges)), dtype=_F8
        )
        columns["reservoir.time"] = np.array(
            list(map(sampler._edge_times.__getitem__, edges)), dtype=_I8
        )
        if isinstance(sampler, GPSA):
            columns["reservoir.tagged"] = np.fromiter(
                map(sampler._tagged.__contains__, edges), _B1, len(edges)
            )
        state["rank_fn"] = sampler.rank_fn.name
        state["threshold"] = sampler.threshold
        state["threshold_generation"] = sampler.threshold_generation
        state["estimate"] = sampler.estimate
        if sampler._wedge_tracker is not None:
            # The light-side inverse-weight sums accumulate incremental
            # float residue over a run (x + a - a need not equal x), so
            # a restore that merely re-added the surviving edges would
            # continue a hair off the uninterrupted run. Serialising
            # the per-vertex sums keeps wedge continuations
            # bit-identical; the integer heavy counts and the
            # classification are exact functions of the restored
            # reservoir and need no extra state.
            light = sampler._wedge_tracker.light_inv
            columns["wedge.vertex"] = _id_column(ids, tuple(light))
            columns["wedge.light_inv"] = np.array(
                list(light.values()), dtype=_F8
            )
        if isinstance(sampler, WSD):
            state["tau_p"] = sampler.tau_p
        learned = _learned_weight_state(sampler.weight_fn)
        if learned is not None:
            state["learned_weight"] = learned
        if getattr(sampler, "_att", None) is not None:
            aggregates = sampler._att.aggregates()
            sums, maxes = _pairs(aggregates.values())
            columns["arrival.vertex"] = _id_column(ids, tuple(aggregates))
            columns["arrival.sum"] = np.array(sums, dtype=_I8)
            columns["arrival.max"] = np.array(maxes, dtype=_I8)
    else:
        rp = sampler._rp
        # The reservoir's internal list order feeds future eviction
        # index draws, so the sample is serialised in list order and
        # replayed the same way on restore.
        us, vs = _pairs(rp._items)
        columns["sample.u"] = _id_column(ids, us)
        columns["sample.v"] = _id_column(ids, vs)
        state["rp"] = {
            "d_i": rp.d_i,
            "d_o": rp.d_o,
            "population": rp.population,
        }
        if isinstance(sampler, WRS):
            # The waiting-room FIFO order decides which edge exits next,
            # so it is serialised in insertion order too. The capacity
            # split is stored explicitly: the constructor derives it
            # from a fraction, and int truncation must not re-round it
            # differently on restore.
            edges, arrivals = _pairs(sampler._waiting_room.items())
            us, vs = _pairs(edges)
            columns["waiting.u"] = _id_column(ids, us)
            columns["waiting.v"] = _id_column(ids, vs)
            columns["waiting.time"] = np.array(arrivals, dtype=_I8)
            state["waiting_room_capacity"] = sampler.waiting_room_capacity
            state["estimate"] = sampler.estimate
        elif isinstance(sampler, Triest):
            # τ is the real state; the estimate is derived at query time.
            state["tau"] = sampler.tau
        else:
            state["estimate"] = sampler.estimate
    state["columns"] = columns
    return state


# -- restoration --------------------------------------------------------------


def _read_group(state: dict, group: str, names: tuple[str, ...]) -> list:
    """One column group as Python lists, vertex ids mapped to labels.

    Checks that every column is present with its declared dtype, that
    the group's columns have one length, and that every vertex id lies
    in ``[0, len(labels))``. ``.tolist()`` hands the kernels plain
    Python ``int``/``float`` values, exactly as a run that never
    stopped holds them.
    """
    columns = state["columns"]
    labels = state["labels"]
    out = []
    length = None
    for name in names:
        key = f"{group}.{name}"
        column = columns.get(key)
        if (
            not isinstance(column, np.ndarray)
            or column.ndim != 1
            or column.dtype != _COLUMNS[key]
        ):
            raise ConfigurationError(
                f"checkpoint column {key!r} is missing or not a 1-D "
                f"{_COLUMNS[key].str} array"
            )
        if length is None:
            length = len(column)
        elif len(column) != length:
            raise ConfigurationError(
                f"checkpoint column group {group!r} has mismatched "
                f"lengths ({key!r} holds {len(column)}, expected {length})"
            )
        values = column.tolist()
        if key in _VERTEX_COLUMNS:
            if values and not 0 <= min(values) <= max(values) < len(labels):
                raise ConfigurationError(
                    f"checkpoint column {key!r} holds a vertex id outside "
                    f"[0, {len(labels)})"
                )
            values = list(map(labels.__getitem__, values))
        out.append(values)
    return out


def _restore_labels(sampler, state: dict) -> None:
    """Replay the interner so every vertex gets its original dense id.

    Runs before any edge lands, so the (heap-order) reservoir walk
    below cannot reorder ids.
    """
    labels = state["labels"]
    if not isinstance(labels, list):
        raise ConfigurationError("checkpoint labels are not a list")
    _check_labels(labels)
    interner = sampler._sampled_graph.interner
    for label in labels:
        interner.intern(label)
    if len(interner) != len(labels):
        raise ConfigurationError("checkpoint labels repeat a vertex")


def _arena_pre_restore(sampler, state: dict) -> None:
    """Re-impose the checkpointed slab cutoff before any replay.

    The cutoff decides where slabs are built *during* the replay below,
    so it must match the recording run's before the first edge lands.
    Arena-less checkpoints leave the construction-time configuration
    untouched; ditto when the restored sampler was built with arena
    acceleration disabled (the switch must match the recording run for
    bit-identity, the same contract the wedge toggle has).
    """
    info = state.get("arena")
    graph = sampler._sampled_graph
    if info is None or graph.arena is None:
        return
    graph.enable_arena(
        graph._payload_fn,
        cutoff=int(info["cutoff"]),
        payload2_fn=graph._payload2_fn,
    )


def _arena_post_restore(sampler, state: dict) -> None:
    """Force the slabbed-vertex set to exactly the recorded one.

    Replay rebuilds slabs only where the final degree reaches the
    cutoff; vertices the recording run kept slabbed through hysteresis
    are built here (and anything extra dropped) so the adaptive query
    routing — hence float grouping — continues identically.
    """
    graph = sampler._sampled_graph
    if state.get("arena") is None or graph.arena is None:
        return
    (slabbed,) = _read_group(state, "arena", ("slabbed",))
    graph.sync_arena_slabs(slabbed)


def _restore_threshold(sampler: ThresholdSamplerKernel, state: dict) -> None:
    sampler._threshold = float(state["threshold"])
    if sampler._wedge_tracker is not None:
        # Seed the (still empty) wedge-delta aggregates with the
        # restored threshold so the reservoir replay below classifies
        # each edge against it.
        sampler._wedge_tracker.set_threshold(sampler._threshold)
    # Restoring starts a fresh memo epoch: the probability cache is
    # empty by construction, and the generation counter is restored so
    # consumers keyed on it (see ``tau_q_generation``) stay monotone
    # across the checkpoint boundary.
    sampler._threshold_generation = int(state["threshold_generation"])
    sampler._prob_cache.clear()
    _restore_labels(sampler, state)
    _arena_pre_restore(sampler, state)
    is_gpsa = isinstance(sampler, GPSA)
    us, vs, ranks, weights, times, *tagged = _read_group(
        state,
        "reservoir",
        ("u", "v", "rank", "weight", "time")
        + (("tagged",) if is_gpsa else ()),
    )
    push = sampler._reservoir.push
    edge_weights, edge_times = sampler._edge_weights, sampler._edge_times
    for edge, rank, weight, arrival, is_tagged in zip(
        zip(us, vs), ranks, weights, times,
        tagged[0] if is_gpsa else repeat(False),
    ):
        try:
            push(edge, rank)
        except KeyError:
            raise ConfigurationError(
                f"checkpoint reservoir holds edge {edge!r} twice"
            ) from None
        edge_weights[edge] = weight
        edge_times[edge] = arrival
        if is_tagged:
            sampler._tagged.add(edge)
        else:
            sampler._sample_add(edge)
    columns = state["columns"]
    if sampler._wedge_tracker is not None and "wedge.vertex" in columns:
        # Overwrite the rebuilt (clean) light sums with the serialised
        # ones so the continuation reproduces the uninterrupted run's
        # float state bit for bit. A state recorded with the scalar
        # wedge path carries none and keeps the clean rebuild.
        vertices, sums = _read_group(state, "wedge", ("vertex", "light_inv"))
        sampler._wedge_tracker.light_inv = dict(zip(vertices, sums))
    if sampler._att is not None and "arrival.vertex" in columns:
        # The replay above already rebuilt the tracker exactly (integer
        # sums are order-independent); the stored aggregates overwrite
        # it anyway, mirroring the wedge idiom, so a partially replayed
        # state still restores the recorded serving state.
        vertices, sums, maxes = _read_group(
            state, "arrival", ("vertex", "sum", "max")
        )
        sampler._att.load_aggregates(dict(zip(vertices, zip(sums, maxes))))
    _arena_post_restore(sampler, state)


def _restore_pairing(cls, state: dict):
    sampler = cls(
        state["pattern"], int(state["budget"]), rng=np.random.default_rng()
    )
    if isinstance(sampler, WRS):
        # Re-impose the checkpointed budget split before any state is
        # replayed: the constructor derived its own waiting-room size
        # from the default fraction. The reservoir is rebuilt with the
        # stored capacity around the sampler's own generator (the same
        # sharing the constructor sets up), still empty at this point.
        wr_capacity = int(state["waiting_room_capacity"])
        sampler.waiting_room_capacity = wr_capacity
        sampler._rp = RandomPairingReservoir(
            int(state["budget"]) - wr_capacity, sampler.rng
        )
    sampler.rng.bit_generator.state = state["rng_state"]
    sampler._time = int(state["time"])
    _restore_labels(sampler, state)
    _arena_pre_restore(sampler, state)
    rp = sampler._rp
    rp.d_i = int(state["rp"]["d_i"])
    rp.d_o = int(state["rp"]["d_o"])
    rp.population = int(state["rp"]["population"])
    for edge in zip(*_read_group(state, "sample", ("u", "v"))):
        rp._add(edge)
        sampler._sample_add(edge)
    if isinstance(sampler, WRS):
        us, vs, arrivals = _read_group(state, "waiting", ("u", "v", "time"))
        for edge, arrival in zip(zip(us, vs), arrivals):
            sampler._waiting_room[edge] = arrival
            sampler._sample_add(edge)
        # The wedge-delta degree aggregates mirror the FIFO just
        # repopulated above.
        sampler._rebuild_wr_degrees()
        sampler._estimate = float(state["estimate"])
    elif isinstance(sampler, Triest):
        sampler._tau = int(state["tau"])
    else:
        sampler._estimate = float(state["estimate"])
    _arena_post_restore(sampler, state)
    return sampler


def restore_sampler(
    state: dict,
    weight_fn: WeightFunction | None = None,
) -> WSD | GPS | GPSA | ThinkD | Triest:
    """Rebuild a sampler from :func:`sampler_state_dict` output.

    For the threshold kernels the weight function is supplied by the
    caller (it may hold a learned policy or other non-serialisable
    resources) and must match the one used before checkpointing for the
    continuation to be meaningful. Checkpoints of WSD-L samplers embed
    the actor parameters, so ``weight_fn`` may be omitted there — the
    learned weight function is rebuilt from the state (an explicitly
    supplied one still wins). The pairing kernels take no weight
    function.

    The state may come from an untrusted frame
    (:func:`state_from_wire`), so every defect — a missing field, a
    column of the wrong dtype or length, a vertex id out of range, a
    repeated label or edge — raises
    :class:`~repro.errors.ConfigurationError`.
    """
    if not isinstance(state, dict):
        raise ConfigurationError(
            f"checkpoint state is {type(state).__name__}, expected a dict"
        )
    fmt = state.get("format")
    if fmt != _FORMAT_VERSION:
        raise ConfigurationError(
            f"unsupported checkpoint format {fmt!r}: this build reads "
            f"format {_FORMAT_VERSION} only (formats 1-4 are no longer "
            "read)"
        )
    if not isinstance(state.get("columns"), dict):
        raise ConfigurationError("checkpoint columns are not a mapping")
    try:
        return _restore(state, weight_fn)
    except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"malformed checkpoint state: {type(exc).__name__}: {exc}"
        ) from exc


def _restore(state: dict, weight_fn: WeightFunction | None):
    name = state.get("algorithm")
    if name in _THRESHOLD_ALGORITHMS:
        if weight_fn is None:
            # Learned-weight checkpoints embed the frozen actor, so
            # WSD-L shards restore without the caller re-supplying the
            # weight function (the process executor relies on this).
            weight_fn = _learned_weight_from_state(state)
        if weight_fn is None:
            raise ConfigurationError(
                f"restoring {name!r} requires the weight function used "
                "before checkpointing"
            )
        sampler = _THRESHOLD_ALGORITHMS[name](
            state["pattern"],
            int(state["budget"]),
            weight_fn,
            rank_fn=state["rank_fn"],
            rng=np.random.default_rng(),
        )
        sampler.rng.bit_generator.state = state["rng_state"]
        sampler._estimate = float(state["estimate"])
        sampler._time = int(state["time"])
        _restore_threshold(sampler, state)
        if isinstance(sampler, WSD):
            sampler._tau_p = float(state["tau_p"])
        return sampler
    cls = _PAIRING_ALGORITHMS.get(name)
    if cls is None:
        raise ConfigurationError(
            f"unknown checkpoint algorithm {name!r}; supported: "
            f"{sorted(_ALGORITHM_NAMES.values())}"
        )
    return _restore_pairing(cls, state)


# -- file round-trip ----------------------------------------------------------


def save_sampler(sampler, path: str | Path) -> None:
    """Write a sampler's state to ``path`` as an ``RPCK`` v2 frame.

    The write is atomic (write-tmp + fsync + ``os.replace`` + directory
    fsync via :func:`~repro.utils.io.atomic_write_bytes`): a crash
    mid-save leaves the previous checkpoint intact instead of a torn
    frame — the durability contract the long-running service tier
    leans on.
    """
    atomic_write_bytes(path, state_to_wire(sampler_state_dict(sampler)))


def load_sampler(
    path: str | Path, weight_fn: WeightFunction | None = None
):
    """Restore a sampler from a file written by :func:`save_sampler`."""
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"checkpoint file not found: {path}")
    try:
        state = state_from_wire(path.read_bytes())
    except ProtocolError as exc:
        raise ConfigurationError(f"malformed checkpoint {path}: {exc}") from exc
    return restore_sampler(state, weight_fn)


# -- wire framing -------------------------------------------------------------

#: Framed-checkpoint header: magic, frame version, CRC-32 of the
#: payload, payload length. Version 2 is the columnar frame; version 1
#: (one JSON document) is no longer read.
_STATE_WIRE_MAGIC = b"RPCK"
_STATE_WIRE_VERSION = 2
_STATE_WIRE_HEADER = struct.Struct("<4sBxxxIQ")
#: Payload prefix: byte length of the JSON header that follows it.
_STATE_HEAD_LENGTH = struct.Struct("<I")


def state_to_wire(state: dict) -> bytes:
    """Frame a columnar checkpoint state for files and sockets.

    Payload layout: a little-endian u32 header length, a UTF-8 JSON
    header ``{"state": <every field but columns>, "columns": [[name,
    dtype, count], ...]}``, then each column's raw little-endian bytes
    in table order. The frame header in front carries the magic tag,
    the frame version byte, one CRC-32 over the whole payload, and the
    payload length — so a truncated, corrupted, or cross-version frame
    fails loudly at :func:`state_from_wire` instead of restoring a
    subtly wrong replica. This is the form checkpoints take on disk
    (:func:`save_sampler`, the service's shard files) and over the
    remote executor's TCP transport (:mod:`repro.streams.transport`).
    """
    table = []
    chunks = []
    for name, column in state.get("columns", {}).items():
        dtype = column.dtype.str
        if dtype not in _WIRE_DTYPES or column.ndim != 1:
            raise ConfigurationError(
                f"checkpoint column {name!r} is a {column.ndim}-D {dtype} "
                f"array; frames carry 1-D {sorted(_WIRE_DTYPES)} columns"
            )
        table.append([name, dtype, len(column)])
        chunks.append(column.tobytes())
    head = json.dumps(
        {
            "state": {k: v for k, v in state.items() if k != "columns"},
            "columns": table,
        }
    ).encode("utf-8")
    parts = [_STATE_HEAD_LENGTH.pack(len(head)), head, *chunks]
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    header = _STATE_WIRE_HEADER.pack(
        _STATE_WIRE_MAGIC,
        _STATE_WIRE_VERSION,
        crc,
        sum(map(len, parts)),
    )
    return b"".join([header, *parts])


def state_from_wire(blob: bytes) -> dict:
    """Decode and integrity-check a frame built by :func:`state_to_wire`.

    Validation runs in order, each step before anything it guards is
    allocated: frame header length, magic, version, payload length,
    CRC, JSON header bounds and shape, then the column table — unique
    string names, a dtype from the closed set, non-negative integer
    counts, and Σ count × itemsize equal to the bytes that remain.
    Every failure is a :class:`~repro.errors.ProtocolError`. Columns
    come back as read-only arrays over ``blob``; the restore checks
    lengths and vertex ids (:func:`restore_sampler`).
    """
    header = _STATE_WIRE_HEADER.size
    if len(blob) < header:
        raise ProtocolError(
            f"checkpoint frame truncated: {len(blob)} bytes is shorter "
            f"than the {header}-byte header"
        )
    magic, version, crc, length = _STATE_WIRE_HEADER.unpack_from(blob)
    if magic != _STATE_WIRE_MAGIC:
        raise ProtocolError(f"bad checkpoint frame magic {magic!r}")
    if version != _STATE_WIRE_VERSION:
        raise ProtocolError(
            f"checkpoint frame version {version} is not supported; this "
            f"build reads version {_STATE_WIRE_VERSION} only (version 1 "
            "JSON frames are no longer read)"
        )
    payload = memoryview(blob)[header:]
    if len(payload) != length:
        raise ProtocolError(
            f"checkpoint frame truncated: header declares {length} "
            f"payload bytes, got {len(payload)}"
        )
    if zlib.crc32(payload) != crc:
        raise ProtocolError("checkpoint frame failed its CRC-32 check")
    prefix = _STATE_HEAD_LENGTH.size
    if length < prefix:
        raise ProtocolError("checkpoint frame has no header length")
    (head_length,) = _STATE_HEAD_LENGTH.unpack_from(payload)
    body = prefix + head_length
    if body > length:
        raise ProtocolError(
            f"checkpoint header length {head_length} overruns the "
            f"{length}-byte payload"
        )
    try:
        head = json.loads(bytes(payload[prefix:body]))
    except (ValueError, RecursionError) as exc:
        raise ProtocolError(f"checkpoint header does not decode: {exc}") from None
    if (
        not isinstance(head, dict)
        or not isinstance(head.get("state"), dict)
        or not isinstance(head.get("columns"), list)
    ):
        raise ProtocolError(
            "checkpoint header is not a {state, columns} object"
        )
    table = head["columns"]
    names: set[str] = set()
    declared = 0
    for entry in table:
        if not isinstance(entry, list) or len(entry) != 3:
            raise ProtocolError(
                f"checkpoint column entry {entry!r} is not [name, dtype, count]"
            )
        name, dtype, count = entry
        if not isinstance(name, str) or name in names:
            raise ProtocolError(
                f"checkpoint column name {name!r} is not a unique string"
            )
        if dtype not in _WIRE_DTYPES:
            raise ProtocolError(
                f"checkpoint column {name!r} has unsupported dtype {dtype!r}"
            )
        if type(count) is not int or count < 0:
            raise ProtocolError(
                f"checkpoint column {name!r} has invalid count {count!r}"
            )
        names.add(name)
        declared += count * _WIRE_DTYPES[dtype].itemsize
    if declared != length - body:
        raise ProtocolError(
            f"checkpoint column table declares {declared} bytes, the "
            f"payload holds {length - body}"
        )
    columns = {}
    offset = header + body
    for name, dtype, count in table:
        dtype = _WIRE_DTYPES[dtype]
        columns[name] = np.frombuffer(blob, dtype, count, offset)
        offset += count * dtype.itemsize
    state = head["state"]
    state["columns"] = columns
    return state


# -- historical WSD-specific aliases ------------------------------------------


def wsd_state_dict(sampler: WSD) -> dict:
    """Extract a columnar snapshot of a WSD sampler's state."""
    if not isinstance(sampler, WSD):
        raise ConfigurationError(
            f"wsd_state_dict expects a WSD sampler, got "
            f"{type(sampler).__name__}"
        )
    return sampler_state_dict(sampler)


def restore_wsd(state: dict, weight_fn: WeightFunction) -> WSD:
    """Rebuild a WSD sampler from :func:`wsd_state_dict` output."""
    sampler = restore_sampler(state, weight_fn)
    if not isinstance(sampler, WSD):
        raise ConfigurationError(
            f"checkpoint holds {state.get('algorithm')!r}, not a WSD state"
        )
    return sampler


def save_wsd(sampler: WSD, path: str | Path) -> None:
    """Write a WSD sampler's state to a checkpoint file."""
    if not isinstance(sampler, WSD):
        raise ConfigurationError(
            f"save_wsd expects a WSD sampler, got {type(sampler).__name__}"
        )
    save_sampler(sampler, path)


def load_wsd(path: str | Path, weight_fn: WeightFunction) -> WSD:
    """Restore a WSD sampler from a file written by :func:`save_wsd`."""
    sampler = load_sampler(path, weight_fn)
    if not isinstance(sampler, WSD):
        raise ConfigurationError("checkpoint does not hold a WSD state")
    return sampler

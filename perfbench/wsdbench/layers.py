"""Which public functions of each layer the traced run wraps.

:func:`install` wraps, from outside, the calls each layer of ``repro``
exposes (see README.md for the layer → metric map);
:func:`layer_metrics` turns the tracer's aggregates into the per-layer
metric values. Every ``*_s`` metric is the layer's *self* time: its
spans' durations minus the time spent in wrapped calls they made, so
the layer numbers add up instead of double counting.

Some functions are bound by name into other modules (``from x import
f``); those bindings are wrapped where they are looked up.
"""

from __future__ import annotations

from wsdbench.tracing import Tracer

__all__ = ["install", "layer_metrics", "HandoffClock"]


class HandoffClock:
    """Pairs client block sends with server-side ingest starts by ordinal.

    The client records when each ``send_block`` returned; the server's
    ``StreamSession.ingest`` of an :class:`EventBlock` records when it
    started. One connection applies frames strictly in order, so the
    n-th ingest is the n-th block sent. The server may start an ingest
    before the client's ``send_block`` has returned (the send releases
    the GIL), so the two lists are paired by position after the window,
    never by the order in which the records arrive.
    """

    def __init__(self, clock) -> None:
        self._clock = clock
        self._sent: list[float] = []
        self._started: list[float] = []

    def sent(self) -> None:
        self._sent.append(self._clock())

    def started(self) -> None:
        self._started.append(self._clock())

    def waits(self) -> list[float]:
        """Seconds from each send returning to its ingest starting (>= 0)."""
        return [
            max(0.0, start - sent) for sent, start in zip(self._sent, self._started)
        ]


def _result_length(args, kwargs, result):
    return float(len(result))


def _first_arg_length(args, kwargs, result):
    return float(len(args[0]))


def _sampler_classes(base) -> list[type]:
    """``base`` and every subclass of it, each once."""
    found = [base]
    for cls in found:
        found.extend(sub for sub in cls.__subclasses__() if sub not in found)
    return found


def install(tracer: Tracer, handoff: HandoffClock, state: dict) -> None:
    """Wrap every layer's public calls; :meth:`Tracer.restore` undoes it.

    ``state`` collects values read inside wrappers (the WAL high-water
    mark); the workload owns it.
    """
    import repro.samplers  # noqa: F401 - defines every sampler class
    from repro.experiments import runner
    from repro.graph.stream import EventBlock
    from repro.samplers.base import SubgraphCountingSampler
    from repro.streams import codec, executor, ingest, service, workers
    from repro.streams.queries import StreamQueries
    from repro.weights.learned import LearnedWeight

    wrap = tracer.wrap
    # experiments.runner (the table workload's top-level call)
    wrap(runner, "run_algorithm", "runner.run_algorithm")
    # samplers: per-event and batched entry points
    wrap(SubgraphCountingSampler, "process", "samplers.process")
    for cls in _sampler_classes(SubgraphCountingSampler):
        if "process_batch" in cls.__dict__:
            wrap(
                cls, "process_batch", "samplers.process_batch",
                lambda args, kwargs, result: float(len(args[1])),
            )
    # weights (WSD-L, both serving routes)
    wrap(LearnedWeight, "__call__", "weights.learned")
    wrap(LearnedWeight, "state_weight", "weights.learned")
    # graph: EventBlock wire encode / decode
    wrap(
        EventBlock, "write_into", "graph.block_encode",
        lambda args, kwargs, result: float(result),
    )
    wrap(EventBlock, "from_buffer", "graph.block_decode")
    # streams.codec (RSX2), where each binding is looked up
    for module, encoder, decoder in (
        (codec, "encode", "decode"),
        (ingest, "_encode_payload", "_decode_payload"),
        (codec, "wal_to_wire", "wal_from_wire"),
        (service, "wal_to_wire", "wal_from_wire"),
    ):
        wrap(module, encoder, "codec.encode", _result_length)
        wrap(module, decoder, "codec.decode", _first_arg_length)
    # streams.ingest: the client's write path and its acknowledged calls
    wrap(ingest.ServiceClient, "send_block", "ingest.send")
    send_block = ingest.ServiceClient.send_block

    def timed_send(self, block):
        try:
            return send_block(self, block)
        finally:
            handoff.sent()

    tracer.patch(ingest.ServiceClient, "send_block", timed_send)
    wrap(ingest.ServiceClient, "stats", "ingest.stats_rpc")
    wrap(ingest.ServiceClient, "checkpoint", "ingest.checkpoint_rpc")
    # streams.queries
    wrap(StreamQueries, "stats", "queries.stats")
    # streams.service: session write path, snapshots, durable checkpoints
    wrap(service.StreamSession, "ingest", "service.ingest")
    session_ingest = service.StreamSession.ingest

    def watched_ingest(self, events):
        if isinstance(events, EventBlock):
            handoff.started()
        try:
            return session_ingest(self, events)
        finally:
            wal = self.wal_stats()["events"]
            if wal > state.get("wal_events_max", 0):
                state["wal_events_max"] = wal

    tracer.patch(service.StreamSession, "ingest", watched_ingest)
    wrap(service.StreamSession, "snapshot", "service.snapshot")
    wrap(service.StreamSession, "checkpoint", "service.checkpoint")
    wrap(service.StreamSession, "_recover", "service.recover")
    wrap(service, "state_to_wire", "service.state_to_wire", _result_length)
    # streams.executor: routing, partitioning, worker barriers
    wrap(executor.ShardedStreamExecutor, "ingest", "executor.ingest")
    wrap(executor, "partition_block", "executor.partition")
    wrap(executor, "partition_events", "executor.partition")
    wrap(executor.ShardedStreamExecutor, "_sync", "executor.barrier")
    # streams.workers: process transport + shm slot ring
    wrap(workers.ShardWorker, "send_block", "workers.send_block")
    wrap(workers.ShardWorker, "send_batch", "workers.send_batch")
    wrap(
        workers.ProcessShardTransport, "send_block", "workers.transport_block",
        lambda args, kwargs, result: float(args[0]._shm is not None),
    )


def layer_metrics(
    tracer: Tracer,
    handoff: HandoffClock,
    state: dict,
    *,
    window_s: float,
    load_thread: int,
) -> dict[str, float]:
    """Per-layer values from one traced window (names as in ``PER_LAYER``)."""
    from wsdbench.metrics import median

    self_time = tracer.self_time
    waits = handoff.waits()
    transport_blocks = tracer.calls("workers.transport_block")
    sent_blocks = tracer.calls("workers.send_block") + tracer.calls(
        "workers.send_batch"
    )
    return {
        "samplers.process_calls": float(tracer.calls("samplers.process")),
        "samplers.process_s": self_time("samplers.process"),
        "samplers.process_batch_events": tracer.amount("samplers.process_batch"),
        "samplers.process_batch_s": self_time("samplers.process_batch"),
        "weights.learned_calls": float(tracer.calls("weights.learned")),
        "weights.learned_s": self_time("weights.learned"),
        "graph.block_encode_s": self_time("graph.block_encode"),
        "graph.block_decode_s": self_time("graph.block_decode"),
        "graph.block_bytes": tracer.amount("graph.block_encode"),
        "ingest.send_s": self_time("ingest.send"),
        "ingest.handoff_wait_s": median(waits) if waits else 0.0,
        "codec.encode_calls": float(tracer.calls("codec.encode")),
        "codec.decode_calls": float(tracer.calls("codec.decode")),
        "codec.busy_s": self_time("codec.encode") + self_time("codec.decode"),
        "codec.bytes": tracer.amount("codec.encode") + tracer.amount("codec.decode"),
        "queries.stats_s": self_time("queries.stats"),
        "service.ingest_calls": float(tracer.calls("service.ingest")),
        "service.ingest_s": self_time("service.ingest"),
        "service.snapshot_calls": float(tracer.calls("service.snapshot")),
        "service.checkpoint_s": self_time("service.checkpoint"),
        "service.checkpoint_bytes": tracer.amount("service.state_to_wire"),
        "service.wal_events_max": float(state.get("wal_events_max", 0)),
        "service.recoveries": float(tracer.calls("service.recover")),
        "executor.ingest_s": self_time("executor.ingest"),
        "executor.partition_s": self_time("executor.partition"),
        "executor.barrier_wait_s": self_time("executor.barrier"),
        "workers.send_block_calls": float(tracer.calls("workers.send_block")),
        "workers.send_block_s": tracer.inclusive("workers.send_block"),
        "workers.shm_ratio": (
            tracer.amount("workers.transport_block") / sent_blocks
            if transport_blocks and sent_blocks
            else 0.0
        ),
        "trace.coverage": tracer.top_level_time.get(load_thread, 0.0) / window_s,
    }

"""Span bookkeeping: self time on a hand-built call tree, wrapping and restoring."""

import pytest

from wsdbench.layers import HandoffClock
from wsdbench.tracing import Tracer


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class _Layer:
    def __init__(self, clock):
        self.clock = clock

    def outer(self):
        self.clock.now += 1.0
        self.inner()
        self.clock.now += 2.0
        self.middle()
        return "done"

    def middle(self):
        self.clock.now += 0.75
        self.inner()

    def inner(self):
        self.clock.now += 0.5

    def recursive(self, depth):
        self.clock.now += 1.0
        if depth:
            self.recursive(depth - 1)

    @classmethod
    def build(cls, clock):
        clock.now += 0.25
        return cls(clock)


def test_self_time_on_a_hand_built_call_tree():
    # outer (1.0 + 2.0 own) -> inner (0.5)
    #                       -> middle (0.75 own) -> inner (0.5)
    # recursive(2): three nested 1.0 calls of one name.
    # build: a classmethod, 0.25.
    clock = _FakeClock()
    tracer = Tracer(clock=clock)
    originals = dict(_Layer.__dict__)
    tracer.wrap(_Layer, "outer", "layer.outer")
    tracer.wrap(_Layer, "middle", "layer.middle")
    tracer.wrap(_Layer, "inner", "layer.inner", lambda a, k, r: 10.0)
    tracer.wrap(_Layer, "recursive", "layer.recursive")
    tracer.wrap(_Layer, "build", "layer.build")
    try:
        layer = _Layer.build(clock)
        assert isinstance(layer, _Layer)
        assert layer.outer() == "done"
        layer.recursive(2)
    finally:
        tracer.restore()
    for name in ("outer", "middle", "inner", "recursive", "build"):
        assert _Layer.__dict__[name] is originals[name]

    assert tracer.calls("layer.outer") == 1
    assert tracer.inclusive("layer.outer") == pytest.approx(4.75)
    # Only direct children are subtracted: 4.75 - 0.5 - 1.25.
    assert tracer.self_time("layer.outer") == pytest.approx(3.0)
    assert tracer.inclusive("layer.middle") == pytest.approx(1.25)
    assert tracer.self_time("layer.middle") == pytest.approx(0.75)
    assert tracer.calls("layer.inner") == 2
    assert tracer.self_time("layer.inner") == pytest.approx(1.0)
    assert tracer.amount("layer.inner") == 20.0
    # Same-name nesting counts as one outermost call; self time adds up.
    assert tracer.calls("layer.recursive") == 1
    assert tracer.inclusive("layer.recursive") == pytest.approx(3.0)
    assert tracer.self_time("layer.recursive") == pytest.approx(3.0)
    assert tracer.calls("layer.build") == 1
    assert tracer.self_time("layer.build") == pytest.approx(0.25)
    # Self times partition the top-level time: build, outer, recursive.
    top = sum(tracer.top_level_time.values())
    assert top == pytest.approx(0.25 + 4.75 + 3.0)
    assert top == pytest.approx(
        sum(
            tracer.self_time(f"layer.{n}")
            for n in ("outer", "middle", "inner", "recursive", "build")
        )
    )


def test_handoff_pairs_sends_and_starts_by_ordinal():
    clock = _FakeClock()
    handoff = HandoffClock(clock)
    # The server starts block 0 before the client's send returns.
    clock.now = 1.0
    handoff.started()
    clock.now = 1.5
    handoff.sent()
    clock.now = 2.0
    handoff.sent()
    clock.now = 2.25
    handoff.started()
    clock.now = 3.0
    handoff.sent()  # not started yet: no pair
    assert handoff.waits() == [0.0, 0.25]

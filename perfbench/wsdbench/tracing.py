"""Span recording from outside the program: wrappers, aggregates, self time.

The benchmark measures per-layer cost without any hook inside
``repro``: :func:`Tracer.wrap` replaces a public function or method on
its owner (a module or a class) with a wrapper that records a span per
call, and :meth:`Tracer.restore` puts every original back. A span has a
name, a start, an end, and the span that caused it (the enclosing span
on the same thread).

Per-event layers produce millions of spans, so the tracer keeps no span
records, only running aggregates per span name: the call count,
inclusive time, *self* time (the span's duration minus the time its
child spans took) and a free-form sum (for byte or event counts). A
span nested in a span of the same name (a method calling its base
class) counts once, as the outermost call.
"""

from __future__ import annotations

import functools
import threading
import time

__all__ = ["Tracer"]


class _Frame:
    __slots__ = ("name", "start", "child_time", "counted")

    def __init__(self, name, start, counted):
        self.name = name
        self.start = start
        self.child_time = 0.0
        self.counted = counted


class _Aggregate:
    __slots__ = ("calls", "inclusive", "self_time", "amount")

    def __init__(self):
        self.calls = 0
        self.inclusive = 0.0
        self.self_time = 0.0
        self.amount = 0.0


class Tracer:
    """Aggregates spans from wrapped callables; see the module docstring.

    ``clock`` is injectable for tests.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self._aggregates: dict[str, _Aggregate] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        #: Wall time covered by top-level spans, per thread ident.
        self.top_level_time: dict[int, float] = {}

    # -- recording ------------------------------------------------------------

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> None:
        stack = self._stack()
        counted = all(frame.name != name for frame in stack)
        stack.append(_Frame(name, self.clock(), counted))

    def end(self, amount: float = 0.0) -> None:
        end = self.clock()
        stack = self._stack()
        frame = stack.pop()
        duration = end - frame.start
        parent = stack[-1] if stack else None
        if parent is not None:
            parent.child_time += duration
        with self._lock:
            agg = self._aggregates.get(frame.name)
            if agg is None:
                agg = self._aggregates[frame.name] = _Aggregate()
            if frame.counted:
                agg.calls += 1
                agg.inclusive += duration
                agg.amount += amount
            # Self time is additive even for nested same-name spans.
            agg.self_time += duration - frame.child_time
            if parent is None:
                ident = threading.get_ident()
                self.top_level_time[ident] = (
                    self.top_level_time.get(ident, 0.0) + duration
                )

    # -- reading --------------------------------------------------------------

    def calls(self, name: str) -> int:
        agg = self._aggregates.get(name)
        return 0 if agg is None else agg.calls

    def inclusive(self, name: str) -> float:
        agg = self._aggregates.get(name)
        return 0.0 if agg is None else agg.inclusive

    def self_time(self, name: str) -> float:
        agg = self._aggregates.get(name)
        return 0.0 if agg is None else agg.self_time

    def amount(self, name: str) -> float:
        agg = self._aggregates.get(name)
        return 0.0 if agg is None else agg.amount

    # -- wrapping -------------------------------------------------------------

    @staticmethod
    def _raw(owner, attr: str):
        # A class attribute is read from the class dict so descriptors
        # (classmethod, staticmethod) come back unbound.
        return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` to ``replacement``; :meth:`restore` undoes it."""
        self._patches.append((owner, attr, self._raw(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, measure=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``measure(args, kwargs, result)`` (optional) returns the amount
        added to the span name's free-form sum. Class-level
        ``classmethod`` / ``staticmethod`` descriptors are unwrapped and
        re-wrapped so the replacement binds the same way.
        """
        raw = self._raw(owner, attr)
        kind = None
        func = raw
        if isinstance(raw, (classmethod, staticmethod)):
            kind = type(raw)
            func = raw.__func__
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            tracer.begin(name)
            amount = 0.0
            try:
                result = func(*args, **kwargs)
                if measure is not None:
                    amount = measure(args, kwargs, result)
                return result
            finally:
                tracer.end(amount)

        self.patch(owner, attr, wrapper if kind is None else kind(wrapper))

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

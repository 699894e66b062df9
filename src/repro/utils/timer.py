"""Small timing utilities used by the experiment harness."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

__all__ = ["Stopwatch", "Timer"]


class Stopwatch:
    """A resumable stopwatch accumulating elapsed wall-clock seconds.

    Used by the experiment runner to attribute time to algorithm work
    while excluding ground-truth bookkeeping::

        sw = Stopwatch()
        for checkpoint, segment in checkpoint_segments(stream, checkpoints):
            with sw:
                estimates.append(sampler.process_batch(segment))
            ... ground truth update, not timed ...
        print(sw.elapsed)
    """

    def __init__(self) -> None:
        self.elapsed = 0.0
        self._start: float | None = None

    def start(self) -> None:
        if self._start is not None:
            raise RuntimeError("stopwatch already running")
        self._start = time.perf_counter()

    def stop(self) -> float:
        if self._start is None:
            raise RuntimeError("stopwatch is not running")
        self.elapsed += time.perf_counter() - self._start
        self._start = None
        return self.elapsed

    def reset(self) -> None:
        self.elapsed = 0.0
        self._start = None

    @property
    def running(self) -> bool:
        return self._start is not None

    def __enter__(self) -> "Stopwatch":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()


@dataclass
class Timer:
    """One-shot context manager recording a single duration.

    ``Timer`` is for measuring one block; :class:`Stopwatch` is for
    accumulating many.
    """

    seconds: float = field(default=0.0)
    _start: float = field(default=0.0, repr=False)

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self.seconds = time.perf_counter() - self._start

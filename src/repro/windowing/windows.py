"""Window managers: tumbling, sliding and session windows.

These are the time-window operators Section 2 lists among "common streaming
operators". They consume ``(timestamp, item)`` pairs and emit completed
windows; the platform's window bolt delegates to them, and they are usable
standalone over any iterable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from repro.common.exceptions import ParameterError


@dataclass(frozen=True)
class Window:
    """A completed window: half-open span ``[start, end)`` and its items."""

    start: float
    end: float
    items: tuple = field(default_factory=tuple)

    def __len__(self) -> int:
        return len(self.items)


class TumblingWindow:
    """Fixed-size, non-overlapping time windows.

    ``add(ts, item)`` returns the list of windows that *closed* as a result
    (empty windows between sparse events are skipped). Call ``flush()`` at
    end of stream for the final partial window.
    """

    def __init__(self, size: float):
        if size <= 0:
            raise ParameterError("window size must be positive")
        self.size = size
        self._start: float | None = None
        self._items: list[Any] = []

    def add(self, timestamp: float, item: Any) -> list[Window]:
        """Record *item* at *timestamp*; returns windows that closed."""
        closed: list[Window] = []
        if self._start is None:
            self._start = (timestamp // self.size) * self.size
        while timestamp >= self._start + self.size:
            closed.append(Window(self._start, self._start + self.size, tuple(self._items)))
            self._items = []
            self._start += self.size
            if not closed[-1].items and timestamp >= self._start + self.size:
                # Jump over a run of empty windows in one step.
                self._start = (timestamp // self.size) * self.size
                break
        self._items.append(item)
        return [w for w in closed if w.items]

    def flush(self) -> list[Window]:
        """Close and return the current partial window (if non-empty)."""
        if self._start is None or not self._items:
            return []
        window = Window(self._start, self._start + self.size, tuple(self._items))
        self._items = []
        self._start = None
        return [window]


class SlidingTimeWindow:
    """Overlapping windows of *size* advancing by *step*.

    Emits a window each time the watermark crosses a step boundary; an item
    may appear in up to ``size/step`` windows.
    """

    def __init__(self, size: float, step: float):
        if size <= 0 or step <= 0:
            raise ParameterError("size and step must be positive")
        if step > size:
            raise ParameterError("step must not exceed size")
        self.size = size
        self.step = step
        self._buffer: list[tuple[float, Any]] = []
        self._next_emit: float | None = None

    def add(self, timestamp: float, item: Any) -> list[Window]:
        """Record *item* at *timestamp*; returns windows that closed."""
        closed: list[Window] = []
        if self._next_emit is None:
            self._next_emit = (timestamp // self.step) * self.step + self.step
        while timestamp >= self._next_emit:
            end = self._next_emit
            start = end - self.size
            items = tuple(it for ts, it in self._buffer if start <= ts < end)
            if items:
                closed.append(Window(start, end, items))
            self._next_emit += self.step
            self._buffer = [(ts, it) for ts, it in self._buffer if ts >= self._next_emit - self.size]
        self._buffer.append((timestamp, item))
        return closed

    def flush(self) -> list[Window]:
        """Close every remaining window that covers a buffered item."""
        closed: list[Window] = []
        if self._next_emit is not None and self._buffer:
            last = max(ts for ts, __ in self._buffer)
            end = self._next_emit
            while end - self.size <= last:
                start = end - self.size
                items = tuple(it for ts, it in self._buffer if start <= ts < end)
                if items:
                    closed.append(Window(start, end, items))
                end += self.step
        self._buffer = []
        self._next_emit = None
        return closed


class SessionWindow:
    """Gap-based session windows: a session closes after *gap* of inactivity."""

    def __init__(self, gap: float):
        if gap <= 0:
            raise ParameterError("gap must be positive")
        self.gap = gap
        self._items: list[Any] = []
        self._start: float | None = None
        self._last: float | None = None

    def add(self, timestamp: float, item: Any) -> list[Window]:
        """Record *item* at *timestamp*; returns sessions that closed."""
        closed: list[Window] = []
        if self._last is not None and timestamp - self._last > self.gap:
            closed.append(Window(self._start, self._last, tuple(self._items)))
            self._items = []
            self._start = None
        if self._start is None:
            self._start = timestamp
        self._items.append(item)
        self._last = timestamp
        return closed

    def flush(self) -> list[Window]:
        """Close and return the in-progress session (if any)."""
        if not self._items:
            return []
        window = Window(self._start, self._last, tuple(self._items))
        self._items = []
        self._start = self._last = None
        return [window]


def windowed(
    events: Iterable[tuple[float, Any]],
    manager: TumblingWindow | SlidingTimeWindow | SessionWindow,
) -> Iterator[Window]:
    """Drive *manager* over ``(timestamp, item)`` events, yielding windows."""
    for timestamp, item in events:
        yield from manager.add(timestamp, item)
    yield from manager.flush()

"""The traced run's span ledger, kept entirely on the harness side.

A :class:`Ledger` times calls into a layer from outside (the wrappers in
``stages.py`` and ``serve_child.py`` call :meth:`Ledger.call`). Counts and
busy time are exact for every span name; the spans themselves are sampled
(roots and their direct children 1 in ``SAMPLE_EVERY`` per name, deeper
spans follow their parent) and written to ``trace.jsonl`` when the run ends.

A layer's *self time* is its span's duration minus the part its child
spans cover, accumulated exactly on every call through the open-span
stack — not estimated from the sampled spans.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

#: First-level spans (one per tuple or request) keep 1 in this many.
SAMPLE_EVERY = 64


class Ledger:
    """Exact per-name counts/busy/self time plus sampled spans."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        # name -> [count, busy seconds, seconds covered by child spans]
        self.stats: dict[str, list] = {}
        self.spans: list[tuple] = []
        # Open spans: [span id, sampled?, child seconds]
        self._stack: list[list] = []
        self._next_id = 0
        self._pid = os.getpid()

    def own(self) -> None:
        """Start empty in a forked worker (it inherited the parent's copy)."""
        if self._pid != os.getpid():
            self._pid = os.getpid()
            self.stats = {}
            self.spans = []
            self._stack = []

    def call(self, name: str, fn: Callable[..., Any], *args: Any) -> Any:
        """Run ``fn(*args)`` inside a span called *name*."""
        stack = self._stack
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0.0, 0.0]
        self._next_id += 1
        if len(stack) <= 1:
            # A root (a run, a request, a tuple seen from a worker) or a
            # root's direct child: keep the first and then 1 in N by name.
            parent_id = stack[0][0] if stack else None
            sampled = stat[0] % SAMPLE_EVERY == 0
        else:
            parent_id, sampled = stack[-1][0], stack[-1][1]
        frame = [self._next_id, sampled, 0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            stack.pop()
            spent = end - start
            if stack:
                stack[-1][2] += spent
            stat[0] += 1
            stat[1] += spent
            stat[2] += frame[2]
            if sampled:
                self.spans.append((name, start, end, frame[0], parent_id))

    def busy(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def count(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def self_time(self, name: str) -> float:
        stat = self.stats.get(name, (0, 0.0, 0.0))
        return stat[1] - stat[2]

    # -- crossing a process boundary ---------------------------------

    def dump(self, with_spans: bool = True) -> dict:
        """A plain-data copy (shipped home in bolt snapshots / child JSON).

        Spans leave once: a dump that takes them empties the list, so the
        several bolts of one worker do not each ship the same spans. They
        travel as one JSON string, which state shipping moves as one value.
        """
        spans = "[]"
        if with_spans:
            spans, self.spans = json.dumps(self.spans), []
        return {
            "pid": os.getpid(),
            "stats": {name: list(stat) for name, stat in self.stats.items()},
            "spans": spans,
        }

    def absorb(self, dumps: list[dict]) -> None:
        """Fold other processes' ledgers in: per pid, the stats of its
        fullest dump and the spans of all its dumps."""
        fullest: dict[int, dict] = {}
        for dump in dumps:
            pid = dump["pid"]
            if pid == os.getpid():
                continue
            kept = fullest.get(pid)
            if kept is None or _total(dump) >= _total(kept):
                fullest[pid] = dump
            for name, start, end, span_id, parent_id in json.loads(dump["spans"]):
                # Span ids are per process: prefix with the pid.
                parent = None if parent_id is None else f"{pid}:{parent_id}"
                self.spans.append((name, start, end, f"{pid}:{span_id}", parent))
        for dump in fullest.values():
            for name, stat in dump["stats"].items():
                mine = self.stats.setdefault(name, [0, 0.0, 0.0])
                for i in range(3):
                    mine[i] += stat[i]

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for name, start, end, span_id, parent_id in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "id": span_id,
                            "parent": parent_id,
                        }
                    )
                    + "\n"
                )

    def table(self, wall: float) -> list[str]:
        """Per-layer self time, counts and shares of *wall*, widest first."""
        rows = sorted(self.stats.items(), key=lambda kv: kv[1][2] - kv[1][1])
        lines = [f"{'span':<36}{'count':>10}{'busy_s':>10}{'self_s':>10}{'self/wall':>10}"]
        for name, (count, busy, child) in rows:
            own = busy - child
            share = own / wall if wall else 0.0
            lines.append(f"{name:<36}{count:>10}{busy:>10.4f}{own:>10.4f}{share:>10.3f}")
        return lines


def _total(dump: dict) -> int:
    return sum(stat[0] for stat in dump["stats"].values())

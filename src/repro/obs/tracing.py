"""Sampled per-tuple tracing: trace ids, spans, and tree reconstruction.

MillWheel-style systems answer "where did this record spend its time?"
with distributed tracing: a small sampled fraction of records carries a
trace id, and every hop appends a *span* (component, queue wait, process
time, fan-out). This module provides the pieces the executor threads
through a topology run:

* :class:`TraceSampler` — a seeded, **deterministic** sampling decision
  keyed on the spout message id. Determinism matters: when a message is
  replayed (at-least-once) or re-emitted after checkpoint recovery
  (exactly-once), the same message id re-samples to the same decision and
  the same trace id, so the trace continues across failures instead of
  being cut at the crash.
* :class:`Span` — one hop of one traced tuple tree. Spans form a tree via
  ``parent_id``; ``attempt`` numbers re-emissions of the same root
  message so post-crash replays are distinguishable from the aborted
  first try.
* :class:`SpanCollector` — the sink spans are recorded into. It lives
  *outside* checkpointed operator state on purpose: observability data
  must survive recovery (the whole point is debugging the crash). It can
  reconstruct a traced message's span tree end-to-end
  (:meth:`SpanCollector.tree`) and serialise everything for export.

Timestamps are supplied by the caller (the platform layer owns the
clock); nothing here reads wall time, so the module stays replay-safe.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.common.exceptions import ParameterError
from repro.common.rng import derive_seed

_span_counter = itertools.count(1)

#: Span kinds recorded by the executor.
SPAN_KINDS = (
    "spout_emit",
    "process",
    "ack",
    "fail",
    "replay",
    "checkpoint",
    "recovery",
    "crash",
    "rescale",
)


def next_span_id() -> int:
    """Process-unique span id (well-scrambled, like tuple ids)."""
    return derive_seed(0x0B5E7A11, next(_span_counter))


class TraceSampler:
    """Deterministic head-based sampling of spout messages.

    ``rate`` is the sampled fraction in ``[0, 1]``; the decision for a
    message id is a pure function of ``(seed, msg_id)``, so replays of
    the same message are consistently traced (or consistently not).
    """

    def __init__(self, rate: float = 0.01, seed: int = 0):
        if not 0.0 <= rate <= 1.0:
            raise ParameterError("sample rate must lie in [0, 1]")
        self.rate = rate
        self.seed = seed
        # Pre-scaled threshold against the 64-bit hash range.
        self._threshold = int(rate * float(1 << 64))

    def sample(self, msg_id: int) -> int | None:
        """The trace id for *msg_id*, or None when unsampled."""
        if self._threshold == 0:
            return None
        if derive_seed(self.seed, msg_id) < self._threshold:
            return self.trace_id(msg_id)
        return None

    def trace_id(self, msg_id: int) -> int:
        """The (stable) trace id assigned to *msg_id* when sampled."""
        return derive_seed(self.seed ^ 0x7ACE, msg_id)


@dataclass
class Span:
    """One hop of a traced tuple: timing, queueing and fan-out for a
    single component visit (or a lifecycle event when ``trace_id`` is
    None — checkpoint/recovery/crash markers)."""

    trace_id: int | None
    span_id: int
    parent_id: int | None
    component: str
    kind: str
    start: float = 0.0
    duration: float = 0.0
    queue_wait: float = 0.0
    fan_out: int = 0
    attempt: int = 1
    task: int = 0
    msg_id: int | None = None

    def to_dict(self) -> dict:
        """JSON-ready representation (used by the JSON-lines exporter)."""
        return {
            "type": "span",
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "component": self.component,
            "kind": self.kind,
            "start": self.start,
            "duration": self.duration,
            "queue_wait": self.queue_wait,
            "fan_out": self.fan_out,
            "attempt": self.attempt,
            "task": self.task,
            "msg_id": self.msg_id,
        }


def lifecycle_span(root_span: Span, kind: str, start: float) -> Span:
    """An acker marker (ack/fail/replay) under a traced root's span."""
    return Span(
        trace_id=root_span.trace_id,
        span_id=next_span_id(),
        parent_id=root_span.span_id,
        component="acker",
        kind=kind,
        start=start,
        attempt=root_span.attempt,
        msg_id=root_span.msg_id,
    )


def event_span(component: str, kind: str, start: float) -> Span:
    """A trace-less lifecycle event (checkpoint/recovery/crash/rescale)."""
    return Span(
        trace_id=None,
        span_id=next_span_id(),
        parent_id=None,
        component=component,
        kind=kind,
        start=start,
    )


@dataclass
class SpanNode:
    """One node of a reconstructed span tree."""

    span: Span
    children: list["SpanNode"] = field(default_factory=list)

    def walk(self) -> Iterator["SpanNode"]:
        """Pre-order traversal of the subtree."""
        yield self
        for child in self.children:
            yield from child.walk()

    @property
    def components(self) -> list[str]:
        return [node.span.component for node in self.walk()]


class SpanCollector:
    """Accumulates spans and lifecycle events for one (or more) runs."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.events: list[Span] = []  # trace-less lifecycle markers

    def record(self, span: Span) -> Span:
        """Store *span* (events — trace_id None — are kept separately)."""
        if span.kind not in SPAN_KINDS:
            raise ParameterError(f"unknown span kind {span.kind!r}")
        if span.trace_id is None:
            self.events.append(span)
        else:
            self.spans.append(span)
        return span

    # -- queries -----------------------------------------------------------

    def trace_ids(self) -> list[int]:
        """Distinct trace ids, in first-seen order."""
        seen: dict[int, None] = {}
        for span in self.spans:
            seen.setdefault(span.trace_id, None)
        return list(seen)

    def spans_for(self, trace_id: int) -> list[Span]:
        """All spans of *trace_id*, in record order."""
        return [s for s in self.spans if s.trace_id == trace_id]

    def attempts(self, trace_id: int) -> int:
        """Highest attempt number seen for *trace_id* (0 when unknown)."""
        spans = self.spans_for(trace_id)
        return max((s.attempt for s in spans), default=0)

    def tree(self, trace_id: int, attempt: int | None = None) -> SpanNode:
        """Reconstruct the span tree of *trace_id*.

        By default the **final attempt** is reconstructed — the one that
        ran to completion after any crash/replay; pass ``attempt`` to
        inspect an earlier (possibly aborted) try. The root is the
        attempt's ``spout_emit`` span; terminal ``ack``/``fail`` spans
        parent onto the root.
        """
        spans = self.spans_for(trace_id)
        if not spans:
            raise ParameterError(f"no spans recorded for trace {trace_id}")
        want = self.attempts(trace_id) if attempt is None else attempt
        spans = [s for s in spans if s.attempt == want]
        roots = [s for s in spans if s.parent_id is None]
        if len(roots) != 1:
            raise ParameterError(
                f"trace {trace_id} attempt {want}: expected one root span, "
                f"found {len(roots)}"
            )
        nodes = {s.span_id: SpanNode(s) for s in spans}
        root = nodes[roots[0].span_id]
        for span in spans:
            if span.parent_id is None:
                continue
            parent = nodes.get(span.parent_id)
            if parent is None:
                # Parent belongs to an earlier attempt (pre-crash emission
                # whose child survived); hang it off the root so the tree
                # stays connected end-to-end.
                parent = root
            parent.children.append(nodes[span.span_id])
        return root

    # -- export ------------------------------------------------------------

    def to_records(self) -> list[dict]:
        """Every span and event as a JSON-ready dict, in record order."""
        return [s.to_dict() for s in self.spans] + [s.to_dict() for s in self.events]

    def __len__(self) -> int:
        return len(self.spans) + len(self.events)


def critical_path(node: SpanNode) -> list[Span]:
    """The longest (queue_wait + duration)-weighted root→leaf chain."""

    def best(n: SpanNode) -> tuple[float, list[Span]]:
        cost = n.span.queue_wait + n.span.duration
        if not n.children:
            return cost, [n.span]
        child_cost, child_path = max(
            (best(c) for c in n.children), key=lambda pair: pair[0]
        )
        return cost + child_cost, [n.span] + child_path

    return best(node)[1]


def span_stats(spans: list[Span]) -> dict[str, dict[str, Any]]:
    """Per-component aggregates over *spans*: hop count, mean/max process
    time and queue wait (seconds), total fan-out. Feeds the console
    report's per-component latency table."""
    out: dict[str, dict[str, Any]] = {}
    for span in spans:
        if span.kind not in ("process", "spout_emit"):
            continue
        entry = out.setdefault(
            span.component,
            {
                "hops": 0,
                "process_s": 0.0,
                "process_max_s": 0.0,
                "queue_wait_s": 0.0,
                "queue_wait_max_s": 0.0,
                "fan_out": 0,
            },
        )
        entry["hops"] += 1
        entry["process_s"] += span.duration
        entry["process_max_s"] = max(entry["process_max_s"], span.duration)
        entry["queue_wait_s"] += span.queue_wait
        entry["queue_wait_max_s"] = max(entry["queue_wait_max_s"], span.queue_wait)
        entry["fan_out"] += span.fan_out
    return out

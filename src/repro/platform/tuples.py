"""The tuple model: the unit of data flowing through a topology.

Mirrors Storm's model (Section 3): a tuple carries a payload of named
values, belongs to a stream, and—when reliability is on—an anchor tree
rooted at a spout message id so the acker can track completion.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.common.rng import derive_seeds

#: Ids mixed per numpy call: large enough to amortise the call, small
#: enough that a short run does not pre-compute many it never uses.
ID_BLOCK = 256


def tuple_id_source(seed: int) -> Callable[[], int]:
    """A callable returning ``derive_seed(seed, n)`` for n = 1, 2, 3, ...

    Ids must look random: the acker tracks tuple trees as the XOR of their
    member ids, and sequential ids would make accidental cancellation
    (``id1 ^ id2 == id3``) likely, silently completing incomplete trees.
    Storm uses random 64-bit ids for the same reason; SplitMix64 over a
    counter gives the same collision behaviour deterministically.

    The ids are mixed :data:`ID_BLOCK` at a time (:func:`derive_seeds`),
    so a single caller sees exactly the per-id sequence. Callers on
    several threads never share an id: every refill takes its own block,
    and two refills racing at worst skip the rest of one of them.
    """
    starts = itertools.count(1, ID_BLOCK)
    block = iter(())

    def next_id() -> int:
        """The next well-scrambled 64-bit tuple id of this source."""
        nonlocal block
        tuple_id = next(block, None)
        if tuple_id is None:
            block = iter(derive_seeds(seed, next(starts), ID_BLOCK).tolist())
            tuple_id = next(block)
        return tuple_id

    return next_id


#: The process-wide tuple id source (``derive_seed(0x7CB1E5, n)``).
next_tuple_id = tuple_id_source(0x7CB1E5)


@dataclass
class StreamTuple:
    """One message in flight.

    ``values`` is the payload; ``msg_id`` identifies the *root* spout
    message this tuple descends from (None when reliability is off);
    ``anchors`` are the acker-tracked tuple ids this tuple is anchored to.

    The trailing fields carry the *trace context* for sampled tuples
    (``repro.obs``): ``trace_id`` marks the tuple as traced,
    ``parent_span`` is the span that emitted it, ``attempt`` numbers
    re-emissions of the root message across replay/recovery, and
    ``enqueued_at`` is the perf-counter instant it entered its input
    queue (for queue-wait spans). All default to the untraced state, so
    unsampled tuples pay nothing beyond the defaults.
    """

    values: tuple
    stream: str = "default"
    msg_id: int | None = None
    tuple_id: int = field(default_factory=next_tuple_id)
    anchors: tuple[int, ...] = ()
    timestamp: float = 0.0
    trace_id: int | None = None
    parent_span: int | None = None
    attempt: int = 0
    enqueued_at: float = 0.0

    def __getitem__(self, index: int) -> Any:
        return self.values[index]

    def __len__(self) -> int:
        return len(self.values)

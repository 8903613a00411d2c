"""The synopsis protocol every sketch in the library implements.

A *synopsis* is a small summary of a data stream supporting three verbs:

* ``update(item)`` — absorb one stream element;
* ``query(...)``  — answer the synopsis' question (each concrete class names
  its query methods after the question: ``estimate()``, ``quantile(q)``,
  ``contains(x)``, ...);
* ``merge(other)`` — combine with a synopsis built over a *different*
  sub-stream, yielding a synopsis of the union. Mergeability is what lets
  the algorithms scale out across partitions, as Section 2 of the paper
  requires ("the algorithms should be able to scale out").

Elastic rescaling adds the inverse verb: ``split(n)`` partitions a
synopsis into *n* shards whose merge reproduces the original exactly
(``merge(split(s, n)...) ≡ s`` by state fingerprint). Splitting is what
lets a live cluster *increase* parallelism without replaying the stream:
the migration planner captures a bolt's shards, folds them, splits the
fold across the new task set, and resumes. Synopses whose state is
order-dependent or windowed cannot be split; they raise the typed
:class:`~repro.common.exceptions.SplitUnsupported` so the planner can
fall back to drain-and-restart instead of shipping wrong shards.

:class:`SynopsisBase` provides merge-compatibility checking, bulk update,
and the ``+`` operator; concrete sketches subclass it.
"""

from __future__ import annotations

import copy
import sys
from abc import ABC, abstractmethod
from typing import Any, Iterable, Protocol, TypeVar, runtime_checkable

from repro.common.exceptions import MergeError, ParameterError, SplitUnsupported
from repro.common.hashing import hash64

T = TypeVar("T", bound="SynopsisBase")

# Fixed seed for key->shard assignment. Splitting must be deterministic
# across processes and runs (the migration protocol splits on the
# coordinator and restores on freshly forked workers), so the shard hash
# is pinned rather than derived from any per-instance seed.
_SPLIT_HASH_SEED = 0x5EED_517E


def shard_of(key: Any, n: int) -> int:
    """The stable shard index of *key* among *n* shards.

    Used by every key-partitioned ``split`` implementation so that the
    same key always lands in the same shard regardless of which synopsis
    (or which process) performs the split.
    """
    return hash64(key, seed=_SPLIT_HASH_SEED) % n


@runtime_checkable
class Synopsis(Protocol):
    """Structural type for stream synopses (see module docstring)."""

    def update(self, item: Any) -> None:
        """Absorb one stream element."""
        ...

    def merge(self, other: "Synopsis") -> None:
        """Merge a synopsis built over a different sub-stream into this one."""
        ...


class SynopsisBase(ABC):
    """Shared machinery for concrete synopses.

    Subclasses implement :meth:`update` and :meth:`_merge_into`, and may
    override :meth:`_merge_key` to declare which parameters must match for a
    merge to be legal (hash seeds, widths, epsilons, ...).
    """

    @abstractmethod
    def update(self, item: Any) -> None:
        """Absorb one stream element."""

    def update_many(self, items: Iterable[Any]) -> None:
        """Absorb every element of *items* in order."""
        for item in items:
            self.update(item)

    def _merge_key(self) -> tuple:
        """Parameters that must be equal on both sides of a merge."""
        return ()

    def _check_mergeable(self: T, other: object) -> T:
        if type(other) is not type(self):
            raise MergeError(
                f"cannot merge {type(self).__name__} with {type(other).__name__}"
            )
        if other._merge_key() != self._merge_key():
            raise MergeError(
                f"incompatible {type(self).__name__} parameters: "
                f"{self._merge_key()} != {other._merge_key()}"
            )
        return other  # type: ignore[return-value]

    @abstractmethod
    def _merge_into(self: T, other: T) -> None:
        """Merge *other* (already verified compatible) into ``self``."""

    def merge(self: T, other: T) -> None:
        """Merge *other* into ``self`` in place.

        Raises :class:`~repro.common.exceptions.MergeError` when the two
        synopses were built with incompatible parameters.
        """
        self._merge_into(self._check_mergeable(other))

    def __add__(self: T, other: T) -> T:
        """Return a merged copy, leaving both operands untouched."""
        merged = copy.deepcopy(self)
        merged.merge(other)
        return merged

    # -- splitting (the elastic-rescale half of mergeability) -------------

    def _split_into(self: T, n: int) -> list[T]:
        """Partition ``self`` into *n* shards; override where valid.

        Implementations must not mutate ``self`` and must satisfy
        ``merge(shards...) ≡ self`` by state fingerprint. The base class
        declares the synopsis unsplittable.
        """
        raise SplitUnsupported(
            f"{type(self).__name__} state cannot be partitioned; "
            "the elastic planner must drain-and-restart this operator"
        )

    @classmethod
    def supports_split(cls) -> bool:
        """Whether this synopsis class implements a valid ``split``."""
        return cls._split_into is not SynopsisBase._split_into

    def split(self: T, n: int) -> list[T]:
        """Partition into *n* shards whose merge reproduces ``self``.

        The contract the elastic runtime depends on:

        * ``len(split(s, n)) == n``;
        * folding the shards with :meth:`merge` (in any order) yields a
          synopsis fingerprint-identical to ``s``;
        * ``s`` itself is left untouched (shards share no mutable state
          with it).

        Raises :class:`~repro.common.exceptions.SplitUnsupported` when the
        synopsis has no mathematically valid partition, and
        :class:`~repro.common.exceptions.ParameterError` for ``n < 1``.
        """
        if n < 1:
            raise ParameterError("shard count n must be at least 1")
        shards = self._split_into(n)
        if len(shards) != n:  # pragma: no cover - implementation bug guard
            raise SplitUnsupported(
                f"{type(self).__name__}._split_into returned {len(shards)} "
                f"shards for n={n}"
            )
        return shards

    def _split_seed_part(self: T, n: int) -> list[T]:
        """Shard 0 inherits the full state; shards 1..n-1 start empty.

        The workhorse strategy for sketches whose merge is a pure fold of
        an empty-identity operation (bitwise OR, register max, table add):
        merging a full copy with n-1 empty clones reproduces the original
        *including* additive bookkeeping like ``count``, which a naive
        copy-to-every-shard split would multiply by n.

        Subclasses using this helper implement :meth:`_empty_clone`.
        """
        return [copy.deepcopy(self)] + [self._empty_clone() for __ in range(n - 1)]

    def _empty_clone(self: T) -> T:
        """A same-parameter synopsis with no absorbed stream (for
        :meth:`_split_seed_part`); override alongside it."""
        raise NotImplementedError

    def size_bytes(self) -> int:
        """Approximate in-memory footprint of the synopsis in bytes.

        The default walks the object graph with ``sys.getsizeof``; sketches
        backed by numpy arrays override this with ``arr.nbytes`` based
        accounting for a tighter answer.
        """
        seen: set[int] = set()
        return _deep_sizeof(self, seen)

    # -- observability hooks (repro.obs) ---------------------------------

    def memory_footprint(self) -> int:
        """The observability plane's canonical footprint gauge.

        Always a plain positive ``int`` (numpy scalars from ``nbytes``
        accounting are coerced), so exporters can publish it directly.
        """
        return int(self.size_bytes())

    def instrumented(
        self, registry: Any = None, name: str | None = None
    ) -> "Any":
        """Wrap this synopsis in a counting/memory-gauging wrapper.

        Returns an :class:`~repro.obs.instrument.InstrumentedSynopsis`
        publishing update/merge/query call counts, batch sizes and a live
        ``memory_footprint`` gauge into *registry* (default: the
        process-wide registry). Opt-in: the unwrapped synopsis stays
        untouched and reachable via ``.synopsis``.
        """
        from repro.obs.instrument import InstrumentedSynopsis

        return InstrumentedSynopsis(self, registry=registry, name=name)


def fold(partials: list[Any]) -> SynopsisBase:
    """Merge *partials* in order into the first and return it
    (merge-on-query). Raises :class:`ParameterError` unless there is at
    least one partial and every partial is a :class:`SynopsisBase`."""
    if not partials or not all(isinstance(p, SynopsisBase) for p in partials):
        raise ParameterError("shard state is not a mergeable synopsis")
    for partial in partials[1:]:
        partials[0].merge(partial)
    return partials[0]


def _deep_sizeof(obj: Any, seen: set[int]) -> int:
    oid = id(obj)
    if oid in seen:
        return 0
    seen.add(oid)
    size = sys.getsizeof(obj, 0)
    if hasattr(obj, "nbytes") and isinstance(getattr(obj, "nbytes"), int):
        return size + obj.nbytes
    if isinstance(obj, dict):
        size += sum(
            _deep_sizeof(k, seen) + _deep_sizeof(v, seen) for k, v in obj.items()
        )
    elif isinstance(obj, (list, tuple, set, frozenset)):
        size += sum(_deep_sizeof(it, seen) for it in obj)
    elif hasattr(obj, "__dict__"):
        size += _deep_sizeof(vars(obj), seen)
    elif hasattr(obj, "__slots__"):
        size += sum(
            _deep_sizeof(getattr(obj, slot), seen)
            for slot in obj.__slots__
            if hasattr(obj, slot)
        )
    return size

"""Stream groupings: how tuples are routed between component instances.

Storm's grouping vocabulary (Section 3): *shuffle* balances load,
*fields* sends equal keys to the same task (required by stateful
aggregations), *global* funnels everything to one task, *all* broadcasts.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.common.exceptions import ParameterError
from repro.common.hashing import hash64
from repro.common.rng import make_rng
from repro.platform.tuples import StreamTuple


class Grouping(ABC):
    """Chooses destination task indices for each tuple."""

    @abstractmethod
    def targets(self, tup: StreamTuple, n_tasks: int) -> list[int]:
        """Task indices (in ``range(n_tasks)``) that receive *tup*."""

    def targets_batch(self, payloads: list[tuple], n_tasks: int) -> list[list[int]]:
        """Target lists for a whole batch of raw payload tuples.

        Must be *exactly* equivalent to calling :meth:`targets` once per
        payload in order (stateful groupings advance their state the same
        way), so batched and per-tuple feeds route identically. The
        default adapts per-payload, which also serves
        :class:`FieldsGrouping` through its persistent key cache.
        """
        return [self.targets(_PayloadView(p), n_tasks) for p in payloads]

    def route_batch(
        self, payloads: list[tuple], n_tasks: int
    ) -> tuple[list[list[int]], list[int | None] | None]:
        """Batched routing plus the hashed keys that drove it.

        Returns ``(targets, khashes)`` where ``targets`` is exactly
        :meth:`targets_batch` and ``khashes`` is a parallel list of
        ``hash64(key)`` values for key-partitioned groupings (``None``
        for groupings with no key hash). The shm transport ships the
        hashes as a ``uint64`` column so downstream consumers (elastic
        rescaling, key-range diagnostics) never re-hash.
        """
        return self.targets_batch(payloads, n_tasks), None


class _PayloadView:
    """Minimal stand-in exposing ``.values`` for batch routing (groupings
    only ever read the payload values)."""

    __slots__ = ("values",)

    def __init__(self, values: tuple):
        self.values = values


class ShuffleGrouping(Grouping):
    """Round-robin load balancing (deterministic given the seed)."""

    def __init__(self, seed: int = 0):
        self._rng = make_rng(seed)

    def targets(self, tup: StreamTuple, n_tasks: int) -> list[int]:
        return [self._rng.randrange(n_tasks)]


#: Field types whose equal values always encode, and so hash, the same.
#: ``1 == True == 1.0`` and ``0.0 == -0.0``, but :func:`hash64` tells all
#: of them apart; among exact ``str``/``int``/``bytes`` values, equality
#: implies the same type and the same encoding.
_EXACT_TYPES = frozenset((str, int, bytes))

#: Entries the persistent key cache holds before it starts over.
KEY_CACHE_MAX = 65_536


def _exact(key: tuple) -> bool:
    """True when every field of *key* has one of the :data:`_EXACT_TYPES`."""
    for value in key:
        if type(value) not in _EXACT_TYPES:
            return False
    return True


class FieldsGrouping(Grouping):
    """Hash-partition on a subset of value positions (key affinity).

    A key goes to task ``hash64(key) % n_tasks``. Keys are hashed once,
    not once per tuple: a single-field key whose value is an exact
    ``str``, ``int`` or ``bytes`` is looked up in a cache that lasts
    across calls and maps the value itself to the shared ``[task]`` list
    of its task, so a hit allocates nothing. Values of any other type
    (``bool``, ``float``, subclasses, tuples, ...) and multi-field keys
    are hashed every time: equal values of different types, such as
    ``1``, ``True`` and ``1.0``, hash differently and must not share an
    entry. The cache starts over when ``n_tasks`` changes (a rescale
    reuses the grouping) or when it reaches :data:`KEY_CACHE_MAX`
    entries. The returned lists are shared: callers must not mutate them.
    """

    def __init__(self, *indices: int):
        if not indices:
            raise ParameterError("fields grouping needs at least one field index")
        self.indices = indices
        self._field = indices[0] if len(indices) == 1 else None
        #: ``(n_tasks, value -> route, per-task routes)``, replaced as one
        #: tuple so a reader never pairs one task count with another's map.
        self._cache: tuple[int, dict, list[list[int]]] = (0, {}, [])

    def targets(self, tup: StreamTuple, n_tasks: int) -> list[int]:
        values = tup.values
        if self._field is not None:
            value = values[self._field]
            if type(value) in _EXACT_TYPES:
                n_cached, routes, by_task = self._cache
                if n_cached != n_tasks:
                    routes, by_task = {}, [[task] for task in range(n_tasks)]
                    self._cache = (n_tasks, routes, by_task)
                route = routes.get(value)
                if route is None:
                    if len(routes) >= KEY_CACHE_MAX:
                        routes.clear()
                    route = routes[value] = by_task[hash64((value,)) % n_tasks]
                return route
        key = tuple(values[i] for i in self.indices)
        return [hash64(key) % n_tasks]

    def route_batch(
        self, payloads: list[tuple], n_tasks: int
    ) -> tuple[list[list[int]], list[int | None] | None]:
        """Batched routing that also surfaces the key hashes.

        Each distinct key whose fields are all exact ``str``/``int``/
        ``bytes`` is hashed once per batch; any other key is hashed per
        payload, under the same type-exact rule as :meth:`targets`.
        """
        indices = self.indices
        cache: dict[tuple, tuple[list[int], int]] = {}
        targets: list[list[int]] = []
        khashes: list[int | None] = []
        for payload in payloads:
            key = tuple(payload[i] for i in indices)
            exact = _exact(key)
            hit = cache.get(key) if exact else None
            if hit is None:
                h = hash64(key)
                hit = ([h % n_tasks], h)
                if exact:
                    cache[key] = hit
            targets.append(hit[0])
            khashes.append(hit[1])
        return targets, khashes


class GlobalGrouping(Grouping):
    """Everything to task 0 (global aggregation point)."""

    def targets(self, tup: StreamTuple, n_tasks: int) -> list[int]:
        return [0]

    def targets_batch(self, payloads: list[tuple], n_tasks: int) -> list[list[int]]:
        route = [0]
        return [route] * len(payloads)


class AllGrouping(Grouping):
    """Broadcast to every task (e.g. config/update distribution)."""

    def targets(self, tup: StreamTuple, n_tasks: int) -> list[int]:
        return list(range(n_tasks))

    def targets_batch(self, payloads: list[tuple], n_tasks: int) -> list[list[int]]:
        route = list(range(n_tasks))
        return [route] * len(payloads)

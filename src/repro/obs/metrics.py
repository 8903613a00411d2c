"""The metric registry: labeled instruments with cheap no-op defaults.

Every Table 2 system ships a first-class metrics plane (Storm's UI
counters, Heron's metrics manager, MillWheel's per-computation watermarks
and latencies). This module is ours: three instrument kinds —

* :class:`Counter` — monotonically increasing totals (tuples emitted,
  synopsis update calls);
* :class:`Gauge` — point-in-time values (queue high-water, memory
  footprint), optionally backed by a callback so collection reads the
  live value;
* :class:`Histogram` — value distributions summarised by the library's
  own :class:`~repro.quantiles.tdigest.TDigest` (the observability plane
  eats its own dog food), exposed as count/sum plus tail quantiles.

Instruments are *labeled*: an instrument declares its label names once
and hands out per-label-value children (``counter.labels(component="x")``),
exactly Prometheus' model, so exporters can render one family per name.
A :class:`MetricRegistry` owns instruments by name (get-or-create, so two
subsystems asking for the same family share it); :data:`NULL_REGISTRY`
is the no-op default — every method is a cheap pass-through, which keeps
uninstrumented hot paths free of overhead. A process-wide default
registry (:func:`get_default_registry`) serves code that does not thread
an explicit registry.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.common.exceptions import ParameterError
from repro.quantiles.tdigest import TDigest

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Quantiles every histogram family exports.
HISTOGRAM_QUANTILES = (0.5, 0.9, 0.99)


@dataclass(frozen=True)
class Sample:
    """One collected measurement: a fully-qualified name, labels, value."""

    name: str
    labels: tuple[tuple[str, str], ...]
    value: float

    def labels_dict(self) -> dict[str, str]:
        """The label pairs as a plain dict."""
        return dict(self.labels)


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name or ""):
        raise ParameterError(f"invalid metric name {name!r}")
    return name


def _check_labelnames(labelnames: Iterable[str]) -> tuple[str, ...]:
    names = tuple(labelnames)
    for label in names:
        if not _LABEL_RE.match(label):
            raise ParameterError(f"invalid label name {label!r}")
    if len(set(names)) != len(names):
        raise ParameterError(f"duplicate label names in {names!r}")
    return names


class _Instrument:
    """Shared machinery: a family of per-label-value children."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labelnames: Iterable[str] = ()):
        self.name = _check_name(name)
        self.help = help
        self.labelnames = _check_labelnames(labelnames)
        self._children: dict[tuple[str, ...], Any] = {}

    def _make_child(self) -> Any:
        raise NotImplementedError

    def labels(self, **labelvalues: Any) -> Any:
        """The child instrument for this exact label-value combination."""
        if set(labelvalues) != set(self.labelnames):
            raise ParameterError(
                f"{self.name}: expected labels {self.labelnames}, "
                f"got {tuple(sorted(labelvalues))}"
            )
        key = tuple(str(labelvalues[label]) for label in self.labelnames)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = self._make_child()
        return child

    def _default_child(self) -> Any:
        if self.labelnames:
            raise ParameterError(
                f"{self.name} is labeled {self.labelnames}; use .labels(...)"
            )
        key = ()
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = self._make_child()
        return child

    def _label_tuples(self) -> list[tuple[tuple[tuple[str, str], ...], Any]]:
        return [
            (tuple(zip(self.labelnames, key)), child)
            for key, child in sorted(self._children.items())
        ]

    def samples(self) -> list[Sample]:
        """Every collected sample of the family, sorted by label values."""
        raise NotImplementedError


class _CounterChild:
    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ParameterError("counters only go up; inc amount must be >= 0")
        self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Counter(_Instrument):
    """A monotonically increasing total."""

    kind = "counter"

    def _make_child(self) -> _CounterChild:
        return _CounterChild()

    def inc(self, amount: float = 1.0) -> None:
        """Increase the (unlabeled) counter by *amount* (must be >= 0)."""
        self._default_child().inc(amount)

    @property
    def value(self) -> float:
        return self._default_child().value

    def samples(self) -> list[Sample]:
        return [
            Sample(self.name, labels, child.value)
            for labels, child in self._label_tuples()
        ]


class RegistryRow:
    """Registry children fed from plain values in one call: *counters*
    advance by what changed since the last call (so owners sharing a
    registry add up there as Prometheus totals do), *gauges* take the
    value. An unchanged row costs one tuple comparison."""

    __slots__ = ("_writers", "_last")

    def __init__(self, counters: Iterable[Any], gauges: Iterable[Any] = ()):
        self._writers = (
            *((counter.inc, True) for counter in counters),
            *((gauge.set, False) for gauge in gauges),
        )
        self._last = (0,) * len(self._writers)

    def advance(self, values: tuple) -> None:
        """Bring the row to *values*: the counters' totals, then the gauges'."""
        last = self._last
        if values == last:
            return
        self._last = values
        for (write, by_delta), value, old in zip(self._writers, values, last):
            if value != old:
                write(value - old if by_delta else value)


class _GaugeChild:
    __slots__ = ("_value", "_fn")

    def __init__(self) -> None:
        self._value = 0.0
        self._fn: Callable[[], float] | None = None

    def set(self, value: float) -> None:
        self._fn = None
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._fn = None
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def set_function(self, fn: Callable[[], float]) -> None:
        """Collect the gauge by calling *fn* (live memory footprints etc.)."""
        self._fn = fn

    @property
    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        return self._value


class Gauge(_Instrument):
    """A value that can go up and down (or be computed at collect time)."""

    kind = "gauge"

    def _make_child(self) -> _GaugeChild:
        return _GaugeChild()

    def set(self, value: float) -> None:
        """Set the (unlabeled) gauge to *value*."""
        self._default_child().set(value)

    def inc(self, amount: float = 1.0) -> None:
        """Increase the gauge by *amount*."""
        self._default_child().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        """Decrease the gauge by *amount*."""
        self._default_child().dec(amount)

    def set_function(self, fn: Callable[[], float]) -> None:
        """Collect the gauge by calling *fn* at read time."""
        self._default_child().set_function(fn)

    @property
    def value(self) -> float:
        return self._default_child().value

    def samples(self) -> list[Sample]:
        return [
            Sample(self.name, labels, child.value)
            for labels, child in self._label_tuples()
        ]


class _HistogramChild:
    __slots__ = ("digest", "count", "sum")

    def __init__(self, delta: float) -> None:
        self.digest = TDigest(delta=delta)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        if math.isnan(value):
            raise ParameterError("cannot observe NaN")
        self.digest.update(value)
        self.count += 1
        self.sum += value

    def quantile(self, q: float) -> float:
        if self.count == 0:
            return 0.0
        return self.digest.quantile(q)


class Histogram(_Instrument):
    """A t-digest-backed distribution: count, sum and tail quantiles."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Iterable[str] = (),
        delta: float = 100.0,
    ):
        super().__init__(name, help, labelnames)
        self.delta = delta

    def _make_child(self) -> _HistogramChild:
        return _HistogramChild(self.delta)

    def observe(self, value: float) -> None:
        """Record one observation (NaN rejected)."""
        self._default_child().observe(value)

    def quantile(self, q: float) -> float:
        """Estimated *q*-quantile of the observations (0.0 when empty)."""
        return self._default_child().quantile(q)

    @property
    def count(self) -> int:
        return self._default_child().count

    @property
    def sum(self) -> float:
        return self._default_child().sum

    def samples(self) -> list[Sample]:
        out: list[Sample] = []
        for labels, child in self._label_tuples():
            out.append(Sample(f"{self.name}_count", labels, float(child.count)))
            out.append(Sample(f"{self.name}_sum", labels, child.sum))
            for q in HISTOGRAM_QUANTILES:
                out.append(
                    Sample(
                        self.name,
                        labels + (("quantile", repr(q)),),
                        child.quantile(q),
                    )
                )
        return out


class MetricRegistry:
    """Owns instruments by name; get-or-create so subsystems share families."""

    def __init__(self) -> None:
        self._instruments: dict[str, _Instrument] = {}

    def _get_or_create(
        self, cls: type, name: str, help: str, labelnames: Iterable[str], **kwargs: Any
    ) -> Any:
        labelnames = _check_labelnames(labelnames)
        existing = self._instruments.get(name)
        if existing is not None:
            if type(existing) is not cls or existing.labelnames != labelnames:
                raise ParameterError(
                    f"metric {name!r} already registered as {existing.kind} "
                    f"with labels {existing.labelnames}"
                )
            return existing
        instrument = cls(name, help, labelnames, **kwargs)
        self._instruments[name] = instrument
        return instrument

    def counter(
        self, name: str, help: str = "", labelnames: Iterable[str] = ()
    ) -> Counter:
        """Get or create the counter family *name*."""
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Iterable[str] = ()) -> Gauge:
        """Get or create the gauge family *name*."""
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Iterable[str] = (),
        delta: float = 100.0,
    ) -> Histogram:
        """Get or create the histogram family *name*."""
        return self._get_or_create(Histogram, name, help, labelnames, delta=delta)

    def get(self, name: str) -> _Instrument | None:
        """The instrument registered under *name*, or None."""
        return self._instruments.get(name)

    def names(self) -> list[str]:
        """Sorted names of every registered family."""
        return sorted(self._instruments)

    def families(self) -> list[_Instrument]:
        """Every registered instrument, sorted by name."""
        return [self._instruments[name] for name in self.names()]

    def collect(self) -> list[Sample]:
        """Every sample of every family, in stable (name, labels) order."""
        out: list[Sample] = []
        for family in self.families():
            out.extend(family.samples())
        return out


class _NullChild:
    """Accepts every instrument verb and does nothing."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def set_function(self, fn: Callable[[], float]) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def quantile(self, q: float) -> float:
        return 0.0

    def labels(self, **labelvalues: Any) -> "_NullChild":
        return self

    @property
    def value(self) -> float:
        return 0.0

    @property
    def count(self) -> int:
        return 0

    @property
    def sum(self) -> float:
        return 0.0

    def samples(self) -> list[Sample]:
        return []


_NULL_CHILD = _NullChild()


class NullRegistry(MetricRegistry):
    """The cheap default: every instrument is a shared no-op."""

    def counter(self, name: str, help: str = "", labelnames: Iterable[str] = ()) -> Any:
        return _NULL_CHILD

    def gauge(self, name: str, help: str = "", labelnames: Iterable[str] = ()) -> Any:
        return _NULL_CHILD

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Iterable[str] = (),
        delta: float = 100.0,
    ) -> Any:
        return _NULL_CHILD

    def collect(self) -> list[Sample]:
        return []

    def families(self) -> list[_Instrument]:
        return []


#: Shared no-op registry: instrument against it freely, nothing is stored.
NULL_REGISTRY = NullRegistry()

_default_registry = MetricRegistry()


def get_default_registry() -> MetricRegistry:
    """The process-wide default registry."""
    return _default_registry


def set_default_registry(registry: MetricRegistry) -> MetricRegistry:
    """Swap the process-wide default registry; returns the previous one."""
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous

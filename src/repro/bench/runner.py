"""The measurement harness, and the synopsis-kernel suite that uses it.

Every ``repro.bench`` suite reports on one schema, ``repro.bench/v3``. A
payload is ``{"schema", "suite", "config", "env", "results"}`` and each
row of ``results`` is one named **arm** of one **case**: the synopsis
suite's ``scalar``/``batch`` ingest of one synopsis, the lint suite's
four cache × jobs configurations, the elastic suite's ``fixed`` and
``elastic`` clusters. :func:`measure` times every arm *repeats* times;
the row keeps ``median_s`` and ``iqr_s`` of those runs,
``items_per_s = n_items / median_s``, and ``equivalent`` — every repeat's
final state or output matched the case's reference. Ratios are not
stored: :func:`ratio` takes them between two named arms' medians. ``env``
is the same stamp on every payload (:func:`env_stamp`).

The synopsis-kernel suite (:func:`run_bench`) builds a seeded workload
per :class:`BenchCase`, ingests it item-at-a-time (``scalar``) and by
``update_many`` (``batch``), and checks that both leave bit-identical
state via :func:`repro.bench.fingerprint.state_fingerprint` — the
batch-ingest invariant.

This module may read the wall clock: it *is* the measurement harness, the
one place where elapsed real time is the subject rather than a hidden
input (see SL004's exemption for ``repro.bench``).
"""

from __future__ import annotations

import platform
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.bench.fingerprint import state_fingerprint
from repro.common.cpus import available_cpu_count
from repro.common.exceptions import ParameterError

BENCH_SCHEMA = "repro.bench/v3"

_PAYLOAD_KEYS = frozenset({"schema", "suite", "config", "env", "results"})
_CONFIG_KEYS = frozenset({"n_items", "repeats", "seed", "smoke"})

#: Every row carries exactly these keys, plus an optional ``detail`` dict
#: of suite-specific facts (the elastic arm's rescale trajectory).
_ROW_KEYS = frozenset(
    {
        "case",
        "arm",
        "workload",
        "n_items",
        "median_s",
        "iqr_s",
        "items_per_s",
        "equivalent",
    }
)


def measure(
    run: Callable[[Any], Any],
    repeats: int,
    prepare: Callable[[], Any] | None = None,
) -> tuple[list[float], list]:
    """Wall time of ``run(prepare())`` over *repeats* fresh runs.

    ``prepare`` is untimed and builds each run's fresh input (a new
    synopsis, an emptied or a warmed cache, an executor); only ``run`` is
    timed. Every run's return value is kept so the caller can check each
    repeat's outcome, not just the last. Returns (seconds, outcomes), one
    entry per repeat.
    """
    if repeats <= 0:
        raise ParameterError("repeats must be positive")
    seconds: list[float] = []
    outcomes: list = []
    for __ in range(repeats):
        state = prepare() if prepare is not None else None
        start = time.perf_counter()
        outcomes.append(run(state))
        seconds.append(time.perf_counter() - start)
    return seconds, outcomes


def arm_row(
    case: str,
    arm: str,
    workload: str,
    n_items: int,
    seconds: list[float],
    equivalent: bool,
    detail: dict | None = None,
) -> dict:
    """One result row: median and interquartile range of *seconds*."""
    q1, median, q3 = (float(q) for q in np.percentile(seconds, [25, 50, 75]))
    row = {
        "case": case,
        "arm": arm,
        "workload": workload,
        "n_items": n_items,
        "median_s": median,
        "iqr_s": q3 - q1,
        "items_per_s": n_items / median,
        "equivalent": equivalent,
    }
    if detail is not None:
        row["detail"] = detail
    return row


def env_stamp() -> dict:
    """Where a payload was measured: the cores this process may use
    (affinity-aware), the interpreter and numpy versions, the machine."""
    return {
        "n_cores": available_cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def make_payload(suite: str, config: dict, results: list[dict]) -> dict:
    """Wrap a suite's rows in the ``repro.bench/v3`` envelope."""
    return {
        "schema": BENCH_SCHEMA,
        "suite": suite,
        "config": config,
        "env": env_stamp(),
        "results": results,
    }


def ratio(payload: dict, case: str, baseline: str, arm: str) -> float:
    """``median_s`` of arm *baseline* over that of arm *arm*, both of
    *case*: above 1 means *arm* is faster."""
    medians = {
        row["arm"]: row["median_s"]
        for row in payload["results"]
        if row["case"] == case
    }
    for name in (baseline, arm):
        if name not in medians:
            raise ValueError(f"payload has no {name!r} arm for case {case!r}")
    return medians[baseline] / medians[arm]


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate_payload(payload: dict) -> None:
    """Raise ``ValueError`` unless *payload* is a ``repro.bench/v3``
    payload whose every row is a measured, equivalent arm."""
    if not isinstance(payload, dict) or payload.get("schema") != BENCH_SCHEMA:
        raise ValueError(f"schema must be {BENCH_SCHEMA!r}")
    if set(payload) != _PAYLOAD_KEYS:
        raise ValueError(f"payload keys must be {sorted(_PAYLOAD_KEYS)}")
    config, env, results = payload["config"], payload["env"], payload["results"]
    if not isinstance(config, dict) or not _CONFIG_KEYS <= set(config):
        raise ValueError("config must carry n_items/repeats/seed/smoke")
    n_cores = env.get("n_cores") if isinstance(env, dict) else None
    if not (_is_number(n_cores) and n_cores > 0):
        raise ValueError("env must carry a positive n_cores")
    if not isinstance(results, list) or not results:
        raise ValueError("results must be a non-empty list")
    arms = set()
    for row in results:
        keys = set(row) if isinstance(row, dict) else set()
        if not _ROW_KEYS <= keys <= _ROW_KEYS | {"detail"}:
            raise ValueError(f"bad row keys: {sorted(keys)}")
        name = f"{row['case']}/{row['arm']}"
        if name in arms:
            raise ValueError(f"{name}: arm measured twice")
        arms.add(name)
        for key in ("n_items", "median_s", "items_per_s"):
            if not (_is_number(row[key]) and row[key] > 0):
                raise ValueError(f"{name}: {key} must be positive")
        if not (_is_number(row["iqr_s"]) and row["iqr_s"] >= 0):
            raise ValueError(f"{name}: iqr_s must be non-negative")
        if row["equivalent"] is not True:
            raise ValueError(f"{name}: diverged from the case's reference")


def format_table(payload: dict) -> str:
    """Render the payload as an aligned table; ``ratio`` is each arm's
    speed relative to the first arm of its case."""
    header = (
        f"{'case':<24} {'arm':<10} {'items':>8} {'median s':>10} "
        f"{'iqr s':>9} {'items/s':>12} {'ratio':>7}  equal"
    )
    lines = [header, "-" * len(header)]
    first_arm: dict[str, str] = {}
    for row in payload["results"]:
        baseline = first_arm.setdefault(row["case"], row["arm"])
        lines.append(
            f"{row['case']:<24} {row['arm']:<10} {row['n_items']:>8} "
            f"{row['median_s']:>10.4f} {row['iqr_s']:>9.4f} "
            f"{row['items_per_s']:>12,.0f} "
            f"{ratio(payload, row['case'], baseline, row['arm']):>6.2f}x  "
            f"{'yes' if row['equivalent'] else 'NO'}"
        )
        if "detail" in row:
            lines.append(
                "    " + ", ".join(f"{k}={v}" for k, v in row["detail"].items())
            )
    env = payload["env"]
    lines.append(
        f"({env['n_cores']} core(s), Python {env['python']}, numpy "
        f"{env['numpy']}; median of {payload['config']['repeats']} run(s))"
    )
    return "\n".join(lines)


@dataclass(frozen=True)
class BenchCase:
    """One measured synopsis configuration.

    ``factory`` builds a fresh synopsis per timed run; ``make_items(n,
    seed)`` materialises the seeded workload both ingest arms consume.
    """

    name: str
    factory: Callable[[], Any]
    workload: str
    make_items: Callable[[int, int], list]


def _zipf_items(n: int, seed: int) -> list:
    from repro.workloads.text import zipf_stream

    return list(zipf_stream(n, universe=50_000, skew=1.1, seed=seed))


def default_cases() -> list[BenchCase]:
    """Every hot-path synopsis with a vectorized ``update_many``."""
    from repro.cardinality.hyperloglog import HyperLogLog
    from repro.cardinality.sliding_hll import SlidingHyperLogLog
    from repro.core.summary import StreamSummary
    from repro.filtering.bloom import BloomFilter
    from repro.filtering.counting_bloom import CountingBloomFilter
    from repro.filtering.partitioned import PartitionedBloomFilter
    from repro.frequency.count_min import CountMinSketch
    from repro.frequency.count_sketch import CountSketch
    from repro.frequency.lossy_counting import LossyCounting
    from repro.frequency.misra_gries import MisraGries
    from repro.frequency.space_saving import SpaceSaving

    def summary() -> StreamSummary:
        return StreamSummary(
            uniques=HyperLogLog(precision=12),
            topk=SpaceSaving(256),
            freq=CountMinSketch(width=2048, depth=4),
        )

    zipf = _zipf_items
    return [
        BenchCase("count_min", lambda: CountMinSketch(2048, 4), "zipf", zipf),
        BenchCase(
            "count_min_conservative",
            lambda: CountMinSketch(2048, 4, conservative=True),
            "zipf",
            zipf,
        ),
        BenchCase("count_sketch", lambda: CountSketch(2048, 4), "zipf", zipf),
        BenchCase("bloom", lambda: BloomFilter(1 << 20, 7), "zipf", zipf),
        BenchCase(
            "counting_bloom", lambda: CountingBloomFilter(1 << 18, 5), "zipf", zipf
        ),
        BenchCase(
            "partitioned_bloom",
            lambda: PartitionedBloomFilter(slice_bits=17, k=5),
            "zipf",
            zipf,
        ),
        BenchCase("hyperloglog", lambda: HyperLogLog(precision=14), "zipf", zipf),
        BenchCase(
            "sliding_hll", lambda: SlidingHyperLogLog(precision=12), "zipf", zipf
        ),
        BenchCase("space_saving", lambda: SpaceSaving(256), "zipf", zipf),
        BenchCase("misra_gries", lambda: MisraGries(256), "zipf", zipf),
        BenchCase("lossy_counting", lambda: LossyCounting(0.001), "zipf", zipf),
        BenchCase("stream_summary", summary, "zipf", zipf),
    ]


def _ingest(items: list, batched: bool) -> Callable[[Any], Any]:
    """The timed part of one arm: feed *items* into a fresh synopsis."""

    def run(synopsis: Any) -> Any:
        if batched:
            synopsis.update_many(items)
        else:
            update = synopsis.update
            for item in items:
                update(item)
        return synopsis

    return run


def run_bench(
    cases: list[BenchCase] | None = None,
    n_items: int = 100_000,
    repeats: int = 3,
    seed: int = 7,
    smoke: bool = False,
) -> dict:
    """Run every case's ``scalar`` and ``batch`` arms; returns the payload."""
    if n_items <= 0:
        raise ParameterError("n_items must be positive")
    cases = default_cases() if cases is None else list(cases)
    results = []
    for case in cases:
        items = case.make_items(n_items, seed)
        arms = {
            arm: measure(_ingest(items, arm == "batch"), repeats, case.factory)
            for arm in ("scalar", "batch")
        }
        reference = state_fingerprint(arms["scalar"][1][0])
        for arm, (seconds, synopses) in arms.items():
            equivalent = all(state_fingerprint(s) == reference for s in synopses)
            results.append(
                arm_row(case.name, arm, case.workload, len(items), seconds, equivalent)
            )
    config = {"n_items": n_items, "repeats": repeats, "seed": seed, "smoke": smoke}
    return make_payload("synopses", config, results)

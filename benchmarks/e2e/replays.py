"""Layer unit costs by replay: each layer's public function, called
directly on a sample of the workload's own data.

A traced pass multiplies these unit costs by the run's counts to say how
much of the run a layer can account for. Every cost is the median of
REPEATS timings of the same call over the same sample.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter
from typing import Callable

from common import median

REPEATS = 5
#: How much of the workload's data a replay uses.
SAMPLE_TOKENS = 20_000


def _cost(fn: Callable[[], object], n: int) -> float:
    """Median seconds per item of ``fn()``, which handles *n* items."""
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return median(times) / n


def replay_layers(words: list[str], queries: list[dict]) -> dict[str, float]:
    """Unit costs of every layer on *words* (SAMPLE_TOKENS of the workload's
    tokens) and, for the serving layers, *queries*."""
    from repro.cardinality.hyperloglog import HyperLogLog
    from repro.cluster import SpscRing, component_table
    from repro.cluster.columnar import decode_entries, encode_entries
    from repro.common.hashing import HashFamily
    from repro.core import stateship
    from repro.frequency.count_min import CountMinSketch
    from repro.frequency.space_saving import SpaceSaving
    from repro.platform import Acker, FieldsGrouping, StreamTuple
    from repro.platform.tuples import next_tuple_id
    from repro.quantiles.exact import ExactQuantiles
    from repro.serving import ResultCache, parse_query
    from repro.serving.demo import serving_summary

    n = len(words)
    payloads = [(word,) for word in words]
    out: dict[str, float] = {}

    # platform: grouping hash, tuple allocation, acker cycle
    grouping = FieldsGrouping(0)
    tuples = [StreamTuple(values=payload, tuple_id=0) for payload in payloads]
    out["platform.groupings.targets_ns"] = 1e9 * _cost(
        lambda: [grouping.targets(tup, 4) for tup in tuples], n
    )
    out["platform.groupings.targets_batch_ns"] = 1e9 * _cost(
        lambda: grouping.targets_batch(payloads, 4), n
    )
    out["platform.tuples.alloc_ns"] = 1e9 * _cost(
        lambda: [StreamTuple(values=p, tuple_id=next_tuple_id()) for p in payloads], n
    )
    ids = [next_tuple_id() for _ in range(5)]
    n_roots = n // 5

    def ack_cycles() -> None:
        acker = Acker()
        for root in range(n_roots):
            acker.register(root, 0)
            for tuple_id in ids:
                acker.anchor(root, tuple_id)
            for tuple_id in ids:
                acker.ack(root, tuple_id)

    out["platform.ack.cycle_ns"] = 1e9 * _cost(ack_cycles, n_roots)

    # synopsis kernels: one batch update each, then the bundle
    family = HashFamily(0)
    out["common.hashing.hash_batch_ns"] = 1e9 * _cost(lambda: family.hash_batch(words, 4), n)
    lengths = [len(word) for word in words]
    kernels = {
        "frequency.count_min.items_per_s": (lambda: CountMinSketch(width=1024, depth=4), words),
        "frequency.space_saving.items_per_s": (lambda: SpaceSaving(64), words),
        "cardinality.hyperloglog.items_per_s": (lambda: HyperLogLog(precision=12), words),
        "quantiles.exact.items_per_s": (ExactQuantiles, lengths),
        "core.summary.items_per_s": (serving_summary, words),
    }
    for name, (factory, items) in kernels.items():
        out[name] = 1.0 / _cost(lambda: factory().update_many(items), n)

    # core: merge, capture/restore, query, accuracy against exact
    halves = [serving_summary(), serving_summary()]
    halves[0].update_many(words[: n // 2])
    halves[1].update_many(words[n // 2 :])
    payload_bytes = [stateship.capture(half) for half in halves]

    def merge_once() -> None:
        left, right = (stateship.restore(p) for p in payload_bytes)
        left.merge(right)

    restore_s = _cost(lambda: [stateship.restore(p) for p in payload_bytes], 2)
    out["core.stateship.capture_ms"] = 1e3 * _cost(
        lambda: [stateship.capture(half) for half in halves], 2
    )
    out["core.stateship.restore_ms"] = 1e3 * restore_s
    out["core.stateship.payload_bytes"] = float(sum(map(len, payload_bytes)) / 2)
    out["core.merge_ms"] = 1e3 * max(_cost(merge_once, 1) - 2 * restore_s, 0.0)
    merged = stateship.restore(payload_bytes[0])
    merged.merge(stateship.restore(payload_bytes[1]))
    out["core.state_bytes"] = float(merged.size_bytes())
    parsed = [parse_query(doc) for doc in queries]
    exact = Counter(words)
    errors = [abs(merged["uniques"].estimate() - len(exact)) / len(exact)]
    for word, true in exact.most_common(20):
        errors.append(abs(merged["freq"].estimate(word) - true) / true)
    out["core.rel_error_max"] = max(errors)

    # cluster: columnar codec and one shared-memory ring
    comp_ids, comp_names = component_table(["count"])
    entries = [
        ("count", i % 4, payload, i, next_tuple_id(), None)
        for i, payload in enumerate(payloads[:512])
    ]
    frame, stats = encode_entries(entries, 0, comp_ids)
    out["cluster.columnar.encode_ns_per_entry"] = 1e9 * _cost(
        lambda: encode_entries(entries, 0, comp_ids), len(entries)
    )
    out["cluster.columnar.decode_ns_per_entry"] = 1e9 * _cost(
        lambda: decode_entries(frame, comp_names), len(entries)
    )
    out["cluster.columnar.bytes_per_entry"] = stats.frame_bytes / len(entries)
    ring = SpscRing(capacity=1 << 20, suffix="e2ereplay")
    try:

        def push_pop() -> None:
            for _ in range(64):
                ring.try_push(frame)
                ring.try_pop()

        out["cluster.shm.push_pop_us_per_frame"] = 1e6 * _cost(push_pop, 64)
    finally:
        ring.destroy()

    # serving: parse, resolve against the merged summary, cache
    out["serving.query.parse_us"] = 1e6 * _cost(
        lambda: [parse_query(doc) for doc in queries], len(queries)
    )
    out["serving.query.resolve_us"] = 1e6 * _cost(
        lambda: [query.resolve(merged) for query in parsed], len(parsed)
    )
    keys = [query.key() for query in parsed]

    def cache_cycle() -> None:
        cache = ResultCache(capacity=4096, ttl=2.0)
        for key in keys:
            cache.get(key, 1)
            cache.put(key, 1, 0)

    out["serving.cache.get_put_us"] = 1e6 * _cost(cache_cycle, len(keys))
    return out

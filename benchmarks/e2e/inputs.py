"""Seeded inputs: the same seed gives the same records and queries.

The harness generates everything here and hands the program plain lists;
generation time is excluded from every metric (``workloads.gen_s``).
"""

from __future__ import annotations

import random

from common import SKEW, UNIVERSE, WORDS_PER_SENTENCE


def tokens(seed: int, n: int) -> list[str]:
    """*n* words ``w<rank>`` drawn Zipf(SKEW) over UNIVERSE ranks."""
    from repro.workloads import zipf_stream

    return list(zipf_stream(n, universe=UNIVERSE, skew=SKEW, seed=seed, prefix="w"))


def sentences(seed: int, n: int) -> list[tuple[str]]:
    """*n* one-field records, each a sentence of WORDS_PER_SENTENCE words."""
    words = tokens(seed, n * WORDS_PER_SENTENCE)
    k = WORDS_PER_SENTENCE
    return [(" ".join(words[i * k : (i + 1) * k]),) for i in range(n)]


def words_of(records: list[tuple[str]]) -> list[str]:
    """Every word of *records*, in the order the split bolt emits them."""
    return [word for record in records for word in record[0].split()]


def warm_queries(seed: int, user: int, n: int) -> list[dict]:
    """The library's default Zipf query mix: hot words are hot queries."""
    from repro.workloads import query_stream

    stream = query_stream(seed, user)
    return [next(stream) for _ in range(n)]


def cold_queries(seed: int, user: int, n: int) -> list[dict]:
    """Queries that almost never repeat, so the result cache cannot help:
    point items uniform over the universe, quantile ``q`` to 4 decimals."""
    rnd = random.Random(f"cold-{seed}-{user}")
    out: list[dict] = []
    for _ in range(n):
        if rnd.random() < 0.7:
            out.append(
                {"op": "point", "synopsis": "freq", "item": f"w{rnd.randrange(UNIVERSE)}"}
            )
        else:
            out.append(
                {"op": "quantile", "synopsis": "lengths", "q": round(rnd.random(), 4)}
            )
    return out


def think_times(seed: int, user: int, n: int, max_s: float) -> list[float]:
    """*n* pauses, uniform in [0, max_s), a user takes before each query."""
    rnd = random.Random(f"think-{seed}-{user}")
    return [rnd.random() * max_s for _ in range(n)]


def verification_queries(seed: int) -> list[dict]:
    """A fixed set touching every op, replayed once ingest is complete."""
    rnd = random.Random(f"verify-{seed}")
    out: list[dict] = [
        {"op": "point", "synopsis": "freq", "item": f"w{rank}"} for rank in range(20)
    ]
    out += [
        {"op": "point", "synopsis": "freq", "item": f"w{rnd.randrange(UNIVERSE)}"}
        for _ in range(10)
    ]
    out += [{"op": "topk", "synopsis": "topk", "k": k} for k in (3, 5, 10)]
    out.append({"op": "cardinality", "synopsis": "uniques"})
    out += [
        {"op": "quantile", "synopsis": "lengths", "q": q}
        for q in (0.0, 0.1, 0.5, 0.9, 0.99, 1.0)
    ]
    out += [
        {"op": "range", "synopsis": "lengths", "lo": lo, "hi": hi}
        for lo, hi in ((1, 3), (2, 4), (3, 6))
    ]
    return out


def poisson_schedule(
    seed: int, rates: tuple[float, ...], lengths: tuple[float, ...]
) -> tuple[list[float], list[int]]:
    """Open-loop due times (seconds from start) for a staircase of rates.

    Step *i* sends at ``rates[i]`` for ``lengths[i]`` seconds. Independent
    users make Poisson arrivals: exponential gaps at the step's rate.
    Returns the due times and each event's step index.
    """
    rnd = random.Random(f"paced-{seed}")
    due: list[float] = []
    steps: list[int] = []
    end = 0.0
    for step, (rate, length) in enumerate(zip(rates, lengths)):
        t, end = end, end + length
        while True:
            t += rnd.expovariate(rate)
            if t >= end:
                break
            due.append(t)
            steps.append(step)
    return due, steps

"""Constants and small helpers shared by every file of the e2e benchmark.

The sizes below are frozen: they were chosen once on the 2-core seed box
(see README.md, "How C and the sizes were measured") and are never
derived at run time, so a parent commit and a change see identical load.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
#: Scratch output (trace files, --out payloads); listed in .gitignore.
OUT_DIR = HERE / "out"

#: The unpaced capacity of the paced-staircase topology on the seed box
#: (records/s through ``run_some(256)`` under at_least_once), measured
#: once and frozen: the staircase's step rates are multiples of it.
CAPACITY_RPS = 6400.0

#: Step rates of the open-loop staircase, as multiples of CAPACITY_RPS, and
#: how long each step lasts, in units of STAIR_UNIT_S. The step whose event
#: latency is reported is the lowest (0.25 * C) and three units long: at a
#: quarter of capacity queueing adds little, so the percentiles follow the
#: per-hop cost; at half of capacity the 95th percentile is mostly queueing
#: and turns a 10% drift of the host into 30%.
STAIR_RATES = (0.25, 0.5, 0.7, 1.4, 2.8)
STAIR_UNITS = (3, 1, 1, 1, 1)
STAIR_LATENCY_STEP = 0
#: One staircase takes about 9 units (the steps above capacity take their
#: rate times their length to drain): 2.6-2.8 s, so four fill a 10 s run.
STAIR_UNIT_S = 0.3
#: Limits that make a step "sustained".
STAIR_P95_LIMIT_MS = 100.0
STAIR_BACKLOG_LIMIT = 0.01
#: A paced release later than this counts as a late send (validity flag).
LATE_SEND_MS = 5.0

#: Work per round. A run repeats rounds until ``--seconds`` of measured
#: time have been spent, and reports the median over rounds.
SIZES = {
    "wordcount-local": {"records": 12_000},
    "sketch-kernels": {"tokens": 100_000, "queries": 2_000},
    "cluster-exactly-once": {"records": 8_000},
    "paced-staircase": {},  # a round is one staircase of 9.2 * STAIR_UNIT_S
    "serve-under-ingest": {"records": 6_000},
    "serve-quiesced-cold": {"records": 6_000, "queries_per_user": 3_000},
}
#: --smoke divides every size (and the staircase length) by this.
SMOKE_DIVISOR = 20

WORKLOADS = tuple(SIZES)

UNIVERSE = 50_000
SKEW = 1.1
WORDS_PER_SENTENCE = 5
N_USERS = 2
#: Longest pause of a serve-under-ingest user before a query (uniform from
#: 0): about two ingest bursts, so queries arrive at every phase of a burst
#: instead of locking onto the server's loop.
THINK_MAX_S = 0.008
#: How stale an answer of serve-under-ingest may be. A query that finds the
#: snapshot older takes a new one first, and it and the other user's wait the
#: 40-100 ms that takes. At the library's default of 0.25 s that is 3-7 % of
#: the queries, depending on the speed of the box, and the 95th percentile
#: sat on the knee: 14 ms in one run, 49 ms in the next. At 0.1 s it is 12 %
#: and more, and the 95th percentile is a query that met a refresh.
SNAPSHOT_AGE_S = 0.1
#: sketch-kernels spreads its tokens over this many StreamSummary shards.
N_SHARDS = 4
N_WORKERS = 2
CLUSTER_OPTIONS = {
    "n_workers": N_WORKERS,
    "semantics": "exactly_once",
    "transport": "shm",
    "checkpoint_interval": 2000,
}
#: LatencyCount keeps one residence-time sample per this many tuples.
LATENCY_SAMPLE = 8
#: Cold starts per run (fresh interpreters); ``setup_s`` is their median.
COLD_STARTS = 3


def use_repo_source() -> None:
    """Put the checkout's ``src`` on ``sys.path``; fail without it.

    The benchmark measures the program in the checkout it sits in, never
    an installed copy, so a directory without ``src/repro`` is an error.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"e2e benchmark: no program to measure at {SRC / 'repro'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_spec() -> dict:
    """BENCHMARK.json: the metric names, units, directions and bounds."""
    with (ROOT / "BENCHMARK.json").open(encoding="utf-8") as fh:
        return json.load(fh)


def percentile(values: list[float], q: float) -> float:
    """The *q*-quantile by linear interpolation (0 <= q <= 1)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return percentile(values, 0.5)


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this interpreter plus its largest reaped child (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def cpu_seconds(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def env_stamp() -> dict:
    """Where and on what this result was taken."""
    import numpy

    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            ref = target.read_text(encoding="utf-8").strip() if target.is_file() else ref
        commit = ref[:12]
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "loadavg_start": os.getloadavg()[0],
    }

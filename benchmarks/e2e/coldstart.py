"""One cold start of an engine workload's system, in an interpreter of its own.

Usage: ``coldstart.py <workload>``, the records as one JSON line on stdin.

``setup_s`` is what a fresh process pays between holding its inputs and
being ready for the first record: importing the program, building the
topology, constructing the executor and, in a cluster, spawning the
workers. Warm, in a process that has done it before, that is some tens of
microseconds of object construction; cold it is about a second, and work a
change moves to import or construction time shows in it. The one line
printed is that time in seconds. (A serving workload's cold start is a
fresh ``serve_child.py``, timed by ``passes.py``.)
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

import common


def _wordcount_local(records: list) -> float:
    from repro.platform import LocalExecutor
    from stages import wordcount_topology

    LocalExecutor(wordcount_topology(records, []), semantics="at_most_once")
    return perf_counter()


def _sketch_kernels(records: list) -> float:
    from repro.serving.demo import serving_summary

    [serving_summary() for _ in range(common.N_SHARDS)]
    return perf_counter()


def _cluster_exactly_once(records: list) -> float:
    from repro.cluster import ClusterExecutor
    from stages import cluster_topology

    # __enter__ spawns the workers; ready is when they are up.
    with ClusterExecutor(cluster_topology(records, []), **common.CLUSTER_OPTIONS):
        return perf_counter()


def _paced_staircase(records: list) -> float:
    from repro.platform import LocalExecutor
    from stages import paced_topology

    LocalExecutor(
        paced_topology(records, [0.0] * len(records), array("d")), semantics="at_least_once"
    )
    return perf_counter()


READY = {
    "wordcount-local": _wordcount_local,
    "sketch-kernels": _sketch_kernels,
    "cluster-exactly-once": _cluster_exactly_once,
    "paced-staircase": _paced_staircase,
}


def main(argv: list[str]) -> int:
    (workload,) = argv
    records = [tuple(record) for record in json.loads(sys.stdin.readline())]
    start = perf_counter()
    common.use_repo_source()
    ready = READY[workload](records)
    print(ready - start)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

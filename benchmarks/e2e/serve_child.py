"""The serving workloads' system under test, in a process of its own.

Usage: ``serve_child.py <preload 0|1> <trace 0|1> <cpu>``

The process pins itself to ``<cpu>`` (-1: wherever the scheduler likes).

The load generator drives it over stdin/stdout. The first line in is the
records, as JSON; with them in hand the process notes the instant it was
``born`` and only then imports the program, so born -> first answer is a
cold start. After that, one round per ``start``:

* ``start`` — build the serving demo topology over the records on a fresh
  ``LocalExecutor(at_least_once)``, front it with ``ServingServer`` on an
  ephemeral port and answer one JSON line ``{"port", "t0", "born"}``;
  ``t0`` is the ``perf_counter`` instant the build began (the load
  generator shares the machine's clock).
* ``stop`` — shut that server down and answer one JSON line with what only
  this process can know: when ingest finished, its counters and, in a
  traced run, its span ledger.
* end of input — exit.

With ``preload=1`` the stream is ingested to completion before the socket
is bound (the quiesced workload); otherwise ingest runs underneath the
server on the same event loop.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import sys
from time import perf_counter

from common import SNAPSHOT_AGE_S, use_repo_source


def _trace_query_layer(ledger) -> None:
    """Spans around the module- and class-level query functions (once)."""
    import repro.serving.runtime as runtime_module
    from repro.serving.query import Query

    inner_parse = runtime_module.parse_query
    runtime_module.parse_query = lambda doc: ledger.call(
        "serving.query.parse", inner_parse, doc
    )
    inner_resolve = Query.resolve
    Query.resolve = lambda self, synopsis: ledger.call(
        "serving.query.resolve", inner_resolve, self, synopsis
    )


def _trace_runtime(runtime, ledger) -> None:
    """Spans around one runtime's handle, snapshot refresh and cache."""
    inner_handle = runtime.handle
    runtime.handle = lambda doc: ledger.call("serving.runtime.handle", inner_handle, doc)
    inner_refresh = runtime.store.refresh
    runtime.store.refresh = lambda: ledger.call("serving.snapshot.refresh", inner_refresh)
    inner_get, inner_put = runtime.cache.get, runtime.cache.put
    runtime.cache.get = lambda key, epoch: ledger.call(
        "serving.cache.get", inner_get, key, epoch
    )
    runtime.cache.put = lambda key, epoch, value: ledger.call(
        "serving.cache.put", inner_put, key, epoch, value
    )


async def _round(records: list, born: float, preload: bool, ledger, read_line) -> dict:
    """Serve one round: build, say hello, serve until ``stop``, report."""
    from repro.platform import LocalExecutor
    from repro.serving import ServingRuntime, ServingServer
    from repro.serving.demo import SERVING_BOLT, build_serving_topology

    t0 = perf_counter()
    executor = LocalExecutor(build_serving_topology(records), semantics="at_least_once")
    # Quiesced, nothing changes after the preload: one snapshot serves the
    # whole round. Under ingest answers may be SNAPSHOT_AGE_S stale.
    runtime = ServingRuntime(
        executor, SERVING_BOLT, max_snapshot_age=3600.0 if preload else SNAPSHOT_AGE_S
    )
    # The instant ingest began, then the instant each burst ended.
    bursts = [perf_counter()]
    marks = {"ingest_done_at": None}
    inner_step = runtime.ingest_step

    def ingest_step(budget: int = 256) -> bool:
        if ledger is not None:
            more = ledger.call("platform.executor.run_some", inner_step, budget)
        else:
            more = inner_step(budget)
        bursts.append(perf_counter())
        if not more and marks["ingest_done_at"] is None:
            marks["ingest_done_at"] = bursts[-1]
        return more

    runtime.ingest_step = ingest_step
    if ledger is not None:
        _trace_runtime(runtime, ledger)

    if preload:
        runtime.start_ingest()
        bursts[0] = perf_counter()
        while runtime.ingest_step():
            pass
    server = ServingServer(runtime)
    await server.start(ingest=not preload)
    print(json.dumps({"port": server.port, "t0": t0, "born": born}), flush=True)

    await read_line()  # "stop" (or end of input)
    stats = runtime.stats()
    await server.stop()
    leaked_tasks = [
        repr(task)
        for task in asyncio.all_tasks()
        if task is not asyncio.current_task() and not task.done()
    ]
    summary = executor.metrics.summary()
    return {
        "ingest_done_at": marks["ingest_done_at"],
        "bursts": bursts,
        "epochs": stats["epoch"],
        "replays": summary["replays"],
        "acked": summary["components"]["spout:__all__"]["acked"],
        "leaked_tasks": leaked_tasks,
        "ledger": ledger.dump() if ledger is not None else None,
    }


async def _serve(records: list, born: float, preload: bool, trace: bool) -> None:
    from ledger import Ledger

    ledger = Ledger("serve") if trace else None
    if ledger is not None:
        _trace_query_layer(ledger)
    loop = asyncio.get_running_loop()

    def read_line():
        return loop.run_in_executor(None, sys.stdin.readline)

    print(json.dumps({"ready": True}), flush=True)  # imports done
    while (await read_line()).strip() == "start":
        # What outlives a round (the inputs, the modules, the last round's
        # leftovers once collected) is kept out of the collector's sight, so
        # a collection during the round scans the server's objects only.
        gc.collect()
        gc.freeze()
        report = await _round(records, born, preload, ledger, read_line)
        print(json.dumps(report), flush=True)
        gc.unfreeze()


def main(argv: list[str]) -> int:
    preload, trace, cpu = (int(arg) for arg in argv)
    if cpu >= 0:
        os.sched_setaffinity(0, {cpu})
    records = [tuple(record) for record in json.loads(sys.stdin.readline())]
    born = perf_counter()
    use_repo_source()
    asyncio.run(_serve(records, born, bool(preload), bool(trace)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

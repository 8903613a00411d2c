"""Smoke test of the e2e benchmark: every workload once at 1/20 size.

Not part of tier-1 (``testpaths`` stays ``tests``); run it explicitly::

    python -m pytest benchmarks/e2e/test_smoke.py -q

It fails when any workload's oracle finds a wrong output, when the pass
leaves a process or a shared-memory segment behind, or when the whole
smoke pass takes 30 seconds or more.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke_runs_every_workload_correctly():
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(RUN), "--smoke"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    took = time.monotonic() - start
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    for workload in (
        "wordcount-local",
        "sketch-kernels",
        "cluster-exactly-once",
        "paced-staircase",
        "serve-under-ingest",
        "serve-quiesced-cold",
    ):
        assert f"== {workload} " in proc.stdout
    assert took < 30.0, f"smoke pass took {took:.1f} s"


def test_contract_line_has_every_end_to_end_metric():
    spec = json.loads((RUN.parent.parent.parent / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "sketch-kernels", "--seed", "5",
         "--seconds", "1", "--trace", "0"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for metric in spec["end_to_end"]:
        assert last["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert last["metrics"][metric["name"]]["value"] > 0

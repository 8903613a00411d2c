"""One affinity-aware core count behind ``--jobs auto`` and the bench env stamp."""

import os

from repro.analysis.cli import _parse_jobs
from repro.bench.lint import run_lint_bench
from repro.bench.runner import env_stamp
from repro.common.cpus import available_cpu_count


def test_pinned_process_counts_its_affinity_not_the_machine(monkeypatch, tmp_path):
    # A process pinned to one core of an eight-core machine (taskset -c 0).
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert available_cpu_count() == 1
    assert _parse_jobs("auto") == 1
    assert env_stamp()["n_cores"] == 1
    (tmp_path / "a.py").write_text("x = 1\n")
    payload = run_lint_bench(target=tmp_path, repeats=1)
    assert payload["config"]["auto_jobs"] == 1
    assert payload["env"]["n_cores"] == 1


def test_wider_affinity_is_counted(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    assert available_cpu_count() == 3
    assert _parse_jobs("auto") == 3


def test_falls_back_to_machine_count_without_affinity(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert available_cpu_count() == 4
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert available_cpu_count() == 1

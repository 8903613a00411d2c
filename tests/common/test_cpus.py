"""One affinity-aware core count behind the bench env stamp."""

import os

from repro.bench.runner import env_stamp, make_payload
from repro.common.cpus import available_cpu_count


def test_pinned_process_counts_its_affinity_not_the_machine(monkeypatch):
    # A process pinned to one core of an eight-core machine (taskset -c 0).
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert available_cpu_count() == 1
    assert env_stamp()["n_cores"] == 1
    config = {"n_items": 1, "repeats": 1, "seed": 0, "smoke": True}
    payload = make_payload("synopses", config, [])
    assert payload["env"]["n_cores"] == 1


def test_wider_affinity_is_counted(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    assert available_cpu_count() == 3
    assert env_stamp()["n_cores"] == 3


def test_falls_back_to_machine_count_without_affinity(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert available_cpu_count() == 4
    assert env_stamp()["n_cores"] == 4
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert available_cpu_count() == 1

"""The bench harness itself: schema, measurement, equivalence, CLI."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench import (
    BENCH_SCHEMA,
    BenchCase,
    default_cases,
    format_table,
    measure,
    ratio,
    run_bench,
    state_fingerprint,
    validate_payload,
)
from repro.bench.cli import main
from repro.common.exceptions import ParameterError

REPO_ROOT = Path(__file__).resolve().parents[2]
COMMITTED = sorted(REPO_ROOT.glob("BENCH_*.json"))


def _tiny_cases() -> list[BenchCase]:
    from repro.frequency.count_min import CountMinSketch

    return [
        BenchCase(
            "count_min",
            lambda: CountMinSketch(64, 3),
            "ints",
            lambda n, seed: [i % 17 for i in range(n)],
        )
    ]


def test_run_bench_payload_is_schema_valid_and_equivalent():
    payload = run_bench(cases=_tiny_cases(), n_items=500, repeats=3, smoke=True)
    validate_payload(payload)  # raises on any problem
    assert payload["schema"] == BENCH_SCHEMA
    assert payload["suite"] == "synopses"
    scalar, batch = payload["results"]
    assert (scalar["case"], scalar["arm"]) == ("count_min", "scalar")
    assert (batch["case"], batch["arm"]) == ("count_min", "batch")
    for row in (scalar, batch):
        assert row["n_items"] == 500
        assert row["equivalent"] is True
        assert row["iqr_s"] >= 0
        assert row["items_per_s"] == pytest.approx(500 / row["median_s"])
    assert ratio(payload, "count_min", "scalar", "batch") == pytest.approx(
        scalar["median_s"] / batch["median_s"]
    )


def test_default_cases_cover_the_hot_path_synopses():
    names = {case.name for case in default_cases()}
    assert {
        "count_min",
        "count_min_conservative",
        "count_sketch",
        "bloom",
        "counting_bloom",
        "partitioned_bloom",
        "hyperloglog",
        "sliding_hll",
        "space_saving",
        "misra_gries",
        "lossy_counting",
        "stream_summary",
    } <= names


def test_run_bench_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        run_bench(cases=_tiny_cases(), n_items=0)
    with pytest.raises(ParameterError):
        run_bench(cases=_tiny_cases(), n_items=10, repeats=0)


def test_measure_times_every_repeat_and_keeps_every_outcome():
    prepared = []

    def prepare():
        prepared.append(len(prepared))
        return prepared[-1]

    seconds, outcomes = measure(lambda state: state * 10, 4, prepare)
    assert len(seconds) == 4 and all(s >= 0 for s in seconds)
    assert outcomes == [0, 10, 20, 30]
    assert measure(lambda state: state, 1)[1] == [None]  # no prepare
    with pytest.raises(ParameterError):
        measure(lambda state: state, 0)


def test_validate_payload_rejects_divergence_and_bad_schema():
    payload = run_bench(cases=_tiny_cases(), n_items=100, repeats=1)
    broken = json.loads(json.dumps(payload))
    broken["results"][0]["equivalent"] = False
    with pytest.raises(ValueError, match="diverged"):
        validate_payload(broken)
    # The retired schemas are refused outright, not read as a superset.
    for retired in ("repro.bench/v1", "repro.bench/v2"):
        with pytest.raises(ValueError, match="schema"):
            validate_payload({**payload, "schema": retired})
    # A row must be a named arm with a median and a spread.
    for key in ("arm", "median_s", "iqr_s"):
        row = dict(payload["results"][0])
        del row[key]
        with pytest.raises(ValueError, match="row keys"):
            validate_payload({**payload, "results": [row]})
    with pytest.raises(ValueError, match="twice"):
        validate_payload({**payload, "results": payload["results"] * 2})
    with pytest.raises(ValueError, match="n_cores"):
        validate_payload({**payload, "env": {}})
    with pytest.raises(ValueError):
        validate_payload({**payload, "results": []})


def test_ratio_needs_both_named_arms():
    payload = run_bench(cases=_tiny_cases(), n_items=100, repeats=1)
    assert ratio(payload, "count_min", "batch", "batch") == 1.0
    with pytest.raises(ValueError, match="'warm'"):
        ratio(payload, "count_min", "scalar", "warm")
    with pytest.raises(ValueError, match="'bloom'"):
        ratio(payload, "bloom", "scalar", "batch")


def test_format_table_lists_every_case():
    payload = run_bench(cases=_tiny_cases(), n_items=100, repeats=1)
    table = format_table(payload)
    assert "count_min" in table
    assert "scalar" in table and "batch" in table
    assert "ratio" in table
    assert f"{payload['env']['n_cores']} core(s)" in table


def test_cli_smoke_writes_validated_json(tmp_path, capsys):
    out = tmp_path / "BENCH_synopses.json"
    assert main(["--smoke", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    validate_payload(payload)
    assert payload["config"]["smoke"] is True
    assert len(payload["results"]) == 2 * len(default_cases())
    stdout = capsys.readouterr().out
    assert "case" in stdout and "ratio" in stdout and "schema OK" in stdout


@pytest.mark.parametrize("flag", ["--cluster", "--serving", "--obs", "--lint"])
def test_cli_retired_suites_are_usage_errors(flag):
    with pytest.raises(SystemExit) as exc:
        main([flag, "--smoke"])
    assert exc.value.code == 2


def test_committed_trajectories_are_the_two_suites():
    assert [path.name for path in COMMITTED] == [
        "BENCH_elastic.json",
        "BENCH_synopses.json",
    ]


@pytest.mark.parametrize("path", COMMITTED, ids=lambda path: path.name)
def test_committed_trajectory_validates(path):
    payload = json.loads(path.read_text())
    validate_payload(payload)
    assert payload["config"]["smoke"] is False


def test_state_fingerprint_distinguishes_and_normalises():
    import numpy as np

    from repro.frequency.count_min import CountMinSketch

    a = CountMinSketch(32, 2)
    b = CountMinSketch(32, 2)
    assert state_fingerprint(a) == state_fingerprint(b)
    a.update("x")
    assert state_fingerprint(a) != state_fingerprint(b)
    b.update("x")
    assert state_fingerprint(a) == state_fingerprint(b)
    # Mixed-type dict keys have a total order; NaN equals itself.
    assert state_fingerprint({1: "a", "1": "b"}) == state_fingerprint(
        {"1": "b", 1: "a"}
    )
    assert state_fingerprint(float("nan")) == state_fingerprint(float("nan"))
    arr = np.arange(4, dtype=np.int64)
    assert state_fingerprint(arr) == state_fingerprint(arr.copy())
    assert state_fingerprint(arr) != state_fingerprint(arr.astype(np.int32))

"""The streamlint bench: schema, equivalence invariant, CLI wiring."""

import json

import pytest

from repro.bench.cli import main
from repro.bench.lint import ARMS, run_lint_bench
from repro.bench.runner import ratio, validate_payload
from repro.common.exceptions import ParameterError

_TREE = {
    "platform/a.py": "import random\nx = random.random()\n",
    "sketchlib/b.py": "def f(xs=[]):\n    pass\n",
    "util/c.py": "y = 1\n",
}


@pytest.fixture
def tiny_tree(tmp_path):
    for relpath, source in _TREE.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return tmp_path


def test_payload_is_schema_valid_over_tiny_tree(tiny_tree):
    payload = run_lint_bench(target=tiny_tree, repeats=2)
    validate_payload(payload)
    assert payload["suite"] == "lint"
    assert [row["arm"] for row in payload["results"]] == [arm for arm, *__ in ARMS]
    assert {row["case"] for row in payload["results"]} == {"streamlint"}
    assert all(row["equivalent"] for row in payload["results"])
    assert all(row["n_items"] == len(_TREE) for row in payload["results"])
    assert payload["config"]["auto_jobs"] == payload["env"]["n_cores"]
    assert ratio(payload, "streamlint", "cold_1job", "warm_auto") > 0


def test_rejects_bad_parameters(tiny_tree):
    with pytest.raises(ParameterError, match="repeats"):
        run_lint_bench(target=tiny_tree, repeats=0)
    with pytest.raises(ParameterError, match="no such analysis target"):
        run_lint_bench(target=tiny_tree / "missing")


def test_warm_speedup_requires_warm_row(tiny_tree):
    payload = run_lint_bench(target=tiny_tree, repeats=1)
    payload["results"] = [
        row for row in payload["results"] if row["arm"] != "warm_auto"
    ]
    with pytest.raises(ValueError, match="warm_auto"):
        ratio(payload, "streamlint", "cold_1job", "warm_auto")


def test_cli_lint_smoke_writes_validated_json(tmp_path, capsys):
    out = tmp_path / "BENCH_lint.json"
    assert main(["--lint", "--smoke", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    validate_payload(payload)
    assert payload["config"]["smoke"] is True
    assert payload["config"]["repeats"] == 1
    assert len(payload["results"]) == len(ARMS)
    stdout = capsys.readouterr().out
    assert "warm_auto" in stdout and "ratio" in stdout

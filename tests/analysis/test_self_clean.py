"""The self-clean gate: ``src/repro`` must stay streamlint-clean.

This is the enforcement half of the tentpole — the rules exist so the
tree *provably* keeps its reproducibility and scale-out conventions. Any
new direct randomness, unmergeable synopsis, mutable default, algorithm
wall-clock read, swallowed exception, unregistered sketch, per-process
global, unshippable or unmergeable operator state, blocking cluster
call, nondeterministic state path, unbounded metric label,
event-loop-stalling serving call, inverse-less synopsis split, or
un-barriered migration surgery fails this test with the exact
``file:line`` to fix (or to annotate with
``# streamlint: disable=RULE`` plus a justification, or to accept in
``.streamlint-baseline.json``).
"""

from repro.analysis import all_rules, run_analysis
from repro.analysis.baseline import load_baseline
from tests.analysis.conftest import REPO_ROOT

SRC = REPO_ROOT / "src" / "repro"
BASELINE = REPO_ROOT / ".streamlint-baseline.json"


def test_source_tree_is_streamlint_clean():
    baseline = load_baseline(BASELINE)
    result = run_analysis([SRC], baseline=baseline)
    report = "\n".join(f.format() for f in result.findings)
    assert not result.findings, f"streamlint findings in src/repro:\n{report}"


def test_full_v2_rule_set_runs_over_src():
    # the gate must exercise every registered rule, not a legacy subset
    # (SL014 was retired: none of the names it matched exists any more)
    assert set(all_rules()) >= {f"SL{i:03d}" for i in range(1, 17) if i != 14}
    result = run_analysis([SRC], baseline=load_baseline(BASELINE))
    assert result.file_count > 100  # whole tree scanned, not a subdir


def test_baseline_is_honest():
    # every baseline entry must match a real current finding at its real
    # count — the baseline only carries debt that still exists, so fixing
    # a finding forces the baseline entry to be deleted with it
    result = run_analysis([SRC])
    actual: dict[str, int] = {}
    for finding in result.findings:
        key = finding.baseline_key()
        actual[key] = actual.get(key, 0) + 1
    assert load_baseline(BASELINE) == actual


def test_source_tree_scan_covers_whole_package():
    # guard against the gate silently scanning the wrong directory
    assert (SRC / "common" / "rng.py").exists()
    assert (SRC / "core" / "registry.py").exists()
    assert (SRC / "analysis" / "engine.py").exists()
    assert (SRC / "cluster" / "worker.py").exists()

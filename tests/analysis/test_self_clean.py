"""The self-clean gate: ``src/repro`` must stay streamlint-clean.

The rules exist so the tree *provably* keeps its reproducibility and
scale-out conventions. Any new direct randomness, mutable default,
algorithm wall-clock read, swallowed exception, per-process global,
unshippable or unmergeable operator state, blocking cluster call,
nondeterministic state path, unbounded metric label, pickled cluster
queue payload, event-loop-stalling serving call, or un-barriered
migration surgery fails this test with the exact ``file:line`` to fix
(or to annotate with ``# streamlint: disable=RULE - reason``).
"""

from repro.analysis import all_rules, run_analysis
from tests.analysis.conftest import REPO_ROOT

SRC = REPO_ROOT / "src" / "repro"

#: The live rule set. SL002 and SL006 were retired for registry-wide
#: runtime tests, SL014 because nothing it matched existed any more.
KEPT_RULES = {f"SL{i:03d}" for i in range(1, 17)} - {"SL002", "SL006", "SL014"}


def test_source_tree_is_streamlint_clean():
    result = run_analysis([SRC])
    report = "\n".join(f.format() for f in result.findings)
    assert not result.findings, f"streamlint findings in src/repro:\n{report}"


def test_full_v2_rule_set_runs_over_src():
    # the gate must exercise every registered rule, not a legacy subset
    assert set(all_rules()) == KEPT_RULES
    result = run_analysis([SRC])
    assert result.file_count > 100  # whole tree scanned, not a subdir


def test_source_tree_scan_covers_whole_package():
    # guard against the gate silently scanning the wrong directory
    assert (SRC / "common" / "rng.py").exists()
    assert (SRC / "core" / "registry.py").exists()
    assert (SRC / "analysis" / "engine.py").exists()
    assert (SRC / "cluster" / "worker.py").exists()

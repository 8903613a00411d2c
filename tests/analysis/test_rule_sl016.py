"""SL016: synopsis split contract and migration-barrier discipline."""

from pathlib import Path

from repro.analysis import analyze_paths

FIXTURES = Path(__file__).parent / "fixtures" / "sl016"
SELECT = ["SL016"]

SYNOPSIS_PREAMBLE = """\
class SynopsisBase:
    pass
"""


class TestFixtures:
    def test_pos_tree_flagged(self):
        findings = analyze_paths([FIXTURES / "pos"], select=SELECT)
        assert {f.rule_id for f in findings} == {"SL016"}
        messages = [f.message for f in findings]
        assert sum("no _merge_into" in m for m in messages) == 1
        assert sum("mutates self" in m for m in messages) == 1
        assert sum("call to migration surgery" in m for m in messages) == 1
        assert sum("migration state surgery" in m for m in messages) == 1

    def test_neg_tree_clean(self):
        assert analyze_paths([FIXTURES / "neg"], select=SELECT) == []


class TestSplitContract:
    def test_split_without_merge_flagged(self, lint):
        src = SYNOPSIS_PREAMBLE + (
            "class S(SynopsisBase):\n"
            "    def _split_into(self, n):\n"
            "        return [S() for _ in range(n)]\n"
        )
        findings = lint({"sketch.py": src}, select=SELECT)
        assert [f.rule_id for f in findings] == ["SL016"]
        assert "no _merge_into" in findings[0].message

    def test_split_mutating_self_flagged(self, lint):
        src = SYNOPSIS_PREAMBLE + (
            "class S(SynopsisBase):\n"
            "    def _merge_into(self, other):\n"
            "        pass\n"
            "    def _split_into(self, n):\n"
            "        self._values = []\n"
            "        return [S() for _ in range(n)]\n"
        )
        findings = lint({"sketch.py": src}, select=SELECT)
        assert [f.rule_id for f in findings] == ["SL016"]
        assert "mutates self" in findings[0].message

    def test_merge_inherited_across_modules_clean(self, rule_ids):
        base = SYNOPSIS_PREAMBLE + (
            "class MergeableBase(SynopsisBase):\n"
            "    def _merge_into(self, other):\n"
            "        raise NotImplementedError\n"
        )
        child = (
            "from base import MergeableBase\n"
            "class S(MergeableBase):\n"
            "    def _split_into(self, n):\n"
            "        return [S() for _ in range(n)]\n"
        )
        assert rule_ids({"base.py": base, "child.py": child}, select=SELECT) == []

    def test_merge_only_from_root_not_enough(self, rule_ids):
        # _merge_into defined only on the stop root does not count as the
        # inverse: the subclass split still has nothing below the root.
        src = (
            "class SynopsisBase:\n"
            "    def _merge_into(self, other):\n"
            "        raise NotImplementedError\n"
            "class S(SynopsisBase):\n"
            "    def _split_into(self, n):\n"
            "        return [S() for _ in range(n)]\n"
        )
        assert rule_ids({"sketch.py": src}, select=SELECT) == ["SL016"]

    def test_non_synopsis_class_out_of_scope(self, rule_ids):
        src = (
            "class Planner:\n"
            "    def _split_into(self, n):\n"
            "        self._parts = n\n"
        )
        assert rule_ids({"planner.py": src}, select=SELECT) == []


class TestBarrierDiscipline:
    UNGUARDED = """\
    def _capture_all(executor):
        executor.inbox.put(("snapshot", 1))
        return executor.collect()

    def rescale(executor):
        return _capture_all(executor)
    """

    def test_unguarded_helper_call_flagged(self, lint):
        findings = lint(
            {"elastic/migrate.py": self.UNGUARDED}, select=SELECT
        )
        assert [f.rule_id for f in findings] == ["SL016"]
        assert "_capture_all" in findings[0].message

    def test_guarded_helper_call_clean(self, rule_ids):
        src = (
            "from contextlib import contextmanager\n"
            "@contextmanager\n"
            "def migration_barrier(executor):\n"
            "    yield\n"
            "def _capture_all(executor):\n"
            "    executor.inbox.put((\"snapshot\", 1))\n"
            "def rescale(executor):\n"
            "    with migration_barrier(executor):\n"
            "        _capture_all(executor)\n"
        )
        assert rule_ids({"elastic/migrate.py": src}, select=SELECT) == []

    def test_orchestrator_surgery_after_barrier_flagged(self, lint):
        src = (
            "from contextlib import contextmanager\n"
            "@contextmanager\n"
            "def migration_barrier(executor):\n"
            "    yield\n"
            "def rescale(executor, merged, shard):\n"
            "    with migration_barrier(executor):\n"
            "        executor.quiesce()\n"
            "    merged.merge(shard)\n"
        )
        findings = lint({"elastic/migrate.py": src}, select=SELECT)
        assert [f.rule_id for f in findings] == ["SL016"]
        assert ".merge()" in findings[0].message

    def test_broadcast_restore_after_barrier_flagged(self, lint):
        src = (
            "from contextlib import contextmanager\n"
            "@contextmanager\n"
            "def migration_barrier(executor):\n"
            "    yield\n"
            "def rescale(executor, states):\n"
            "    with migration_barrier(executor):\n"
            "        executor._broadcast(\"snapshot\")\n"
            "    executor._broadcast(\"restore\", states.__getitem__)\n"
        )
        findings = lint({"elastic/migrate.py": src}, select=SELECT)
        assert [(f.rule_id, f.line) for f in findings] == [("SL016", 8)]
        assert "'restore'" in findings[0].message

    def test_outside_elastic_package_out_of_scope(self, rule_ids):
        assert (
            rule_ids({"cluster/migrate.py": self.UNGUARDED}, select=SELECT)
            == []
        )

    def test_string_split_not_surgery(self, rule_ids):
        src = "def trajectory():\n    return \"1 2 4\".split()\n"
        assert rule_ids({"elastic/report.py": src}, select=SELECT) == []

    def test_suppression_honoured(self, rule_ids):
        src = (
            "def _capture_all(executor):\n"
            "    executor.inbox.put((\"snapshot\", 1))\n"
            "def rescale(executor):\n"
            "    return _capture_all(executor)  # streamlint: disable=SL016\n"
        )
        assert rule_ids({"elastic/migrate.py": src}, select=SELECT) == []

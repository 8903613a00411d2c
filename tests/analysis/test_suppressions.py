"""Inline ``# streamlint: disable=...`` suppression handling."""

from repro.analysis.suppressions import SuppressionIndex


class TestLineSuppressions:
    def test_same_line_suppresses(self, rule_ids):
        src = "import random\nx = random.random()  # streamlint: disable=SL001\n"
        assert rule_ids({"mod.py": src}, select=["SL001"]) == []

    def test_other_rule_not_suppressed(self, rule_ids):
        src = "def f(xs=[]):  # streamlint: disable=SL001\n    pass\n"
        assert rule_ids({"mod.py": src}, select=["SL003"]) == ["SL003"]

    def test_multiple_rules_comma_separated(self, rule_ids):
        src = (
            "import random\n"
            "def f(xs=[], y=random.random()):  # streamlint: disable=SL001,SL003\n"
            "    pass\n"
        )
        assert rule_ids({"mod.py": src}) == []

    def test_all_keyword(self, rule_ids):
        src = "import random\nx = random.random()  # streamlint: disable=all\n"
        assert rule_ids({"mod.py": src}) == []

    def test_wrong_line_does_not_suppress(self, rule_ids):
        src = (
            "# streamlint: disable=SL001\n"
            "import random\n"
            "x = random.random()\n"
        )
        assert rule_ids({"mod.py": src}, select=["SL001"]) == ["SL001"]


class TestFileSuppressions:
    def test_disable_file(self, rule_ids):
        src = (
            "# streamlint: disable-file=SL001\n"
            "import random\n"
            "x = random.random()\n"
            "y = random.randint(0, 3)\n"
        )
        assert rule_ids({"mod.py": src}, select=["SL001"]) == []

    def test_disable_file_scoped_to_one_module(self, rule_ids):
        clean = "# streamlint: disable-file=SL001\nimport random\nx = random.random()\n"
        dirty = "import random\ny = random.random()\n"
        assert rule_ids(
            {"a.py": clean, "b.py": dirty}, select=["SL001"]
        ) == ["SL001"]


class TestIndexParsing:
    def test_directive_inside_string_ignored(self):
        index = SuppressionIndex.from_source(
            's = "# streamlint: disable=SL001"\n'
        )
        assert not index.is_suppressed("SL001", 1)

    def test_case_insensitive_rule_ids(self):
        index = SuppressionIndex.from_source("x = 1  # streamlint: disable=sl001\n")
        assert index.is_suppressed("SL001", 1)

    def test_unparsable_source_yields_empty_index(self):
        index = SuppressionIndex.from_source("def broken(:\n")
        assert not index.is_suppressed("SL001", 1)


class TestProjectScopeSuppressionRouting:
    """Project-rule findings are suppressed via the module they point at.

    Regression for the v1 engine, which keyed project-scope suppression
    lookup on the context that *produced* the finding — findings a project
    rule attributed to a different module than the one carrying the
    pragma were unsuppressible.
    """

    _BASE = (
        "import abc\n"
        "from repro.platform.topology import Bolt\n"
        "class Counter(Bolt):\n"
        "    def process(self, values, emit):\n"
        "        self.seen.append(values)\n"
        "    @abc.abstractmethod\n"
        "    def label(self):\n"
        "        ...\n"
    )
    _TALLY = (
        "from ops.base import Counter\n"
        "class Tally(Counter):  # streamlint: disable=SL009\n"
        "    def label(self):\n"
        "        return 'tally'\n"
    )

    def test_line_pragma_in_flagged_module(self, rule_ids):
        files = {"ops/base.py": self._BASE, "ops/tally.py": self._TALLY}
        assert rule_ids(files, select=["SL009"]) == []

    def test_file_pragma_in_flagged_module(self, rule_ids):
        tally = "# streamlint: disable-file=SL009\n" + self._TALLY.replace(
            "  # streamlint: disable=SL009", ""
        )
        files = {"ops/base.py": self._BASE, "ops/tally.py": tally}
        assert rule_ids(files, select=["SL009"]) == []

    def test_pragma_in_evidence_module_does_not_leak(self, rule_ids):
        # the base module provides the evidence (the accumulating process),
        # but a pragma there must not silence the finding in Tally's module
        tally = self._TALLY.replace("  # streamlint: disable=SL009", "")
        files = {
            "ops/base.py": "# streamlint: disable-file=SL009\n" + self._BASE,
            "ops/tally.py": tally,
        }
        assert rule_ids(files, select=["SL009"]) == ["SL009"]

    def test_cross_module_hierarchy_finding_suppressible(self, lint):
        # SL009 resolves process() across modules; the finding lands (and
        # is suppressible) in the subclass module
        tally = self._TALLY.replace("  # streamlint: disable=SL009", "")
        files = {"ops/base.py": self._BASE, "ops/tally.py": tally}
        (finding,) = lint(files, select=["SL009"])
        assert finding.relpath == "ops/tally.py" and finding.line == 2
        files["ops/tally.py"] = self._TALLY
        assert lint(files, select=["SL009"]) == []

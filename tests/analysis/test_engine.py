"""Engine behaviour: selection, syntax errors, finding ordering."""

import pytest

from repro.analysis import Finding, Severity, all_rules, analyze_paths
from repro.analysis.engine import SYNTAX_ERROR_RULE


class TestRuleTable:
    def test_retired_rule_ids_are_gone(self):
        # ids are never reused: a retired id names a removed check
        assert not {"SL002", "SL006", "SL014"} & set(all_rules())

    def test_rules_have_identity(self):
        for rule_id, cls in all_rules().items():
            assert cls.rule_id == rule_id
            assert cls.description
            assert cls.scope in ("module", "project")


class TestSelection:
    def test_select_narrows(self, lint):
        files = {"mod.py": "import random\ndef f(xs=[]):\n    return random.random()\n"}
        assert {f.rule_id for f in lint(files)} == {"SL001", "SL003"}
        assert {f.rule_id for f in lint(files, select=["SL003"])} == {"SL003"}

    def test_ignore_drops(self, lint):
        files = {"mod.py": "import random\ndef f(xs=[]):\n    return random.random()\n"}
        assert {f.rule_id for f in lint(files, ignore=["SL001"])} == {"SL003"}

    def test_unknown_rule_id_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown rule"):
            analyze_paths([tmp_path], select=["SL999"])


class TestRobustness:
    def test_syntax_error_becomes_sl000(self, lint):
        findings = lint({"broken.py": "def broken(:\n", "ok.py": "x = 1\n"})
        assert [f.rule_id for f in findings] == [SYNTAX_ERROR_RULE]
        assert findings[0].severity is Severity.ERROR

    def test_syntax_error_does_not_hide_other_findings(self, lint):
        findings = lint(
            {"broken.py": "def broken(:\n", "bad.py": "def f(xs=[]):\n    pass\n"}
        )
        assert sorted(f.rule_id for f in findings) == [SYNTAX_ERROR_RULE, "SL003"]

    def test_findings_sorted_by_location(self, lint):
        files = {
            "b.py": "def f(xs=[]):\n    pass\n",
            "a.py": "def g(ys={}):\n    pass\ndef h(zs=[]):\n    pass\n",
        }
        findings = lint(files)
        assert findings == sorted(findings)
        assert findings[0].path.endswith("a.py")


class TestFinding:
    def test_format_and_dict(self):
        f = Finding(
            path="src/x.py",
            line=3,
            col=4,
            rule_id="SL001",
            severity=Severity.ERROR,
            message="boom",
        )
        assert f.format() == "src/x.py:3:4: SL001 error: boom"
        assert f.to_dict()["rule"] == "SL001"
        assert f.to_dict()["severity"] == "error"

"""The repro-lint CLI: exit codes, formats, rule listing."""

import json

from repro.analysis.cli import main


def _write(tmp_path, name, source):
    target = tmp_path / name
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source)
    return target


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        _write(tmp_path, "ok.py", "x = 1\n")
        assert main([str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        _write(tmp_path, "bad.py", "def f(xs=[]):\n    pass\n")
        assert main([str(tmp_path)]) == 1
        assert "SL003" in capsys.readouterr().out

    def test_exit_zero_flag(self, tmp_path):
        _write(tmp_path, "bad.py", "def f(xs=[]):\n    pass\n")
        assert main([str(tmp_path), "--exit-zero"]) == 0

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        _write(tmp_path, "ok.py", "x = 1\n")
        assert main([str(tmp_path), "--select", "SL999"]) == 2
        assert "unknown rule" in capsys.readouterr().err


class TestOutput:
    def test_json_format(self, tmp_path, capsys):
        _write(tmp_path, "bad.py", "import random\nx = random.random()\n")
        assert main([str(tmp_path), "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["by_rule"] == {"SL001": 1}

    def test_select_flag(self, tmp_path, capsys):
        _write(tmp_path, "bad.py", "import random\ndef f(xs=[]):\n    return random.random()\n")
        assert main([str(tmp_path), "--select", "SL001", "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert set(doc["summary"]["by_rule"]) == {"SL001"}

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("SL001", "SL003", "SL004", "SL005", "SL016"):
            assert rule_id in out

"""CLI exit code for a warnings-only run."""

from repro.analysis.cli import main


def _write(tmp_path, name, source):
    target = tmp_path / name
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source)
    return target


class TestCliV2:
    def test_warnings_only_exit_three(self, tmp_path):
        _write(
            tmp_path,
            "platform/b.py",
            "from repro.platform.topology import Bolt\n"
            "class B(Bolt):\n"
            "    def __init__(self):\n"
            "        self.counts = {}\n"
            "    def process(self, values, emit):\n"
            "        self.counts[values[0]] = 1\n"
            "    def snapshot(self):\n"
            "        return dict(self.counts)\n",
        )
        assert main([str(tmp_path), "--select", "SL009"]) == 3

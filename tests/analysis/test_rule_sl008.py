"""SL008: operator state serialization cannot ship."""

from pathlib import Path

from repro.analysis import analyze_paths

FIXTURES = Path(__file__).parent / "fixtures" / "sl008"
SELECT = ["SL008"]


class TestFixtures:
    def test_pos_tree_flagged(self):
        findings = analyze_paths([FIXTURES / "pos"], select=SELECT)
        assert {f.rule_id for f in findings} == {"SL008"}
        messages = " | ".join(f.message for f in findings)
        assert "threading.Lock" in messages
        assert "queue.Queue" in messages
        assert "iterator" in messages
        assert len(findings) == 3

    def test_neg_tree_clean(self):
        assert analyze_paths([FIXTURES / "neg"], select=SELECT) == []


class TestUnits:
    def test_open_file_state_flagged(self, lint):
        src = (
            "from repro.platform.topology import Bolt\n"
            "class B(Bolt):\n"
            "    def __init__(self, path):\n"
            "        self.sink = open(path)\n"
            "    def process(self, values, emit):\n"
            "        pass\n"
        )
        findings = lint({"platform/b.py": src}, select=SELECT)
        assert [f.rule_id for f in findings] == ["SL008"]
        assert "open file" in findings[0].message

    def test_unknown_type_not_flagged(self, rule_ids):
        # no positive evidence -> no finding (the rule must stay quiet on
        # attributes whose type it cannot infer)
        src = (
            "from repro.platform.topology import Bolt\n"
            "class B(Bolt):\n"
            "    def __init__(self, thing):\n"
            "        self.thing = thing\n"
            "    def process(self, values, emit):\n"
            "        pass\n"
        )
        assert rule_ids({"platform/b.py": src}, select=SELECT) == []

    def test_project_class_state_clean(self, rule_ids):
        src = {
            "sketchlib/mini.py": (
                "from repro.common.mergeable import SynopsisBase\n"
                "class Mini(SynopsisBase):\n"
                "    def update(self, item):\n"
                "        pass\n"
                "    def _merge_into(self, other):\n"
                "        pass\n"
            ),
            "platform/b.py": (
                "from repro.platform.topology import Bolt\n"
                "from sketchlib.mini import Mini\n"
                "class B(Bolt):\n"
                "    def __init__(self):\n"
                "        self.sketch = Mini()\n"
                "    def process(self, values, emit):\n"
                "        pass\n"
            ),
        }
        assert rule_ids(src, select=SELECT) == []

    def test_abstract_operator_exempt(self, rule_ids):
        src = (
            "import abc\n"
            "import threading\n"
            "from repro.platform.topology import Bolt\n"
            "class Base(Bolt):\n"
            "    def __init__(self):\n"
            "        self.lock = threading.Lock()\n"
            "    @abc.abstractmethod\n"
            "    def handle(self, values):\n"
            "        ...\n"
        )
        assert rule_ids({"platform/base.py": src}, select=SELECT) == []

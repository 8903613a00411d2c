"""ProjectModel: cross-module hierarchy, attr inference, registration."""

import textwrap
from pathlib import Path

import pytest

from repro.analysis.context import ModuleContext
from repro.analysis.facts import extract_facts
from repro.analysis.project import ProjectModel


@pytest.fixture
def model(tmp_path):
    """Build a ProjectModel from a dict of ``relpath -> source``."""

    def _model(files: dict[str, str]) -> ProjectModel:
        modules = {}
        for relpath, source in files.items():
            target = tmp_path / relpath
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(textwrap.dedent(source))
            ctx = ModuleContext.from_file(target, tmp_path)
            modules[ctx.relpath] = extract_facts(ctx)
        return ProjectModel(modules)

    return _model


class TestHierarchy:
    def test_cross_module_derivation(self, model):
        m = model(
            {
                "common/mergeable.py": "class SynopsisBase:\n    pass\n",
                "core/base.py": (
                    "from common.mergeable import SynopsisBase\n"
                    "class Intermediate(SynopsisBase):\n    pass\n"
                ),
                "frequency/leaf.py": (
                    "from core.base import Intermediate\n"
                    "class Leaf(Intermediate):\n    pass\n"
                ),
            }
        )
        assert m.derives_from("Leaf", "SynopsisBase")
        assert m.derives_from("Intermediate", "SynopsisBase")
        assert not m.derives_from("SynopsisBase", "Leaf")

    def test_attribute_qualified_base(self, model):
        m = model(
            {
                "app.py": (
                    "from repro.platform import topology\n"
                    "class MyBolt(topology.Bolt):\n    pass\n"
                )
            }
        )
        assert m.derives_from("MyBolt", "Bolt")

    def test_cycle_is_safe(self, model):
        m = model({"a.py": "class A(B):\n    pass\nclass B(A):\n    pass\n"})
        assert not m.derives_from("A", "SynopsisBase")

    def test_subclasses_of_excludes_abstract_when_asked(self, model):
        m = model(
            {
                "s.py": (
                    "import abc\n"
                    "class SynopsisBase:\n    pass\n"
                    "class Mid(SynopsisBase):\n"
                    "    @abc.abstractmethod\n"
                    "    def q(self):\n        ...\n"
                    "class Leaf(Mid):\n"
                    "    def q(self):\n        return 0\n"
                )
            }
        )
        names = {n for _, n, _ in m.subclasses_of("SynopsisBase")}
        concrete = {
            n for _, n, _ in m.subclasses_of("SynopsisBase", concrete_only=True)
        }
        assert names == {"Mid", "Leaf"}
        assert concrete == {"Leaf"}

    def test_resolve_method_walks_ancestors_below_stop_root(self, model):
        m = model(
            {
                "base.py": (
                    "class Bolt:\n"
                    "    def snapshot(self):\n        return None\n"
                ),
                "mid.py": (
                    "from base import Bolt\n"
                    "class Mid(Bolt):\n"
                    "    def snapshot(self):\n        return 1\n"
                ),
                "leaf.py": (
                    "from mid import Mid\n"
                    "class Leaf(Mid):\n    pass\n"
                ),
            }
        )
        owner, _ = m.resolve_method("Leaf", "snapshot", stop_roots=frozenset({"Bolt"}))
        assert owner == "Mid"
        # the runtime root's default does not count as an override
        m2 = model(
            {
                "base.py": (
                    "class Bolt:\n"
                    "    def snapshot(self):\n        return None\n"
                ),
                "leaf.py": (
                    "from base import Bolt\n"
                    "class Leaf(Bolt):\n    pass\n"
                ),
            }
        )
        assert (
            m2.resolve_method("Leaf", "snapshot", stop_roots=frozenset({"Bolt"}))
            is None
        )


class TestAttrInference:
    def test_builtin_constructors(self, model):
        m = model(
            {
                "mod.py": """
                import collections
                import numpy as np
                class C:
                    def __init__(self):
                        self.a = {}
                        self.b = []
                        self.c = set()
                        self.d = collections.deque()
                        self.e = np.zeros(4)
                        self.f = 0
                        self.g = "x"
                        self.h = (1, 2)
                """
            }
        )
        _, cf = m.get_class("C")
        types = {a: info["type"] for a, info in cf["attrs"].items()}
        assert types == {
            "a": "dict",
            "b": "list",
            "c": "set",
            "d": "deque",
            "e": "ndarray",
            "f": "int",
            "g": "str",
            "h": "tuple",
        }

    def test_init_assignment_wins_over_later_methods(self, model):
        m = model(
            {
                "mod.py": (
                    "class C:\n"
                    "    def reset(self):\n"
                    "        self.state = []\n"
                    "    def __init__(self):\n"
                    "        self.state = {}\n"
                )
            }
        )
        _, cf = m.get_class("C")
        assert cf["attrs"]["state"]["type"] == "dict"

    def test_external_constructor_keeps_callee(self, model):
        m = model(
            {
                "mod.py": (
                    "import threading\n"
                    "class C:\n"
                    "    def __init__(self):\n"
                    "        self.lock = threading.Lock()\n"
                )
            }
        )
        _, cf = m.get_class("C")
        info = cf["attrs"]["lock"]
        assert info["type"] is None
        assert info["callee"] == "threading.Lock"

    def test_resolve_attr_through_ancestors(self, model):
        m = model(
            {
                "base.py": (
                    "class Base:\n"
                    "    def __init__(self):\n"
                    "        self.keys = set()\n"
                ),
                "leaf.py": (
                    "from base import Base\n"
                    "class Leaf(Base):\n    pass\n"
                ),
            }
        )
        info = m.resolve_attr("Leaf", "keys")
        assert info is not None and info["type"] == "set"


class TestImportGraph:
    def test_intra_tree_edges_resolved(self, model):
        m = model(
            {
                "core/base.py": "class X:\n    pass\n",
                "frequency/leaf.py": (
                    "from core.base import X\n"
                    "import json\n"
                    "class Y(X):\n    pass\n"
                ),
            }
        )
        assert m.import_graph["frequency/leaf.py"] == {"core/base.py"}
        assert m.import_graph["core/base.py"] == set()

    def test_repro_prefixed_imports_map_to_relpaths(self, model):
        m = model(
            {
                "common/rng.py": "def make_rng(seed):\n    return seed\n",
                "app.py": "from repro.common.rng import make_rng\n",
            }
        )
        assert m.import_graph["app.py"] == {"common/rng.py"}

"""Import hygiene: ``import repro`` loads only the code a workload runs.

Each check runs in a fresh interpreter, because ``sys.modules`` and the
synopsis registry are process-global. A ``sys.meta_path`` finder refuses
``scipy`` and ``networkx`` — the optional scientific dependencies a plain
``pip install .`` does not bring — so an eager import anywhere on the
platform, serving or cluster import path fails the child outright.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

BUILTIN_COUNT = 90

_REFUSE_OPTIONAL = """
import sys

class _Refuse:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in ("scipy", "networkx"):
            raise ImportError(f"{name} is refused in this interpreter")
        return None

sys.meta_path.insert(0, _Refuse())
"""


def run_child(body: str) -> str:
    """Run *body* after the refusing finder in a fresh interpreter; its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _REFUSE_OPTIONAL + textwrap.dedent(body)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestColdImport:
    def test_runtime_packages_import_without_optional_deps(self):
        out = run_child(
            """
            import repro, repro.platform, repro.serving, repro.serving.demo
            import repro.cluster
            heavy = ("scipy", "networkx", "repro.temporal", "repro.graphs", "repro.ml")
            print(sorted(m for m in heavy if m in sys.modules))
            """
        )
        assert out.strip() == "[]"

    def test_available_loads_every_builtin_without_scipy(self):
        out = run_child(
            """
            from repro import available
            names = available()
            print(len(names), "scipy" in sys.modules)
            """
        )
        assert out.split() == [str(BUILTIN_COUNT), "False"]


class TestLazyPackages:
    """``repro.serving``, ``repro.cluster`` and ``repro.workloads`` load a
    submodule only when one of its names is used."""

    def test_engine_imports_load_no_http_stack_or_coordinator(self):
        out = run_child(
            """
            import repro.platform, repro.serving.demo
            from repro.cluster import leaked_segments
            from repro.workloads import zipf_stream
            heavy = ("asyncio", "repro.serving.server", "repro.cluster.coordinator")
            print(sorted(m for m in heavy if m in sys.modules))
            """
        )
        assert out.strip() == "[]"

    def test_every_public_name_resolves(self):
        out = run_child(
            """
            import importlib
            for name in ("repro.serving", "repro.cluster", "repro.workloads"):
                package = importlib.import_module(name)
                for attr in package.__all__:
                    value = getattr(package, attr)
                    assert getattr(package, attr) is value, (name, attr)
                assert set(package.__all__) <= set(dir(package)), name
                try:
                    package.no_such_name
                except AttributeError:
                    pass
                else:
                    raise AssertionError(name)
            from repro.serving import *
            print(ServingServer.__module__, parse_query.__module__)
            """
        )
        assert out.split() == ["repro.serving.server", "repro.serving.query"]

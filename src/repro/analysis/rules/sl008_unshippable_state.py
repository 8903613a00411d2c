"""SL008 — operator state serialization cannot ship.

``repro.core.stateship`` snapshots operator ``self.*`` state through
``repro.common.serialization`` to cross the spawn boundary (checkpoints,
crash recovery, shard hand-off). That codec covers primitives, the
``_COMPOUND_TYPES`` containers (dict/list/set/frozenset/deque, ndarray,
``random.Random``, ``np.random.Generator``, ``itertools.count``),
structurally-encoded ``repro.*`` instances, and anything wired in with
``register_reducer``. Everything else — locks, queues, sockets, open
files, live generators — fails *at runtime*, on the first checkpoint of
a deployed topology.

This rule moves that failure to lint time: for every ``Bolt``/``Spout``/
``SynopsisBase`` subclass (hierarchy resolved project-wide) it checks the
inferred type of each ``__init__``-established attribute against the
serializable inventory and flags known-unshippable constructors.
Attributes whose type cannot be inferred are left alone — the rule only
fires on positive evidence.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.engine import Rule, rule
from repro.analysis.findings import Finding
from repro.analysis.project import BOLT_ROOT, SPOUT_ROOT, SYNOPSIS_ROOT, ProjectModel

#: Canonical labels serialization handles (primitives + _COMPOUND_TYPES).
_SERIALIZABLE = frozenset(
    {
        "NoneType",
        "bool",
        "int",
        "float",
        "str",
        "bytes",
        "bytearray",
        "tuple",
        "list",
        "set",
        "frozenset",
        "dict",
        "defaultdict",
        "Counter",
        "deque",
        "ndarray",
        "random.Random",
        "np.Generator",
        "itertools.count",
        # callables are skipped by capture as configuration, not state
        "callable",
    }
)

#: Labels that are positively unshippable regardless of constructor module.
_UNSHIPPABLE_LABELS = {
    "generator": "a live generator",
    "iterator": "a live iterator",
    "file": "an open file handle",
}

#: Stdlib roots whose objects hold OS resources serialization refuses.
_UNSHIPPABLE_ROOTS = frozenset(
    {
        "threading",
        "queue",
        "socket",
        "subprocess",
        "multiprocessing",
        "concurrent",
        "asyncio",
        "sqlite3",
        "mmap",
        "weakref",
        "ctypes",
        "select",
        "selectors",
        "ssl",
        "io",
    }
)


@rule
class UnshippableStateRule(Rule):
    """Flags operator state the spawn boundary will reject."""

    rule_id = "SL008"
    description = (
        "operator state attribute not covered by serialization "
        "(_COMPOUND_TYPES/register_reducer); state shipping fails at the "
        "spawn boundary"
    )
    scope = "project"

    def check_project(self, project: ProjectModel) -> Iterator[Finding]:
        seen: set[tuple[str, str]] = set()
        for root in (BOLT_ROOT, SPOUT_ROOT, SYNOPSIS_ROOT):
            for relpath, name, cf in project.subclasses_of(
                root, concrete_only=True
            ):
                if (relpath, name) in seen:
                    continue
                seen.add((relpath, name))
                for attr, info in cf.get("attrs", {}).items():
                    problem = self._classify(info, project)
                    if problem is None:
                        continue
                    yield self.project_finding(
                        project,
                        relpath,
                        info["line"],
                        info["col"],
                        f"{name}.{attr} is {problem}, which serialization "
                        "cannot ship across the spawn boundary; "
                        "checkpoint/restore of this operator will fail — "
                        "rebuild it in prepare() or register a reducer",
                    )

    def _classify(self, info: dict, project: ProjectModel) -> str | None:
        """A human-readable problem description, or None when shippable."""
        label = info.get("type")
        callee = info.get("callee")
        if label in _SERIALIZABLE:
            return None
        if label in _UNSHIPPABLE_LABELS:
            return _UNSHIPPABLE_LABELS[label]
        if label is not None and label.startswith("class:"):
            # project classes are structurally encoded (trusted repro.*
            # prefix) and reducer-registered classes have explicit hooks
            return None
        if callee:
            root = callee.split(".")[0]
            if root in _UNSHIPPABLE_ROOTS:
                return f"built from {callee}()"
        return None

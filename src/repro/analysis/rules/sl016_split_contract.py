"""SL016 — elastic split contract and migration-barrier discipline.

The elastic runtime's correctness rests on two statically checkable
disciplines, and silent violations of either corrupt answers only at
rescale time — the worst possible moment to discover them:

* **split must invert merge.** ``merge(*split(s, n))`` must reproduce
  ``s`` exactly (``tests/core/test_split_roundtrip.py`` pins it by
  fingerprint). A synopsis that defines ``_split_into`` but has no
  ``_merge_into`` anywhere below ``SynopsisBase`` has an inverse-less
  split: the re-sharded partials can never be folded back (**error**).
  And ``_split_into`` must not mutate ``self`` — the planner treats the
  merged source as still-live (drain-and-restart parks it on task 0
  after a failed split), so a destructive split tears state exactly when
  the fallback needs it intact (**error**).
* **state surgery stays inside the barrier.** In ``elastic`` packages,
  any function that captures, re-shards or restores live cluster state
  (``.merge(...)``/``.split(...)`` on synopses, ``stateship``
  capture/restore, or worker ``snapshot``/``restore`` messages, sent
  directly or through the coordinator's ``_broadcast``) is
  *migration surgery*; calling one outside a ``with
  migration_barrier(...)`` block operates on a torn cut — tuples still
  in flight mutate shards mid-copy (**error** at the call site).
  Barrier-less surgery helpers may compose each other freely inside
  their bodies — the barrier obligation sits where other code invokes
  them — but a function that opens a barrier is an orchestrator and is
  held to it: any surgery it performs or delegates outside the ``with``
  is flagged.

The surgery check is lexical by design: a function that wants to be
callable without a barrier must take the barrier itself (as
``perform_rescale`` does), which makes the protocol's entry points
visibly self-quiescing.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import Rule, rule
from repro.analysis.findings import Finding
from repro.analysis.project import SYNOPSIS_ROOT, ProjectModel

_ROOT_STOP = frozenset({SYNOPSIS_ROOT})

#: Attribute calls that mutate or re-deal synopsis state.
_SURGERY_ATTRS = frozenset({"merge", "split"})

#: ``stateship`` entry points that serialize/deserialize live state.
_STATESHIP_ATTRS = frozenset({"capture", "restore", "restore_into"})

#: Worker-protocol messages that move shard state across the data plane.
_SURGERY_MESSAGES = frozenset({"snapshot", "restore"})


def _in_elastic_package(relpath: str) -> bool:
    return "elastic" in relpath.split("/")[:-1] or relpath.split("/")[
        -1
    ].startswith("elastic")


def _is_barrier_with(node: ast.With) -> bool:
    for item in node.items:
        expr = item.context_expr
        if isinstance(expr, ast.Call):
            func = expr.func
            name = (
                func.id
                if isinstance(func, ast.Name)
                else func.attr
                if isinstance(func, ast.Attribute)
                else None
            )
            if name == "migration_barrier":
                return True
    return False


def _is_surgery_call(call: ast.Call) -> str | None:
    """The surgery kind a call performs directly, or None."""
    func = call.func
    if not isinstance(func, ast.Attribute):
        return None
    if func.attr in _SURGERY_ATTRS:
        # `"a b".split()` is string work, not state surgery.
        if isinstance(func.value, ast.Constant):
            return None
        return f".{func.attr}()"
    if (
        func.attr in _STATESHIP_ATTRS
        and isinstance(func.value, ast.Name)
        and func.value.id == "stateship"
    ):
        return f"stateship.{func.attr}()"
    if func.attr in ("put", "_broadcast") and call.args:
        # ``inbox.put(("snapshot", epoch))`` or the coordinator's
        # ``_broadcast("snapshot")``, which sends it to every worker.
        head = call.args[0]
        if isinstance(head, ast.Tuple) and head.elts:
            head = head.elts[0]
        if isinstance(head, ast.Constant) and head.value in _SURGERY_MESSAGES:
            return f"worker {head.value!r} message"
    return None


class _BarrierWalker:
    """Per-function walk tracking lexical ``with migration_barrier`` depth."""

    def __init__(self) -> None:
        self.unguarded: list[tuple[ast.Call, str]] = []

    def walk(self, body: list[ast.stmt], guarded: bool) -> None:
        for stmt in body:
            self._visit(stmt, guarded)

    def _visit(self, node: ast.AST, guarded: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # nested defs get their own analysis
        if isinstance(node, ast.With):
            inner = guarded or _is_barrier_with(node)
            for item in node.items:
                self._visit(item.context_expr, guarded)
            self.walk(node.body, inner)
            return
        if isinstance(node, ast.Call) and not guarded:
            kind = _is_surgery_call(node)
            if kind is not None:
                self.unguarded.append((node, kind))
        for child in ast.iter_child_nodes(node):
            self._visit(child, guarded)


@rule
class SplitContractRule(Rule):
    """Flags inverse-less/destructive splits and un-barriered migration."""

    rule_id = "SL016"
    description = (
        "synopsis split without a merge inverse, split mutating self, or "
        "migration state surgery outside a migration_barrier block"
    )
    scope = "project"

    def check_project(self, project: ProjectModel) -> Iterator[Finding]:
        yield from self._check_split_contract(project)
        yield from self._check_barrier_discipline(project)

    # -- split/merge inverse pair -------------------------------------------

    def _check_split_contract(self, project: ProjectModel) -> Iterator[Finding]:
        for relpath, name, cf in project.subclasses_of(SYNOPSIS_ROOT):
            split = cf.get("methods", {}).get("_split_into")
            if split is None:
                continue
            merge = project.resolve_method(
                name, "_merge_into", stop_roots=_ROOT_STOP
            )
            if merge is None:
                yield self.project_finding(
                    project,
                    relpath,
                    split["line"],
                    split["col"],
                    f"{name} defines _split_into but no _merge_into below "
                    f"{SYNOPSIS_ROOT}: the split has no inverse, so "
                    "re-sharded partials can never be folded back "
                    "(merge(*split(s, n)) must equal s)",
                )
            mutations = split.get("self_mutations", ())
            if mutations:
                attrs = ", ".join(sorted({m[0] for m in mutations}))
                line, col = mutations[0][1], mutations[0][2]
                yield self.project_finding(
                    project,
                    relpath,
                    line,
                    col,
                    f"{name}._split_into mutates self ({attrs}); split must "
                    "leave the source intact — the drain-and-restart "
                    "fallback re-parks the merged source after a failed "
                    "split, and a destructive split tears it",
                )

    # -- barrier discipline in elastic packages -----------------------------

    def _check_barrier_discipline(
        self, project: ProjectModel
    ) -> Iterator[Finding]:
        for relpath, facts in project.modules.items():
            if not _in_elastic_package(relpath):
                continue
            try:
                with open(facts["path"], encoding="utf-8") as handle:
                    tree = ast.parse(handle.read())
            except (OSError, SyntaxError, KeyError):
                continue
            surgery: dict[str, ast.FunctionDef] = {}
            functions: list[ast.FunctionDef] = [
                node
                for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
            for func in functions:
                if any(
                    _is_surgery_call(node)
                    for node in ast.walk(func)
                    if isinstance(node, ast.Call)
                ):
                    surgery[func.name] = func
            for func in functions:
                if func.name == "migration_barrier":
                    continue
                has_barrier = any(
                    isinstance(node, ast.With) and _is_barrier_with(node)
                    for node in ast.walk(func)
                )
                if func.name in surgery and not has_barrier:
                    # Barrier-less surgery helpers compose surgery by
                    # definition; the barrier obligation sits at their
                    # call sites. An orchestrator that *does* open a
                    # barrier is held to it for everything it touches.
                    continue
                walker = _BarrierWalker()
                walker.walk(func.body, guarded=False)
                for call, kind in walker.unguarded:
                    yield self.project_finding(
                        project,
                        relpath,
                        call.lineno,
                        call.col_offset,
                        f"migration state surgery ({kind}) outside a `with "
                        "migration_barrier(...)` block: the cluster is not "
                        "quiesced, so captured/restored state is a torn cut "
                        "with tuples still in flight",
                    )
                for call in (
                    node
                    for node in ast.walk(func)
                    if isinstance(node, ast.Call)
                ):
                    target = call.func
                    if (
                        isinstance(target, ast.Name)
                        and target.id in surgery
                        and not self._call_guarded(func, call)
                    ):
                        yield self.project_finding(
                            project,
                            relpath,
                            call.lineno,
                            call.col_offset,
                            f"call to migration surgery {target.id}() "
                            "outside a `with migration_barrier(...)` "
                            "block: state is captured/re-dealt on a "
                            "non-quiescent cluster",
                        )

    @staticmethod
    def _call_guarded(func: ast.AST, call: ast.Call) -> bool:
        """Whether *call* sits lexically under a barrier ``with`` in *func*."""

        def contains(node: ast.AST) -> bool:
            return any(child is call or contains(child) for child in
                       ast.iter_child_nodes(node))

        guarded: list[bool] = []

        def visit(node: ast.AST, under: bool) -> None:
            if node is call:
                guarded.append(under)
                return
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                node is not func
            ):
                return
            inner = under or (
                isinstance(node, ast.With) and _is_barrier_with(node)
            )
            for child in ast.iter_child_nodes(node):
                visit(child, inner)

        visit(func, False)
        return bool(guarded) and guarded[0]

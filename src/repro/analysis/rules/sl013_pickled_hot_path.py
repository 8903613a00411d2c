"""SL013 — pickled bulk data shipped through queues in cluster hot loops.

The cluster's original data plane pickled every tuple batch through a
``multiprocessing`` queue; the since-retired cluster scaling bench showed
that serialization alone capped speedup (the inversion the shm transport
was built to fix). This rule is the lint that would have caught it: inside
``cluster/`` loop bodies, a ``.put(...)`` whose payload is pickled bytes
(``pickle.dumps`` inline or via a local name) or a numpy array is bulk
*data* riding the control plane — it belongs on the shared-memory rings
(:mod:`repro.cluster.shm`), with queues carrying only small control
messages (doorbells, acks, barriers).

Module-scoped and restricted to ``cluster/``: elsewhere a pickled put is
usually a one-shot handoff, not a per-batch hot path. That pickled plane
is gone (its last numbers are in EXPERIMENTS.md, "Retired suites"), and
with it the one suppression this rule ever had in the tree.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.context import ModuleContext
from repro.analysis.engine import Rule, rule
from repro.analysis.findings import Finding

_PACKAGE = "cluster"
_PICKLE_CALLS = frozenset({"pickle.dumps", "pickle.dump"})
_NUMPY_PREFIX = "numpy."


def _payload_exprs(call: ast.Call) -> list[ast.AST]:
    return list(call.args) + [kw.value for kw in call.keywords]


def _names(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


@rule
class PickledHotPathRule(Rule):
    """Flags queue puts of pickled batches / numpy arrays in cluster loops."""

    rule_id = "SL013"
    description = (
        "pickled batch or numpy array shipped through a Queue inside a "
        "cluster/ loop; bulk data belongs on the shm data plane"
    )

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.in_package(_PACKAGE):
            return
        for fn in ast.walk(ctx.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            yield from self._check_function(ctx, fn)

    def _check_function(
        self, ctx: ModuleContext, fn: ast.AST
    ) -> Iterator[Finding]:
        # Names bound (anywhere in this function) to pickled bytes or to
        # the result of a numpy call — the payloads a queue must not carry
        # per batch.
        pickled: set[str] = set()
        arrays: set[str] = set()
        for node in ast.walk(fn):
            if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)):
                continue
            origin = ctx.resolve_call_target(node.value.func)
            if origin is None:
                continue
            targets = {t.id for t in node.targets if isinstance(t, ast.Name)}
            if origin in _PICKLE_CALLS:
                pickled.update(targets)
            elif origin.startswith(_NUMPY_PREFIX):
                arrays.update(targets)

        seen: set[tuple[int, int]] = set()
        for loop in ast.walk(fn):
            if not isinstance(loop, (ast.For, ast.AsyncFor, ast.While)):
                continue
            for call in ast.walk(loop):
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                if not isinstance(func, ast.Attribute) or func.attr != "put":
                    continue
                where = (call.lineno, call.col_offset)
                if where in seen:
                    continue  # nested loops walk the same call twice
                message = self._payload_offence(ctx, call, pickled, arrays)
                if message is not None:
                    seen.add(where)
                    yield self.finding(ctx, call.lineno, call.col_offset, message)

    def _payload_offence(
        self,
        ctx: ModuleContext,
        call: ast.Call,
        pickled: set[str],
        arrays: set[str],
    ) -> str | None:
        for expr in _payload_exprs(call):
            for sub in ast.walk(expr):
                if (
                    isinstance(sub, ast.Call)
                    and ctx.resolve_call_target(sub.func) in _PICKLE_CALLS
                ):
                    return (
                        "payload is pickled inline in a cluster loop; ship "
                        "tuple batches over the shm rings and keep queues "
                        "for control traffic"
                    )
            names = _names(expr)
            if names & pickled:
                return (
                    "payload carries pickled bytes "
                    f"({', '.join(sorted(names & pickled))}) in a cluster "
                    "loop; ship tuple batches over the shm rings and keep "
                    "queues for control traffic"
                )
            if names & arrays:
                return (
                    "payload carries a numpy array "
                    f"({', '.join(sorted(names & arrays))}) through a Queue "
                    "in a cluster loop; queue transport pickles it per "
                    "send — use the shm data plane"
                )
        return None

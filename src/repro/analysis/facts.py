"""Per-module fact extraction: the raw material of the project model.

The engine analyzes each file exactly once and keeps a compact *facts*
document per module — class declarations with resolved base origins,
inferred ``self.*`` attribute types, candidate global-state mutations and
payload-taint reaching metric labels. Project-scoped rules query the
:class:`~repro.analysis.project.ProjectModel` assembled from these facts,
so cross-file rules see the whole tree without holding every AST.
"""

from __future__ import annotations

import ast
from typing import Any, Iterator

from repro.analysis.context import ModuleContext

#: Mutating container verbs: calling one of these on a module-level global
#: from operator code is per-process shadow state under ``repro.cluster``.
_MUTATORS = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "rotate",
        "setdefault",
        "subtract",
        "update",
    }
)

#: Canonical labels for mutable builtin containers (module-global candidates).
MUTABLE_CONTAINER_TYPES = frozenset(
    {"dict", "list", "set", "deque", "defaultdict", "Counter", "bytearray"}
)

#: Constructor call targets mapped to canonical type labels.
_CALL_TYPE_MAP = {
    "dict": "dict",
    "list": "list",
    "set": "set",
    "frozenset": "frozenset",
    "tuple": "tuple",
    "int": "int",
    "float": "float",
    "str": "str",
    "bool": "bool",
    "bytes": "bytes",
    "bytearray": "bytearray",
    "iter": "iterator",
    "open": "file",
    "collections.deque": "deque",
    "collections.defaultdict": "defaultdict",
    "collections.Counter": "Counter",
    "collections.OrderedDict": "dict",
    "random.Random": "random.Random",
    "numpy.random.default_rng": "np.Generator",
    "numpy.random.Generator": "np.Generator",
    "itertools.count": "itertools.count",
}

_NDARRAY_FACTORIES = frozenset(
    {
        "numpy.array",
        "numpy.asarray",
        "numpy.ascontiguousarray",
        "numpy.arange",
        "numpy.empty",
        "numpy.frombuffer",
        "numpy.full",
        "numpy.linspace",
        "numpy.ones",
        "numpy.zeros",
        "numpy.zeros_like",
    }
)

#: Methods whose second parameter is the stream payload (taint seed).
_PAYLOAD_METHODS = frozenset({"process", "execute"})


def extract_facts(ctx: ModuleContext) -> dict[str, Any]:
    """The facts document for one parsed module."""
    facts: dict[str, Any] = {
        "path": str(ctx.path),
        "imports": dict(ctx.aliases),
        "module_globals": _module_globals(ctx),
        "classes": {},
        "functions": {},
    }
    local_classes = {
        node.name
        for node in ctx.tree.body
        if isinstance(node, ast.ClassDef)
    }
    for node in ctx.tree.body:
        if isinstance(node, ast.ClassDef):
            facts["classes"][node.name] = _class_facts(node, ctx, local_classes)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            facts["functions"][node.name] = _function_facts(
                node, ctx, local_classes, in_class=False
            )
    return facts


# -- module-level tables ------------------------------------------------------


def _module_globals(ctx: ModuleContext) -> dict[str, dict]:
    """Top-level assignments with an inferred canonical type."""
    out: dict[str, dict] = {}
    for node in ctx.tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        for target in targets:
            if isinstance(target, ast.Name) and target.id not in out:
                inferred, callee = _infer_type(value, ctx, set())
                out[target.id] = {
                    "line": node.lineno,
                    "col": node.col_offset,
                    "type": inferred,
                    "callee": callee,
                }
    return out


# -- type inference -----------------------------------------------------------


def _infer_type(
    value: ast.expr | None, ctx: ModuleContext, local_classes: set[str]
) -> tuple[str | None, str | None]:
    """Infer ``(canonical type label, dotted call target)`` for *value*.

    Labels are either a builtin canonical name (``dict``, ``ndarray``,
    ``deque``, ...), ``class:<Name>`` for instances of project classes, or
    ``None`` when the expression's type cannot be determined statically.
    The raw dotted call target rides along so rules can classify external
    constructors (``threading.Lock``) the label map does not know.
    """
    if value is None:
        return None, None
    if isinstance(value, ast.Constant):
        return type(value.value).__name__, None
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return "dict", None
    if isinstance(value, (ast.List, ast.ListComp)):
        return "list", None
    if isinstance(value, (ast.Set, ast.SetComp)):
        return "set", None
    if isinstance(value, ast.Tuple):
        return "tuple", None
    if isinstance(value, ast.GeneratorExp):
        return "generator", None
    if isinstance(value, ast.Lambda):
        return "callable", None
    if isinstance(value, ast.JoinedStr):
        return "str", None
    if isinstance(value, ast.Call):
        return _infer_call_type(value, ctx, local_classes)
    return None, None


def _infer_call_type(
    call: ast.Call, ctx: ModuleContext, local_classes: set[str]
) -> tuple[str | None, str | None]:
    func = call.func
    if isinstance(func, ast.Name) and func.id in local_classes:
        return f"class:{func.id}", func.id
    target = ctx.resolve_call_target(func)
    if target is None:
        if isinstance(func, ast.Name) and func.id in _CALL_TYPE_MAP:
            return _CALL_TYPE_MAP[func.id], func.id
        return None, None
    if target in _CALL_TYPE_MAP:
        return _CALL_TYPE_MAP[target], target
    if target in _NDARRAY_FACTORIES:
        return "ndarray", target
    if target.startswith("repro."):
        return f"class:{target.rsplit('.', 1)[-1]}", target
    return None, target


# -- classes ------------------------------------------------------------------


def _class_facts(
    node: ast.ClassDef, ctx: ModuleContext, local_classes: set[str]
) -> dict[str, Any]:
    bases: list[str] = []
    base_origins: list[str] = []
    for base in node.bases:
        if isinstance(base, ast.Name):
            bases.append(base.id)
            base_origins.append(ctx.aliases.get(base.id, base.id))
        elif isinstance(base, ast.Attribute):
            bases.append(base.attr)
            dotted = ctx.resolve_call_target(base)
            base_origins.append(dotted or base.attr)
    methods: dict[str, dict] = {}
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            methods[item.name] = _function_facts(
                item, ctx, local_classes, in_class=True
            )
    return {
        "line": node.lineno,
        "col": node.col_offset,
        "bases": bases,
        "base_origins": base_origins,
        "abstract": _declares_abstract(node),
        "methods": methods,
        "attrs": _attr_facts(node, ctx, local_classes),
    }


def _declares_abstract(node: ast.ClassDef) -> bool:
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for deco in item.decorator_list:
                name = deco.attr if isinstance(deco, ast.Attribute) else (
                    deco.id if isinstance(deco, ast.Name) else None
                )
                if name in ("abstractmethod", "abstractproperty"):
                    return True
    return False


def _attr_facts(
    node: ast.ClassDef, ctx: ModuleContext, local_classes: set[str]
) -> dict[str, dict]:
    """``self.*`` attribute assignments with inferred types.

    ``__init__`` is scanned first so constructor-established types win over
    later reassignments in other methods.
    """
    out: dict[str, dict] = {}
    methods = [
        item
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    methods.sort(key=lambda m: m.name != "__init__")
    for method in methods:
        for stmt in ast.walk(method):
            target: ast.expr | None = None
            value: ast.expr | None = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                target, value = stmt.target, stmt.value
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and target.attr not in out
            ):
                inferred, callee = _infer_type(value, ctx, local_classes)
                out[target.attr] = {
                    "line": target.lineno,
                    "col": target.col_offset,
                    "type": inferred,
                    "callee": callee,
                }
    return out


# -- functions ----------------------------------------------------------------


def _function_facts(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    ctx: ModuleContext,
    local_classes: set[str],
    in_class: bool,
) -> dict[str, Any]:
    params = [a.arg for a in node.args.posonlyargs + node.args.args]
    facts: dict[str, Any] = {
        "line": node.lineno,
        "col": node.col_offset,
        "self_mutations": [],
        "self_reads": [],
        "self_iterations": [],
        "self_attr_pops": [],
        "id_calls": [],
        "tainted_label_calls": [],
        "global_mutations": [],
    }
    locals_, global_decls = _scope_names(node, params)
    self_reads: set[str] = set()

    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            _record_call(sub, facts, locals_)
        elif isinstance(sub, ast.For):
            attr = _self_attr(sub.iter)
            if attr is not None:
                facts["self_iterations"].append(
                    [sub.iter.lineno, sub.iter.col_offset, attr]
                )
        elif isinstance(sub, (ast.Assign, ast.AugAssign)):
            _record_store_mutations(sub, facts, locals_, global_decls)
        elif isinstance(sub, ast.Delete):
            for target in sub.targets:
                _record_subscript_mutation(target, facts, locals_)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            if isinstance(sub.value, ast.Name) and sub.value.id == "self":
                self_reads.add(sub.attr)

    facts["self_reads"] = sorted(self_reads)
    if in_class and node.name in _PAYLOAD_METHODS and len(params) >= 2:
        payload = params[1] if params[0] == "self" else params[0]
        facts["tainted_label_calls"] = _tainted_label_calls(node, {payload})
    return facts


def _scope_names(
    node: ast.AST, params: list[str]
) -> tuple[set[str], set[str]]:
    """Names local to the function body, and its ``global`` declarations."""
    locals_: set[str] = set(params)
    global_decls: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Global):
            global_decls.update(sub.names)
        elif isinstance(sub, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = sub.targets if isinstance(sub, ast.Assign) else [sub.target]
            for target in targets:
                locals_.update(_bound_names(target))
        elif isinstance(sub, (ast.For, ast.comprehension)):
            locals_.update(_bound_names(sub.target))
        elif isinstance(sub, ast.withitem) and sub.optional_vars is not None:
            for name_node in ast.walk(sub.optional_vars):
                if isinstance(name_node, ast.Name):
                    locals_.add(name_node.id)
        elif isinstance(sub, ast.NamedExpr) and isinstance(sub.target, ast.Name):
            locals_.add(sub.target.id)
        elif isinstance(sub, ast.ExceptHandler) and sub.name:
            locals_.add(sub.name)
    return locals_ - global_decls, global_decls


def _bound_names(target: ast.expr) -> Iterator[str]:
    """Names a store-target *binds* in the local scope.

    ``x = ...`` and ``a, b = ...`` bind; ``obj.attr = ...`` and
    ``table[k] = ...`` mutate an existing object and bind nothing —
    treating their base name as local would mask global mutations.
    """
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _bound_names(elt)
    elif isinstance(target, ast.Starred):
        yield from _bound_names(target.value)


def _self_attr(node: ast.expr) -> str | None:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _record_call(call: ast.Call, facts: dict, locals_: set[str]) -> None:
    func = call.func
    if isinstance(func, ast.Name):
        if func.id == "id" and call.args:
            facts["id_calls"].append([call.lineno, call.col_offset])
        return
    if not isinstance(func, ast.Attribute):
        return
    owner = func.value
    # self.<attr>.mutator(...) is a self-state mutation; <attr>.pop() with
    # no argument is order-dependent on sets.
    attr = _self_attr(owner)
    if attr is not None and func.attr in _MUTATORS:
        facts["self_mutations"].append([attr, call.lineno, call.col_offset])
        if func.attr == "pop" and not call.args and not call.keywords:
            facts["self_attr_pops"].append([call.lineno, call.col_offset, attr])
    # GLOBAL.mutator(...) on a non-local bare name: candidate global mutation.
    if (
        isinstance(owner, ast.Name)
        and owner.id not in locals_
        and owner.id != "self"
        and func.attr in _MUTATORS
    ):
        facts["global_mutations"].append(
            [owner.id, call.lineno, call.col_offset, f".{func.attr}()"]
        )


def _record_store_mutations(
    node: ast.Assign | ast.AugAssign, facts: dict, locals_: set[str], global_decls: set[str]
) -> None:
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    for target in targets:
        if isinstance(target, ast.Name) and target.id in global_decls:
            facts["global_mutations"].append(
                [target.id, target.lineno, target.col_offset, "global rebind"]
            )
        else:
            _record_subscript_mutation(target, facts, locals_)
        # self.<attr> = / += in a method body is self-state mutation.
        attr = _self_attr(target)
        if attr is not None:
            facts["self_mutations"].append(
                [attr, target.lineno, target.col_offset]
            )
        # self.<attr>[k] = ... mutates the container behind <attr>.
        if isinstance(target, ast.Subscript):
            base = target.value
            while isinstance(base, ast.Subscript):
                base = base.value
            inner = _self_attr(base)
            if inner is not None:
                facts["self_mutations"].append(
                    [inner, target.lineno, target.col_offset]
                )


def _record_subscript_mutation(
    target: ast.expr, facts: dict, locals_: set[str]
) -> None:
    if not isinstance(target, ast.Subscript):
        return
    base = target.value
    while isinstance(base, ast.Subscript):
        base = base.value
    if isinstance(base, ast.Name) and base.id not in locals_ and base.id != "self":
        facts["global_mutations"].append(
            [base.id, target.lineno, target.col_offset, "subscript store"]
        )


# -- payload taint ------------------------------------------------------------


def _tainted_label_calls(
    node: ast.FunctionDef | ast.AsyncFunctionDef, seeds: set[str]
) -> list[list]:
    """``.labels(...)`` calls whose value derives from the payload parameter.

    Local, flow-insensitive taint: seed the payload parameter, propagate
    through simple assignments and for-targets a bounded number of rounds,
    then flag label calls referencing a tainted name.
    """
    assigns: list[tuple[set[str], set[str]]] = []  # (targets, sources)
    for sub in ast.walk(node):
        if isinstance(sub, ast.Assign):
            targets = {
                n.id
                for t in sub.targets
                for n in ast.walk(t)
                if isinstance(n, ast.Name)
            }
            sources = _names_in(sub.value)
            assigns.append((targets, sources))
        elif isinstance(sub, ast.For):
            targets = {
                n.id for n in ast.walk(sub.target) if isinstance(n, ast.Name)
            }
            assigns.append((targets, _names_in(sub.iter)))
    tainted = set(seeds)
    for __ in range(len(assigns) + 1):
        changed = False
        for targets, sources in assigns:
            if sources & tainted and not targets <= tainted:
                tainted |= targets
                changed = True
        if not changed:
            break
    out: list[list] = []
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr == "labels"
        ):
            for kw in sub.keywords:
                if kw.value is not None and _names_in(kw.value) & tainted:
                    out.append([sub.lineno, sub.col_offset, kw.arg or "**"])
            for arg in sub.args:
                if _names_in(arg) & tainted:
                    out.append([sub.lineno, sub.col_offset, "positional"])
    return out


def _names_in(node: ast.expr) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}

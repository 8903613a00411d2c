"""The streamlint rule engine.

Rules subclass :class:`Rule` and register themselves with the ``@rule``
decorator. A run has three stages, all in one process:

1. **Per-file analysis** — each module is parsed once, every module-scoped
   rule runs over it, and a *facts* document is extracted
   (:mod:`repro.analysis.facts`).
2. **Project analysis** — the facts are assembled into a
   :class:`~repro.analysis.project.ProjectModel` (cross-module class
   hierarchy, attribute types) and project-scoped rules query it.
3. **Filtering** — selection (``--select``/``--ignore``) and inline
   suppressions routed through each finding's *relpath* (so a project
   rule's finding is suppressible in the file it points at, wherever the
   evidence came from).

Unparsable files produce a synthetic ``SL000`` syntax-error finding instead
of crashing the run, so one broken module cannot hide findings in the rest
of the tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence, Type

from repro.analysis.context import ModuleContext, relpath_under
from repro.analysis.facts import extract_facts
from repro.analysis.findings import Finding, Severity
from repro.analysis.project import ProjectModel
from repro.analysis.suppressions import SuppressionIndex

SYNTAX_ERROR_RULE = "SL000"

_RULE_CLASSES: dict[str, Type["Rule"]] = {}


class Rule:
    """One streamlint check.

    Class attributes declare identity (``rule_id``), default ``severity``,
    ``scope`` ("module" rules see one file at a time; "project" rules see
    the :class:`ProjectModel` for the whole tree) and a one-line
    ``description`` surfaced by ``--list-rules``.
    """

    rule_id: str = ""
    description: str = ""
    severity: Severity = Severity.ERROR
    scope: str = "module"  # "module" | "project"

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Yield findings for one module (module-scoped rules)."""
        return iter(())

    def check_project(self, project: ProjectModel) -> Iterator[Finding]:
        """Yield findings across the whole scanned tree (project scope)."""
        return iter(())

    def finding(
        self,
        ctx: ModuleContext,
        line: int,
        col: int,
        message: str,
        severity: Severity | None = None,
    ) -> Finding:
        """Build a :class:`Finding` in *ctx* with this rule's identity."""
        return Finding(
            path=str(ctx.path),
            line=line,
            col=col,
            rule_id=self.rule_id,
            severity=severity or self.severity,
            message=message,
            relpath=ctx.relpath,
        )

    def project_finding(
        self,
        project: ProjectModel,
        relpath: str,
        line: int,
        col: int,
        message: str,
        severity: Severity | None = None,
    ) -> Finding:
        """Build a :class:`Finding` attributed to *relpath* in the model."""
        return Finding(
            path=project.display_path(relpath),
            line=line,
            col=col,
            rule_id=self.rule_id,
            severity=severity or self.severity,
            message=message,
            relpath=relpath,
        )


def rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator registering *cls* in the global rule table."""
    if not cls.rule_id:
        raise ValueError(f"rule class {cls.__name__} lacks a rule_id")
    if not cls.description:
        raise ValueError(f"rule {cls.rule_id} lacks a description")
    if cls.rule_id in _RULE_CLASSES:
        raise ValueError(f"duplicate rule id {cls.rule_id!r}")
    _RULE_CLASSES[cls.rule_id] = cls
    return cls


def all_rules() -> dict[str, Type[Rule]]:
    """Registered rules by id (importing the rules package as a side effect)."""
    import repro.analysis.rules  # noqa: F401 - registration side effect

    return dict(sorted(_RULE_CLASSES.items()))


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Every ``*.py`` file under *paths* (files pass through, dirs recurse)."""
    for path in paths:
        if path.is_dir():
            yield from sorted(
                p for p in path.rglob("*.py") if "__pycache__" not in p.parts
            )
        elif path.suffix == ".py":
            yield path


@dataclass
class AnalysisResult:
    """Everything a reporter needs about one engine run."""

    findings: list[Finding]
    file_count: int = 0
    #: Worst surviving severity, for exit-code mapping (None when clean).
    worst: Severity | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        severities = {f.severity for f in self.findings}
        if Severity.ERROR in severities:
            self.worst = Severity.ERROR
        elif severities:
            self.worst = Severity.WARNING


# -- per-file stage ------------------------------------------------------------


@dataclass
class _FileResult:
    """One module's module-rule findings, facts and suppressions."""

    relpath: str
    findings: list[Finding]
    facts: dict | None
    suppressions: SuppressionIndex


def _analyze_file(path: Path, root: Path) -> _FileResult:
    """Parse one file, run module rules, extract facts."""
    try:
        ctx = ModuleContext.from_file(path, root)
    except SyntaxError as exc:
        relpath = relpath_under(path, root)
        error = Finding(
            path=str(path),
            line=exc.lineno or 1,
            col=(exc.offset or 1) - 1,
            rule_id=SYNTAX_ERROR_RULE,
            severity=Severity.ERROR,
            message=f"syntax error: {exc.msg}",
            relpath=relpath,
        )
        return _FileResult(relpath, [error], None, SuppressionIndex())
    rules = [cls() for cls in all_rules().values() if cls.scope == "module"]
    findings = [f for r in rules for f in r.check_module(ctx)]
    return _FileResult(ctx.relpath, findings, extract_facts(ctx), ctx.suppressions)


# -- orchestration ------------------------------------------------------------


def run_analysis(
    paths: Sequence[Path | str],
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
) -> AnalysisResult:
    """Run every (selected) rule over *paths*; findings plus file count."""
    keep = _selected_rule_ids(select, ignore)
    files: set[tuple[Path, Path]] = set()
    for root in (Path(p) for p in paths):
        scan_root = root if root.is_dir() else root.parent
        files.update((file, scan_root) for file in iter_python_files([root]))
    results = [_analyze_file(path, root) for path, root in sorted(files)]
    suppressions = {res.relpath: res.suppressions for res in results}

    findings = [
        finding
        for res in results
        for finding in res.findings
        if (finding.rule_id == SYNTAX_ERROR_RULE or finding.rule_id in keep)
        and not _is_suppressed(suppressions, finding)
    ]
    model = ProjectModel(
        {res.relpath: res.facts for res in results if res.facts is not None}
    )
    for rule_id, cls in all_rules().items():
        if cls.scope != "project" or rule_id not in keep:
            continue
        for finding in cls().check_project(model):
            if not _is_suppressed(suppressions, finding):
                findings.append(finding)
    findings.sort()
    return AnalysisResult(findings=findings, file_count=len(files))


def analyze_paths(
    paths: Sequence[Path | str],
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
) -> list[Finding]:
    """Run every (selected) rule over *paths* and return sorted findings.

    *select* keeps only the listed rule ids; *ignore* drops the listed ids.
    Suppression comments are honoured last, so a suppressed finding never
    appears regardless of selection.
    """
    return run_analysis(paths, select, ignore).findings


def _is_suppressed(
    suppressions: dict[str, SuppressionIndex], finding: Finding
) -> bool:
    """Route suppression lookup through the finding's own module.

    Keyed by *relpath* so project-scoped rules — whose findings may point
    at a different module than the one whose AST produced the evidence —
    are silenced by pragmas in the file the finding names.
    """
    index = suppressions.get(finding.relpath)
    return index is not None and index.is_suppressed(finding.rule_id, finding.line)


def _selected_rule_ids(
    select: Iterable[str] | None, ignore: Iterable[str] | None
) -> set[str]:
    table = all_rules()
    keep = {s.upper() for s in select} if select else set(table)
    drop = {s.upper() for s in ignore} if ignore else set()
    unknown = (keep | drop) - set(table) if (select or ignore) else set()
    if unknown:
        raise ValueError(f"unknown rule id(s): {', '.join(sorted(unknown))}")
    return {rid for rid in table if rid in keep and rid not in drop}

"""streamlint: streaming-correctness static analysis for this repo.

The paper's scale-out requirements (Section 2) are encoded in this
codebase as conventions — explicit seeds through
:func:`repro.common.rng.make_rng`, mergeable synopses via
:class:`repro.common.mergeable.SynopsisBase`, construct-by-name through
``repro.core.registry``, shippable/mergeable operator state via
``repro.common.serialization`` and ``repro.core.stateship``. This
package *enforces* them statically:

========  ==================================================================
SL001     unseeded/global randomness outside ``common/rng.py``
SL002     synopsis update/merge contract (incl. compatibility check and
          the update_many batch-equivalence contract)
SL003     mutable default arguments
SL004     wall-clock reads in algorithm modules (only ``platform/`` may)
SL005     bare/overbroad ``except`` that swallows failures
SL006     concrete synopses missing from ``core/registry``
SL007     mutable module globals mutated from bolt/worker code paths
SL008     operator state serialization cannot ship (spawn boundary)
SL009     bolt state merge-on-query silently drops at parallelism > 1
SL010     blocking calls (sleep, bare Queue.get) in cluster hot loops
SL011     nondeterminism (id(), set iteration) in checkpointed state
SL012     tuple-derived metric label values (unbounded cardinality)
========  ==================================================================

Rules are *module*-scoped (one file at a time) or *project*-scoped —
the latter query a :class:`~repro.analysis.project.ProjectModel` built
once per run from per-module facts: the cross-file class hierarchy,
inferred ``self.*`` attribute types, import graph, and registration
surfaces.

Run ``python -m repro.analysis src/repro`` (exit 1 on errors, 3 on
warnings only) or use the library API::

    from repro.analysis import analyze_paths
    findings = analyze_paths(["src/repro"])

Silence an intentional violation inline with
``# streamlint: disable=SL001`` (line) or
``# streamlint: disable-file=SL004`` (whole module); accept pre-existing
findings wholesale via the committed ``.streamlint-baseline.json``.
"""

from repro.analysis.engine import (
    AnalysisResult,
    Rule,
    all_rules,
    analyze_paths,
    rule,
    run_analysis,
)
from repro.analysis.findings import Finding, Severity
from repro.analysis.project import ProjectModel

__all__ = [
    "AnalysisResult",
    "Finding",
    "ProjectModel",
    "Rule",
    "Severity",
    "all_rules",
    "analyze_paths",
    "rule",
    "run_analysis",
]

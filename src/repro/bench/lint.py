"""The streamlint bench: what does a full-tree analysis run cost?

``repro-bench --lint`` times :func:`repro.analysis.run_analysis` over the
``src/repro`` tree in four arms — cold vs. warm result cache, crossed
with 1 worker vs. ``--jobs auto`` (the affinity-aware
:func:`~repro.common.cpus.available_cpu_count`): ``cold_1job``,
``cold_auto``, ``warm_1job``, ``warm_auto``. The headline is
``ratio(payload, "streamlint", "cold_1job", "warm_auto")``: a warm cache
skips parsing entirely and project rules re-run from cached facts alone.
``equivalent`` asserts every repeat of an arm reports byte-identical
findings to the first cold single-process run: the cache and the process
pool are allowed to change *when* work happens, never *what* the
analyzer says.

This module may read the wall clock: it is part of the measurement
harness (see SL004's exemption for ``repro.bench``).
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.bench.runner import arm_row, make_payload, measure
from repro.common.cpus import available_cpu_count
from repro.common.exceptions import ParameterError

#: The four measured arms: (name, warm cache?, auto jobs?).
ARMS: tuple[tuple[str, bool, bool], ...] = (
    ("cold_1job", False, False),
    ("cold_auto", False, True),
    ("warm_1job", True, False),
    ("warm_auto", True, True),
)


def default_target() -> Path:
    """The ``src/repro`` tree the self-clean gate analyzes."""
    import repro

    return Path(repro.__file__).resolve().parent


def run_lint_bench(
    target: Path | None = None,
    repeats: int = 3,
    seed: int = 7,
    smoke: bool = False,
) -> dict:
    """Time full-tree analysis in every arm; returns a ``repro.bench/v3``
    payload with one case, ``streamlint``."""
    from repro.analysis import run_analysis

    if target is None:
        target = default_target()
        if smoke:
            target = target / "analysis"
    target = Path(target)
    if not target.exists():
        raise ParameterError(f"no such analysis target: {target}")
    auto = available_cpu_count()
    workload = "src/repro" if not smoke else "src/repro/analysis"
    results = []
    reference: list | None = None
    with tempfile.TemporaryDirectory(prefix="streamlint-bench-") as scratch:
        cache = Path(scratch) / "cache.json"

        def clear_cache() -> None:
            cache.unlink(missing_ok=True)

        def warm_cache() -> None:
            if not cache.exists():
                run_analysis([target], cache_path=cache)

        for arm, warm, use_auto in ARMS:
            jobs = auto if use_auto else 1
            seconds, outcomes = measure(
                lambda __, j=jobs: run_analysis([target], jobs=j, cache_path=cache),
                repeats,
                warm_cache if warm else clear_cache,
            )
            findings = [[f.to_dict() for f in o.findings] for o in outcomes]
            if reference is None:
                reference = findings[0]
            results.append(
                arm_row(
                    "streamlint",
                    arm,
                    workload,
                    outcomes[0].file_count,
                    seconds,
                    all(f == reference for f in findings),
                )
            )
    config = {
        "n_items": results[0]["n_items"],
        "repeats": repeats,
        "seed": seed,
        "smoke": smoke,
        "target": workload,
        "auto_jobs": auto,
    }
    return make_payload("lint", config, results)

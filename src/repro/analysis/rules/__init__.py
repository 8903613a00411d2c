"""streamlint rule set — importing this package registers every rule.

Rules live one-per-module, named ``slNNN_<slug>.py``; each module's
``@rule``-decorated class lands in the engine's global table as an import
side effect. Add a new rule by dropping a module here and importing it
below.
"""

from repro.analysis.rules import (  # noqa: F401 - registration side effects
    sl001_unseeded_random,
    sl002_synopsis_contract,
    sl003_mutable_defaults,
    sl004_wall_clock,
    sl005_swallowed_exceptions,
    sl006_registry_drift,
    sl007_shared_globals,
    sl008_unshippable_state,
    sl009_unmergeable_state,
    sl010_blocking_hot_loop,
    sl011_nondeterministic_state,
    sl012_label_cardinality,
    sl013_pickled_hot_path,
    sl015_async_blocking,
    sl016_split_contract,
)

__all__ = [
    "sl001_unseeded_random",
    "sl002_synopsis_contract",
    "sl003_mutable_defaults",
    "sl004_wall_clock",
    "sl005_swallowed_exceptions",
    "sl006_registry_drift",
    "sl007_shared_globals",
    "sl008_unshippable_state",
    "sl009_unmergeable_state",
    "sl010_blocking_hot_loop",
    "sl011_nondeterministic_state",
    "sl012_label_cardinality",
    "sl013_pickled_hot_path",
    "sl015_async_blocking",
    "sl016_split_contract",
]

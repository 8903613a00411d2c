"""Every concrete synopsis in the library is constructible by name.

The registry is how configuration-driven systems (the pipeline DSL, the
Lambda speed layer, benchmark sweeps) build synopses, and it is also the
coverage list of the registry-wide suites: batch equivalence, split
round-trips, spawn-boundary shipping and capture aliasing only see a
synopsis that is registered. This test walks every ``repro`` module (as
``test_documentation`` does) and requires each concrete ``SynopsisBase``
subclass to be the type of some registered synopsis, unless it is named
in ``NOT_REGISTERED`` with a reason.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import repro
from repro.common.mergeable import SynopsisBase

from tests.core.test_batch_equivalence import SPEC, _build

#: Concrete synopses deliberately kept out of the registry, by qualified
#: name, each with the reason it is not constructible by name.
NOT_REGISTERED: dict[str, str] = {}


def _concrete_synopses() -> dict[str, type]:
    found: dict[str, type] = {}
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if (
                inspect.isclass(obj)
                and issubclass(obj, SynopsisBase)
                and obj is not SynopsisBase
                and not inspect.isabstract(obj)
            ):
                found[f"{obj.__module__}.{obj.__qualname__}"] = obj
    return found


def test_every_concrete_synopsis_is_registered():
    registered = {type(_build(name)) for name in SPEC}
    missing = sorted(
        name
        for name, cls in _concrete_synopses().items()
        if cls not in registered and name not in NOT_REGISTERED
    )
    assert not missing, f"concrete synopses missing from core/registry: {missing}"

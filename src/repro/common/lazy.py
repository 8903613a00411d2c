"""Package names that load their submodule on first use (PEP 562).

A package ``__init__`` that re-exports from every submodule makes any
``import pkg.sub`` pay for all of them: importing the serving demo used
to load the asyncio HTTP server, and ``from repro.cluster import
leaked_segments`` the whole coordinator. :func:`lazy_exports` keeps the
package's public names while deferring each submodule to the first
attribute that needs it.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable


def lazy_exports(
    namespace: dict[str, Any], exports: dict[str, tuple[str, ...]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for a package's *namespace* (its ``globals()``).

    *exports* maps a submodule's full name to the public names it
    defines. The first access to a name imports its submodule and caches
    the value in *namespace*, so later lookups are plain global reads.
    """
    module_of = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = module_of.get(name)
        if module is None:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(module_of))

    return __getattr__, __dir__

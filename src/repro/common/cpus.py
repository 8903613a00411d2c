"""How many CPU cores this process may actually run on."""

from __future__ import annotations

import os


def available_cpu_count() -> int:
    """CPU cores *this process* may use, not just the machine's.

    A 64-core host pinned to 2 cores by cgroups/affinity behaves like a
    2-core machine, and ``os.cpu_count()`` happily reports 64. The
    scheduler affinity mask is the answer on Linux; elsewhere fall back to
    the machine count. The bench ``env`` stamp reads this function.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1

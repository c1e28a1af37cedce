"""The map over independent surrounding searches.

Every search runs in this process.  The function stays a module of its own
only because the benchmark tracer (``perfbench/tracing.py``) rebinds
``parallel_map`` to count the searches as ``jobs.parallel_map_calls`` and
``jobs.tasks``; once that binding goes, the map belongs inline in ``wang``.
"""

from __future__ import annotations

from typing import Callable, Iterable


def parallel_map(fn: Callable, items: Iterable) -> list:
    """``[fn(item) for item in items]``."""
    return [fn(item) for item in items]

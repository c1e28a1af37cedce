"""Optional process pool for independent searches.

The job count is an argument, 1 (no pool) unless a caller passes more.
Every use site is a map over independent instances whose results are
merged into order-independent sets, so the answer never depends on the
job count.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable


def parallel_map(fn: Callable, items: Iterable, jobs: int = 1) -> list:
    """``[fn(item) for item in items]``, in at most ``jobs`` worker processes.

    No more workers start than there are items or CPUs.
    """
    if jobs < 1:
        raise ValueError(f"job count must be at least 1, got {jobs}")
    items = list(items)
    workers = min(jobs, len(items), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(item) for item in items]
    # imported here: the import costs tens of milliseconds and about 1 MB
    # of resident memory, which a run without a pool need not pay
    from multiprocessing import Pool

    with Pool(workers) as pool:
        return pool.map(fn, items)

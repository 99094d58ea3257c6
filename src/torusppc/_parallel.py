"""The one thread pool of the package: two counting kernels, the energy
bands and the Monte Carlo batches of verify-eq0, map over their work items
here, on one thread per usable core.  numpy releases the GIL in the large
sorts, gathers and ufuncs those items spend their time in."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def usable_cores() -> int:
    """Cores this process may run on: its CPU affinity, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def ordered_map(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    """[fn(item) for item in items], run on one thread per usable core.

    Items are pulled from the iterable on the calling thread, each handed to
    the pool as soon as it is pulled, so a generator may compute later items
    while earlier ones run.  Results come back in item order whatever order
    they finish in; the first failing item's exception is re-raised.
    """
    with ThreadPoolExecutor(max_workers=usable_cores()) as pool:
        return list(pool.map(fn, items))

"""The process's one pool of threads, sized from its CPU affinity mask.

`_thread_map` spreads a list of independent items over one thread per core
in the mask, the caller included, and returns their results in input order.
`networks` runs its per-input forwards and sub-tapes on it, `cli features`
its per-clip extraction; `threads()` also caps `cv`'s worker processes and
is recorded in each run manifest. With fewer than two items or cores, and in
a forked child (a `cv` worker process), the map runs serially on the calling
thread.
"""

import os
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np


def _affinity_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


_threads = _affinity_cores()
_pool = None  # ThreadPoolExecutor of _threads - 1 helpers, made on first use


def _serial_after_fork():
    # The child inherits the pool object but none of its threads; its
    # parallelism is the process pool that forked it.
    global _threads, _pool
    _threads, _pool = 1, None


os.register_at_fork(after_in_child=_serial_after_fork)


def threads() -> int:
    """Threads that share per-item work in this process."""
    return _threads


def _thread_map(fn, items) -> list:
    """[fn(item) for item in items], in input order, with the items split
    into contiguous shares: the caller runs the first, helper threads the
    rest. A failure raises the error of the first failing item in input
    order, once every share has stopped. Helpers run under the caller's
    numpy error state (`np.geterr()`), which threads do not inherit. `fn`
    must not call `_thread_map` itself."""
    global _pool
    items = list(items)
    n = min(_threads, len(items))
    if n < 2:
        return [fn(item) for item in items]
    if _pool is None:
        _pool = ThreadPoolExecutor(_threads - 1, thread_name_prefix="sedmtl")
    bounds = [len(items) * k // n for k in range(n + 1)]
    shares = [items[a:b] for a, b in zip(bounds, bounds[1:])]
    err = np.geterr()

    def run(share):
        with np.errstate(**err):
            return [fn(item) for item in share]

    helpers = [_pool.submit(run, share) for share in shares[1:]]
    try:
        results = [fn(item) for item in shares[0]]
    finally:
        wait(helpers)
    for helper in helpers:
        results += helper.result()
    return results

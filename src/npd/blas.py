"""How many threads one BLAS call may use, and when evaluate may add a thread.

OpenBLAS, OpenMP and MKL read their thread-count variables once, when numpy
is first imported; setting them later changes nothing in this process. The
npd command (npd.__main__) sets any of them the environment leaves unset to
1 before it imports numpy, so every BLAS call runs on one thread, and
evaluate runs a second batch on the other core instead (see
worker_allowed). That is faster only where the host gives the second thread
a core of its own, which a 2-core virtual host does not always do (see
npd.evaluation). This module imports neither numpy nor any other npd module.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_one_thread() -> None:
    """Set each of THREAD_VARS that the environment leaves unset to 1. A
    value the user exported is kept. Has effect only before numpy is
    imported."""
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")


def worker_allowed() -> bool:
    """Whether evaluate may run batches on a second thread beside the caller:
    the process may use at least 2 cores, and all of THREAD_VARS read "1".

    Under OpenBLAS's default of a thread per core, two overlapping batches
    contend for the cores and run slower than one batch at a time. The
    variables are read from os.environ at each call, but BLAS took its
    thread count from them when numpy was imported, so a program that sets
    them must do so before its first numpy import. Where the platform cannot
    say which cores the process may use (no os.sched_getaffinity, as on
    macOS), there is no worker.
    """
    return (hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2
            and all(os.environ.get(var) == "1" for var in THREAD_VARS))

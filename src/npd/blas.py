"""How many threads one BLAS call may use.

OpenBLAS, OpenMP and MKL read their thread-count variables once, when numpy
is first imported; setting them later changes nothing in this process. The
npd command (npd.__main__) sets any of them the environment leaves unset to
1 before it imports numpy, so every BLAS call runs on one thread. The
processes that `npd ablate --jobs` spawns inherit the variables, so each job
runs one BLAS thread and the jobs do not contend for the same cores. What
the pin does to the speed of a single process is not measured by the
benchmark, which pins BLAS in its own process. This module imports neither
numpy nor any other npd module.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_one_thread() -> None:
    """Set each of THREAD_VARS that the environment leaves unset to 1."""
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")

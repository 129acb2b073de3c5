"""The npd command, run as ``npd`` or ``python -m npd``.

Before npd.cli, and with it numpy, is imported, blas.pin_one_thread sets
each BLAS thread-count variable the environment leaves unset to 1, so every
BLAS call runs on one thread. evaluate then runs a second batch on the other
core (see blas.worker_allowed), which beats OpenBLAS's own threads on one
batch at a time where the second thread gets a core of its own; on a host
where it does not, it gains little (see npd.evaluation). A value the user
exported is kept. Importing npd.cli sets none of them.
"""

import sys

from .blas import pin_one_thread

pin_one_thread()

from .cli import main  # noqa: E402  (numpy reads the variables when first imported)

if __name__ == "__main__":
    sys.exit(main())

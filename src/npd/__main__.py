"""The npd command, run as ``npd`` or ``python -m npd``.

Before npd.cli, and with it numpy, is imported, blas.pin_one_thread sets
each BLAS thread-count variable the environment leaves unset to 1, so every
BLAS call runs on one thread. The pin is kept for `npd ablate --jobs`: each
job process inherits it and runs one BLAS thread, so the jobs do not
oversubscribe the cores. Its effect on the speed of one process is not
measured (see npd.blas). A value the user exported is kept. Importing
npd.cli sets none of them.
"""

import sys

from .blas import pin_one_thread

pin_one_thread()

from .cli import main  # noqa: E402  (numpy reads the variables when first imported)

if __name__ == "__main__":
    sys.exit(main())

"""The npd command, run as ``npd`` or ``python -m npd``.

blas.pin_one_thread runs before npd.cli, and with it numpy, is imported;
npd.blas says why. Importing npd.cli pins nothing.
"""

import sys

from .blas import pin_one_thread

pin_one_thread()

from .cli import main  # noqa: E402  (numpy reads the variables when first imported)

if __name__ == "__main__":
    sys.exit(main())

"""`python -m transfer_kernel`: the `transfer-kernel` command (see `cli`)."""

import sys

from .cli import main

if __name__ == "__main__":  # not when a package walk imports this module
    sys.exit(main())

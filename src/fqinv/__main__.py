"""`python -m fqinv`: the same command line as the `fqinv` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

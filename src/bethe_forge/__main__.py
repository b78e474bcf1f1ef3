"""``python -m bethe_forge``: the bethe-forge command line, runnable from a
checkout without installing the package."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

"""``python -m nhfields``: the scenario runner of :mod:`nhfields.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

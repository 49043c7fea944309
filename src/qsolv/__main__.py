"""Entry point for ``python -m qsolv CMD ...``; same as the qsolv command."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

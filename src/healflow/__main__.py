"""Run the command-line interface as ``python -m healflow``."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())

"""``python -m phasebound``: the command-line interface of phasebound.cli."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())

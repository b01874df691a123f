"""python -m lilbound: the command-line interface (see lilbound.cli)."""

from .cli import main

if __name__ == "__main__":
    main()

"""``python -m fktrees``: the fktrees command line."""

from .cli import main

if __name__ == "__main__":
    main()

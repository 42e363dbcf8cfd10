"""``python -m detlam``: the same entry point as the ``detlam`` command."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())

"""``python -m supermono``: the supermono command line."""

from .cli import main

if __name__ == "__main__":
    main()

"""``python -m fermibox``: the ``fermibox`` command line."""

from .cli import main

if __name__ == "__main__":
    main()

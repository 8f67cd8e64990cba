import gc
import os
import sys
from typing import NoReturn

from .cli import main


def run() -> NoReturn:
    """Entry of `python -m ordkit` and the `ordkit` script: freezes the heap that
    start-up leaves, runs main and, once stdout and stderr are flushed, leaves by
    os._exit (`--output` is closed and no atexit handler is set: no teardown)."""
    gc.freeze()
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    finally:  # a flush that fails again after a failed report write: exit anyway
        os._exit(code)


if __name__ == "__main__":
    run()

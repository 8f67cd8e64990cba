import gc

from .cli import main


def run() -> int:
    """Entry of `python -m ordkit` and the `ordkit` script: freezes the heap
    start-up leaves, so no collection, at exit either, walks it again."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    raise SystemExit(run())

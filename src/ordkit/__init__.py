"""ordkit: computing with left orderings and circular orderings on groups."""

__version__ = "0.1.0"

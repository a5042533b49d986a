"""Names of the removed variable-dropping heuristic that only
``perfbench/tracing.py`` binds; the solver never calls them."""


def scan_and_drop(*args, **kwargs):
    """Removed; only ``perfbench/tracing.py`` reads this name."""
    raise NotImplementedError("the solver does not drop variables")


def verify_dropped(*args, **kwargs):
    """Removed; only ``perfbench/tracing.py`` reads this name."""
    raise NotImplementedError("the solver does not drop variables")

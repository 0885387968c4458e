"""Exception types shared across the package, each a ``ValueError``."""


class DegeneracyError(ValueError):
    """Variance is zero (or numerically zero); studentization is undefined."""


class NotConnectedError(ValueError):
    """Motif adjacency does not describe a connected graph."""


class CostCapError(ValueError):
    """Operation would exceed its cost cap, raised instead of running for
    hours; the message names the keyword argument that raises the cap."""


class DegenerateReplicatesError(DegeneracyError):
    """Too many sampled replicates had zero variance: ``n_dropped`` of ``n_total``."""

    def __init__(self, message: str, n_dropped: int, n_total: int):
        super().__init__(message)
        self.n_dropped = n_dropped
        self.n_total = n_total

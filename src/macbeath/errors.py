"""Exception types shared across the package."""


class Error(Exception):
    """Base class for all domain errors raised by this package."""

    code = "error"


class Inadmissible(Error):
    """The requested (m, n, p) combination is outside the supported domain."""

    code = "inadmissible"


class BadReduction(Error):
    """A defining polynomial is not squarefree mod p (p divides its discriminant)."""

    code = "bad-reduction"


class IntegrityError(Error):
    """An internal cross-check failed; indicates a bug, not a caller error."""

    code = "integrity"


class WorkerError(Error):
    """A worker process ended without sending back its results."""

    code = "worker"

"""Exception types shared across the package."""


class OvermomentsError(Exception):
    """Base class for all package-specific errors."""


class OversizeRequest(OvermomentsError):
    """A resource guard tripped before the work began: an enumeration
    budget, a series truncation or order cap, or a circle-method N cap."""


class OutOfRange(OvermomentsError):
    """Requested index lies outside the computed table or series range."""


class NonConvergent(OvermomentsError):
    """Numeric evaluation requested outside the domain of convergence."""


class QuadratureFailure(OvermomentsError):
    """A quadrature hit its size cap before reaching the requested tolerance."""

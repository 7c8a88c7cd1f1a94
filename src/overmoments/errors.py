"""Exception types shared across the package."""


class OvermomentsError(Exception):
    """Base class for all package-specific errors."""


class OversizeRequest(OvermomentsError):
    """A resource guard tripped before the work began: an enumeration
    budget, a series truncation or order cap, a circle-method N cap, or the
    guard-bit cap of 1/theta_4 near |q| = 1."""


class OutOfRange(OvermomentsError):
    """Requested index lies outside the computed table or series range."""


class NonConvergent(OvermomentsError):
    """Numeric evaluation requested outside the domain of convergence."""


class QuadratureFailure(OvermomentsError):
    """A quadrature hit its size cap before reaching the requested tolerance."""

"""Exact and asymptotic positive crank/rank moments of overpartitions.

Exact layer: big-integer q-series (`series`), one entry point for every
exact moment series (`genfunc.moment_series`), a combinatorial enumeration
oracle (`combinat`) and the moments read off its tables (`moments`).  Numeric
layer: asymptotic constants and residual checks (`asympt`) and circle-method
coefficient recovery (`circle`).  The paper's checks are the suites of
`checks`; the `cli` module drives batch jobs and runs those suites.
"""

from .combinat import (
    Overpartition,
    build_table,
    enumerate_overpartitions,
    rank,
    residual_crank_weights,
)
from .errors import (
    NonConvergent,
    OutOfRange,
    OversizeRequest,
    OvermomentsError,
    QuadratureFailure,
)
from .genfunc import crank_two_variable, moment_series, rank_two_variable
from .moments import ospt, positive_moment, symmetrized_positive_moment
from .series import StatTable, overpartition_gf

__version__ = "0.1.0"

__all__ = [
    "Overpartition",
    "StatTable",
    "build_table",
    "enumerate_overpartitions",
    "rank",
    "residual_crank_weights",
    "overpartition_gf",
    "moment_series",
    "crank_two_variable",
    "rank_two_variable",
    "ospt",
    "positive_moment",
    "symmetrized_positive_moment",
    "OvermomentsError",
    "OversizeRequest",
    "OutOfRange",
    "NonConvergent",
    "QuadratureFailure",
]

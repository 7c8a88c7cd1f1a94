"""Exact and asymptotic positive crank/rank moments of overpartitions.

Exact layer: big-integer q-series (`series`, `genfunc`), a combinatorial
enumeration oracle (`combinat`), and moment algebra (`moments`).  Numeric
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
from .genfunc import (
    crank_binomial_series,
    crank_two_variable,
    rank_binomial_series,
    rank_two_variable,
)
from .moments import (
    ospt,
    ospt_values,
    positive_moment,
    positive_moment_values,
    symmetrized_positive_moment,
    symmetrized_moment_values,
)
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
    "crank_binomial_series",
    "crank_two_variable",
    "rank_binomial_series",
    "rank_two_variable",
    "ospt",
    "ospt_values",
    "positive_moment",
    "positive_moment_values",
    "symmetrized_positive_moment",
    "symmetrized_moment_values",
    "OvermomentsError",
    "OversizeRequest",
    "OutOfRange",
    "NonConvergent",
    "QuadratureFailure",
]

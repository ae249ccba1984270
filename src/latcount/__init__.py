"""latcount: exact counting and enumeration of finite-index sublattices of Z^n.

The count f_n(m) of index-m sublattices of an n-dimensional lattice is
computed by four independent exact methods (an ordered-factorization sum, a
divisor recursion, two closed-form products, and Dirichlet-series coefficient
extraction), the sublattice bases themselves are enumerated as normal-form
matrices, and the q-binomial identities tying the methods together are
verified mechanically.  Everything is arbitrary-precision integer arithmetic;
nothing here ever rounds.
"""

from .arith import (
    DEFAULT_TRIAL_DIVISION_BOUND,
    divisors,
    factorize,
    is_prime,
    ordered_factorization_count,
    ordered_factorizations,
)
from .core import (
    CapacityError,
    CountResult,
    DiscrepancyError,
    ExactnessError,
    Method,
    UsageError,
)
from .count import (
    count_all_methods,
    count_by_factorization_sum,
    count_by_gruber,
    count_by_recursion,
    count_table,
    run_count,
)
from .hnf import (
    DEFAULT_ENUMERATION_CAP,
    HnfMatrix,
    count_by_enumeration,
    enumerate_hnf,
    enumerate_lines,
    validate_hnf,
)
from .qcalc import (
    QPolynomial,
    format_qpolynomial,
    gauss_binomial,
    gauss_binomial_at,
)
from .series import (
    TSeries,
    count_by_dirichlet,
    dirichlet_coefficients,
    euler_factor,
    geometric_factor,
    lhs_product,
    rhs_sum,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "CountResult",
    "DEFAULT_ENUMERATION_CAP",
    "DEFAULT_TRIAL_DIVISION_BOUND",
    "DiscrepancyError",
    "ExactnessError",
    "HnfMatrix",
    "Method",
    "QPolynomial",
    "TSeries",
    "UsageError",
    "count_all_methods",
    "count_by_dirichlet",
    "count_by_enumeration",
    "count_by_factorization_sum",
    "count_by_gruber",
    "count_by_recursion",
    "count_table",
    "dirichlet_coefficients",
    "divisors",
    "enumerate_hnf",
    "enumerate_lines",
    "euler_factor",
    "factorize",
    "format_qpolynomial",
    "gauss_binomial",
    "gauss_binomial_at",
    "geometric_factor",
    "is_prime",
    "lhs_product",
    "ordered_factorization_count",
    "ordered_factorizations",
    "rhs_sum",
    "run_count",
    "validate_hnf",
]

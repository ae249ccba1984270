"""Shared result types and errors used by every counting backend."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class CapacityError(RuntimeError):
    """A computation exceeded one of its configured resource bounds.

    Raised when trial division would have to search past its bound, when
    an enumeration would yield more matrices than its cap, or when a
    Dirichlet limit is above its cap.  Never raised for malformed input;
    those get ValueError.
    """


class ExactnessError(RuntimeError):
    """An exact computation failed one of its own checks.

    Raised when a division that the theory says is exact leaves a remainder,
    or when two routes to the same number disagree.  This always signals a
    bug; it is never raised for malformed input.
    """


class DiscrepancyError(ExactnessError):
    """Two counting methods disagreed on the same (n, m).

    This always signals a bug somewhere: the methods are provably equal.
    ``results`` carries every (method, value) pair for diagnosis.
    """

    def __init__(self, n, m, results):
        self.n = n
        self.m = m
        self.results = list(results)
        detail = ", ".join(f"{method}={value}" for method, value in self.results)
        super().__init__(f"methods disagree for n={n}, m={m}: {detail}")


def check_args(n: int, m: int | None = None) -> None:
    """Reject a dimension n, or an index m when given, below 1 with ValueError."""
    if n < 1:
        raise ValueError(f"dimension n must be >= 1, got {n}")
    if m is not None and m < 1:
        raise ValueError(f"index m must be >= 1, got {m}")


class Method(str, Enum):
    """The five ways of computing the sublattice count."""

    FACTORIZATION_SUM = "factorization-sum"
    RECURSION = "recursion"
    GRUBER = "gruber"
    DIRICHLET = "dirichlet"
    HNF = "hnf"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class CountResult:
    """The value of one counting method, with optional work diagnostics."""

    value: int
    method: Method
    work_stats: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if self.value < 1:
            raise ValueError(f"count must be >= 1, got {self.value}")

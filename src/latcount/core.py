"""Shared result types and errors used by every counting backend.

`CountResult` is written out by hand, with `__slots__`, rather than as a
frozen dataclass: the `dataclasses` module imports `inspect`, and with it
`ast`, `dis` and `tokenize`.  Those imports and the decorator's own work were
more than half of `import latcount.cli`, and every CLI command is a fresh
process that pays for them.
"""

from __future__ import annotations

from enum import Enum


class CapacityError(RuntimeError):
    """A computation exceeded one of its configured resource bounds.

    Raised when trial division would have to search past its bound, when
    an enumeration would yield more matrices than its cap, or when a
    Dirichlet limit is above its cap.  Never raised for malformed input;
    those get ValueError.
    """


class UsageError(ValueError):
    """The caller's input is invalid: the CLI's exit code 2.

    Raised for an argument out of range, a non-prime where a prime is
    required, or a malformed setting in the environment.  Any other
    ValueError that escapes is a bug, not bad input.
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
    """Reject a dimension n, or an index m when given, below 1 with UsageError."""
    if n < 1:
        raise UsageError(f"dimension n must be >= 1, got {n}")
    if m is not None and m < 1:
        raise UsageError(f"index m must be >= 1, got {m}")


class Method(str, Enum):
    """The five ways of computing the sublattice count."""

    FACTORIZATION_SUM = "factorization-sum"
    RECURSION = "recursion"
    GRUBER = "gruber"
    DIRICHLET = "dirichlet"
    HNF = "hnf"

    def __str__(self) -> str:
        return self.value


class CountResult:
    """The value of one counting method, with optional work diagnostics.

    Immutable.  Equality and hashing use (value, method) and ignore
    work_stats, which defaults to a fresh empty dict per instance.
    """

    __slots__ = ("value", "method", "work_stats")
    __match_args__ = ("value", "method", "work_stats")

    def __init__(self, value: int, method: Method, work_stats: dict | None = None):
        if value < 1:
            raise ValueError(f"count must be >= 1, got {value}")
        _set_value(self, value)
        _set_method(self, method)
        _set_work_stats(self, {} if work_stats is None else work_stats)

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(value={self.value!r}, method={self.method!r}, "
            f"work_stats={self.work_stats!r})"
        )

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.value, self.method) == (other.value, other.method)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.value, self.method))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), (self.value, self.method, self.work_stats)


_set_value = CountResult.value.__set__
_set_method = CountResult.method.__set__
_set_work_stats = CountResult.work_stats.__set__

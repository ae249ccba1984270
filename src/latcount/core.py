"""Shared result types, errors, argument checks and the one tree walk.

Every bad argument to the package raises `UsageError`, most through
`check_at_least`, and every size predicted above its limit raises
`CapacityError` through `check_budget`: every time in nanoseconds against
the one limit MAX_PREDICTED_NS, and every memory in bytes against the one
limit MAX_PREDICTED_BYTES.

`Record`, the base of `CountResult` and `latcount.hnf.HnfMatrix`, is
written out by hand with `__slots__` rather than as a frozen dataclass: the
`dataclasses` module imports `inspect`, and with it `ast`, `dis` and
`tokenize`.  Those imports and the decorator's own work were more than half
of `import latcount.cli`, and every CLI command is a fresh process that
pays for them.

`walk` yields the leaves of a tree given one children function per level.
Both products the package enumerates are such trees: the ordered
factorizations of m (`latcount.arith`), a prefix of parts per node, and the
normal-form bases of one diagonal (`latcount.hnf`), a prefix of rows or of
entry text per node.  It holds one open iterator per level and never
recurses, so a tree thousands of levels deep leaves the Python stack as it
found it.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from enum import Enum
from operator import attrgetter


class CapacityError(RuntimeError):
    """A computation exceeded one of its configured resource bounds.

    Every size predicted before the work starts is refused by `check_budget`.
    Time is predicted in nanoseconds and held to one limit,
    MAX_PREDICTED_NS: the walk of a factorization-sum count and the levels
    of its sweep, the recursion's grid and its sweep, Gruber's products and
    the Gruber sweep, the q-Pascal grid of `gauss_binomial` and the grids
    `rhs_sum` and the symmetry sweep make, the products of `lhs_product`,
    the Dirichlet convolutions, and an Euler factor with its printing.
    Memory is predicted in bytes and held to one limit,
    MAX_PREDICTED_BYTES: the last q-Pascal row of `gauss_binomial`, the
    monomials of `geometric_factor`, the series of `rhs_sum`, the largest
    pair of the symmetry sweep, the Dirichlet lists, the prefixes of both
    HNF streams, the divisor list of a `DivisorIndex`, the recursion's
    values and a sweep's divisor table.  One more limit is Python's: the
    digits of `enumerate_lines`'s m (sys.get_int_max_str_digits()).
    Besides those, it is raised when trial division would have to search
    past its bound or its running budget, and when an enumeration would
    yield, or has yielded, more matrices than its cap.  Never raised for
    malformed input; those get UsageError.
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


def check_at_least(value: int, low: int, name: str) -> None:
    """Reject a value below low with a UsageError that names it."""
    if value < low:
        raise UsageError(f"{name} must be >= {low}, got {value}")


def check_args(n: int, m: int | None = None) -> None:
    """Reject a dimension n, or an index m when given, below 1 with UsageError."""
    check_at_least(n, 1, "dimension n")
    if m is not None:
        check_at_least(m, 1, "index m")


def int_text(x: int) -> str:
    """x in decimal, or its size in bits if it has more digits than str() may write.

    A message that names a number the caller passed, or one derived from it,
    writes it through this, so that the message itself never raises.
    """
    try:
        return str(x)
    except ValueError:
        return f"a number of {x.bit_length()} bits"


# The longest any computation is predicted to take, in nanoseconds.  Each time
# model states its cost per unit of work as integer literals, fitted on a
# 2-vCPU VM by `tools/budget_edges.py --measure` so that the last input admitted
# in each of its families runs in 1-2.6 s there.
MAX_PREDICTED_NS = 2 * 10**9

# The most memory any computation is predicted to hold, in bytes.  Each byte
# model states its cost per object as integer literals, checked under
# tracemalloc by `tools/budget_edges.py --measure` so that the last input
# admitted in each of its families peaks at half to all of its prediction.
MAX_PREDICTED_BYTES = 10**8


def int_bytes(bits: int) -> int:
    """The most bytes an int of at most bits bits holds: none below 2^8, which Python caches.

    Above, 24 bytes and 4 per 30-bit digit, rounded up to 16 by the allocator.
    """
    return 0 if bits <= 8 else 40 + 4 * (bits // 30)


def power_bits(bits: int, e: int) -> int:
    """The bits of m^e, e >= 0, read from below from m's bits: 1 at m = 1, exact at powers of 2."""
    return e * (bits - 1) + 1


def check_budget(predicted: int, limit: int, work: str) -> None:
    """Refuse work predicted above its limit with a CapacityError, before any of it is done.

    work describes the work with {} where the prediction goes; the message
    is work filled in, then the limit.
    """
    if predicted > limit:
        raise CapacityError(f"{work.format(predicted)}, above the limit {limit}")


def walk(root, levels: Sequence[Callable[[object], Iterator]]) -> Iterator:
    """Yield the leaves under root, depth first, each node's children in order.

    levels[k](node) returns an iterator over the children of a node at depth
    k, the root being at depth 0, and the children of the last level are the
    leaves.  No inner node may be None.  One open iterator is held per level
    and no call nests, so the Python stack does not grow with the depth.
    """
    *inner, last = levels
    iterators: list[Iterator] = []
    node = root
    while True:
        depth = len(iterators)
        if depth < len(inner):
            iterators.append(inner[depth](node))
        else:
            yield from last(node)
        while iterators:
            node = next(iterators[-1], None)
            if node is not None:
                break
            iterators.pop()
        else:
            return


class Method(str, Enum):
    """The five ways of computing the sublattice count."""

    FACTORIZATION_SUM = "factorization-sum"
    RECURSION = "recursion"
    GRUBER = "gruber"
    DIRICHLET = "dirichlet"
    HNF = "hnf"

    def __str__(self) -> str:
        return self.value

    @classmethod
    def _missing_(cls, value):
        raise UsageError(f"{value!r} is not a valid {cls.__qualname__}")


class Record:
    """An immutable record over __slots__.

    A subclass names its fields, in constructor order, in __match_args__, and
    sets _key to an attrgetter of those that equality and hashing use.  Its
    __init__ stores each slot through the slot's descriptor.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)


class CountResult(Record):
    """The value of one counting method, with optional work diagnostics.

    Immutable.  Equality and hashing use (value, method) and ignore
    work_stats, which defaults to a fresh empty dict per instance.
    """

    __slots__ = ("value", "method", "work_stats")
    __match_args__ = ("value", "method", "work_stats")
    _key = attrgetter("value", "method")

    def __init__(self, value: int, method: Method, work_stats: dict | None = None):
        if value < 1:
            raise ValueError(f"count must be >= 1, got {value}")
        _set_value(self, value)
        _set_method(self, method)
        _set_work_stats(self, {} if work_stats is None else work_stats)


_set_value = CountResult.value.__set__
_set_method = CountResult.method.__set__
_set_work_stats = CountResult.work_stats.__set__

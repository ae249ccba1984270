"""Explicit sublattice bases: lower-triangular normal-form matrices.

A sublattice of index m in Z^n has exactly one basis matrix (r_ij) that is
lower triangular with

    r_ij = 0            for i < j,
    r_ii > r_ij >= 0    for j < i,
    r_11 * ... * r_nn = m,

so counting those matrices counts sublattices, and enumerating them lists
every sublattice once.  Enumeration order is deterministic: diagonals in
lexicographic order, then a row-major odometer over the entries below the
diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod
from typing import Iterator

from .arith import ordered_factorizations
from .core import CapacityError, CountResult, Method, check_args

DEFAULT_ENUMERATION_CAP = 10**6


@dataclass(frozen=True)
class HnfMatrix:
    """An n-by-n integer matrix in sublattice normal form, rows stored row-major."""

    n: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(tuple(row) for row in self.rows))
        if self.n < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n}")
        if len(self.rows) != self.n or any(len(row) != self.n for row in self.rows):
            raise ValueError(f"need a {self.n}x{self.n} matrix, got {self.rows!r}")

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.rows[i][i] for i in range(self.n))

    def determinant(self) -> int:
        """Product of the diagonal (the matrix is triangular)."""
        return prod(self.diagonal)

    def to_line(self) -> str:
        """Serialize as semicolon-separated rows of comma-separated entries."""
        return ";".join(",".join(str(entry) for entry in row) for row in self.rows)

    @classmethod
    def from_line(cls, line: str) -> "HnfMatrix":
        rows = tuple(
            tuple(int(entry) for entry in row.split(",")) for row in line.strip().split(";")
        )
        return cls(len(rows), rows)


def validate_hnf(matrix: HnfMatrix, m: int) -> bool:
    """True iff the matrix satisfies all normal-form conditions with determinant m."""
    n = matrix.n
    rows = matrix.rows
    for i in range(n):
        if rows[i][i] < 1:
            return False
        for j in range(i + 1, n):
            if rows[i][j] != 0:
                return False
        for j in range(i):
            if not rows[i][i] > rows[i][j] >= 0:
                return False
    return matrix.determinant() == m


def enumerate_hnf(n: int, m: int) -> Iterator[HnfMatrix]:
    """Yield every normal-form matrix of dimension n and determinant m, once.

    Order is lexicographic in (diagonal tuple, then row-major sub-diagonal
    entries).  The stream is lazy: f_n(m) matrices come out in total, so the
    caller is responsible for bounding consumption.
    """
    check_args(n, m)
    for diagonal in ordered_factorizations(m, n):
        # one range per sub-diagonal slot, in row-major order
        slot_bounds = []
        for i in range(n):
            for j in range(i):
                slot_bounds.append(diagonal[i])
        for fill in product(*(range(bound) for bound in slot_bounds)):
            rows = []
            pos = 0
            for i in range(n):
                row = list(fill[pos : pos + i]) + [diagonal[i]] + [0] * (n - i - 1)
                pos += i
                rows.append(tuple(row))
            yield HnfMatrix(n, tuple(rows))


def count_by_enumeration(n: int, m: int, cap: int = DEFAULT_ENUMERATION_CAP) -> CountResult:
    """Count sublattices by exhausting the enumeration stream.

    The output size *is* the answer, so a cap is mandatory; exceeding it
    raises CapacityError carrying the cap and the partial count.
    """
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    count = 0
    for _ in enumerate_hnf(n, m):
        count += 1
        if count > cap:
            raise CapacityError(
                f"enumeration of (n={n}, m={m}) exceeded cap {cap}; "
                f"stopped after {count} matrices"
            )
    return CountResult(count, Method.HNF, work_stats={"matrices": count})

"""Explicit sublattice bases: lower-triangular normal-form matrices.

A sublattice of index m in Z^n has exactly one basis matrix (r_ij) that is
lower triangular with

    r_ij = 0            for i < j,
    r_ii > r_ij >= 0    for j < i,
    r_11 * ... * r_nn = m,

so counting those matrices counts sublattices, and enumerating them lists
every sublattice once.  Enumeration order is deterministic: diagonals in
lexicographic order, then the entries below the diagonal, row-major with
the last fastest.

The bases of one diagonal are the leaves of one `latcount.core.walk`, the
same stack-free walk that yields the diagonals.  A node is a prefix, and a
level's children are the prefix plus each of the level's pieces.  The walk
is lazy.  Per diagonal it holds one open iterator and one prefix per level
(a row for matrices, a sub-diagonal entry for text lines), so O(n^2) of
each, plus each level's pieces: the values 0 .. d-1 of an entry
bounded by d, listed once per diagonal when d <= LISTED_BOUND and made again
on every pass otherwise.  Memory therefore grows neither with the d^(n-1)
matrices of a diagonal nor with m.  Outputs share the prefix of earlier
levels: the text of a row is made once per prefix of earlier rows, and each
further line costs one concatenation.
"""

from __future__ import annotations

from itertools import chain, islice, repeat
from math import prod
from operator import attrgetter
from typing import Callable, Iterator

from .arith import ordered_factorizations
from .core import CapacityError, CountResult, Method, Record, UsageError, check_at_least, walk

DEFAULT_ENUMERATION_CAP = 10**6

# A level with at most this many entries keeps their pieces in a list, made
# once per diagonal; a larger level makes them again on every pass.  Listing
# makes a text line 2-3x cheaper and cut the enumerate-stream benchmark's wall
# time by about 18% (Python 3.11, 2-vCPU VM).  The bound caps its memory: a
# list of 4096 pieces holds about 0.25 MB, one of 65536 would hold 4 MB, a
# quarter of the peak RSS of an enumerate run.
LISTED_BOUND = 4096


class HnfMatrix(Record):
    """An n-by-n integer matrix in sublattice normal form, rows stored row-major.

    Immutable; equal and hashed by (n, rows).
    """

    __slots__ = ("n", "rows")
    __match_args__ = ("n", "rows")
    _key = attrgetter("n", "rows")

    def __init__(self, n: int, rows: tuple[tuple[int, ...], ...]):
        rows = tuple(tuple(row) for row in rows)
        check_at_least(n, 1, "dimension")
        if len(rows) != n or any(len(row) != n for row in rows):
            raise UsageError(f"need a {n}x{n} matrix, got {rows!r}")
        _set_n(self, n)
        _set_rows(self, rows)

    @classmethod
    def _trusted(cls, n: int, rows: tuple[tuple[int, ...], ...]) -> "HnfMatrix":
        """Build without the checks in __init__, from rows already in shape."""
        # Every enumerated matrix comes through here: the slots are stored
        # through their descriptors, skipping __init__ and __setattr__.
        matrix = object.__new__(cls)
        _set_n(matrix, n)
        _set_rows(matrix, rows)
        return matrix

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


_set_n = HnfMatrix.n.__set__
_set_rows = HnfMatrix.rows.__set__


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


Level = Callable[[object], Iterator]


def _entry_level(bound: int, piece: Callable[[int], object]) -> Level:
    """The level whose children of a prefix are prefix + piece(a) for a = 0 .. bound-1."""
    if bound <= LISTED_BOUND:
        pieces = list(map(piece, range(bound)))
        return lambda prefix: map(prefix.__add__, pieces)
    return lambda prefix: map(prefix.__add__, map(piece, range(bound)))


def _row_levels(diagonal: tuple[int, ...]) -> list[Level]:
    """One level per row, a node being the tuple of the rows above."""
    n = len(diagonal)
    first = ((diagonal[0],) + (0,) * (n - 1),)
    levels = [_entry_level(1, lambda _: first)]
    for i in range(1, n):
        d = diagonal[i]
        tail = (d,) + (0,) * (n - 1 - i)
        entries = [_entry_level(d, lambda a: (a,))] * (i - 1)
        entries.append(_entry_level(d, lambda a, tail=tail: (a,) + tail))
        # zip over one iterator wraps each row in a 1-tuple
        levels.append(lambda rows, entries=entries: map(rows.__add__, zip(walk((), entries))))
    return levels


def _text_levels(diagonal: tuple[int, ...]) -> list[Level]:
    """One level per sub-diagonal entry, a node being the text so far, separators included."""
    n = len(diagonal)
    first = f"{diagonal[0]}" + ",0" * (n - 1)
    levels = [_entry_level(1, lambda _: first)]
    for i in range(1, n):
        d = diagonal[i]
        tail = f",{d}" + ",0" * (n - 1 - i)
        formats = [";{}"] + [",{}"] * (i - 1)
        formats[-1] += tail
        levels.extend(_entry_level(d, text.format) for text in formats)
    return levels


def _stream(n: int, m: int, root, levels: Callable[[tuple[int, ...]], list[Level]]) -> Iterator:
    """The leaves of every diagonal's walk from root, diagonals in lexicographic order."""
    # ordered_factorizations checks n and m here, when the generator expression is made.
    return chain.from_iterable(
        walk(root, levels(diagonal)) for diagonal in ordered_factorizations(m, n)
    )


def enumerate_hnf(n: int, m: int) -> Iterator[HnfMatrix]:
    """Yield every normal-form matrix of dimension n and determinant m, once.

    Order is lexicographic in (diagonal tuple, then row-major sub-diagonal
    entries).  The stream is lazy: f_n(m) matrices come out in total, so the
    caller is responsible for bounding consumption.
    """
    return map(HnfMatrix._trusted, repeat(n), _stream(n, m, (), _row_levels))


def enumerate_lines(n: int, m: int) -> Iterator[str]:
    """Yield ``mx.to_line()`` for each ``mx`` of ``enumerate_hnf(n, m)``, in the same order.

    The lines are built as text straight from the walk, with no matrix
    in between, and the stream is as lazy as ``enumerate_hnf``.
    """
    return _stream(n, m, "", _text_levels)


def count_by_enumeration(n: int, m: int, cap: int = DEFAULT_ENUMERATION_CAP) -> CountResult:
    """Count sublattices by exhausting the enumeration stream.

    The output size *is* the answer, so a cap is mandatory; exceeding it
    raises CapacityError carrying the cap and the partial count.
    """
    check_at_least(cap, 1, "cap")
    count = sum(1 for _ in islice(enumerate_hnf(n, m), cap + 1))
    if count > cap:
        raise CapacityError(
            f"enumeration of (n={n}, m={m}) exceeded cap {cap}; "
            f"stopped after {count} matrices"
        )
    return CountResult(count, Method.HNF, work_stats={"matrices": count})

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

The odometer is lazy.  Per diagonal it holds one open iterator and one
prefix per level (a row for matrices, a sub-diagonal entry for text lines),
so O(n^2) of each, plus each level's pieces: the values 0 .. d-1 of an entry
bounded by d, listed once per diagonal when d <= LISTED_BOUND and made again
on every pass otherwise.  Memory therefore grows neither with the d^(n-1)
matrices of a diagonal nor with m.  Outputs share the prefix of earlier
levels: the text of a row is made once per prefix of earlier rows, and each
further line costs one concatenation.

HnfMatrix is written out by hand with __slots__, not as a frozen dataclass,
for the reason given in latcount.core: the dataclasses module would load
inspect on every CLI start.  Slots also make each enumerated matrix smaller.
"""

from __future__ import annotations

from functools import partial
from itertools import chain, islice, repeat
from math import prod
from typing import Callable, Iterator

from .arith import ordered_factorizations
from .core import CapacityError, CountResult, Method, check_args

DEFAULT_ENUMERATION_CAP = 10**6

# A level with at most this many entries keeps their pieces in a list, made
# once per diagonal; a larger level makes them again on every pass.  Listing
# makes a text line 2-3x cheaper and cut the enumerate-stream benchmark's wall
# time by about 18% (Python 3.11, 2-vCPU VM).  The bound caps its memory: a
# list of 4096 pieces holds about 0.25 MB, one of 65536 would hold 4 MB, a
# quarter of the peak RSS of an enumerate run.
LISTED_BOUND = 4096


class HnfMatrix:
    """An n-by-n integer matrix in sublattice normal form, rows stored row-major.

    Immutable; equal and hashed by (n, rows).
    """

    __slots__ = ("n", "rows")
    __match_args__ = ("n", "rows")

    def __init__(self, n: int, rows: tuple[tuple[int, ...], ...]):
        rows = tuple(tuple(row) for row in rows)
        if n < 1:
            raise ValueError(f"dimension must be >= 1, got {n}")
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ValueError(f"need a {n}x{n} matrix, got {rows!r}")
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

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(n={self.n!r}, rows={self.rows!r})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.n, self.rows) == (other.n, other.rows)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), (self.n, self.rows)

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


Level = Callable[[], Iterator]


def _odometer(start, levels: list[Level]) -> Iterator:
    """Yield start + p_0 + p_1 + ... for each choice of p_k from levels[k], the last fastest.

    Each level is a function returning a fresh iterator over its pieces,
    none of them None.  Only one iterator and one prefix per level are held.
    """
    *outer, last = levels
    prefixes = [start]
    iterators: list[Iterator] = []
    while True:
        depth = len(iterators)
        if depth < len(outer):
            iterators.append(outer[depth]())
        else:
            yield from map(prefixes[depth].__add__, last())
        while iterators:
            piece = next(iterators[-1], None)
            if piece is not None:
                break
            iterators.pop()
        else:
            return
        del prefixes[len(iterators) :]
        prefixes.append(prefixes[-1] + piece)


def _entry_level(bound: int, piece: Callable[[int], object]) -> Level:
    """The level whose pieces are piece(a) for a = 0 .. bound-1."""
    if bound <= LISTED_BOUND:
        return list(map(piece, range(bound))).__iter__
    return partial(map, piece, range(bound))


def _row_levels(diagonal: tuple[int, ...]) -> list[Level]:
    """One level per row, each piece a 1-tuple holding the row."""
    n = len(diagonal)
    levels = [[((diagonal[0],) + (0,) * (n - 1),)].__iter__]
    for i in range(1, n):
        d = diagonal[i]
        tail = (d,) + (0,) * (n - 1 - i)
        entries = [_entry_level(d, lambda a: (a,))] * (i - 1)
        entries.append(_entry_level(d, lambda a, tail=tail: (a,) + tail))
        # zip over one iterator wraps each row in a 1-tuple
        levels.append(lambda entries=entries: zip(_odometer((), entries)))
    return levels


def _text_levels(diagonal: tuple[int, ...]) -> list[Level]:
    """One level per sub-diagonal entry, its pieces the entry's text with the separators."""
    n = len(diagonal)
    levels = [[f"{diagonal[0]}" + ",0" * (n - 1)].__iter__]
    for i in range(1, n):
        d = diagonal[i]
        tail = f",{d}" + ",0" * (n - 1 - i)
        formats = [";{}"] + [",{}"] * (i - 1)
        formats[-1] += tail
        levels.extend(_entry_level(d, text.format) for text in formats)
    return levels


def _stream(n: int, m: int, start, levels: Callable[[tuple[int, ...]], list[Level]]) -> Iterator:
    """The odometer's output over every diagonal of (n, m), diagonals in lexicographic order."""
    check_args(n, m)
    return chain.from_iterable(
        _odometer(start, levels(diagonal)) for diagonal in ordered_factorizations(m, n)
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

    The lines are built as text straight from the odometer, with no matrix
    in between, and the stream is as lazy as ``enumerate_hnf``.
    """
    return _stream(n, m, "", _text_levels)


def count_by_enumeration(n: int, m: int, cap: int = DEFAULT_ENUMERATION_CAP) -> CountResult:
    """Count sublattices by exhausting the enumeration stream.

    The output size *is* the answer, so a cap is mandatory; exceeding it
    raises CapacityError carrying the cap and the partial count.
    """
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    count = sum(1 for _ in islice(enumerate_hnf(n, m), cap + 1))
    if count > cap:
        raise CapacityError(
            f"enumeration of (n={n}, m={m}) exceeded cap {cap}; "
            f"stopped after {count} matrices"
        )
    return CountResult(count, Method.HNF, work_stats={"matrices": count})

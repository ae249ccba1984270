"""The number of index-m sublattices of Z^n, by four independent routes.

All four methods compute the same multiplicative function:

  * factorization sum  -- fold d_1^0 d_2^1 ... d_n^(n-1) over the ordered
    factorizations d_1 ... d_n = m;
  * recursion          -- f_n(m) = sum over d | m of d * f_(n-1)(d), with
    f_1 identically 1;
  * Gruber products    -- two closed-form products over the prime
    factorization of m, evaluated with checked exact divisions;
  * Dirichlet          -- coefficient extraction from the zeta-factor
    convolution (lives in latcount.series).

They are provably equal, so `count_all_methods` treats any disagreement as
an internal bug and raises DiscrepancyError, and `first_disagreement`,
behind `verify`, returns the first (n, m) where their tables disagree.  A
single count returns a `CountResult` with its work counters; a sweep,
`count_table`, yields plain ints and carries no counters.

Each method's sweep yields its tables level by level, f_n(1 .. M) for
n = 1, 2, ...: `first_disagreement` reads every level of one sweep per
method, and `count_table` reads the n-th, so each method has one loop;
factorization-sum and Gruber make the n-th level alone for it.
Factorization-sum, Gruber and Dirichlet each have one body, which a
single count, both sweeps and `count_all_methods` all reach.
Factorization-sum takes the divisor lattice as an argument: a
`DivisorIndex` of m for one count, one divisor table, shared by every
level, for a sweep.  It walks the tuples in one loop over a list of
pending prefixes, at most (n - 3) * tau(m) of them for n >= 4, so no call
depth grows with n, and no two prefixes are merged; the last three parts
of a tuple multiply to the quotient q their prefix leaves, so they are
added as q^(n-3) times fold(q) = sum over c | q of c * sigma(c).  fold(q)
depends on q alone, so it is made once per q and read by lookup: lazily
from the `DivisorIndex` in a single count, for every q <= M from the
divisor table in a sweep, whose levels 2 and 3 are sigma and fold.  Only
the three-part fold is kept; no f_k for k > 3 is, since that would be the
recursion's memo, and the method reads no push or grid of the recursion.
Only a single count counts the tuples; a sweep's body counts nothing.  A
single count predicts its walk's cost from the factorization and refuses
above MAX_FACTORIZATION_SUM_CELLS before the first prefix.  A sweep predicts its
levels' cost from D_k(M), the k-tuples with product <= M, counted with no
factorization, and refuses above MAX_FACTORIZATION_SUM_SWEEP_CELLS, and a
divisor table above MAX_DIVISOR_TABLE_POINTERS, before the table is made;
no sweep falls back to a `DivisorIndex` per m.  A Gruber sweep runs the
body of a single count once per prime power p^r <= max_m and level, and
multiplies: each other m, split as p^r * rest by its least prime p, takes
the product of two values already made.  It finds p by one trial loop per
m, under the bound read once per sweep, keeps the split for every level,
and hands each prime power's body the factorization ((p, r),) from that
split, so no prime power is factored again; it reads no divisor list.
The body predicts the cost of its products from the factorization and
refuses above MAX_GRUBER_SQUARED_BITS before the first, and checks both
product forms and every division, in a sweep as in a single count.  The
recursion has two loops over the same recurrence, which cross-check each
other.  A single count holds m's divisors as the grid of
their exponent vectors, one list in mixed-radix order, and makes each
level as one prefix sum per prime axis, in slice updates, so no divisor
has a list of its own divisors and no `DivisorIndex` is read; its values
and levels are predicted from the factorization and refused before the
first level.  A sweep turns each level round: every d adds d * f_(k-1)(d)
into its multiples as one slice update, so it reads no divisor list, and
neither `factorize` nor the divisor table; its cells above
MAX_RECURSION_CELLS are refused before the first level.
`count_all_methods` asks every prediction that needs only the
factorization, through the same private check each method calls, before
Gruber's products.  One rule, `left_out_methods`, decides which methods
it skips, and the same rule refuses an over-cap enumeration.
"""

from __future__ import annotations

from itertools import accumulate, islice, repeat
from math import isqrt, prod
from operator import add, attrgetter, floordiv, mul, sub
from typing import Iterator, Sequence

from .arith import MAX_DIVISOR_CELLS, DivisorIndex, _check_divisor_list, _divisor_table
from .arith import _divisor_table_size, _least_prime, _tuple_count, factorize, trial_division_bound
from .core import CapacityError, CountResult, DiscrepancyError, ExactnessError, Method, check_args
from .core import check_budget, int_text
from .hnf import DEFAULT_ENUMERATION_CAP, count_by_enumeration
from .series import MAX_DIRICHLET_CELLS, MAX_DIRICHLET_LIMIT, _dirichlet_cells
from .series import _dirichlet_levels, count_by_dirichlet

__all__ = [
    "CountResult",
    "Method",
    "count_all_methods",
    "count_by_factorization_sum",
    "count_by_gruber",
    "count_by_recursion",
    "count_table",
    "first_disagreement",
    "run_count",
]


def count_by_factorization_sum(n: int, m: int) -> CountResult:
    """Sum d_1^0 d_2^1 ... d_n^(n-1) over all ordered factorizations of m.

    The tuples are read from one `DivisorIndex` of m.  `_check_factorization_sum`
    refuses its list and the walk's cost before either is made.
    """
    check_args(n, m)
    _check_factorization_sum(n, factorize(m), m.bit_length())
    work_stats = {}
    value = _factorization_sum(n, m, DivisorIndex(m), work_stats)
    return CountResult(value, Method.FACTORIZATION_SUM, work_stats=work_stats)


# The most cells a factorization-sum single count may cost, by
# _factorization_sum_cells.  On a 2-vCPU VM (7, 720720), 9.8 * 10**7 cells,
# takes 0.57 s, and (8, 720720), which ran 10.9 s, is refused, as is
# (5, 2**40 * 3**10), which ran 2.5 s.  The cells model a walk that summed
# each quotient's fold once per prefix, which took 1.4-1.7 s at (7, 720720),
# so where prefixes share quotients they over-predict: a cell takes about
# 6 ns there, against 15-25 ns at (14080, 2), a walk of single parts (0.22 s).
MAX_FACTORIZATION_SUM_CELLS = 10**8


def _factorization_sum_cells(n: int, factors: Sequence[tuple[int, int]], bits: int) -> int:
    """The cost of count_by_factorization_sum(n, m), from m's factorization and bits.

    Each of the T_n = ordered_factorization_count(m, n) tuples is a cell.
    For n >= 3 the index fills at most one entry per 3-part tuple, each
    filtered from a parent's list in Python at about 8 cells, and each
    prefix costs about 128 cells of Python steps; the prefixes popped are
    about T_(n-2).  The sum is counted 1 + b // 512 times, b being the bits
    of m^(n-1), which bounds the weights.
    """
    cells = _tuple_count(factors, n)
    if n >= 3:
        cells += 8 * _tuple_count(factors, 3) + 128 * _tuple_count(factors, n - 2)
    return cells * (1 + (n - 1) * bits // 512)


def _check_factorization_sum(n: int, factors: Sequence[tuple[int, int]], bits: int) -> None:
    """Refuse count_by_factorization_sum(n, m), from m's factorization and bits.

    m's divisor list is refused as `DivisorIndex` refuses it, and then the
    walk's cost above MAX_FACTORIZATION_SUM_CELLS.
    """
    _check_divisor_list(factors, bits)
    tuples = _tuple_count(factors, n)
    work = f"the {tuples} {n}-part factorizations of an m of {bits} bits would cost {{}} cells"
    check_budget(_factorization_sum_cells(n, factors, bits), MAX_FACTORIZATION_SUM_CELLS, work)


def _exponents(n: int) -> list[Iterator[int]]:
    """repeat(i) for i = 0 .. n - 3: each is endless, so one per exponent serves every prefix."""
    return list(map(repeat, range(n - 2)))


class _Memo(dict):
    """A dict that makes each missing key's value once, as make(key), and keeps it."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _fold(divs: Sequence[int], sigmas) -> int:
    """f_3(q) = sum over c | q of c * sigma(c), from q's divisor list divs and sigmas[c]."""
    return sum(map(mul, divs, map(sigmas.__getitem__, divs)))


def _factorization_sum(
    n: int,
    m: int,
    index: DivisorIndex | list[list[int]],
    work_stats: dict | None = None,
    exponents: Sequence[Iterator[int]] | None = None,
    folds: Sequence[int] | None = None,
) -> int:
    """f_n(m) by the factorization sum, with the divisor lists read from index.

    One loop over a list of pending prefixes d_1 ... d_i, each held as the
    quotient q still to be factored, the exponent i of the next part and the
    prefix's weight w = d_1^0 ... d_i^(i-1).  A quotient of 1 is one tuple of
    weight w; a prefix of n - 3 parts adds its last three parts as one term:
    with d * x * y = q and c = x * y, each such tuple weighs
    w * d^(n-3) x^(n-2) y^(n-1) = w * q^(n-3) * c * y, so the prefix adds
    w * q^(n-3) * fold(q), fold(q) = sum over c | q of c * sigma(c).  fold(q)
    depends on q alone, so it is read from folds, made once per q: a sweep
    passes the list of every q's fold, and otherwise each fold, and each
    sigma(c) it sums, is made from index on first use.  n = 2 adds sigma(m)
    over the pairs (m / y, y), n = 3 is fold(m) alone, and m = 1 has the one
    tuple (1, ..., 1).  For n >= 4 the list holds at most (n - 3) * tau(m)
    prefixes.  Given a work_stats dict, the tuples are counted into its
    "tuples", with the sum over c | q of tau(c) triples kept beside each
    fold; the sweeps give none and count nothing, and pass one list of
    `_exponents` for every m.
    """
    if n <= 2 or m == 1:
        divs = index[m] if n == 2 else [1]
        if work_stats is not None:
            work_stats["tuples"] = len(divs)
        return sum(divs)
    counted = work_stats is not None
    if folds is None:
        sigmas = _Memo(lambda c: sum(index[c]))
        folds = _Memo(lambda q: _fold(index[q], sigmas))
    if counted:
        # The triples with product q, one per pair y | c | q.
        triples = _Memo(lambda q: sum(map(len, map(index.__getitem__, index[q]))))
    total = 0
    tuples = 0
    last = n - 3
    if exponents is None:
        exponents = _exponents(n)
    pending = [(m, 0, 1)]
    pop = pending.pop
    push = pending.extend
    while pending:
        q, i, w = pop()
        if q == 1:
            total += w
            tuples += 1
        elif i == last:
            total += w * q**i * folds[q]
            if counted:
                tuples += triples[q]
        else:
            divs = index[q]
            # divs is sorted, so reversed(divs) is the cofactors q // d in the order of divs.
            weights = map(mul, repeat(w), map(pow, divs, exponents[i]))
            push(zip(reversed(divs), exponents[i + 1], weights))
    if counted:
        work_stats["tuples"] = tuples
    return total


def _tuple_counts(max_m: int) -> Iterator[int]:
    """D_1(max_m), D_2(max_m), ...: D_k(x) is the number of k-tuples with product <= x.

    D_1(x) = x and D_k(x) = sum over d <= x of D_(k-1)(x // d).  The d <= isqrt(x)
    are taken one by one, and the larger d by their quotient v = x // d, which
    x // v - x // (v + 1) of them share, so each x costs O(sqrt x) terms.  Every
    x reached is max_m // d for some d, so a level is held on those O(sqrt max_m)
    values alone.  The terms of every x are listed once, as (key, weight) runs
    that end at ends[i], so each level is one weighted prefix sum over them,
    made in C.  No number is factored and no divisor listed.
    """
    root = isqrt(max_m)
    xs = sorted({*map(floordiv, repeat(max_m), range(1, root + 1)), *range(1, root + 1)})
    keys, weights, ends = [], [], []
    for x in xs:
        s = isqrt(x)
        # x // 1 .. x // (s + 1); the quotients v <= x // (s + 1) belong to the d > s.
        quotients = list(map(floordiv, repeat(x), range(1, s + 2)))
        t = quotients[s]
        keys += quotients[:s]
        keys += range(1, t + 1)
        weights += repeat(1, s)
        weights += map(sub, quotients[:t], quotients[1 : t + 1])
        ends.append(len(keys))
    starts = [0, *ends[:-1]]
    values = xs
    while True:
        # xs is sorted, so max_m is its last.
        yield values[-1]
        level = dict(zip(xs, values))
        sums = list(accumulate(map(mul, weights, map(level.__getitem__, keys)), initial=0))
        values = list(map(sub, map(sums.__getitem__, ends), map(sums.__getitem__, starts)))


# A factorization-sum sweep's divisor table holds sum over m <= max_m of tau(m)
# pointers.  Above this many (max_m of about 8.7 * 10**4, about 17 MB) the
# sweep is refused, since the table is its memory.
MAX_DIVISOR_TABLE_POINTERS = 10**6

# The most cells a factorization-sum sweep's levels may cost, by
# _factorization_sum_sweep_cells.  On a 2-vCPU VM the last sweeps admitted
# take, in process: every level of (4, 69122) and (5, 18959), as verify makes
# them, 0.5-0.6 s, and the n-th alone of (4, 83644) and (5, 23173) 0.7 s, as
# table does.  The cells model a sweep that summed each quotient's fold once
# per prefix, which took 2.1-3.2 s there, so at n >= 4 they over-predict
# about 4-fold.  The n-th alone of (1100, 4), the last a test runs, and of
# (36864, 2), which pop about one prefix per part, take 1.6-1.9 s.  Without
# it, (10, 2000) ran 17.3 s.
MAX_FACTORIZATION_SUM_SWEEP_CELLS = 45 * 10**6


def _factorization_sum_sweep_cells(n_max: int, max_m: int, lowest: int) -> int:
    """The cost of levels lowest .. n_max of a factorization-sum sweep up to max_m.

    Level k costs a cell per tuple, D_k(max_m), and 16 per prefix popped,
    about D_(k-2) + D_(k-3) of them (D_0 = 1), or one call per m for k <= 2,
    each counted 1 + b // 2048 times, b being the bits of max_m^(n_max - 1),
    which bounds the values.  A level costs no less than the one below it,
    so the sum stops at the first level past MAX_FACTORIZATION_SUM_SWEEP_CELLS,
    and a level below lowest past it stands for them all: either way a
    refused sweep's cells are a lower bound.  At max_m = 1 each level is one
    call, counted as a level of 33 cells.
    """
    weight = 1 + (n_max - 1) * max_m.bit_length() // 2048
    if max_m == 1:
        return 33 * (n_max - lowest + 1) * weight
    counts = [1]
    cells = 0
    for k, count in enumerate(islice(_tuple_counts(max_m), n_max), start=1):
        counts.append(count)
        popped = counts[k - 2] + counts[k - 3] if k >= 3 else max_m
        cells = (cells if k > lowest else 0) + (count + 16 * popped) * weight
        if cells > MAX_FACTORIZATION_SUM_SWEEP_CELLS:
            break
    return cells


def _factorization_sum_table(n_max: int, max_m: int, lowest: int = 1) -> Iterator[Iterator[int]]:
    """For n = lowest .. n_max, an iterator over f_n(1) .. f_n(max_m), by _factorization_sum.

    Before the first level, the divisor table's pointers are refused above
    MAX_DIVISOR_TABLE_POINTERS, since they bound its memory, and the cells
    of the levels made above MAX_FACTORIZATION_SUM_SWEEP_CELLS.  Every level
    reads one divisor table, made at the first level, and counts no tuples;
    level 1 reads none, so a sweep of level 1 alone makes no table and
    holds no pointers.
    From the table, sigma(q) and fold(q) = sum over c | q of c * sigma(c) are
    made once for every q <= max_m, when n_max reaches them: they are levels
    2 and 3, and every higher level reads its last three parts from fold.
    Levels 1 and 4 up hold the table in their iterators and make their
    values as they are read.
    """
    pointers = _divisor_table_size(max_m) if n_max >= 2 else 0
    work = f"the factorization-sum sweep up to m={max_m} would hold {{}} divisor-table pointers"
    check_budget(pointers, MAX_DIVISOR_TABLE_POINTERS, work)
    cells = _factorization_sum_sweep_cells(n_max, max_m, lowest)
    work = f"the factorization-sum sweep up to n={n_max}, m={max_m} would cost at least {{}} cells"
    check_budget(cells, MAX_FACTORIZATION_SUM_SWEEP_CELLS, work)
    table = _divisor_table(max_m) if n_max >= 2 else None
    sigmas = list(map(sum, table)) if n_max >= 2 else None
    folds = list(map(_fold, table, repeat(sigmas))) if n_max >= 3 else None
    # m = 1 returns before its first prefix, so a sweep up to 1 makes no exponent.
    exponents = _exponents(n_max) if max_m > 1 else None

    def level(n: int) -> Iterator[int]:
        if n in (2, 3):
            return islice(sigmas if n == 2 else folds, 1, None)
        ms = range(1, max_m + 1)
        return (_factorization_sum(n, m, table, exponents=exponents, folds=folds) for m in ms)

    yield from map(level, range(lowest, n_max + 1))


# The most cells a recursion single count's levels may cost, by
# _recursion_grid_cells.  On a 2-vCPU VM a cell takes 1-11 ns at most shapes
# measured, and 26-30 ns for a grid of 2^16 values of 600 bits:
# (385, 2 * 3 * ... * 31), the last n admitted at that m, costs 299,630,592
# cells and takes 1.5-1.9 s, (60, 2**1000) 0.7-1.2 s and
# (16, 2 * 3 * ... * 53) 0.9-1.1 s.  Its one list of values is held to
# MAX_DIVISOR_CELLS as well, as DivisorIndex's list is: this budget alone
# would admit (2, 2**16800), whose values peak at 72 MB, and
# (2, 2 * 3 * ... * 71), 2.5 s and 167 MB.
MAX_RECURSION_GRID_CELLS = 3 * 10**8


def _recursion_grid_cells(n: int, factors: Sequence[tuple[int, int]], bits: int) -> int:
    """The cost of count_by_recursion(n, m)'s levels, from m's factorization and bits.

    Each of the n - 1 levels makes tau(m) products d * f(d) and at most
    tau(m) * omega(m) adds, each counted 1 + b // 512 times, b being the bits
    of m^(n-1), which bounds the values.  A product of a divisor of up to
    bits bits by a value of up to b bits counts bits * b / 2^14 more, as
    the big-int products outgrow the adds.
    """
    tau = prod(r + 1 for _, r in factors)
    b = (n - 1) * bits
    return (n - 1) * tau * ((len(factors) + 1) * (1 + b // 512) + (bits * b >> 14))


def _check_recursion_grid(n: int, factors: Sequence[tuple[int, int]], bits: int) -> None:
    """Refuse count_by_recursion(n, m)'s grid before it is made.

    m's divisor list is refused as `DivisorIndex` refuses it.  The list of
    tau(m) values of up to b bits, b being the bits of m^(n-1), each counted
    1 + b // 512 times, is refused above the same MAX_DIVISOR_CELLS, and
    the levels above MAX_RECURSION_GRID_CELLS.
    """
    _check_divisor_list(factors, bits)
    tau = prod(r + 1 for _, r in factors)
    # The messages leave m out: it may have more digits than str() allows.
    values = tau * (1 + (n - 1) * bits // 512)
    work = f"the recursion's {tau} values for n={n} at an m of {bits} bits would hold {{}} cells"
    check_budget(values, MAX_DIVISOR_CELLS, work)
    work = f"the recursion's levels for n={n} at an m of {bits} bits would cost {{}} cells"
    check_budget(_recursion_grid_cells(n, factors, bits), MAX_RECURSION_GRID_CELLS, work)


def count_by_recursion(n: int, m: int) -> CountResult:
    """Apply f_n(m) = sum_{d | m} d * f_(n-1)(d) up from the base f_1 = 1.

    A rank-1 group has exactly one subgroup of each index, hence the base
    case.  The divisors of m are its grid of exponent vectors
    0 <= e_i <= r_i, held in one list in mixed-radix order: the exponent of
    the i-th prime steps by prod_{j<i} (r_j + 1).  Each level takes
    g(d) = d * f_(k-1)(d) at every d and then, one prime at a time, adds
    every entry into the next along that prime's axis, so that entry x ends
    as the sum over d | x of g(d).  Those adds run as slice updates, in
    contiguous runs or strided slices, whichever are fewer.  No divisor
    has a list of its own divisors.  work_stats["divisor_visits"] is the
    adds, (n - 1) * sum over i of tau(m) * r_i / (r_i + 1).  The grid's
    size and its adds are checked by `_check_recursion_grid` before the
    first level.
    """
    check_args(n, m)
    factors = factorize(m)
    _check_recursion_grid(n, factors, m.bit_length())
    tau = prod(r + 1 for _, r in factors)
    divs = [1]
    # Along each axis, r adds of every run of entries into the run one step
    # on, in order of the step: as contiguous runs or strided slices,
    # whichever are fewer.  A strided run's stop may pass tau, where the
    # slice ends anyway.
    steps = []
    for p, r in factors:
        stride = len(divs)
        block = stride * (r + 1)
        if stride <= tau // block:
            runs = [(t, t + tau, block) for t in range(stride)]
        else:
            runs = [(b, b + stride, 1) for b in range(0, tau, block)]
        for shift in range(stride, block, stride):
            back = shift - stride
            for start, stop, step in runs:
                run = slice(start + shift, stop + shift, step)
                steps.append((run, slice(start + back, stop + back, step)))
        divs = [d * q for q in accumulate(repeat(p, r), mul, initial=1) for d in divs]
    values = [1] * tau
    for _ in range(n - 1):
        values = list(map(mul, divs, values))
        for run, back in steps:
            values[run] = map(add, values[run], values[back])
    visits = (n - 1) * sum(tau // (r + 1) * r for _, r in factors)
    return CountResult(values[-1], Method.RECURSION, work_stats={"divisor_visits": visits})


# The most cells a recursion sweep's slice updates may cost, weighted by bits
# as MAX_DIRICHLET_CELLS is.  On a 2-vCPU VM a cell takes 0.2-0.27 us: the
# last sweep admitted at n = 4, up to m = 224,152, took 1.8-2.0 s and peaked
# at 59 MB RSS.  (4, 86,764), the first max_m past the divisor table's
# budget, costs 3,000,027 cells, and (4, 10**6), which ran 12-15 s and
# peaked at 94 MiB, is refused.
MAX_RECURSION_CELLS = 2**23


def _recursion_cells(n: int, max_m: int) -> int:
    """The cells a recursion sweep up to (n, max_m) updates, each counted 1 + b // 512 times.

    Each level after the first scales max_m + 1 entries and then adds entry d
    into its max_m // d - 1 proper multiples, for every d: with the scaling,
    one cell per pair d * k <= max_m, plus one.  b is the bits of
    max_m^(n-1), which bounds the values, as in Dirichlet's cells.
    """
    cells = (n - 1) * (_divisor_table_size(max_m) + 1)
    return cells * (1 + (n - 1) * max_m.bit_length() // 512)


def _recursion_table(n_max: int, max_m: int) -> Iterator[Iterator[int]]:
    """For n = 1 .. n_max, an iterator over f_n(1) .. f_n(max_m), each level pushed into multiples.

    Level k starts from d * f_(k-1)(d) at every d and then, for d from
    max_m / 2 down to 1, adds entry d into every proper multiple of d, so
    that entry m ends as the sum over d | m of d * f_(k-1)(d).  Entry d is
    read before any of its own divisors write to it.  No divisor list is
    made.  Its cost above MAX_RECURSION_CELLS raises CapacityError before
    the first level.
    """
    work = f"the recursion sweep up to n={n_max}, m={max_m} would cost {{}} cells"
    check_budget(_recursion_cells(n_max, max_m), MAX_RECURSION_CELLS, work)
    values = [0] + [1] * max_m
    yield islice(values, 1, None)
    for _ in range(n_max - 1):
        values = list(map(mul, range(max_m + 1), values))
        for d in range(max_m // 2, 0, -1):
            values[2 * d :: d] = map(values[d].__add__, values[2 * d :: d])
        yield islice(values, 1, None)


# The most squared bits count_by_gruber's products may cost.  On a 2-vCPU VM
# count_by_gruber(2, 2**10000) costs 1.33 * 10**12 and takes about 1.6 s, and
# (2, 10**5000), which `count --all` runs before it refuses to list the
# divisors, costs 1.67 * 10**12 and takes about 1.1 s.  (2, 2**20000), which
# ran 9.2 s, is refused.
MAX_GRUBER_SQUARED_BITS = 2 * 10**12


def _gruber_squared_bits(n: int, factors: Sequence[tuple[int, int]]) -> int:
    """The cost of count_by_gruber(n, m)'s products, from m's factorization.

    A product form of a steps, with the other exponent b, makes at step j a
    value of about j b L bits, L = ceil(log2 p), multiplies it by a factor
    of (b + j) L bits and divides it by one of j L bits: (j b + b + j)(b + 2 j)
    L^2 squared bits.  The first form has a = r and b = n - 1, the second
    the two swapped.  Summed over j, each is this closed form.
    """

    def form(a: int, b: int) -> int:
        s1 = a * (a + 1) // 2
        s2 = s1 * (2 * a + 1) // 3
        return 2 * (b + 1) * s2 + b * (b + 3) * s1 + b * b * a

    return sum((p - 1).bit_length() ** 2 * (form(r, n - 1) + form(n - 1, r)) for p, r in factors)


def _check_gruber(n: int, factors: Sequence[tuple[int, int]], bits: int) -> None:
    """Refuse count_by_gruber(n, m) above MAX_GRUBER_SQUARED_BITS, from m's factors and bits."""
    # The message leaves m out: it may have more digits than str() allows.
    work = f"Gruber's products for n={n} at an m of {bits} bits would cost {{}} squared bits"
    check_budget(_gruber_squared_bits(n, factors), MAX_GRUBER_SQUARED_BITS, work)


def count_by_gruber(n: int, m: int) -> CountResult:
    """Evaluate both closed-form products over the prime factorization of m.

    For m = p_1^r_1 ... p_k^r_k the count is

        prod_i prod_{j=1..r_i} (p_i^(n+j-1) - 1) / (p_i^j - 1)
      = prod_i prod_{j=1..n-1} (p_i^(r_i+j) - 1) / (p_i^j - 1).

    Each running per-prime product is an integer, so the divisions are
    performed stepwise and checked; an inexact division or a mismatch
    between the two forms raises ExactnessError (an implementation bug,
    never bad input).  Their cost is predicted from the factorization, and
    above MAX_GRUBER_SQUARED_BITS raises CapacityError before the first
    product.
    """
    check_args(n, m)
    return CountResult(_gruber(n, m, factorize(m)), Method.GRUBER)


def _gruber(n: int, m: int, factors: Sequence[tuple[int, int]]) -> int:
    """count_by_gruber(n, m)'s value, from m's prime factorization, with every check."""
    _check_gruber(n, factors, m.bit_length())

    def local(form: str, p: int, s: int, top: int) -> int:
        # prod_{j=1..top} (p^(s+j) - 1) / (p^j - 1), one checked division at a time
        value = 1
        for j in range(1, top + 1):
            value, remainder = divmod(value * (p ** (s + j) - 1), p**j - 1)
            if remainder:
                raise ExactnessError(
                    f"inexact division in {form} product form at p={p}, j={j} (n={n}, m={m})"
                )
        return value

    first = second = 1
    for p, r in factors:
        first *= local("first", p, n - 1, r)
    for p, r in factors:
        second *= local("second", p, r, n - 1)

    if first != second:
        raise ExactnessError(
            f"product forms disagree for n={n}, m={m}: {first} versus {second}"
        )
    return first


def _gruber_table(n_max: int, max_m: int, lowest: int = 1) -> Iterator[Iterator[int]]:
    """For n = lowest .. n_max, an iterator over f_n(1) .. f_n(max_m), by Gruber at each prime power.

    Each m >= 2 is split as p^r * rest, p its least prime, found by one trial
    loop under the bound read once for the whole sweep; the split is found
    by the first level to reach m and kept for every other, with r beside
    p^r.  A prime power's value is the body of its single count, given
    ((p, r),) and not factored again, so its budget, both product forms and
    every checked division still run once per prime power and level; any
    other m multiplies the values of p^r and rest, both already made.
    Values come out as they are made, so a refusal at m follows every value
    before it.
    """
    limit = trial_division_bound()
    # powers[m] is the p^r of m's split, for m >= 2, and prime_powers[p^r] is ((p, r),).
    powers = [0, 1]
    prime_powers = {}

    def level(n: int) -> Iterator[int]:
        values = [0, 1]
        yield 1
        for m in range(2, max_m + 1):
            if m == len(powers):
                p = _least_prime(m, limit)
                power, r = p, 1
                while m % (power * p) == 0:
                    power, r = power * p, r + 1
                powers.append(power)
                if power == m:
                    prime_powers[m] = ((p, r),)
            power = powers[m]
            if power == m:
                values.append(_gruber(n, m, prime_powers[m]))
            else:
                values.append(values[power] * values[m // power])
            yield values[m]

    yield from map(level, range(lowest, n_max + 1))


def check_enumeration_size(n: int, m: int, advice: str = "") -> None:
    """Refuse with CapacityError an enumeration that left_out_methods leaves out.

    advice ends the error's message.  f_1(m) = 1, so n = 1 is never refused,
    and m is not factored for it.
    """
    if n > 1:
        reason = left_out_methods(n, m, count_by_gruber(n, m).value).get(Method.HNF)
        if reason:
            raise CapacityError(
                f"enumeration of (n={n}, m={int_text(m)}) {reason.removeprefix('it ')}{advice}"
            )


_DISPATCH = {
    Method.FACTORIZATION_SUM: count_by_factorization_sum,
    Method.RECURSION: count_by_recursion,
    Method.GRUBER: count_by_gruber,
    Method.DIRICHLET: count_by_dirichlet,
    Method.HNF: count_by_enumeration,
}

# Every method but enumeration, whose work is the count itself.
FORMULA_METHODS = (Method.DIRICHLET, Method.FACTORIZATION_SUM, Method.GRUBER, Method.RECURSION)


def _dirichlet_table(n_max: int, max_m: int) -> Iterator[Iterator[int]]:
    """For n = 1 .. n_max, an iterator over f_n(1) .. f_n(max_m), from `_dirichlet_levels`."""
    for values in _dirichlet_levels(n_max, max_m):
        yield islice(values, 1, None)


# Each formula method's sweep: for n = 1 .. n_max, an iterator over
# f_n(1) .. f_n(max_m), each to be read before the next is made.
_TABLES = {
    Method.DIRICHLET: _dirichlet_table,
    Method.FACTORIZATION_SUM: _factorization_sum_table,
    Method.GRUBER: _gruber_table,
    Method.RECURSION: _recursion_table,
}


def run_count(n: int, m: int, method: Method | str) -> CountResult:
    """Run the single named method, refusing an over-cap enumeration before its first matrix."""
    method = Method(method)
    if method is Method.HNF:
        check_enumeration_size(n, m)
    return _DISPATCH[method](n, m)


def count_table(n: int, max_m: int, method: Method | str) -> Iterator[int]:
    """The values f_n(1) .. f_n(max_m) of one method, in order of m, as plain ints.

    Each formula method takes its n-th level from the sweep that
    `first_disagreement` runs, so every method has one loop.
    Dirichlet fills the whole table from one convolution pass before this
    returns, and so does the recursion, one pass per level that pushes each
    d's term into its multiples, with no divisor list.
    Gruber makes its n-th level alone, in one pass over m, as the values are
    consumed: the body of a single count per prime power, on the
    factorization its split gives, and a product of two earlier values for
    any other m (see `_gruber_table`).
    Factorization-sum makes its n-th level alone from one divisor table,
    made before this returns: at n = 2 and 3 the list of sigma or of the
    fold of every m, and at any other n the body of a single count once per
    m, as the values are consumed, counting no tuples, with the table held
    by the iterator; at n = 1 it makes no table.  The level's cost is refused above
    MAX_FACTORIZATION_SUM_SWEEP_CELLS, and the table above
    MAX_DIVISOR_TABLE_POINTERS, before the table is made (see
    `_factorization_sum_table`).
    Enumeration runs once per m, as the values are consumed, but first
    checks every m's count against the default cap, so an over-cap m is
    refused before the first matrix of any.
    """
    check_args(n, max_m)
    method = Method(method)
    if method is Method.HNF:
        ms = range(1, max_m + 1)
        for m in ms:
            check_enumeration_size(n, m)
        return (count_by_enumeration(n, m).value for m in ms)
    if method in (Method.FACTORIZATION_SUM, Method.GRUBER):
        # Their levels are made apart, so the sweep makes, and is charged for, the n-th alone.
        return next(_TABLES[method](n, max_m, lowest=n))
    return next(islice(_TABLES[method](n, max_m), n - 1, None))


def first_disagreement(n_max: int, m_max: int) -> tuple[int, int, list[tuple[Method, int]]] | None:
    """The first (n, m) in n-major order where the formula methods disagree, or None.

    A disagreement comes back as (n, m, [(method, value), ...]), with the
    methods in FORMULA_METHODS order.  Each method makes its levels
    n = 1 .. n_max in one sweep, and every level is compared before the
    next is made: Dirichlet convolves one more shift into one list, the
    recursion pushes one more level into the multiples, factorization-sum
    reads one divisor table for every n, and Gruber splits each m once.
    Dirichlet's, factorization-sum's and the recursion's budgets are
    checked for every level up to n_max before their first level.
    """
    check_args(n_max, m_max)
    tables = [_TABLES[method](n_max, m_max) for method in FORMULA_METHODS]
    for n, levels in enumerate(zip(*tables), start=1):
        for m, values in enumerate(zip(*levels), start=1):
            if len(set(values)) > 1:
                return n, m, list(zip(FORMULA_METHODS, values))
    return None


def left_out_methods(n: int, m: int, count: int) -> dict[Method, str]:
    """The methods count_all_methods leaves out at (n, m), each with the reason.

    count is f_n(m), as the product formula gives it.  Dirichlet is left out
    by the two budgets of dirichlet_coefficients(n, m), so it never refuses.
    """
    left_out = {}
    cells = _dirichlet_cells(n, m)
    if m > MAX_DIRICHLET_LIMIT:
        left_out[Method.DIRICHLET] = f"m={int_text(m)} is above its limit {MAX_DIRICHLET_LIMIT}"
    elif cells > MAX_DIRICHLET_CELLS:
        left_out[Method.DIRICHLET] = (
            f"it would cost {cells} cells in its convolutions, "
            f"above the limit {MAX_DIRICHLET_CELLS}"
        )
    if count > DEFAULT_ENUMERATION_CAP:
        left_out[Method.HNF] = (
            f"it would emit {int_text(count)} matrices, "
            f"above the default cap {DEFAULT_ENUMERATION_CAP}"
        )
    return left_out


def count_all_methods(n: int, m: int) -> list[CountResult]:
    """Run every applicable method; raise DiscrepancyError unless all values agree.

    First m is factored once, and every budget that needs only the
    factorization is asked, in order: Gruber's products, m's divisor list
    and factorization-sum's walk, and the recursion's grid.  So a refusal
    comes before any method's work.  Gruber always runs, and its value
    decides which of the others left_out_methods leaves out: enumeration
    above DEFAULT_ENUMERATION_CAP matrices, Dirichlet above
    MAX_DIRICHLET_LIMIT or MAX_DIRICHLET_CELLS.
    Results come back sorted by method name so the aggregation order never
    depends on evaluation order.
    """
    check_args(n, m)
    factors = factorize(m)
    bits = m.bit_length()
    _check_gruber(n, factors, bits)
    _check_factorization_sum(n, factors, bits)
    _check_recursion_grid(n, factors, bits)
    gruber = count_by_gruber(n, m)
    left_out = left_out_methods(n, m, gruber.value)
    others = (method for method in Method if method is not Method.GRUBER and method not in left_out)
    results = [gruber, *(_DISPATCH[method](n, m) for method in others)]
    results.sort(key=attrgetter("method"))
    if len({r.value for r in results}) > 1:
        raise DiscrepancyError(n, m, [(r.method.value, r.value) for r in results])
    return results

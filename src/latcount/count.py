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
depends on q alone, so it is made once per q, before the walk, and read
by lookup: in a single count from the `DivisorIndex`, for the q > 1 that
divide m (m alone at n = 3), in a sweep for every q <= M from the divisor
table, whose levels 2 and 3 are sigma and fold.  The body takes n >= 3
and does the arithmetic alone: a single count adds n <= 2 and m = 1
itself, and its work_stats["tuples"] is T_n(m), counted from the
factorization, not by the walk.  Only the three-part fold is kept; no f_k
for k > 3 is, since that would be the recursion's memo, and the method
reads no push or grid of the recursion.

Every time budget here is a model of nanoseconds, checked against the one
limit MAX_PREDICTED_NS before the work it predicts; each model states its
costs per unit of work as integer literals, fitted by
`tools/budget_edges.py --time`.  A factorization-sum single count predicts
its walk from the factorization, and refuses before the first prefix.  A
sweep predicts its levels from D_k(M), the k-tuples with product <= M,
counted with no factorization, and refuses, and a divisor table whose
bytes are above MAX_PREDICTED_BYTES, before the table is made; no sweep
falls back to a `DivisorIndex` per m.  A Gruber sweep runs the
body of a single count once per prime power p^r <= max_m and level, and
multiplies: each other m, split as p^r * rest by its least prime p, takes
the product of two values already made.  It finds p by one trial loop per
m, under the bound read once per sweep, keeps the split for every level,
and hands each prime power's body the factorization ((p, r),) from that
split, so no prime power is factored again; it reads no divisor list.
The body predicts the time of its products from the factorization and
refuses before the first, and checks both product forms and every
division, in a sweep as in a single count; the sweep predicts its own time
from (n_max, max_m) alone, its trial loops and its prime powers' products,
and refuses before the first value.  The
recursion has two loops over the same recurrence, which cross-check each
other.  A single count holds m's divisors as the grid of
their exponent vectors, one list in mixed-radix order, and makes each
level as one prefix sum per prime axis, in slice updates, so no divisor
has a list of its own divisors and no `DivisorIndex` is read; its values
and levels are predicted from the factorization and refused before the
first level.  A sweep turns each level round: every d adds d * f_(k-1)(d)
into its multiples as one slice update, so it reads no divisor list, and
neither `factorize` nor the divisor table; its time is refused before its
list is made.
`count_all_methods` asks every prediction that needs only the
factorization, through the same private check each method calls, before
Gruber's products.  One rule, `left_out_methods`, decides which methods
it skips, and the same rule refuses an over-cap enumeration.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import accumulate, islice, repeat
from math import isqrt, prod
from operator import add, attrgetter, floordiv, mul, sub

from .arith import DivisorIndex, _check_divisor_list, _divisor_list_bytes, _divisor_table
from .arith import _divisor_table_size, _least_prime, _tuple_count, factorize, trial_division_bound
from .core import MAX_PREDICTED_BYTES, MAX_PREDICTED_NS, CapacityError, CountResult, Method
from .core import DiscrepancyError, ExactnessError, check_args, check_budget, int_text, power_bits
from .hnf import DEFAULT_ENUMERATION_CAP, _prefix_bytes, count_by_enumeration
from .qcalc import gauss_binomial_at
from .series import _dirichlet_bytes, _dirichlet_levels, _dirichlet_ns, count_by_dirichlet

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
    refuses its list and the walk's cost before either is made.  n = 1 and
    m = 1 have the one tuple (m, 1, ..., 1) of weight 1, and n = 2 adds sigma(m)
    over the pairs (m / y, y).  For n >= 3 every sigma(c), c | m, is made
    from the index, and from them the fold of each quotient the walk can
    reach: m alone at n = 3, every q > 1 dividing m above.
    work_stats["tuples"] is T_n(m), counted from the factorization.
    """
    check_args(n, m)
    factors = factorize(m)
    _check_factorization_sum(n, factors, m.bit_length())
    value = 1
    if n >= 2 and m > 1:
        index = DivisorIndex(m)
        value = sum(index[m])
        if n >= 3:
            sigmas = {c: sum(index[c]) for c in index[m]}
            folds = {q: _fold(index[q], sigmas) for q in (index[m][1:] if n > 3 else [m])}
            value = _factorization_sum(n, m, index, folds, _exponents(n))
    work_stats = {"tuples": _tuple_count(factors, n)}
    return CountResult(value, Method.FACTORIZATION_SUM, work_stats=work_stats)


def _factorization_sum_ns(n: int, factors: Sequence[tuple[int, int]], bits: int) -> int:
    """The nanoseconds count_by_factorization_sum(n, m) takes, from m's factorization and bits.

    The index fills an entry and sums a sigma for each 3-part tuple (each
    divisor at n = 2), and for n >= 4 makes as many products for the folds,
    at about 250 ns a tuple, once more for every 384 bits of m.  For n >= 4
    the walk pops T_(n-2) + T_(n-3) prefixes, T_k =
    ordered_factorization_count(m, k), each at about 400 ns, 150 ns more for
    each bit of n, as each part is raised to a power below n, and 0.9 ns
    for each bit of m^(n-1), which bounds the weights.
    """
    ns = 250 * _tuple_count(factors, min(n, 3)) * (1 + bits // 384)
    if n >= 4:
        popped = _tuple_count(factors, n - 2) + _tuple_count(factors, n - 3)
        ns += popped * (400 + 150 * n.bit_length() + 9 * power_bits(bits, n - 1) // 10)
    return ns


def _check_factorization_sum(n: int, factors: Sequence[tuple[int, int]], bits: int) -> None:
    """Refuse count_by_factorization_sum(n, m), from m's factorization and bits.

    m's divisor list is refused as `DivisorIndex` refuses it, and then the
    walk's time above MAX_PREDICTED_NS.
    """
    _check_divisor_list(factors, bits)
    tuples = _tuple_count(factors, n)
    work = f"the {tuples} {n}-part factorizations of an m of {bits} bits would take {{}} ns"
    check_budget(_factorization_sum_ns(n, factors, bits), MAX_PREDICTED_NS, work)


def _exponents(n: int) -> list[Iterator[int]]:
    """repeat(i) for i = 0 .. n - 3: each is endless, so one per exponent serves every prefix."""
    return list(map(repeat, range(n - 2)))


def _fold(divs: Sequence[int], sigmas) -> int:
    """f_3(q) = sum over c | q of c * sigma(c), from q's divisor list divs and sigmas[c]."""
    return sum(map(mul, divs, map(sigmas.__getitem__, divs)))


def _factorization_sum(n: int, m: int, index, folds, exponents: list[Iterator[int]]) -> int:
    """f_n(m) for n >= 3 by the factorization sum, with the divisor lists read from index.

    One loop over a list of pending prefixes d_1 ... d_i, each held as the
    quotient q still to be factored, the exponent i of the next part and the
    prefix's weight w = d_1^0 ... d_i^(i-1).  A quotient of 1 is one tuple of
    weight w; a prefix of n - 3 parts adds its last three parts as one term:
    with d * x * y = q and c = x * y, each such tuple weighs
    w * d^(n-3) x^(n-2) y^(n-1) = w * q^(n-3) * c * y, so the prefix adds
    w * q^(n-3) * fold(q), fold(q) = sum over c | q of c * sigma(c).  fold(q)
    depends on q alone, so it is read from folds, made once per q by the
    caller.  index[q] is q's sorted divisors and folds[q] is fold(q): in a
    single count a `DivisorIndex` of m and a dict of the q > 1 its walk
    reaches, in a sweep the divisor table and the list of every q <= M.
    exponents is `_exponents(n)`, or of a larger n, shared by every m of a
    sweep.  For n >= 4 the list holds at most (n - 3) * tau(m) prefixes.
    """
    total = 0
    last = n - 3
    pending = [(m, 0, 1)]
    pop = pending.pop
    push = pending.extend
    while pending:
        q, i, w = pop()
        if q == 1:
            total += w
        elif i == last:
            total += w * q**i * folds[q]
        else:
            divs = index[q]
            # divs is sorted, so reversed(divs) is the cofactors q // d in the order of divs.
            weights = map(mul, repeat(w), map(pow, divs, exponents[i]))
            push(zip(reversed(divs), exponents[i + 1], weights))
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


def _factorization_sum_sweep_bytes(n_max: int, max_m: int) -> int:
    """The bytes a factorization-sum sweep's divisor table holds, with sigma and the fold.

    Each of its sum over q <= max_m of tau(q) pointers is a list slot, 12
    bytes with the room a list keeps to grow; each q is a list of 88 bytes,
    its int and two of ints, sigma and the fold, 180 bytes in all.  Level 1
    alone makes no table.
    """
    return 12 * _divisor_table_size(max_m) + 180 * (max_m + 1) if n_max >= 2 else 0


def _factorization_sum_sweep_ns(n_max: int, max_m: int, lowest: int) -> int:
    """The nanoseconds levels lowest .. n_max of a factorization-sum sweep up to max_m take.

    The divisor table, with sigma and the fold of every q <= max_m, takes
    about 300 ns a pointer when a level n >= 2 is made.  Level k takes about
    500 ns per m, and for k >= 4 about 550 ns per prefix popped, D_(k-2) +
    D_(k-3) of them (D_0 = 1), D_k being the k-tuples with product <= max_m,
    and b log2(b) / 26 ns more, b being the bits of max_m^(k-1), which
    bound the weights, as their products grow faster than their bits.
    A level costs no less than the one below it, so the sum stops at the
    first level past MAX_PREDICTED_NS, and a level below lowest past it
    stands for them all: either way a refused sweep's prediction is a lower
    bound.  At max_m = 1 each level is one call, about 1000 ns.
    """
    if max_m == 1:
        return 1000 * (n_max - lowest + 1)
    table = 300 * _divisor_table_size(max_m) if n_max >= 2 else 0
    counts, ns = [1], 0
    for k, count in enumerate(islice(_tuple_counts(max_m), n_max), start=1):
        counts.append(count)
        popped = counts[k - 2] + counts[k - 3] if k >= 4 else 0
        b = power_bits(max_m.bit_length(), k - 1)
        ns = (ns if k > lowest else 0) + 500 * max_m + popped * (550 + b * b.bit_length() // 26)
        if table + ns > MAX_PREDICTED_NS:
            break
    return table + ns


def _factorization_sum_table(n_max: int, max_m: int, lowest: int = 1) -> Iterator[Iterator[int]]:
    """For n = lowest .. n_max, an iterator over f_n(1) .. f_n(max_m), by _factorization_sum.

    Before the first level, the divisor table's bytes are refused above
    MAX_PREDICTED_BYTES, and the time of the table and the levels made
    above MAX_PREDICTED_NS.  Level 1 is
    f_1 = 1, so a sweep of level 1 alone makes no table and holds no
    pointers; every other level reads one divisor table, made at the first
    level.  From the table, sigma(q) and fold(q) = sum over c | q of
    c * sigma(c) are made once for every q <= max_m, when n_max reaches
    them: they are levels 2 and 3, and every higher level reads its last
    three parts from fold, holds the table in its iterator and makes its
    values as they are read.
    """
    work = f"the factorization-sum sweep's divisor table up to m={max_m} would hold {{}} bytes"
    check_budget(_factorization_sum_sweep_bytes(n_max, max_m), MAX_PREDICTED_BYTES, work)
    work = f"the factorization-sum sweep up to n={n_max}, m={max_m} would take at least {{}} ns"
    check_budget(_factorization_sum_sweep_ns(n_max, max_m, lowest), MAX_PREDICTED_NS, work)
    table = _divisor_table(max_m) if n_max >= 2 else None
    sigmas = list(map(sum, table)) if n_max >= 2 else None
    folds = list(map(_fold, table, repeat(sigmas))) if n_max >= 3 else None
    # m = 1 pops one prefix, of quotient 1, so a sweep up to 1 makes no exponent.
    exponents = _exponents(n_max) if max_m > 1 else None

    def level(n: int) -> Iterator[int]:
        if n <= 3:
            return repeat(1, max_m) if n == 1 else islice(sigmas if n == 2 else folds, 1, None)
        return (_factorization_sum(n, m, table, folds, exponents) for m in range(1, max_m + 1))

    yield from map(level, range(lowest, n_max + 1))


def _recursion_grid_ns(n: int, factors: Sequence[tuple[int, int]], bits: int) -> int:
    """The nanoseconds count_by_recursion(n, m)'s levels take, from m's factorization and bits.

    Each of the n - 1 levels takes about 400 ns, 1000 ns a slice update, of
    which there are about as many as m's prime factors with multiplicity,
    and 70 ns for each product d * f(d) and each add, tau(m) (omega(m) + 1)
    of them, once more for every 8192 bits of m^(n-1), which bounds the
    values.  Level k's products multiply a divisor of up to bits(m) bits by
    a value of about (k - 2) bits(m), 5 ns per 8192 squared bits.
    """
    tau = prod(r + 1 for _, r in factors)
    cells = tau * (len(factors) + 1) * (8192 + power_bits(bits, n - 1)) // 8192
    level = 400 + 1000 * sum(r for _, r in factors) + 70 * cells
    return (n - 1) * level + 5 * tau * bits * bits * (n - 1) * (n - 2) // 16384


def _check_recursion_grid(n: int, factors: Sequence[tuple[int, int]], bits: int) -> None:
    """Refuse count_by_recursion(n, m)'s grid before it is made.

    m's divisor list is refused as `DivisorIndex` refuses it.  Then the
    grid's bytes: its divisors, by `_divisor_list_bytes`; two lists of
    tau(m) values while a level is made from the last, 96 bytes a value for
    the slots and two ints, f_(n-1)(d) and d f_(n-1)(d), and 1 byte per 12
    of their bits, about 2n - 2 times d's, since f_k(d) is about d^(k-1) (a
    divisor d and m/d share bits(m) + 1 bits); and 200 bytes a slice
    update.  Above MAX_PREDICTED_BYTES they are refused, and then the
    levels' time above MAX_PREDICTED_NS.
    """
    _check_divisor_list(factors, bits)
    tau = prod(r + 1 for _, r in factors)
    values = tau * (96 + (2 * n - 2) * bits // 12) + 200 * sum(r for _, r in factors)
    # The messages leave m out: it may have more digits than str() allows.
    work = f"the recursion's {tau} values for n={n} at an m of {bits} bits would hold {{}} bytes"
    check_budget(_divisor_list_bytes(factors, bits) + values, MAX_PREDICTED_BYTES, work)
    work = f"the recursion's levels for n={n} at an m of {bits} bits would take {{}} ns"
    check_budget(_recursion_grid_ns(n, factors, bits), MAX_PREDICTED_NS, work)


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


def _recursion_sweep_ns(n: int, max_m: int) -> int:
    """The nanoseconds a recursion sweep up to (n, max_m) takes.

    Its list of max_m + 1 values takes about 50 ns an entry.  Each level
    after the first takes about 2000 ns, and 190 ns for each cell it scales
    or adds, one per pair d * k <= max_m, plus one, once more for every
    16384 bits of max_m^(n-1), which bounds the values.
    """
    weight = 16384 + power_bits(max_m.bit_length(), n - 1)
    cells = (_divisor_table_size(max_m) + 1) * weight // 16384
    return 50 * max_m + (n - 1) * (2000 + 190 * cells)


def _recursion_table(n_max: int, max_m: int) -> Iterator[Iterator[int]]:
    """For n = 1 .. n_max, an iterator over f_n(1) .. f_n(max_m), each level pushed into multiples.

    Level k starts from d * f_(k-1)(d) at every d and then, for d from
    max_m / 2 down to 1, adds entry d into every proper multiple of d, so
    that entry m ends as the sum over d | m of d * f_(k-1)(d).  Entry d is
    read before any of its own divisors write to it.  No divisor list is
    made.  Its time above MAX_PREDICTED_NS raises CapacityError before the
    list is made.
    """
    work = f"the recursion sweep up to n={n_max}, m={max_m} would take {{}} ns"
    check_budget(_recursion_sweep_ns(n_max, max_m), MAX_PREDICTED_NS, work)
    values = [0] + [1] * max_m
    yield islice(values, 1, None)
    for _ in range(n_max - 1):
        values = list(map(mul, range(max_m + 1), values))
        for d in range(max_m // 2, 0, -1):
            values[2 * d :: d] = map(values[d].__add__, values[2 * d :: d])
        yield islice(values, 1, None)


def _gruber_ns(n: int, factors: Sequence[tuple[int, int]]) -> int:
    """The nanoseconds count_by_gruber(n, m)'s products take, from m's factorization.

    A product form of a steps, with the other exponent b, makes at step j a
    value of about j b L bits, L = log2 p, multiplies it by a factor of
    (b + j) L bits and divides it by one of j L bits: (j b + b + j)(b + 2 j)
    L^2 squared bits.  The first form has a = r and b = n - 1, the second
    the two swapped.  Summed over j, each is this closed form.  L is read to
    1/16 from the bits of p^16.  A squared bit takes about 1.5 ps, and each
    step 400 ns more.
    """

    def form(a: int, b: int) -> int:
        s1 = a * (a + 1) // 2
        s2 = s1 * (2 * a + 1) // 3
        return 2 * (b + 1) * s2 + b * (b + 3) * s1 + b * b * a

    return sum(
        6 * (p**16 - 1).bit_length() ** 2 * (form(r, n - 1) + form(n - 1, r)) // 2**20
        + 400 * (r + n - 1) for p, r in factors
    )


def _check_gruber(n: int, factors: Sequence[tuple[int, int]], bits: int) -> None:
    """Refuse count_by_gruber(n, m) above MAX_PREDICTED_NS, from m's factors and bits."""
    # The message leaves m out: it may have more digits than str() allows.
    work = f"Gruber's products for n={n} at an m of {bits} bits would take {{}} ns"
    check_budget(_gruber_ns(n, factors), MAX_PREDICTED_NS, work)


def count_by_gruber(n: int, m: int) -> CountResult:
    """Evaluate both closed-form products over the prime factorization of m.

    For m = p_1^r_1 ... p_k^r_k the count is

        prod_i prod_{j=1..r_i} (p_i^(n+j-1) - 1) / (p_i^j - 1)
      = prod_i prod_{j=1..n-1} (p_i^(r_i+j) - 1) / (p_i^j - 1).

    Each running per-prime product is an integer, so the divisions are
    performed stepwise and checked; an inexact division or a mismatch
    between the two forms raises ExactnessError (an implementation bug,
    never bad input).  Their time is predicted from the factorization, and
    above MAX_PREDICTED_NS raises CapacityError before the first product.
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
        raise ExactnessError(f"product forms disagree for n={n}, m={m}: {first} versus {second}")
    return first


def _gruber_sweep_ns(n_max: int, max_m: int, lowest: int) -> int:
    """The nanoseconds levels lowest .. n_max of a Gruber sweep up to max_m take, from those alone.

    Splitting each m takes about 2800 ns, and the trial loops try about
    8/30 sqrt(p) candidates for each prime p, at about 95 ns each: 25
    max_m^(3/2) / bits(max_m) ns in all.  Each level takes about 420 ns per
    m, and a single count's body at each of about 3 max_m / (2 bits(max_m))
    primes, each charged as `_gruber_ns` charges max_m.  A level costs no
    less than the one below it, so the sum stops at the first level past
    MAX_PREDICTED_NS, and the prediction of a refused sweep is a lower bound.
    """
    bits = max_m.bit_length()
    primes = 3 * max_m // (2 * bits) if max_m > 1 else 0
    ns = 2800 * max_m + 25 * max_m * isqrt(max_m) // bits
    for n in range(lowest, n_max + 1):
        ns += 420 * max_m + primes * _gruber_ns(n, ((max_m, 1),))
        if ns > MAX_PREDICTED_NS:
            break
    return ns


def _gruber_table(n_max: int, max_m: int, lowest: int = 1) -> Iterator[Iterator[int]]:
    """For n = lowest .. n_max, an iterator over f_n(1) .. f_n(max_m), by Gruber at each prime power.

    Each m >= 2 is split as p^r * rest, p its least prime, found by one trial
    loop under the bound read once for the whole sweep; the split is found
    by the first level to reach m and kept for every other, with r beside
    p^r.  A prime power's value is the body of its single count, given
    ((p, r),) and not factored again, so its budget, both product forms and
    every checked division still run once per prime power and level; any
    other m multiplies the values of p^r and rest, both already made.
    The sweep's time, predicted from n_max, max_m and lowest alone, is
    refused above MAX_PREDICTED_NS before the first value.  Values come out
    as they are made, so a refusal at m, where trial division cannot split
    it, follows every value before it.
    """
    work = f"the Gruber sweep up to n={n_max}, m={max_m} would take at least {{}} ns"
    check_budget(_gruber_sweep_ns(n_max, max_m, lowest), MAX_PREDICTED_NS, work)
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


def _enumeration_sweep_ns(n: int, max_m: int) -> int:
    """The nanoseconds an enumeration sweep up to (n, max_m) takes, from those alone.

    Each m takes about 30000 ns to factor, check and enumerate, and each
    matrix about 2200 ns more.  f_n(m) >= m^(n-1), and the sum of m^(n-1)
    over m <= M is at least M^n / n + M^(n-1) / 2, as m^(n-1) is convex; for
    n > 64 the exponent 64 gives a smaller bound, and keeps the number
    small.  So the prediction of a refused sweep is a lower bound.
    """
    k = min(n, 64)
    return 30000 * max_m + 2200 * (max_m**k // k + max_m ** (k - 1) // 2)


def check_enumeration_size(n: int, m: int, advice: str = "") -> None:
    """Refuse with CapacityError an enumeration that left_out_methods leaves out.

    advice ends the error's message.  f_1(m) = 1, so n = 1 is never refused,
    and m is not factored for it.  f_n(m) >= m^(n-1), so an m of bits(m) bits
    with (n-1)(bits(m) - 1) at least the cap's bits is refused before m is
    factored.
    """
    cap = DEFAULT_ENUMERATION_CAP
    if n > 1 and (n - 1) * (m.bit_length() - 1) >= cap.bit_length():
        reason = f"it would emit at least m^{n - 1} matrices, above the default cap {cap}"
    else:
        reason = n > 1 and left_out_methods(n, m, count_by_gruber(n, m).value).get(Method.HNF)
    if reason:
        reason = reason.removeprefix("it ")
        raise CapacityError(f"enumeration of (n={n}, m={int_text(m)}) {reason}{advice}")


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
    any other m (see `_gruber_table`), after its time is predicted.
    Factorization-sum makes its n-th level alone from one divisor table,
    made before this returns: at n = 2 and 3 the list of sigma or of the
    fold of every m, and at n >= 4 the body of a single count once per m,
    as the values are consumed, with the table held by the iterator; at
    n = 1, f_1 = 1, it makes no table.  The table's bytes are refused above
    MAX_PREDICTED_BYTES, and the level's time above MAX_PREDICTED_NS, before
    the table is made (see `_factorization_sum_table`).
    Enumeration runs once per m, as the values are consumed, but first its
    time, predicted from (n, max_m) alone, is refused above
    MAX_PREDICTED_NS, and then every m's count is checked against the
    default cap, so an over-cap m is refused before the first matrix of any.
    """
    check_args(n, max_m)
    method = Method(method)
    if method is Method.HNF:
        work = f"the enumeration sweep up to n={n}, m={max_m} would take at least {{}} ns"
        check_budget(_enumeration_sweep_ns(n, max_m), MAX_PREDICTED_NS, work)
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
    Every method's budgets are checked for every level up to n_max before
    its first level.

    Once a level agrees, the value at each prime power p^k <= m_max, in
    order, is held to the paper's bridge, f_n(p^k) = [n+k-1 choose k]_p, by
    `gauss_binomial_at`; a mismatch comes back as (n, p^k, [(method,
    value), ..., ("gauss_binomial_at", its value)]).  The primes are the
    m >= 2 whose agreed f_2(m) = sigma(m) reads m + 1, so nothing is
    factored; the bridge starts at level 2, since at level 1 it is
    [k choose k]_p = 1, which takes no step.
    """
    check_args(n_max, m_max)
    tables = [_TABLES[method](n_max, m_max) for method in FORMULA_METHODS]
    prime_powers = []
    for n, levels in enumerate(zip(*tables), start=1):
        # Whole levels are compared first, in C; only a level that differs is walked by m.
        first, *rest = levels = [list(level) for level in levels]
        if rest.count(first) < len(rest):
            m, values = next(mv for mv in enumerate(zip(*levels), 1) if len(set(mv[1])) > 1)
            return n, m, list(zip(FORMULA_METHODS, values))
        if n == 2:
            # Each prime power p^k <= m_max, as (p^k, p, k), in order: f_2(p) = p + 1.
            primes = [p for p, value in enumerate(first, start=1) if value == p + 1]
            powers = ((p**k, p, k) for p in primes for k in range(1, m_max.bit_length()))
            prime_powers = sorted(power for power in powers if power[0] <= m_max)
        for power, p, k in prime_powers:
            if (bridge := gauss_binomial_at(n + k - 1, k, p)) != first[power - 1]:
                agreed = zip(FORMULA_METHODS, repeat(first[power - 1]))
                return n, power, [*agreed, ("gauss_binomial_at", bridge)]
    return None


def left_out_methods(n: int, m: int, count: int) -> dict[Method, str]:
    """The methods count_all_methods leaves out at (n, m), each with the reason.

    count is f_n(m), as the product formula gives it.  Dirichlet is left out
    by the two budgets of dirichlet_coefficients(n, m), so it never refuses.
    Enumeration is left out above the default cap, and otherwise when the
    prefixes of its streams would hold more than MAX_PREDICTED_BYTES, which
    bounds their memory whatever the count.
    """
    left_out = {}
    nbytes, ns, prefixes = _dirichlet_bytes(n, m), _dirichlet_ns(n, m), _prefix_bytes(n, m)
    over = f", above the limit {MAX_PREDICTED_BYTES}"
    if nbytes > MAX_PREDICTED_BYTES:
        left_out[Method.DIRICHLET] = f"it would hold {nbytes} bytes in its lists{over}"
    elif ns > MAX_PREDICTED_NS:
        dirichlet = f"it would take {ns} ns in its convolutions"
        left_out[Method.DIRICHLET] = f"{dirichlet}, above the limit {MAX_PREDICTED_NS}"
    if count > DEFAULT_ENUMERATION_CAP:
        hnf = f"it would emit {int_text(count)} matrices"
        left_out[Method.HNF] = f"{hnf}, above the default cap {DEFAULT_ENUMERATION_CAP}"
    elif prefixes > MAX_PREDICTED_BYTES:
        left_out[Method.HNF] = f"it would hold up to {prefixes} bytes in its prefixes{over}"
    return left_out


def count_all_methods(n: int, m: int) -> list[CountResult]:
    """Run every applicable method; raise DiscrepancyError unless all values agree.

    First m is factored once, and every budget that needs only the
    factorization is asked, in order: Gruber's products, m's divisor list
    and factorization-sum's walk, and the recursion's grid.  So a refusal
    comes before any method's work.  Gruber always runs, and its value
    decides which of the others left_out_methods leaves out: enumeration
    above DEFAULT_ENUMERATION_CAP matrices or MAX_PREDICTED_BYTES in its
    prefixes, Dirichlet above MAX_PREDICTED_BYTES or MAX_PREDICTED_NS.
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

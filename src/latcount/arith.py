"""Exact integer arithmetic: factorization and divisor/tuple enumeration.

Everything here is deterministic trial division over Python's native
arbitrary-precision integers, done by one loop (`_least_factor`) that
`is_prime`, `factorize` and `_least_prime` call; past 2, 3 and 5 it tries
only the integers coprime to 30, 8 in every 30.  `_least_prime` serves the
Gruber sweep in `latcount.count`, which needs only each m's
least prime, under a bound it reads once; its refusal names m as
`factorize`'s does.  Inputs whose unfactored part has no prime
factor below the trial-division bound are rejected loudly (CapacityError)
instead of silently falling back to slower machinery, and so is a search
whose candidates, each charged by the bits of what it divides, would cost
more than MAX_TRIAL_CELLS.

Ordered factorizations and the factorization sum in `latcount.count` walk
the divisor lattice of m and read it from an index: index[q] is q's sorted
divisors, for every divisor q of m.  Two kinds of index back the
factorization sum, and its body is the same for both.  A single recursion
count reads no index: it holds m's divisors as a grid of exponent vectors.
`ordered_factorizations` yields the leaves of one `latcount.core.walk`: a
node is a prefix of parts and the quotient it leaves, and the last level
adds every (divisor, cofactor) pair of the quotient.  The walk holds one
open iterator per level and does not recurse, so the stack does not grow
with n.

  * For one m, a `DivisorIndex`, made per call and filled lazily from
    `divisors(m)`, whose bytes `_check_divisor_list` refuses above
    MAX_PREDICTED_BYTES before it is made, each entry filtered from a
    parent's list and holding the same int objects, so an entry costs one
    pointer per divisor.  `ordered_factorizations` makes entries in the
    order its tuples first need them, so the index never holds more
    pointers than the tuples emitted plus tau(m).  A factorization-sum
    single count at n >= 3 fills every entry, sum over c | m of tau(c) =
    T_3(m) <= T_n(m) pointers, before its walk, to make each sigma(c); at
    n = 2 it reads only the divisors of m.
  * For a factorization-sum sweep over m = 1 .. M
    (`latcount.count.count_table`, and every n of
    `latcount.count.first_disagreement`), one divisor table: a list whose entry q
    is q's divisors, made by a sieve with no trial division.  It holds sum
    over q <= M of tau(q) pointers, which `_divisor_table_size` predicts
    exactly in O(sqrt M) before the table is made, so that a sweep whose
    table's bytes are over budget is refused before it.  The recursion's
    sweep reads no index: it pushes each d's term into d's multiples.
"""

from __future__ import annotations

import os
from collections.abc import Iterator, Sequence
from functools import lru_cache
from itertools import accumulate, chain, cycle
from math import comb, isqrt, prod

from .core import MAX_PREDICTED_BYTES, CapacityError, UsageError, check_args, check_at_least
from .core import check_budget, int_text, walk

DEFAULT_TRIAL_DIVISION_BOUND = 10**7

ENV_TRIAL_DIVISION_BOUND = "LATCOUNT_TRIAL_DIVISION_BOUND"


def trial_division_bound() -> int:
    """The active trial-division bound.

    The environment variable LATCOUNT_TRIAL_DIVISION_BOUND overrides the
    built-in default of 10**7.
    """
    raw = os.environ.get(ENV_TRIAL_DIVISION_BOUND)
    if raw is None:
        return DEFAULT_TRIAL_DIVISION_BOUND
    try:
        bound = int(raw)
    except ValueError:
        raise UsageError(f"{ENV_TRIAL_DIVISION_BOUND} must be an integer, got {raw!r}") from None
    check_at_least(bound, 2, ENV_TRIAL_DIVISION_BOUND)
    return bound


# The mod-30 wheel: after 2, 3 and 5, trial divisors step through the
# residues coprime to 30, 7, 11, 13, 17, 19, 23, 29, 31, 37, ...
_WHEEL_GAPS = (4, 2, 4, 2, 4, 6, 2, 6)


def _trial_divisors() -> Iterator[int]:
    """The candidates 2, 3, 5, 7, 11, 13, 17, ..., without end."""
    return chain((2, 3, 5), accumulate(cycle(_WHEEL_GAPS), initial=7))


# The most cells one search for a least factor may cost, each candidate
# counted 1 + b // 512 times, b being the bits of x, as one `%` of x costs
# about that.  It lets an x below 512 bits reach the default bound: on a
# 2-vCPU VM the 2.7 * 10**6 candidates up to 10**7 take about 0.3 s, and no
# search passes 11,250,000, whatever the bound.  It refuses 1000003**5000,
# 99,658 bits, past about 60,000, where the search for 1000003 ran 6.7 s,
# while 2**99999 still factors at its first candidate.
MAX_TRIAL_CELLS = 3 * 10**6


def _least_factor(x: int, candidates: Iterator[int], limit: int) -> int:
    """The least prime factor of x, or x itself once d*d > x.

    candidates is a `_trial_divisors()` stream, and x has no prime factor
    among the candidates already drawn from it.  Raises CapacityError if the
    search would pass limit before reaching the square root of x.  Where it
    stops is not known before it runs, so its cost is bounded as it goes, the
    one running bound in latcount: each candidate is charged 1 + b // 512
    cells, b being the bits of x, and the search's top is lowered to where
    MAX_TRIAL_CELLS runs out, at 30 / 8 times the candidates it pays for,
    as the wheel tries 8 in every 30 integers.  A search stopped there raises
    CapacityError.
    """
    root = isqrt(x)
    weight = 1 + x.bit_length() // 512
    reach = MAX_TRIAL_CELLS // weight * 30 // 8
    top = min(root, limit, reach)
    for d in candidates:
        if d > top:
            break
        if x % d == 0:
            return d
    if d <= min(root, limit):
        raise CapacityError(
            f"trial division of {int_text(x)} past {reach} would cost more than "
            f"{MAX_TRIAL_CELLS} cells, at {weight} a candidate"
        )
    if d <= root:
        raise CapacityError(f"no prime factor of {int_text(x)} below trial-division bound {limit}")
    return x


def is_prime(p: int) -> bool:
    """Primality by trial division up to sqrt(p).

    Raises CapacityError if certifying p would need divisors past the
    trial-division bound (i.e. p > bound**2 with no small factor found).
    """
    return p >= 2 and _least_factor(p, _trial_divisors(), trial_division_bound()) == p


def factorize(m: int) -> tuple[tuple[int, int], ...]:
    """Factor m >= 1 by trial division into its (prime, exponent) pairs.

    Primes come in increasing order, each with an exponent >= 1, and 1 has
    no pairs.  The remaining cofactor is accepted once trial division has
    passed its square root (it is then certified prime).  If the cofactor's
    smallest prime factor lies beyond the bound, a CapacityError names the
    bound, and one names MAX_TRIAL_CELLS if a search for it would cost more.
    """
    check_at_least(m, 1, "m")
    try:
        return _factorize(m, trial_division_bound())
    except CapacityError as exc:
        raise CapacityError(f"cannot factor {int_text(m)}: {exc}") from None


def _least_prime(m: int, limit: int) -> int:
    """The least prime factor of m >= 2, by one trial loop up to limit.

    A caller that reads the bound once passes it as limit.  A refusal names
    m as factorize's does.
    """
    try:
        return _least_factor(m, _trial_divisors(), limit)
    except CapacityError as exc:
        raise CapacityError(f"cannot factor {int_text(m)}: {exc}") from None


# One command may factor the same m several times: enumerate, for instance,
# predicts its count, streams its lines and checks the first one.  A few
# recent results are kept so that those calls share one trial division.
@lru_cache(maxsize=16)
def _factorize(m: int, limit: int) -> tuple[tuple[int, int], ...]:
    # Each prime is the least factor of what the smaller ones leave, so one
    # stream of candidates serves them all: each search goes on past the last prime.
    factors = []
    remaining = m
    candidates = _trial_divisors()
    while remaining > 1:
        p = _least_factor(remaining, candidates, limit)
        # Divide by p, p^2, p^4, ... while each divides, then start again
        # from p with what is left: O(log(e)^2) divisions, where one power at
        # a time makes e, and for a small e hardly more than that.
        e = 0
        while remaining % p == 0:
            power, k = p, 1
            while remaining % power == 0:
                remaining //= power
                e += k
                power, k = power * power, 2 * k
        factors.append((p, e))
    return tuple(factors)


def divisors(m: int) -> list[int]:
    """All divisors of m in strictly increasing order."""
    divs = [1]
    for p, e in factorize(m):
        pk = 1
        extended = []
        for _ in range(e):
            pk *= p
            extended.extend(d * pk for d in divs)
        divs.extend(extended)
    divs.sort()
    return divs


def _divisor_table_size(max_m: int) -> int:
    """The pointers in `_divisor_table(max_m)`: sum over q <= max_m of tau(q).

    That is the number of pairs d * k <= max_m, counted by the hyperbola
    method: the pairs with d <= r plus those with k <= r, less the r * r
    pairs with both, where r = isqrt(max_m).
    """
    root = isqrt(max_m)
    return 2 * sum(max_m // d for d in range(1, root + 1)) - root * root


def _divisor_table(max_m: int) -> list[list[int]]:
    """Entry q, for 1 <= q <= max_m, is the divisors of q in increasing order.

    Entry 0 is empty.  Each d is appended to the entries of its multiples, so
    no number is factored, and every entry holding d holds the same int
    object.
    """
    table = [[] for _ in range(max_m + 1)]
    for d in range(1, max_m + 1):
        for entry in table[d::d]:
            entry.append(d)
    return table


def ordered_factorization_count(m: int, n: int) -> int:
    """How many n-tuples of positive integers multiply to m.

    Equals the product over prime exponents r of C(r + n - 1, n - 1).
    """
    check_args(n)
    return _tuple_count(factorize(m), n)


def _tuple_count(factors: Sequence[tuple[int, int]], n: int) -> int:
    """ordered_factorization_count, from m's factorization."""
    return prod(comb(e + n - 1, n - 1) for _, e in factors)


def _divisor_list_bytes(factors: Sequence[tuple[int, int]], bits: int) -> int:
    """The bytes the divisor list of an m of this factorization and size holds.

    Each of the tau(m) divisors is 18 bytes of slots, in the list and in the
    one `divisors` extends it from, and an int.  A divisor d and its
    cofactor m/d have at most bits(m) + 1 bits between them, so the ints
    average at most 41 bytes and 1 per 15 bits of m, charged per 12 bits.
    """
    return prod(e + 1 for _, e in factors) * (59 + bits // 12)


def _check_divisor_list(factors: Sequence[tuple[int, int]], bits: int) -> None:
    """Refuse the divisor list of an m of this factorization and size above MAX_PREDICTED_BYTES."""
    tau = prod(e + 1 for _, e in factors)
    # The message leaves m out: it may have more digits than str() allows.
    work = f"listing the {tau} divisors of an m of {bits} bits would hold {{}} bytes"
    check_budget(_divisor_list_bytes(factors, bits), MAX_PREDICTED_BYTES, work)


class DivisorIndex(dict):
    """Each divisor q of m mapped to q's own divisors, in increasing order.

    Only m's list is made up front, by `divisors(m)`, after its cost is
    predicted from the factorization: tau(m) = prod (r + 1) divisors, in
    bytes by `_divisor_list_bytes`.  Above MAX_PREDICTED_BYTES that raises
    CapacityError before the list is made.
    Any other entry is made on first use, by filtering the list of a parent
    q*p, where p is a prime of m and q*p divides m; a missing parent is
    filled the same way first, by a loop, so no chain of parents deepens the
    Python stack.  Every list holds the int objects of `divisors(m)`, so an
    entry costs one pointer per divisor, and the index never outgrows sum
    over d | m of tau(d) pointers.  It is kept by no one past the call that
    made it.
    """

    def __init__(self, m: int):
        factors = factorize(m)
        _check_divisor_list(factors, m.bit_length())
        super().__init__({m: divisors(m)})
        self.m = m
        self._primes = [p for p, _ in factors]

    def __missing__(self, q: int) -> list[int]:
        if q < 1 or self.m % q:
            raise KeyError(q)
        missing = []
        while q not in self:
            missing.append(q)
            cofactor = self.m // q
            q *= next(p for p in self._primes if cofactor % p == 0)
        divs = self[q]
        for q in reversed(missing):
            divs = [e for e in divs if q % e == 0]
            self[q] = divs
        return divs


def ordered_factorizations(m: int, n: int) -> Iterator[tuple[int, ...]]:
    """Yield every n-tuple (d_1, ..., d_n) with d_1 * ... * d_n = m.

    Tuples come out in lexicographic order, each exactly once.  The stream
    is lazy; consumers that only fold over it never hold more than one
    tuple at a time.  The divisors of each quotient come from one
    `DivisorIndex` of m, which fills as the quotients are reached: n = 2
    needs only the divisors of m.  n and m are checked when this is called;
    m is factored at the first tuple.
    """
    check_args(n, m)
    return _lazy_ordered_factorizations(m, n)


def _lazy_ordered_factorizations(m: int, n: int) -> Iterator[tuple[int, ...]]:
    index = DivisorIndex(m)
    if n == 1:
        yield (m,)
        return

    # A node is a prefix of parts and the quotient it leaves.
    def children(node):
        prefix, q = node
        divs = index[q]
        return zip(map(prefix.__add__, zip(divs)), reversed(divs))

    def leaves(node):
        prefix, q = node
        divs = index[q]
        return map(prefix.__add__, zip(divs, reversed(divs)))

    yield from walk(((), m), [children] * (n - 2) + [leaves])

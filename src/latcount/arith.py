"""Exact integer arithmetic: factorization and divisor/tuple enumeration.

Everything here is deterministic trial division over Python's native
arbitrary-precision integers, done by one loop (`_least_factor`) that both
`is_prime` and `factorize` call; past 2, 3 and 5 it tries only the integers
coprime to 30, 8 in every 30.  Inputs whose unfactored part has no prime
factor below the trial-division bound are rejected loudly (CapacityError)
instead of silently falling back to slower machinery.

Ordered factorizations, and the factorization sum and the recursion in
`latcount.count`, walk the divisor lattice of m and read it from an index:
index[q] is q's sorted divisors, for every divisor q of m.  Two kinds of
index back the counts, and each count's body is the same for both.
`ordered_factorizations` yields the leaves of one `latcount.core.walk`: a
node is a prefix of parts and the quotient it leaves, and the last level
adds every (divisor, cofactor) pair of the quotient.  The walk holds one
open iterator per level and does not recurse, so the stack does not grow
with n.

  * For one m, a `DivisorIndex`, made per call and filled lazily from
    `divisors(m)`, each entry filtered from a parent's list and holding the
    same int objects, so an entry costs one pointer per divisor.  Entries
    are made in the order the tuples first need them, so for n >= 3 the
    index never holds more pointers than the tuples already emitted plus
    tau(m), and for n = 2 it holds only the divisors of m.
  * For a sweep over m = 1 .. M (`latcount.count.count_table`), one divisor
    table: a list whose entry q is q's divisors, made by a sieve with no
    trial division.  It holds sum over q <= M of tau(q) pointers, which
    `_divisor_table_size` predicts exactly in O(sqrt M) before the table is
    made, so that a sweep over budget can make a `DivisorIndex` per m instead.
"""

from __future__ import annotations

import os
from functools import cached_property, lru_cache
from itertools import accumulate, chain, cycle
from math import comb, isqrt, prod
from typing import Iterator

from .core import CapacityError, UsageError, check_args, check_at_least, walk

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


def _least_factor(x: int, candidates: Iterator[int], limit: int) -> int:
    """The least prime factor of x, or x itself once d*d > x.

    candidates is a `_trial_divisors()` stream, and x has no prime factor
    among the candidates already drawn from it.  Raises CapacityError if the
    search would pass limit before reaching the square root of x.
    """
    root = isqrt(x)
    top = min(root, limit)
    for d in candidates:
        if d > top:
            break
        if x % d == 0:
            return d
    if d <= root:
        raise CapacityError(f"no prime factor of {x} below trial-division bound {limit}")
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
    bound.
    """
    check_at_least(m, 1, "m")
    try:
        return _factorize(m, trial_division_bound())
    except CapacityError as exc:
        raise CapacityError(f"cannot factor {m}: {exc}") from None


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
        e = 0
        while remaining % p == 0:
            remaining //= p
            e += 1
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
    return prod(comb(e + n - 1, n - 1) for _, e in factorize(m))


class DivisorIndex(dict):
    """Each divisor q of m mapped to q's own divisors, in increasing order.

    Only m's list is made up front, by `divisors(m)`.  Any other entry is
    made on first use, by filtering the list of a parent q*p, where p is a
    prime of m and q*p divides m; a missing parent is filled the same way
    first, by a loop, so no chain of parents deepens the Python stack.
    Every list holds the int objects of `divisors(m)`, so an entry costs one
    pointer per divisor, and the index never outgrows sum over d | m of
    tau(d) pointers.  It is kept by no one past the call that made it.
    """

    def __init__(self, m: int):
        super().__init__({m: divisors(m)})
        self.m = m

    @cached_property
    def _primes(self) -> list[int]:
        return [p for p, _ in factorize(self.m)]

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

"""Exact integer arithmetic: factorization and divisor/tuple enumeration.

Everything here is deterministic trial division over Python's native
arbitrary-precision integers, done by one loop (`_least_factor`) that both
`is_prime` and `factorize` call; past 2, 3 and 5 it tries only the integers
coprime to 30, 8 in every 30.  Inputs whose unfactored part has no prime
factor below the trial-division bound are rejected loudly (CapacityError)
instead of silently falling back to slower machinery.

Ordered factorizations and the recursion in `latcount.count` both walk the
divisor lattice of m, and both read it from one `DivisorIndex`: each
divisor q of m mapped to q's sorted divisors.  The index is made per call
and filled lazily from `divisors(m)`, each entry filtered from a parent's
list and holding the same int objects, so an entry costs one pointer per
divisor.  Entries are made in the order the tuples first need them, so
for n >= 3 the index never holds more pointers than the tuples already
emitted plus tau(m), and for n = 2 it holds only the divisors of m.
"""

from __future__ import annotations

import os
from functools import cached_property, lru_cache
from itertools import accumulate, chain, cycle
from math import comb, isqrt, prod
from typing import Iterator

from .core import CapacityError, UsageError, check_args

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
    if bound < 2:
        raise UsageError(f"{ENV_TRIAL_DIVISION_BOUND} must be >= 2, got {bound}")
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
    if m < 1:
        raise ValueError(f"cannot factor {m}: input must be a positive integer")
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
    needs only the divisors of m.
    """
    check_args(n)
    yield from _ordered_factorizations(m, n, DivisorIndex(m), ())


def _ordered_factorizations(
    q: int, n: int, index: DivisorIndex, prefix: tuple[int, ...]
) -> Iterator[tuple[int, ...]]:
    # Every tuple below this node starts with prefix, and its other n parts multiply to q.
    if n == 1:
        yield prefix + (q,)
    elif n == 2:
        for d in index[q]:
            yield prefix + (d, q // d)
    else:
        for d in index[q]:
            yield from _ordered_factorizations(q // d, n - 1, index, prefix + (d,))

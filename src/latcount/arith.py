"""Exact integer arithmetic: factorization and divisor/tuple enumeration.

Everything here is deterministic trial division over Python's native
arbitrary-precision integers.  Inputs whose unfactored part has no prime
factor below the trial-division bound are rejected loudly (CapacityError)
instead of silently falling back to slower machinery.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from math import comb, prod
from typing import Iterator, Sequence

from .core import CapacityError, check_args

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
    bound = int(raw)
    if bound < 2:
        raise ValueError(f"{ENV_TRIAL_DIVISION_BOUND} must be >= 2, got {bound}")
    return bound


@dataclass(frozen=True)
class Factorization:
    """A positive integer together with its prime factorization.

    ``factors`` lists (prime, exponent) pairs with primes strictly
    increasing and every exponent >= 1; the factorization of 1 is the
    empty list.  Construction re-checks all invariants, so a Factorization
    in hand is always trustworthy.
    """

    value: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.value < 1:
            raise ValueError(f"value must be >= 1, got {self.value}")
        object.__setattr__(self, "factors", tuple(tuple(pe) for pe in self.factors))
        previous = 1
        for p, e in self.factors:
            if p <= previous:
                raise ValueError(f"primes must be strictly increasing, got {p} after {previous}")
            if e < 1:
                raise ValueError(f"exponent for prime {p} must be >= 1, got {e}")
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            previous = p
        if prod(p**e for p, e in self.factors) != self.value:
            raise ValueError(f"factors do not multiply to {self.value}")


def is_prime(p: int, bound: int | None = None) -> bool:
    """Primality by trial division up to sqrt(p).

    Raises CapacityError if certifying p would need divisors past the
    trial-division bound (i.e. p > bound**2 with no small factor found).
    """
    if p < 2:
        return False
    limit = trial_division_bound() if bound is None else bound
    d = 2
    while d * d <= p:
        if d > limit:
            raise CapacityError(
                f"cannot certify primality of {p}: needs trial division past bound {limit}"
            )
        if p % d == 0:
            return False
        d += 1 if d == 2 else 2
    return True


def factorize(m: int, bound: int | None = None) -> Factorization:
    """Factor m >= 1 by trial division.

    The remaining cofactor is accepted once trial division has passed its
    square root (it is then certified prime).  If the cofactor's smallest
    prime factor lies beyond the bound, a CapacityError names the bound.
    """
    if m < 1:
        raise ValueError(f"cannot factor {m}: input must be a positive integer")
    return _factorize(m, trial_division_bound() if bound is None else bound)


# One command may factor the same m several times: enumerate, for instance,
# predicts its count, streams its lines and checks the first one.  A few
# recent results are kept so that those calls share one trial division.
@lru_cache(maxsize=16)
def _factorize(m: int, limit: int) -> Factorization:
    factors = []
    remaining = m
    d = 2
    while d * d <= remaining:
        if d > limit:
            raise CapacityError(
                f"cannot factor {m}: no prime factor of {remaining} below "
                f"trial-division bound {limit}"
            )
        if remaining % d == 0:
            e = 0
            while remaining % d == 0:
                remaining //= d
                e += 1
            factors.append((d, e))
        d += 1 if d == 2 else 2
    if remaining > 1:
        factors.append((remaining, 1))
    return Factorization(m, tuple(factors))


def divisors(m: int, bound: int | None = None) -> list[int]:
    """All divisors of m in strictly increasing order."""
    fact = factorize(m, bound)
    divs = [1]
    for p, e in fact.factors:
        pk = 1
        extended = []
        for _ in range(e):
            pk *= p
            extended.extend(d * pk for d in divs)
        divs.extend(extended)
    divs.sort()
    return divs


def ordered_factorization_count(m: int, n: int, bound: int | None = None) -> int:
    """How many n-tuples of positive integers multiply to m.

    Equals the product over prime exponents r of C(r + n - 1, n - 1).
    """
    check_args(n)
    fact = factorize(m, bound)
    return prod(comb(e + n - 1, n - 1) for _, e in fact.factors)


def ordered_factorizations(m: int, n: int, bound: int | None = None) -> Iterator[tuple[int, ...]]:
    """Yield every n-tuple (d_1, ..., d_n) with d_1 * ... * d_n = m.

    Tuples come out in lexicographic order, each exactly once.  The stream
    is lazy; consumers that only fold over it never hold more than one
    tuple at a time.
    """
    check_args(n)
    divs = divisors(m, bound)
    yield from _ordered_factorizations(m, n, divs)


def _ordered_factorizations(m: int, n: int, divs: Sequence[int]) -> Iterator[tuple[int, ...]]:
    # divs is the sorted divisor list of m; sub-calls filter it down, which
    # avoids re-factorizing every intermediate quotient.
    if n == 1:
        yield (m,)
        return
    for d in divs:
        q = m // d
        sub_divs = [e for e in divs if q % e == 0]
        for rest in _ordered_factorizations(q, n - 1, sub_divs):
            yield (d,) + rest

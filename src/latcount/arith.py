"""Exact integer arithmetic: factorization and divisor/tuple enumeration.

Everything here is deterministic trial division over Python's native
arbitrary-precision integers, done by one loop (`_least_factor`) that both
`is_prime` and `factorize` call.  Inputs whose unfactored part has no prime
factor below the trial-division bound are rejected loudly (CapacityError)
instead of silently falling back to slower machinery.  Each prime that
`factorize` finds is proven by that loop, so its results skip the checks
that the public `Factorization(...)` constructor makes.
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
    try:
        bound = int(raw)
    except ValueError:
        raise ValueError(f"{ENV_TRIAL_DIVISION_BOUND} must be an integer, got {raw!r}") from None
    if bound < 2:
        raise ValueError(f"{ENV_TRIAL_DIVISION_BOUND} must be >= 2, got {bound}")
    return bound


@dataclass(frozen=True)
class Factorization:
    """A positive integer together with its prime factorization.

    ``factors`` lists (prime, exponent) pairs with primes strictly
    increasing and every exponent >= 1; the factorization of 1 is the
    empty list.  Construction re-checks all invariants, so a Factorization
    in hand is always trustworthy; only `factorize`, whose primes are
    proven as they are found, builds one without them (`_trusted`).
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

    @classmethod
    def _trusted(cls, value: int, factors: tuple[tuple[int, int], ...]) -> "Factorization":
        """Build without the checks in __post_init__, from primes already proven."""
        fact = object.__new__(cls)
        object.__setattr__(fact, "value", value)
        object.__setattr__(fact, "factors", factors)
        return fact


def _least_factor(x: int, start: int, limit: int) -> int:
    """The least prime factor of x that is at least start, or x itself once d*d > x.

    x has no prime factor below start, which is 2 or odd; the trial divisors
    step 2, 3, 5, 7, ...  Raises CapacityError if the search would pass
    limit before reaching the square root of x.
    """
    d = start
    while d * d <= x:
        if d > limit:
            raise CapacityError(f"no prime factor of {x} below trial-division bound {limit}")
        if x % d == 0:
            return d
        d += 1 if d == 2 else 2
    return x


def is_prime(p: int) -> bool:
    """Primality by trial division up to sqrt(p).

    Raises CapacityError if certifying p would need divisors past the
    trial-division bound (i.e. p > bound**2 with no small factor found).
    """
    return p >= 2 and _least_factor(p, 2, trial_division_bound()) == p


def factorize(m: int) -> Factorization:
    """Factor m >= 1 by trial division.

    The remaining cofactor is accepted once trial division has passed its
    square root (it is then certified prime).  If the cofactor's smallest
    prime factor lies beyond the bound, a CapacityError names the bound.
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
def _factorize(m: int, limit: int) -> Factorization:
    # Each prime is the least factor of what the smaller ones leave: restart there.
    factors = []
    remaining, p = m, 2
    while remaining > 1:
        p = _least_factor(remaining, p, limit)
        e = 0
        while remaining % p == 0:
            remaining //= p
            e += 1
        factors.append((p, e))
    return Factorization._trusted(m, tuple(factors))


def divisors(m: int) -> list[int]:
    """All divisors of m in strictly increasing order."""
    fact = factorize(m)
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


def ordered_factorization_count(m: int, n: int) -> int:
    """How many n-tuples of positive integers multiply to m.

    Equals the product over prime exponents r of C(r + n - 1, n - 1).
    """
    check_args(n)
    fact = factorize(m)
    return prod(comb(e + n - 1, n - 1) for _, e in fact.factors)


def ordered_factorizations(m: int, n: int) -> Iterator[tuple[int, ...]]:
    """Yield every n-tuple (d_1, ..., d_n) with d_1 * ... * d_n = m.

    Tuples come out in lexicographic order, each exactly once.  The stream
    is lazy; consumers that only fold over it never hold more than one
    tuple at a time.
    """
    check_args(n)
    divs = divisors(m)
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

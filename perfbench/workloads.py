"""Seeded workload generators for the latcount benchmark.

Each workload turns a ``random.Random`` into a fixed-shape sequence of CLI
invocations.  The seed picks the parameters; the shape (how many
invocations, which subcommands and methods, in which order) is the same for
every seed, and every parameter is drawn from a band chosen so that the
cost of one sequence stays about the same from seed to seed.

The number theory needed to pick those bands (f_n(m), primality) is written
here from scratch, so the inputs never depend on the code under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Callable

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


@dataclass(frozen=True)
class Invocation:
    """One CLI call: its argv, the units of work it completes, and how to check it.

    ``check`` is a tuple whose first item names the check in ``checks.py``;
    the rest are that check's parameters.
    """

    argv: tuple[str, ...]
    units: int
    check: tuple


# The no-work invocation behind setup_s: interpreter start, `import latcount`
# and building the argparse parser, and nothing else.
SETUP = Invocation(("count", "--n", "1", "--m", "1"), 0, ("setup",))

# Three tiny invocations that between them reach every traced entry point.
# Each traced sequence starts with them, so no per-layer time is a structural
# zero on a workload that does not use that layer; they add well under 1% to
# any layer a workload does use.
PROBE = (
    Invocation(("count", "--n", "2", "--m", "12", "--all"), 0, ("count-all", 2, 12)),
    Invocation(("enumerate", "--n", "2", "--m", "4"), 0, ("enumerate", 2, 4, 7)),
    Invocation(("series", "--n", "3", "--t-order", "3"), 0, ("series", 3, 3)),
)


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str
    dominant: tuple[str, ...]
    generate: Callable[[random.Random], list[Invocation]]


def factor_small(m: int) -> dict[int, int]:
    """Prime factorization of a small m by trial division."""
    factors: dict[int, int] = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            factors[d] = factors.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        factors[m] = factors.get(m, 0) + 1
    return factors


@lru_cache(maxsize=None)
def _local_count(n: int, p: int, r: int) -> int:
    # f_n(p^r) = sum_{i=0..r} p^i f_(n-1)(p^i): the divisor recursion
    # restricted to one prime, with f_1 = 1.
    if n == 1:
        return 1
    return sum(p**i * _local_count(n - 1, p, i) for i in range(r + 1))


def sublattice_count(n: int, m: int) -> int:
    """f_n(m), the number of index-m sublattices of Z^n (multiplicative in m)."""
    total = 1
    for p, r in factor_small(m).items():
        total *= _local_count(n, p, r)
    return total


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases: exact below 3.3e24."""
    if n < 2:
        return False
    for p in SMALL_PRIMES[:12]:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in SMALL_PRIMES[:12]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def ms_in_band(n: int, low: int, high: int, m_max: int) -> list[int]:
    """Every m < m_max whose count f_n(m) lies in [low, high]."""
    return [m for m in range(1, m_max) if low <= sublattice_count(n, m) <= high]


def _squarefree(rng: random.Random, pool: int, k: int) -> int:
    value = 1
    for p in rng.sample(SMALL_PRIMES[:pool], k):
        value *= p
    return value


def _argv(*items) -> tuple[str, ...]:
    return tuple(str(item) for item in items)


# enumerate-stream: one n = 4 stream with f_4(m) in a narrow band (f_4 is
# sparse), then one n = 3 stream chosen so that the two together emit within
# 1% of 110,000 matrices.  Both shapes run on every seed, so the mix of row
# widths (and bytes per line) barely moves either.
ENUM_N4_BAND = (52_000, 59_000)
ENUM_TOTAL = 110_000
ENUM_TOTAL_TOLERANCE = 0.01


def enumerate_stream(rng: random.Random) -> list[Invocation]:
    m4 = rng.choice(ms_in_band(4, *ENUM_N4_BAND, m_max=64))
    f4 = sublattice_count(4, m4)
    slack = int(ENUM_TOTAL * ENUM_TOTAL_TOLERANCE)
    m3 = rng.choice(ms_in_band(3, ENUM_TOTAL - f4 - slack, ENUM_TOTAL - f4 + slack, m_max=400))
    f3 = sublattice_count(3, m3)
    return [
        Invocation(_argv("enumerate", "--n", n, "--m", m), f, ("enumerate", n, m, f))
        for n, m, f in ((4, m4, f4), (3, m3, f3))
    ]


# count-queries: one query per method.  Each parameter band fixes the work
# the method does (tuples, divisors, trial divisions, list length, matrices).
GRUBER_PRIME_BAND = (10**12, 10**12 + 10**10)
DIRICHLET_BAND = (98_000, 102_000)
HNF_BAND = (97_000, 103_000)


def _prime_at_least(start: int) -> int:
    p = start | 1
    while not is_probable_prime(p):
        p += 2
    return p


def count_queries(rng: random.Random) -> list[Invocation]:
    def query(method: str, n: int, m: int) -> Invocation:
        return Invocation(
            _argv("count", "--n", n, "--m", m, "--method", method), 1, ("count", method, n, m)
        )

    # 6 distinct primes and n = 7: 7^6 = 117,649 ordered factorizations.
    fs_m = _squarefree(rng, 9, 6)
    # 11 distinct primes: tau(m) = 2048 divisors, 4^11 ordered factorizations.
    rec_m = _squarefree(rng, 13, 11)
    # One prime cofactor near 10^12: trial division runs to about 10^6.
    gruber_m = rng.choice((2, 3, 6, 10, 30)) * _prime_at_least(rng.randrange(*GRUBER_PRIME_BAND))
    dirichlet_m = rng.randrange(*DIRICHLET_BAND)
    hnf_m = rng.choice(ms_in_band(3, *HNF_BAND, m_max=400))
    return [
        query("factorization-sum", 7, fs_m),
        query("recursion", 4, rec_m),
        query("gruber", 3, gruber_m),
        query("dirichlet", 3, dirichlet_m),
        query("hnf", 3, hnf_m),
    ]


# verify-sweep: two sweeps, n <= 4 and n <= 5, each over a 3% band of m_max;
# the cost is nearly linear in the number of (n, m) cases.
VERIFY_SHAPES = ((4, 985, 1_015), (5, 540, 556))
VERIFY_T_ORDERS = (8, 9, 10)


def verify_sweep(rng: random.Random) -> list[Invocation]:
    invocations = []
    for n_max, low, high in VERIFY_SHAPES:
        m_max = rng.randrange(low, high)
        t_order = rng.choice(VERIFY_T_ORDERS)
        argv = _argv("verify", "--n-max", n_max, "--m-max", m_max, "--t-order", t_order)
        invocations.append(Invocation(argv, n_max * m_max, ("verify",)))
    return invocations


# qseries: three distinct (n, t-order) pairs per sequence.  Each pair makes
# within 5% of the coefficient products of (n, K) = (17, 17) while
# multiplying out the left-hand side, and the three t-orders always add up to
# 54, so both the cost and the units of a sequence are the same on every seed.
SERIES_RANGE = range(12, 25)
SERIES_TOLERANCE = 0.05
SERIES_ORDER_SUM = 54


def lhs_coefficient_products(n: int, order: int) -> int:
    """Coefficient products made while multiplying out prod_{j<n} 1/(1 - q^j t).

    Step j multiplies the running product, whose t^i coefficient is dense of
    length i(j-1)+1, by the factor with k = j, whose t^l coefficient is the
    monomial q^(j l) stored densely with length j l + 1.
    """
    total = 0
    for j in range(1, n):
        for i in range(order + 1):
            top = order - i
            b_lengths = j * top * (top + 1) // 2 + top + 1
            total += (i * (j - 1) + 1) * b_lengths
    return total


@lru_cache(maxsize=None)
def series_triples() -> list[tuple[tuple[int, int], ...]]:
    target = lhs_coefficient_products(17, 17)
    pairs = [
        (n, order)
        for n in SERIES_RANGE
        for order in SERIES_RANGE
        if abs(lhs_coefficient_products(n, order) - target) <= SERIES_TOLERANCE * target
    ]
    return [
        triple
        for triple in combinations(pairs, 3)
        if sum(order for _, order in triple) == SERIES_ORDER_SUM
    ]


def qseries(rng: random.Random) -> list[Invocation]:
    triple = list(rng.choice(series_triples()))
    rng.shuffle(triple)
    return [
        Invocation(_argv("series", "--n", n, "--t-order", order), order + 1, ("series", n, order))
        for n, order in triple
    ]


# Each workload's reason for being in the benchmark is recorded in
# BENCHMARK.json; ``dominant`` names the layers it states can take the largest
# share of traced time, which every traced run checks.  count-queries runs one
# query per method, so four layers share its time (17-27% each when traced)
# and which one leads depends on the seed and the host.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("enumerate-stream", "matrices emitted", ("hnf",), enumerate_stream),
        Workload(
            "count-queries", "queries answered", ("hnf", "series", "count", "arith"), count_queries
        ),
        Workload("verify-sweep", "(n, m) cases cross-checked", ("arith",), verify_sweep),
        Workload("qseries", "t^k coefficients compared", ("qcalc",), qseries),
    )
}

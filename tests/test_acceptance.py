"""Acceptance suite: every exit criterion at its stated bounds.

Each test prints one "acceptance <name>: pass/FAIL" line (visible with
pytest -s).  All comparisons are exact integer or exact polynomial
equality; there are no tolerances to tune.

Run:  pytest tests/test_acceptance.py -v -s
"""

import contextlib
import math
import subprocess
import sys

from latcount import (
    count_by_enumeration,
    count_by_factorization_sum,
    count_by_gruber,
    count_by_recursion,
    dirichlet_coefficients,
    enumerate_hnf,
    euler_factor,
    gauss_binomial,
    gauss_binomial_at,
    validate_hnf,
)
from oracles import brute_sigma, qbinomial_by_quotient, sieve_primes, verify_generating_identity


@contextlib.contextmanager
def report(criterion):
    outcome = "FAIL"
    try:
        yield
        outcome = "pass"
    finally:
        print(f"acceptance {criterion}: {outcome}")


def test_c1_cross_method_agreement():
    """Four methods, n in 1..5, m in 1..2000, exact equality."""
    with report("1 cross-method-agreement"):
        for n in range(1, 6):
            table = dirichlet_coefficients(n, 2000)
            for m in range(1, 2001):
                value = table[m]
                assert count_by_factorization_sum(n, m).value == value, (n, m)
                assert count_by_recursion(n, m).value == value, (n, m)
                assert count_by_gruber(n, m).value == value, (n, m)


def test_c2_enumeration_completeness():
    """Enumeration equals recursion for n <= 4, m <= 50 when the count fits."""
    with report("2 enumeration-completeness"):
        for n in range(1, 5):
            for m in range(1, 51):
                predicted = count_by_gruber(n, m).value
                if predicted > 10**5:
                    continue
                seen = set()
                for matrix in enumerate_hnf(n, m):
                    assert validate_hnf(matrix, m), (n, m, matrix)
                    assert matrix.rows not in seen, (n, m, matrix)
                    seen.add(matrix.rows)
                assert len(seen) == count_by_recursion(n, m).value == predicted, (n, m)
                assert count_by_enumeration(n, m, cap=10**5).value == predicted, (n, m)


def test_c3_known_closed_forms():
    """f_2 = sigma up to 10^4; f_n(p) = 1 + p + ... + p^(n-1)."""
    with report("3 known-closed-forms"):
        sigma_stream = dirichlet_coefficients(2, 10**4)
        for m in range(1, 10**4 + 1):
            sigma = brute_sigma(m)
            assert sigma_stream[m] == sigma, m
            assert count_by_gruber(2, m).value == sigma, m
        for p in sieve_primes(100):
            for n in range(1, 7):
                expected = sum(p**i for i in range(n))
                assert count_by_gruber(n, p).value == expected, (n, p)
                assert count_by_recursion(n, p).value == expected, (n, p)


def test_c4_gaussian_binomial_suite():
    """Symmetry, q -> 1 specialization, and the factorial-quotient definition."""
    with report("4 gaussian-binomial-suite"):
        for m in range(13):
            for k in range(m + 1):
                assert gauss_binomial(m, k) == gauss_binomial(m, m - k), (m, k)
                assert gauss_binomial_at(m, k, 1) == math.comb(m, k), (m, k)
        for m in range(11):
            for k in range(m + 1):
                quotient = qbinomial_by_quotient(m, k)
                assert list(gauss_binomial(m, k).coefficients) == quotient, (m, k)


def test_c5_generating_identity():
    """Product and q-binomial sum agree for n <= 6, truncation order <= 12."""
    with report("5 generating-identity"):
        for n in range(1, 7):
            for order in range(13):
                assert verify_generating_identity(n, order), (n, order)


def test_c6_euler_factor_consistency():
    """Local coefficients at p equal the prime-power counts."""
    with report("6 euler-factor-consistency"):
        for p in (2, 3, 5, 7):
            for n in range(1, 6):
                local = euler_factor(p, n, 5)
                for k in range(6):
                    assert local[k] == count_by_gruber(n, p**k).value, (p, n, k)


def test_c7_multiplicativity():
    """f_n(ab) = f_n(a) f_n(b) for coprime a, b with ab <= 2000, per method."""
    with report("7 multiplicativity"):
        for n in range(1, 6):
            table = dirichlet_coefficients(n, 2000)
            by_method = {
                "factorization-sum": lambda m, n=n: count_by_factorization_sum(n, m).value,
                "recursion": lambda m, n=n: count_by_recursion(n, m).value,
                "gruber": lambda m, n=n: count_by_gruber(n, m).value,
                "dirichlet": lambda m, table=table: table[m],
            }
            for name, f in by_method.items():
                cache = {m: f(m) for m in range(1, 2001)}
                for a in range(1, 2001):
                    for b in range(a, 2000 // a + 1):
                        if math.gcd(a, b) == 1:
                            assert cache[a * b] == cache[a] * cache[b], (name, n, a, b)


def test_c8_cli_golden_files():
    """count --all on (2, 2), the sigma table, and byte-level determinism."""
    with report("8 cli-golden-files"):
        def run(*args):
            return subprocess.run(
                [sys.executable, "-m", "latcount", *args],
                capture_output=True,
                text=True,
            )

        count_all = run("count", "--n", "2", "--m", "2", "--all")
        assert count_all.returncode == 0
        assert count_all.stdout == (
            "dirichlet: 3\n"
            "factorization-sum: 3\n"
            "gruber: 3\n"
            "hnf: 3\n"
            "recursion: 3\n"
        )

        table = run("table", "--n", "2", "--max-m", "6", "--format", "csv")
        assert table.returncode == 0
        assert table.stdout == "1,1\n2,3\n3,4\n4,7\n5,6\n6,12\n"

        again = run("count", "--n", "2", "--m", "2", "--all")
        assert again.stdout == count_all.stdout
        table_again = run("table", "--n", "2", "--max-m", "6", "--format", "csv")
        assert table_again.stdout == table.stdout

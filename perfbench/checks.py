"""Output checks, each by a route independent of the one that produced the output.

They run after the clock stops.  Every check takes the raw stdout of one
invocation plus the parameters recorded in ``Invocation.check`` and returns
None for a correct output, or a one-line reason.
"""

from __future__ import annotations

import random
from math import comb

from latcount import HnfMatrix, validate_hnf
from workloads import sublattice_count

ENUMERATE_SAMPLE = 200


def check_count(out: bytes, rng: random.Random, method: str, n: int, m: int) -> str | None:
    """The printed count must equal f_n(m) from the harness's own local formula."""
    expected = sublattice_count(n, m)
    if out != f"{expected}\n".encode():
        return f"count {method} n={n} m={m}: printed {out[:60]!r}, f_n(m) = {expected}"
    return None


def check_count_all(out: bytes, rng: random.Random, n: int, m: int) -> str | None:
    expected = sublattice_count(n, m)
    methods = ("dirichlet", "factorization-sum", "gruber", "hnf", "recursion")
    want = "".join(f"{method}: {expected}\n" for method in methods).encode()
    if out != want:
        return f"count --all n={n} m={m}: printed {out[:80]!r}, expected {want[:80]!r}"
    return None


def check_enumerate(out: bytes, rng: random.Random, n: int, m: int, count: int) -> str | None:
    """Line count and trailer equal f_n(m); lines are distinct; a sample is valid."""
    lines = out.decode().split("\n")
    if lines[-1] != "" or lines[-2] != f"count: {count}":
        return f"enumerate n={n} m={m}: trailer {lines[-2:]!r}, expected 'count: {count}'"
    body = lines[:-2]
    if len(body) != count:
        return f"enumerate n={n} m={m}: {len(body)} matrices, f_n(m) = {count}"
    if len(set(body)) != count:
        return f"enumerate n={n} m={m}: {count - len(set(body))} duplicate lines"
    for index in rng.sample(range(count), min(ENUMERATE_SAMPLE, count)):
        matrix = HnfMatrix.from_line(body[index])
        if matrix.n != n or not validate_hnf(matrix, m):
            return f"enumerate n={n} m={m}: line {index} {body[index]!r} is not a valid basis"
    return None


def check_verify(out: bytes, rng: random.Random) -> str | None:
    lines = out.decode().splitlines()
    if len(lines) != 3 or not all(line.split(" ", 2)[1:2] == ["pass"] for line in lines):
        return f"verify: expected three 'pass' lines, got {lines!r}"
    return None


def coefficient_sum_and_degree(rendered: str) -> tuple[int, int]:
    """Parse "c0 + c1*q + c2*q^2 + ..." (nonnegative terms) into (sum, degree)."""
    total, degree = 0, 0
    for term in rendered.split(" + "):
        coefficient, _, power = term.partition("q")
        coefficient = coefficient.rstrip("*")
        total += int(coefficient) if coefficient else 1
        if "q" in term:
            degree = max(degree, int(power[1:]) if power.startswith("^") else 1)
    return total, degree


def check_series(out: bytes, rng: random.Random, n: int, order: int) -> str | None:
    """Both sides list t^0..t^K, each equal to [n+k-1 choose k]_q at q = 1 and in degree."""
    lines = out.decode().split("\n")
    if lines[-2:] != ["verdict: match", ""]:
        return f"series n={n} K={order}: last line {lines[-2:]!r}"
    side = order + 1
    if len(lines) != 2 * side + 4 or lines[0] != "lhs:" or lines[side + 1] != "rhs:":
        return f"series n={n} K={order}: {len(lines)} lines, expected {2 * side + 4}"
    for block in (lines[1 : side + 1], lines[side + 2 : 2 * side + 2]):
        for k, line in enumerate(block):
            label, _, poly = line.partition(": ")
            total, degree = coefficient_sum_and_degree(poly)
            if label != f"t^{k}" or total != comb(n + k - 1, k) or degree != k * (n - 1):
                return f"series n={n} K={order}: {label} sums to {total}, degree {degree}"
    return None


def check_setup(out: bytes, rng: random.Random) -> str | None:
    return None if out == b"1\n" else f"setup probe printed {out[:60]!r}"


CHECKS = {
    "count": check_count,
    "count-all": check_count_all,
    "enumerate": check_enumerate,
    "verify": check_verify,
    "series": check_series,
    "setup": check_setup,
}


def check(out: bytes, spec: tuple, rng: random.Random) -> str | None:
    kind, *params = spec
    try:
        return CHECKS[kind](out, rng, *params)
    except (ValueError, IndexError) as exc:  # output that does not even parse
        return f"{kind}: malformed output ({exc})"

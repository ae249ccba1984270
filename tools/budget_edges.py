"""Find, and optionally time, the edge of every budget in README's budget table.

    python tools/budget_edges.py [--time]

Each row of the table is one family of inputs with one free parameter x.
The tool asks the library for its own prediction at x, which does no work:
it calls the function with every `check_budget` of the package replaced by
a recorder, which stops the call at the family's check and keeps the
prediction and the limit it was checked against.  Any other budget the
call asks first is checked as usual.  Bisecting x on that prediction gives
the last input admitted and the first refused, and the table is printed
from them, in README's Markdown.  README's table must equal this output
(tests/test_budget_edges.py).

With --time, each time budget's last admitted input is also run in
process, once, and its seconds are added as a last column; an Euler row
runs the CLI's `euler-factor` with its lines written to a null sink.  The
time models' costs are fitted so that every such input takes about
1-2.6 s, and about 1.5 s on a quiet 2-vCPU VM.
"""

from __future__ import annotations

import contextlib
import math
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import latcount.arith  # noqa: E402
import latcount.count  # noqa: E402
import latcount.hnf  # noqa: E402
import latcount.qcalc  # noqa: E402
import latcount.series  # noqa: E402
from latcount import cli, core  # noqa: E402
from latcount.arith import DivisorIndex  # noqa: E402
from latcount.count import count_by_factorization_sum, count_by_gruber  # noqa: E402
from latcount.count import count_by_recursion, count_table  # noqa: E402
from latcount.hnf import enumerate_hnf  # noqa: E402
from latcount.qcalc import _last_row_size, _symmetry_pairs, gauss_binomial  # noqa: E402
from latcount.series import dirichlet_coefficients, euler_factor, geometric_factor  # noqa: E402
from latcount.series import lhs_product, rhs_sum  # noqa: E402

MODULES = (latcount.arith, latcount.count, latcount.hnf, latcount.qcalc, latcount.series)
PRIMORIAL_31 = math.prod((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31))


class _Stop(Exception):
    """Raised by the recorder at the family's check, before any of the work."""


def prediction(call, key: str) -> tuple[int, int]:
    """The (prediction, limit) that call() checks first for work whose text holds key."""
    seen = []

    def record(predicted: int, limit: int, work: str) -> None:
        if key not in work:
            return core.check_budget(predicted, limit, work)
        seen.append((predicted, limit))
        raise _Stop

    saved = [module.check_budget for module in MODULES]
    for module in MODULES:
        module.check_budget = record
    try:
        call()
    except _Stop:
        pass
    finally:
        for module, check in zip(MODULES, saved):
            module.check_budget = check
    if not seen:
        raise RuntimeError(f"no check of {key!r} was reached")
    return seen[0]


def symmetry_rows(bound: int) -> tuple[int, int]:
    """The last q-Pascal rows the symmetry sweep up to bound sums, and their limit."""
    sizes = (_last_row_size(m, k) + _last_row_size(m, m - k) for m, k in _symmetry_pairs(bound))
    return sum(sizes), latcount.qcalc.MAX_QPASCAL_COEFFICIENTS


def _consume(levels) -> None:
    for level in levels:
        for _ in level:
            pass


def _euler_cli(p: int, n: int, k_max: int) -> None:
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        argv = ["euler-factor", "--p", str(p), "--n", str(n), "--k-max", str(k_max)]
        if cli.main(argv) != 0:
            raise RuntimeError(f"euler-factor {p} {n} {k_max} failed")


def _fs_levels(n_max: int, max_m: int):
    return latcount.count._factorization_sum_table(n_max, max_m)


def _family(name, what, call, text, key=None, run=None, start=1):
    """One row: its name, what is predicted, x -> (prediction, limit), x -> input, and its run.

    call(x) makes the call whose check holds key, or, without a key, gives the prediction and
    its limit itself.  run(x), for a time budget, does the work of the input x.  start is an
    x that is admitted.
    """
    predicted = call if key is None else lambda x: prediction(lambda: call(x), key)
    return name, what, predicted, text, run, start


FS = "factorization-sum"
FS_KEY = "factorization-sum sweep up to n="
FS_SINGLE = "ns: 250 per 3-part tuple filled; per prefix popped 400, 150 per bit of n, 0.9 per bit"
FS_SWEEP = "ns: 300 per divisor-table pointer; per level 500 per m, 550 per prefix, b log b / 26"
REC_SINGLE = "ns: per level 400, 1000 per slice update, 70 per product or add; products' bits"
REC_SWEEP = "ns: 50 per m, and per level 2000 and 190 per pair d * k <= max_m"
GRUBER = "ns: 1.5 ps per squared bit of its products, 400 per step"
GRUBER_SWEEP = "ns: 2800 per m, 95 per trial candidate, per level 420 per m and each prime's body"
HNF_SWEEP = "ns: 30000 per m, 2200 per matrix, at least M^n / n + M^(n-1) / 2 of them"
LHS = "ns: 100 per coefficient cell, 11000 per product"
DIRICHLET = "ns: (n-1) limit bits(limit) cells, 130 each and more as the values grow"
EULER = "ns: 2.5 ps per squared bit printed, 20 fs per squared bit per step, 2000 per line"

FAMILIES = [
    _family("`gauss_binomial(m, 1)`", "coefficients in its last q-Pascal row",
            lambda x: gauss_binomial(x, 1), lambda x: f"({x}, 1)", "last q-Pascal row", start=2),
    _family("`geometric_factor(1, K)`", "coefficients in its monomials",
            lambda x: geometric_factor(1, x), lambda x: f"(1, {x})", "in its monomials", start=0),
    _family("`rhs_sum(1, K)`", "coefficients in its q-binomials",
            lambda x: rhs_sum(1, x), lambda x: f"(1, {x})", "in its q-binomials", start=0),
    _family("`first_asymmetric_pair(B)`, `verify`'s symmetry sweep",
            "coefficients in every pair's last q-Pascal rows", symmetry_rows, lambda x: f"B = {x}"),
    _family("`dirichlet_coefficients(1, limit)`'s lists", "entries, limit + 1",
            lambda x: dirichlet_coefficients(1, x), lambda x: f"(1, {x})", "would need lists"),
    _family("`enumerate_hnf(n, 2)` and `enumerate_lines(n, 2)`'s prefixes",
            "characters, (n(n-1)/2 + 1) n^2 (digits of m + 1)",
            lambda x: enumerate_hnf(x, 2), lambda x: f"({x}, 2)", "in its prefixes"),
    _family("`DivisorIndex(2^r)`'s divisor list",
            "cells: tau(m) divisors, each once more per 512 bits of m",
            lambda x: DivisorIndex(2**x), lambda x: f"r = {x}", "divisors of an m"),
    _family("`count_by_recursion(n, 2^8190)`'s values",
            "cells: tau(m) values, each once more per 512 bits of m^(n-1)",
            lambda x: count_by_recursion(x, 2**8190), lambda x: f"({x}, 2^8190)", "values for n="),
    _family(f'`count_table(2, max_m, "{FS}")`\'s divisor table',
            "pointers: sum over q <= max_m of tau(q)",
            lambda x: count_table(2, x, FS), lambda x: f"(2, {x})", "divisor-table pointers"),
    _family("`count_by_factorization_sum(n, 2)`", FS_SINGLE,
            lambda x: count_by_factorization_sum(x, 2), lambda x: f"({x}, 2)",
            "factorizations of an m", run=lambda x: count_by_factorization_sum(x, 2)),
    _family("`count_by_factorization_sum(n, 30)`", FS_SINGLE,
            lambda x: count_by_factorization_sum(x, 30), lambda x: f"({x}, 30)",
            "factorizations of an m", run=lambda x: count_by_factorization_sum(x, 30)),
    _family("`count_by_factorization_sum(3, 2^r)`", FS_SINGLE,
            lambda x: count_by_factorization_sum(3, 2**x), lambda x: f"(3, 2^{x})",
            "factorizations of an m", run=lambda x: count_by_factorization_sum(3, 2**x)),
    _family(f'`count_table(5, max_m, "{FS}")`', FS_SWEEP,
            lambda x: count_table(5, x, FS), lambda x: f"(5, {x})", FS_KEY,
            run=lambda x: list(count_table(5, x, FS))),
    _family(f'`count_table(n, 4, "{FS}")`', FS_SWEEP,
            lambda x: count_table(x, 4, FS), lambda x: f"({x}, 4)", FS_KEY,
            run=lambda x: list(count_table(x, 4, FS))),
    _family("`verify`'s factorization-sum sweep, levels 1 .. 5", FS_SWEEP,
            lambda x: next(_fs_levels(5, x)), lambda x: f"(5, {x})", FS_KEY,
            run=lambda x: _consume(_fs_levels(5, x))),
    _family("`count_by_recursion(n, 31#)`", REC_SINGLE,
            lambda x: count_by_recursion(x, PRIMORIAL_31), lambda x: f"({x}, 31#)",
            "recursion's levels", run=lambda x: count_by_recursion(x, PRIMORIAL_31)),
    _family("`count_by_recursion(n, 2^100)`", REC_SINGLE,
            lambda x: count_by_recursion(x, 2**100), lambda x: f"({x}, 2^100)",
            "recursion's levels", run=lambda x: count_by_recursion(x, 2**100)),
    _family('`count_table(4, max_m, "recursion")`', REC_SWEEP,
            lambda x: count_table(4, x, "recursion"), lambda x: f"(4, {x})", "recursion sweep",
            run=lambda x: list(count_table(4, x, "recursion"))),
    _family('`count_table(n, 2, "recursion")`', REC_SWEEP,
            lambda x: count_table(x, 2, "recursion"), lambda x: f"({x}, 2)", "recursion sweep",
            run=lambda x: list(count_table(x, 2, "recursion"))),
    _family("`count_by_gruber(2, 2^r)`", GRUBER,
            lambda x: count_by_gruber(2, 2**x), lambda x: f"(2, 2^{x})", "Gruber's products",
            run=lambda x: count_by_gruber(2, 2**x)),
    _family('`count_table(4, max_m, "gruber")`', GRUBER_SWEEP,
            lambda x: count_table(4, x, "gruber"), lambda x: f"(4, {x})", "Gruber sweep",
            run=lambda x: list(count_table(4, x, "gruber"))),
    *(
        _family(f'`count_table({n}, max_m, "hnf")`', HNF_SWEEP,
                lambda x, n=n: count_table(n, x, "hnf"), lambda x, n=n: f"({n}, {x})",
                "enumeration sweep", run=lambda x, n=n: list(count_table(n, x, "hnf")))
        for n in (1, 3)
    ),
    _family("`lhs_product(2, K)`", LHS, lambda x: lhs_product(2, x), lambda x: f"(2, {x})",
            "lhs_product", run=lambda x: lhs_product(2, x), start=0),
    _family("`lhs_product(n, 0)`", LHS, lambda x: lhs_product(x, 0), lambda x: f"({x}, 0)",
            "lhs_product", run=lambda x: lhs_product(x, 0)),
    _family("`dirichlet_coefficients(2, limit)`", DIRICHLET,
            lambda x: dirichlet_coefficients(2, x), lambda x: f"(2, {x})", "convolutions",
            run=lambda x: dirichlet_coefficients(2, x)),
    _family("`dirichlet_coefficients(5, limit)`", DIRICHLET,
            lambda x: dirichlet_coefficients(5, x), lambda x: f"(5, {x})", "convolutions",
            run=lambda x: dirichlet_coefficients(5, x)),
    _family("`dirichlet_coefficients(n, 1000)`", DIRICHLET,
            lambda x: dirichlet_coefficients(x, 1000), lambda x: f"({x}, 1000)", "convolutions",
            run=lambda x: dirichlet_coefficients(x, 1000)),
    *(
        _family(f"`euler-factor --p {p} --n {n} --k-max K`", EULER,
                lambda x, p=p, n=n: euler_factor(p, n, x), lambda x, p=p, n=n: f"({p}, {n}, {x})",
                "euler_factor", run=lambda x, p=p, n=n: _euler_cli(p, n, x), start=0)
        for p, n in ((2, 2), (1000003, 2), (2, 1), (2, 100))
    ),
]


def edges(predicted, start: int) -> tuple[int, int]:
    """The last x admitted and the first refused, searching up from start, which is admitted."""
    low = start
    value, limit = predicted(low)
    if value > limit:
        raise RuntimeError(f"the start {start} is refused")
    step = 1
    while predicted(low + step)[0] <= limit:
        low, step = low + step, 2 * step
        if step > 2**40:
            raise RuntimeError(f"nothing up to {low} is refused")
    high = low + step
    while high - low > 1:
        mid = (low + high) // 2
        if predicted(mid)[0] <= limit:
            low = mid
        else:
            high = mid
    return low, high


def rows(timed: bool):
    """README's table, a line at a time; with timed, each time budget's edge is run as well."""
    header = "| family | predicted | limit | last admitted | first refused |"
    rule = "|---|---|---|---|---|"
    yield header + " seconds |" if timed else header
    yield rule + "---|" if timed else rule
    for name, what, predicted, text, run, start in FAMILIES:
        last, first = edges(predicted, start)
        (admitted, limit), (refused, _) = predicted(last), predicted(first)
        cells = [name, what, f"{limit:,}", f"{text(last)}: {admitted:,}",
                 f"{text(first)}: {refused:,}"]
        if timed:
            seconds = ""
            if run is not None:
                began = time.perf_counter()
                run(last)
                seconds = f"{time.perf_counter() - began:.2f}"
            cells.append(seconds)
        yield "| " + " | ".join(cells) + " |"


def main(argv: list[str]) -> None:
    if argv not in ([], ["--time"]):
        raise SystemExit("usage: python tools/budget_edges.py [--time]")
    for line in rows(timed=argv == ["--time"]):
        print(line, flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])

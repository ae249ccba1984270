"""Find, and optionally measure, the edge of every budget in README's budget table.

    python tools/budget_edges.py [--measure]

Each row of the table is one family of inputs with one free parameter x.
The tool asks the library for its own prediction at x, which does no work:
it calls the function with every `check_budget` of the package replaced by
a recorder, which stops the call at the family's check and keeps the
prediction and the limit it was checked against.  Any other budget the
call asks first is passed over, so that a family's edge is found past
another budget's refusal; every check comes before its work, so none runs.
Bisecting x on that prediction gives the last input admitted and the first
refused, and the table is printed from them, in README's Markdown.  README's table must equal this output
(tests/test_budget_edges.py).

With --measure, each budget's last admitted input is also run, once, and
what it cost is added as a last column.  A time row runs in process and
prints its seconds; an Euler row runs the CLI's `euler-factor` with its
lines written to a null sink.  The time models' costs are fitted so that
every such input takes about 1-2.6 s, and about 1.5 s on a quiet 2-vCPU VM.
A memory row runs in a fresh process under tracemalloc and prints its peak
in MB; the byte models' costs are set so that every such peak lies between
half its prediction and all of it, but for the matrix stream, which shares
the text stream's model and holds far less.
"""

from __future__ import annotations

import contextlib
import math
import os
import subprocess
import sys
import time
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, SRC)

import latcount.arith  # noqa: E402
import latcount.count  # noqa: E402
import latcount.hnf  # noqa: E402
import latcount.qcalc  # noqa: E402
import latcount.series  # noqa: E402
from latcount import cli  # noqa: E402
from latcount.arith import DivisorIndex  # noqa: E402
from latcount.count import count_by_factorization_sum, count_by_gruber  # noqa: E402
from latcount.count import count_by_recursion, count_table  # noqa: E402
from latcount.hnf import enumerate_hnf, enumerate_lines  # noqa: E402
from latcount.qcalc import first_asymmetric_pair, gauss_binomial  # noqa: E402
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
        if key in work:
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


def peak_mb(expression: str) -> float:
    """The peak MB that tracemalloc traces while a fresh process evaluates expression."""
    code = (
        f"import sys, tracemalloc; sys.path.insert(0, {SRC!r}); import latcount.count\n"
        f"tracemalloc.start(); {expression}; print(tracemalloc.get_traced_memory()[1])"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return int(proc.stdout) / 10**6


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


def _family(name, what, call, text, key, run=None, start=1, peak=None):
    """One row: its name, what is predicted, x -> (prediction, limit), x -> input, and its cost.

    call(x) makes the call whose check holds key.  run(x), for a time budget, does the work of
    the input x; peak, for a memory budget, is the expression of that work with {} for x,
    evaluated under latcount's qualified names.  start is an x that is admitted.
    """
    return name, what, lambda x: prediction(lambda: call(x), key), text, run, start, peak


QPASCAL_BYTES = "bytes: 10 per coefficient slot, ints of C(m-1, s-1), 120 per entry"
QPASCAL_NS = "ns: 50 per cell, 1 per 12 bits of C(m-1, s-1); 1000 per step"
PREFIX_BYTES = "bytes: (n(n-1)/2 + 1) (n^2 (digits of m + 1) + 64), pieces, 300 kB"
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
    _family("`gauss_binomial(m, 1)`", QPASCAL_BYTES,
            lambda x: gauss_binomial(x, 1), lambda x: f"({x}, 1)", "bytes in its q-Pascal row",
            start=2, peak="latcount.qcalc.gauss_binomial({}, 1)"),
    _family("`geometric_factor(1, K)`", "bytes: 10 per pointer to 0 or 1, 120 per monomial",
            lambda x: geometric_factor(1, x), lambda x: f"(1, {x})", "in its monomials", start=0,
            peak="latcount.series.geometric_factor(1, {})"),
    _family("`rhs_sum(1, K)`", "bytes: the q-Pascal rows (n-1+K, n-1) and (n-1+K, K)",
            lambda x: rhs_sum(1, x), lambda x: f"(1, {x})", "bytes in its q-binomials", start=0,
            peak="latcount.series.rhs_sum(1, {})"),
    _family("`dirichlet_coefficients(1, limit)`'s lists",
            "bytes: 10 per entry; above n = 1, ints of m^n and of q^(n-1) twice",
            lambda x: dirichlet_coefficients(1, x), lambda x: f"(1, {x})", "in its lists",
            peak="latcount.series.dirichlet_coefficients(1, {})"),
    *(
        _family(f"`{stream}(n, 2)`'s prefixes", PREFIX_BYTES,
                lambda x, stream=stream: call(x, 2), lambda x: f"({x}, 2)", "in its prefixes",
                peak=f"next(latcount.hnf.{stream}({{}}, 2))")
        for stream, call in (("enumerate_lines", enumerate_lines), ("enumerate_hnf", enumerate_hnf))
    ),
    _family("`DivisorIndex(2^r)`'s divisor list", "bytes: tau(m) (59 + bits(m) / 12)",
            lambda x: DivisorIndex(2**x), lambda x: f"r = {x}", "divisors of an m",
            peak="latcount.arith.DivisorIndex(2**{})"),
    _family("`count_by_recursion(2, 2^r)`'s grid",
            "bytes: its divisor list; per value 96, (2n - 2) bits(m) / 12; 200 per slice update",
            lambda x: count_by_recursion(2, 2**x), lambda x: f"(2, 2^{x})", "values for n=",
            peak="latcount.count.count_by_recursion(2, 2**{})"),
    _family(f'`count_table(2, max_m, "{FS}")`\'s divisor table',
            "bytes: 12 per divisor-table pointer, 180 per m",
            lambda x: count_table(2, x, FS), lambda x: f"(2, {x})", "divisor table up to",
            peak=f"latcount.count.count_table(2, {{}}, {FS!r})"),
    _family("`first_asymmetric_pair(B)`, `verify`'s symmetry sweep", QPASCAL_NS,
            lambda x: first_asymmetric_pair(x), lambda x: f"B = {x}", "q-Pascal grids",
            run=lambda x: first_asymmetric_pair(x)),
    _family("`gauss_binomial(k + 2, k)`", QPASCAL_NS,
            lambda x: gauss_binomial(x + 2, x), lambda x: f"({x + 2}, {x})", "q-Pascal grid",
            run=lambda x: gauss_binomial(x + 2, x)),
    _family("`gauss_binomial(2k, k)`", QPASCAL_NS,
            lambda x: gauss_binomial(2 * x, x), lambda x: f"({2 * x}, {x})", "q-Pascal grid",
            run=lambda x: gauss_binomial(2 * x, x)),
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


def rows(measured: bool):
    """README's table, a line at a time; with measured, each budget's edge is run as well."""
    header = "| family | predicted | limit | last admitted | first refused |"
    rule = "|---|---|---|---|---|"
    yield header + " measured |" if measured else header
    yield rule + "---|" if measured else rule
    for name, what, predicted, text, run, start, peak in FAMILIES:
        last, first = edges(predicted, start)
        (admitted, limit), (refused, _) = predicted(last), predicted(first)
        cells = [name, what, f"{limit:,}", f"{text(last)}: {admitted:,}",
                 f"{text(first)}: {refused:,}"]
        if measured and run is not None:
            began = time.perf_counter()
            run(last)
            cells.append(f"{time.perf_counter() - began:.2f} s")
        elif measured:
            cells.append(f"{peak_mb(peak.format(last)):.1f} MB")
        yield "| " + " | ".join(cells) + " |"


def main(argv: list[str]) -> None:
    if argv not in ([], ["--measure"]):
        raise SystemExit("usage: python tools/budget_edges.py [--measure]")
    for line in rows(measured=argv == ["--measure"]):
        print(line, flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])

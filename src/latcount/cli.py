"""Command-line interface.

Subcommands: count, enumerate, table, verify, series, euler-factor.
All results go to stdout (one record per line, deterministic order);
diagnostics go to stderr.  Exit codes: 0 success, 1 the output pipe closed
early, 2 invalid arguments, 3 capacity bound exceeded, 4 cross-method
discrepancy, failed exactness check, property failure or any other internal
error.

Every command is a fresh process, so the module imports only argparse and the
package at start; json is imported when a json-lines record is written.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial
from itertools import islice

from .arith import ENV_TRIAL_DIVISION_BOUND
from .core import CapacityError, DiscrepancyError, ExactnessError, Method, UsageError
from .count import (
    FORMULA_METHODS,
    check_agreement,
    count_all_methods,
    count_by_gruber,
    count_table,
    run_count,
)
from .hnf import DEFAULT_ENUMERATION_CAP, enumerate_hnf, enumerate_lines, validate_hnf
from .series import euler_factor, lhs_product, rhs_sum, verify_generating_identity
from .qcalc import gauss_binomial

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_MISMATCH = 4

FORMATS = ("plain", "csv", "json-lines")

# enumerate prints this many lines per call.  Chunks stay small, so that peak
# memory and the time to the first line stay close to one print per line.
CHUNK_LINES = 256


def int_at_least(low: int):
    """An argparse type that accepts integers >= low."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def _record(fmt: str, plain: str, csv: str, fields: dict) -> str:
    """One record's line in the chosen --format: plain, csv, or its fields as json-lines."""
    if fmt == "json-lines":
        import json

        return json.dumps(fields, separators=(",", ":"))
    return csv if fmt == "csv" else plain


def cmd_count(args) -> int:
    if args.all:
        results = count_all_methods(args.n, args.m)
    else:
        results = [run_count(args.n, args.m, args.method)]
    for result in results:
        method, value = str(result.method), result.value
        plain = f"{method}: {value}" if args.all else str(value)
        fields = {"n": args.n, "m": args.m, "method": method, "value": str(value)}
        print(_record(args.format, plain, f"{method},{value}", fields))
    return EXIT_OK


def _check_first_line(n: int, m: int, line: str) -> None:
    """Check the text stream's first line against the first matrix, validated and serialized."""
    first = next(enumerate_hnf(n, m))
    if not validate_hnf(first, m) or first.to_line() != line:
        raise ExactnessError(
            f"enumerate (n={n}, m={m}): the text stream starts {line!r}, "
            f"the matrix stream {first.to_line()!r}"
        )


def cmd_enumerate(args) -> int:
    # f_1(m) = 1; any larger dimension gets its count predicted before any output.
    if args.limit is None and args.n > 1:
        predicted = count_by_gruber(args.n, args.m).value
        if predicted > DEFAULT_ENUMERATION_CAP:
            raise CapacityError(
                f"enumeration of (n={args.n}, m={args.m}) would emit {predicted} matrices, "
                f"above the default cap {DEFAULT_ENUMERATION_CAP}; "
                f"pass --limit to stream a bounded prefix"
            )
    lines = enumerate_lines(args.n, args.m)
    if args.limit is not None:
        lines = islice(lines, args.limit)
    # Each chunk is printed as one string: the lines joined by sep, inside head and end.
    head, sep, end = "", "\n", ""
    if args.format == "json-lines":
        # the same bytes as _record's json for {"n": n, "m": m, "matrix": line}: no escaping needed
        head = f'{{"n":{args.n},"m":{args.m},"matrix":"'
        sep, end = '"}\n' + head, '"}'
    emitted = 0
    while chunk := list(islice(lines, CHUNK_LINES)):
        if not emitted:
            _check_first_line(args.n, args.m, chunk[0])
        emitted += len(chunk)
        print(head + sep.join(chunk) + end)
    print(_record(args.format, f"count: {emitted}", f"count,{emitted}", {"count": emitted}))
    return EXIT_OK


def cmd_table(args) -> int:
    # The whole table is computed before the first line, so a failure prints none.
    values = [result.value for result in count_table(args.n, args.max_m, args.method)]
    for m, value in enumerate(values, start=1):
        fields = {"n": args.n, "m": m, "method": args.method, "value": str(value)}
        print(_record(args.format, f"{m} {value}", f"{m},{value}", fields))
    return EXIT_OK


def _verify_cross_methods(n_max: int, m_max: int):
    for n in range(1, n_max + 1):
        tables = [count_table(n, m_max, method) for method in FORMULA_METHODS]
        for m, results in enumerate(zip(*tables), start=1):
            try:
                check_agreement(n, m, results)
            except DiscrepancyError as exc:
                return f"n={n} m={m} ({exc})"
    return None


def _verify_symmetry(bound: int):
    for m in range(bound + 1):
        for k in range(m + 1):
            if gauss_binomial(m, k) != gauss_binomial(m, m - k):
                return f"m={m} k={k}"
    return None


def _verify_identity(n_max: int, t_order: int):
    for n in range(1, n_max + 1):
        for order in range(t_order + 1):
            if not verify_generating_identity(n, order):
                return f"n={n} t-order={order}"
    return None


def cmd_verify(args) -> int:
    n_max, m_max, t_order = args.n_max, args.m_max, args.t_order
    symmetry_bound = n_max + t_order
    checks = (
        (
            "cross-method-agreement",
            f"n <= {n_max}, m <= {m_max}",
            partial(_verify_cross_methods, n_max, m_max),
        ),
        ("qbinomial-symmetry", f"m <= {symmetry_bound}", partial(_verify_symmetry, symmetry_bound)),
        (
            "generating-identity",
            f"n <= {n_max}, t-order <= {t_order}",
            partial(_verify_identity, n_max, t_order),
        ),
    )
    failures = 0
    # Each check returns its first counterexample, or None when it passes.
    for name, scope, check in checks:
        counterexample = check()
        if counterexample is None:
            print(f"{name}: pass ({scope})")
        else:
            failures += 1
            print(f"{name}: fail at {counterexample}")
    return EXIT_MISMATCH if failures else EXIT_OK


def cmd_series(args) -> int:
    lhs = lhs_product(args.n, args.t_order)
    rhs = rhs_sum(args.n, args.t_order)
    print("lhs:")
    for line in lhs.render_lines():
        print(line)
    print("rhs:")
    for line in rhs.render_lines():
        print(line)
    if lhs == rhs:
        print("verdict: match")
        return EXIT_OK
    print("verdict: MISMATCH")
    return EXIT_MISMATCH


def cmd_euler_factor(args) -> int:
    coefficients = euler_factor(args.p, args.n, args.k_max)
    for k, value in enumerate(coefficients):
        fields = {"p": args.p, "n": args.n, "k": k, "coefficient": str(value)}
        print(_record(args.format, f"{k} {value}", f"{k},{value}", fields))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latcount",
        description="Count and enumerate index-m sublattices of the integer lattice Z^n.",
        epilog=f"The environment variable {ENV_TRIAL_DIVISION_BOUND} overrides the "
        "trial-division bound used when factoring m (default 10^7).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    method_names = [m.value for m in Method]

    p_count = sub.add_parser("count", help="compute the sublattice count f_n(m)")
    p_count.add_argument("--n", type=int_at_least(1), required=True, help="lattice dimension")
    p_count.add_argument("--m", type=int_at_least(1), required=True, help="sublattice index")
    p_count.add_argument("--method", choices=method_names, default=Method.GRUBER.value)
    p_count.add_argument(
        "--all", action="store_true", help="run every method and cross-check the values"
    )
    p_count.add_argument("--format", choices=FORMATS, default="plain")
    p_count.set_defaults(handler=cmd_count)

    p_enum = sub.add_parser("enumerate", help="stream the normal-form basis matrices")
    p_enum.add_argument("--n", type=int_at_least(1), required=True)
    p_enum.add_argument("--m", type=int_at_least(1), required=True)
    p_enum.add_argument("--limit", type=int_at_least(0), help="stop after this many matrices")
    p_enum.add_argument("--format", choices=FORMATS, default="plain")
    p_enum.set_defaults(handler=cmd_enumerate)

    p_table = sub.add_parser("table", help="tabulate f_n(m) for m = 1..max-m")
    p_table.add_argument("--n", type=int_at_least(1), required=True)
    p_table.add_argument("--max-m", type=int_at_least(1), required=True)
    p_table.add_argument("--method", choices=method_names, default=Method.GRUBER.value)
    p_table.add_argument("--format", choices=FORMATS, default="plain")
    p_table.set_defaults(handler=cmd_table)

    p_verify = sub.add_parser("verify", help="run the cross-method and identity checks")
    p_verify.add_argument("--n-max", type=int_at_least(1), required=True)
    p_verify.add_argument("--m-max", type=int_at_least(1), required=True)
    p_verify.add_argument("--t-order", type=int_at_least(0), required=True)
    p_verify.set_defaults(handler=cmd_verify)

    p_series = sub.add_parser("series", help="print both sides of the generating identity")
    p_series.add_argument("--n", type=int_at_least(1), required=True)
    p_series.add_argument("--t-order", type=int_at_least(0), required=True)
    p_series.set_defaults(handler=cmd_series)

    p_euler = sub.add_parser("euler-factor", help="local factor of the count series at a prime")
    p_euler.add_argument("--p", type=int_at_least(1), required=True, help="a prime")
    p_euler.add_argument("--n", type=int_at_least(1), required=True)
    p_euler.add_argument("--k-max", type=int_at_least(0), required=True)
    p_euler.add_argument("--format", choices=FORMATS, default="plain")
    p_euler.set_defaults(handler=cmd_euler_factor)

    return parser


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        # Exact counts, and --m itself, may run past the 4300-digit default.
        sys.set_int_max_str_digits(0)
    args = build_parser().parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed the pipe.  Point stdout at devnull so that the
        # interpreter's final flush is quiet, as the signal module docs advise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except ExactnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # Anything else is a bug in latcount, not bad input: one line, no traceback.
        detail = " ".join(f"{type(exc).__name__}: {exc}".splitlines())
        print(f"error: internal: {detail}", file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())

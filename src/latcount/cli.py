"""Command-line interface.

Subcommands: count, enumerate, table, verify, series, euler-factor.
All results go to stdout (one record per line, deterministic order);
diagnostics go to stderr.  Exit codes: 0 success, 1 the output pipe closed
early, 2 invalid arguments, 3 capacity bound exceeded, 4 cross-method
discrepancy, failed exactness check or property failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import islice

from .arith import ENV_TRIAL_DIVISION_BOUND
from .core import CapacityError, DiscrepancyError, ExactnessError, Method
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


def _jsonl(record: dict) -> str:
    return json.dumps(record, separators=(",", ":"))


def _count_record(fmt: str, n: int, m: int, method: str, value: int) -> str:
    if fmt == "csv":
        return f"{method},{value}"
    if fmt == "json-lines":
        return _jsonl({"n": n, "m": m, "method": method, "value": str(value)})
    return f"{method}: {value}"


def cmd_count(args) -> int:
    if args.all:
        results = count_all_methods(args.n, args.m, include_enumeration=True)
        for result in results:
            print(_count_record(args.format, args.n, args.m, str(result.method), result.value))
        return EXIT_OK
    result = run_count(args.n, args.m, args.method)
    if args.format == "plain":
        print(result.value)
    else:
        print(_count_record(args.format, args.n, args.m, str(result.method), result.value))
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
        # the same bytes as _jsonl({"n": n, "m": m, "matrix": line}): a line needs no escaping
        head = f'{{"n":{args.n},"m":{args.m},"matrix":"'
        sep, end = '"}\n' + head, '"}'
    emitted = 0
    while chunk := list(islice(lines, CHUNK_LINES)):
        if not emitted:
            _check_first_line(args.n, args.m, chunk[0])
        emitted += len(chunk)
        print(head + sep.join(chunk) + end)
    if args.format == "json-lines":
        print(_jsonl({"count": emitted}))
    elif args.format == "csv":
        print(f"count,{emitted}")
    else:
        print(f"count: {emitted}")
    return EXIT_OK


def cmd_table(args) -> int:
    # The whole table is computed before the first line, so a failure prints none.
    values = [result.value for result in count_table(args.n, args.max_m, args.method)]
    for m, value in enumerate(values, start=1):
        if args.format == "csv":
            print(f"{m},{value}")
        elif args.format == "json-lines":
            print(_jsonl({"n": args.n, "m": m, "method": args.method, "value": str(value)}))
        else:
            print(f"{m} {value}")
    return EXIT_OK


def _verify_cross_methods(n_max: int, m_max: int):
    for n in range(1, n_max + 1):
        tables = [count_table(n, m_max, method) for method in FORMULA_METHODS]
        for m, results in enumerate(zip(*tables), start=1):
            check_agreement(n, m, results)


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
    failures = 0

    try:
        _verify_cross_methods(args.n_max, args.m_max)
        print(f"cross-method-agreement: pass (n <= {args.n_max}, m <= {args.m_max})")
    except DiscrepancyError as exc:
        failures += 1
        print(f"cross-method-agreement: fail at n={exc.n} m={exc.m} ({exc})")

    symmetry_bound = args.n_max + args.t_order
    counterexample = _verify_symmetry(symmetry_bound)
    if counterexample is None:
        print(f"qbinomial-symmetry: pass (m <= {symmetry_bound})")
    else:
        failures += 1
        print(f"qbinomial-symmetry: fail at {counterexample}")

    counterexample = _verify_identity(args.n_max, args.t_order)
    if counterexample is None:
        print(f"generating-identity: pass (n <= {args.n_max}, t-order <= {args.t_order})")
    else:
        failures += 1
        print(f"generating-identity: fail at {counterexample}")

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
        if args.format == "csv":
            print(f"{k},{value}")
        elif args.format == "json-lines":
            print(_jsonl({"p": args.p, "n": args.n, "k": k, "coefficient": str(value)}))
        else:
            print(f"{k} {value}")
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

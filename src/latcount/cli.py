"""Command-line interface.

Subcommands: count, enumerate, table, verify, series, euler-factor.
All results go to stdout (one record per line, deterministic order);
diagnostics go to stderr.  Exit codes: 0 success, 1 the output pipe closed
early, 2 invalid arguments, 3 capacity bound exceeded, 4 cross-method
discrepancy, failed exactness check, property failure or any other internal
error.

verify runs all three of its checks before the first line: cross-method
agreement, q-binomial symmetry once per unordered pair (k < m-k), and the
generating identity once per n at the full t-order.  The cross-method check
is `latcount.count.first_disagreement`, which makes each method's tables
for every n in one sweep.  The symmetry sweep,
`latcount.qcalc.first_asymmetric_pair`, runs first, because it sums its
last q-Pascal rows before any pair and refuses above MAX_QPASCAL_COEFFICIENTS
(exit 3, nothing on stdout).  series and the identity check take both sides
from `latcount.series.identity_sides`, which orders their budgets.  Every
size decision lives in the library; this module imports none of its private
names.

Every command is a fresh process, so the module imports only argparse and the
package at start; json-lines records are written as strings, without json,
by one function, `_record`.  enumerate, table and euler-factor cut every
line from one `_record` template per command.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import islice
from typing import Iterable, Iterator

from .arith import ENV_TRIAL_DIVISION_BOUND
from .core import CapacityError, DiscrepancyError, ExactnessError, Method, UsageError
from .count import (
    check_enumeration_size,
    count_all_methods,
    count_table,
    first_disagreement,
    left_out_methods,
    run_count,
)
from .hnf import enumerate_hnf, enumerate_lines, validate_hnf
from .qcalc import first_asymmetric_pair
from .series import euler_factor, identity_sides

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
    """One record's line in the chosen --format: plain, csv, or its fields as json-lines.

    Every field is an int or a string of digits or a method name, so the
    json-lines record is written directly, with no escaping, in the same
    bytes as json.dumps(fields, separators=(",", ":")).
    """
    if fmt == "json-lines":
        pairs = (
            f'"{key}":{value}' if isinstance(value, int) else f'"{key}":"{value}"'
            for key, value in fields.items()
        )
        return "{" + ",".join(pairs) + "}"
    return csv if fmt == "csv" else plain


def _numbered_records(fmt: str, fields: dict, values: Iterable[int], start: int) -> Iterator[str]:
    """_record's line for each value, numbered from start, all cut from one template.

    fields holds "\1" where the number goes and "\0" where the value goes;
    plain and csv lines are the number and the value, split by " " and ",".
    The number is an int, which json-lines writes bare, so the quotes that
    the template gives "\1" are dropped.
    """
    template = _record(fmt, "\1 \0", "\1,\0", fields).replace('"\1"', "\1")
    head, rest = template.split("\1")
    mid, end = rest.split("\0")
    return (f"{head}{number}{mid}{value}{end}" for number, value in enumerate(values, start))


def cmd_count(args) -> int:
    if args.all:
        results = count_all_methods(args.n, args.m)
        # Every value agrees, so any one is f_n(m).
        for method, reason in left_out_methods(args.n, args.m, results[0].value).items():
            print(f"note: {method} left out: {reason}", file=sys.stderr)
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
    if args.limit is None:
        check_enumeration_size(args.n, args.m, "; pass --limit to stream a bounded prefix")
    lines = enumerate_lines(args.n, args.m)
    if args.limit is not None:
        lines = islice(lines, args.limit)
    # Each chunk is printed as one string: the lines joined by sep, inside head
    # and end, which are _record's line for a matrix split where the matrix goes.
    fields = {"n": args.n, "m": args.m, "matrix": "\0"}
    head, end = _record(args.format, "\0", "\0", fields).split("\0")
    sep = end + "\n" + head
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
    values = list(count_table(args.n, args.max_m, args.method))
    fields = {"n": args.n, "m": "\1", "method": args.method, "value": "\0"}
    for line in _numbered_records(args.format, fields, values, 1):
        print(line)
    return EXIT_OK


def _verify_identity(n_max: int, t_order: int):
    # Truncations are prefixes, so the first differing t-power is the least failing order.
    for n in range(1, n_max + 1):
        lhs, rhs = identity_sides(n, t_order)
        for order, (left, right) in enumerate(zip(lhs.coefficients, rhs.coefficients)):
            if left != right:
                return f"n={n} t-order={order}"
    return None


def cmd_verify(args) -> int:
    n_max, m_max, t_order = args.n_max, args.m_max, args.t_order
    # Every check runs before the first line, so a refusal prints none, and the
    # symmetry sweep first, so that its budget is refused before any other check.
    asymmetric = first_asymmetric_pair(n_max + t_order)
    disagreement = first_disagreement(n_max, m_max)
    # Each counterexample is a non-empty string, or None when its check passes.
    counterexamples = (
        disagreement
        and "n={} m={} ({})".format(*disagreement[:2], DiscrepancyError(*disagreement)),
        asymmetric and "m={} k={}".format(*asymmetric),
        _verify_identity(n_max, t_order),
    )
    checks = (
        ("cross-method-agreement", f"n <= {n_max}, m <= {m_max}"),
        ("qbinomial-symmetry", f"m <= {n_max + t_order}"),
        ("generating-identity", f"n <= {n_max}, t-order <= {t_order}"),
    )
    for (name, scope), counterexample in zip(checks, counterexamples):
        outcome = f"pass ({scope})" if counterexample is None else f"fail at {counterexample}"
        print(f"{name}: {outcome}")
    return EXIT_MISMATCH if any(counterexamples) else EXIT_OK


def cmd_series(args) -> int:
    lhs, rhs = identity_sides(args.n, args.t_order)
    for name, side in (("lhs", lhs), ("rhs", rhs)):
        print(f"{name}:")
        for line in side.render_lines():
            print(line)
    if lhs == rhs:
        print("verdict: match")
        return EXIT_OK
    print("verdict: MISMATCH")
    return EXIT_MISMATCH


def cmd_euler_factor(args) -> int:
    coefficients = euler_factor(args.p, args.n, args.k_max)
    fields = {"p": args.p, "n": args.n, "k": "\1", "coefficient": "\0"}
    for line in _numbered_records(args.format, fields, coefficients, 0):
        print(line)
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

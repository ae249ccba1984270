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
for every n in one sweep and holds the value they agree on at each prime
power to `gauss_binomial_at`, the paper's bridge.  The symmetry sweep,
`latcount.qcalc.first_asymmetric_pair`, runs first, because it predicts
its largest pair's bytes and all of its grids' time before any pair and
refuses above MAX_PREDICTED_BYTES or MAX_PREDICTED_NS (exit 3, nothing on
stdout).  series and the identity check take both sides
from `latcount.series.identity_sides`, which orders their budgets.  Every
size decision lives in the library; this module imports none of its private
names.

Every command is a fresh process, so the module imports only the package at
start, and no argparse: `parse_args` reads argv from one table, COMMANDS, as
argparse read it (any order, --opt v or --opt=v, the last of a repeated
option, unique prefixes), and the same table renders -h/--help.
json-lines records are written as strings, without json, by one function,
`_record`.  enumerate, table and euler-factor cut every line from one
`_record` template per command.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Iterable, Iterator
from itertools import islice
from types import SimpleNamespace

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
# Each library error's exit code, matched by isinstance: a DiscrepancyError exits 4.
ERROR_EXITS = {CapacityError: EXIT_CAPACITY, ExactnessError: EXIT_MISMATCH, UsageError: EXIT_USAGE}

FORMATS = ("plain", "csv", "json-lines")
DESCRIPTION = "Count and enumerate index-m sublattices of the integer lattice Z^n."
EPILOG = (f"The environment variable {ENV_TRIAL_DIVISION_BOUND} overrides the\n"
          "trial-division bound used when factoring m (default 10^7).")

# enumerate prints this many lines per call.  Chunks stay small, so that peak
# memory and the time to the first line stay close to one print per line.
CHUNK_LINES = 256


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


SWITCH, REQUIRED = None, ...
N, M = ("--n", 1, REQUIRED, "lattice dimension"), ("--m", 1, REQUIRED, "sublattice index")
METHODS = tuple(method.value for method in Method)
METHOD = ("--method", METHODS, Method.GRUBER.value, "counting method")
FORMAT = ("--format", FORMATS, "plain", "output format")
T_ORDER = ("--t-order", 0, REQUIRED, "largest power of t")
HELP = ("-h/--help", SWITCH, False, "show this help message and exit")
HELP_ROW = ("-h, --help", HELP[3])

# Each command's handler, help line and options.  An option is (flag, kind,
# default, help): kind is the least integer it admits, the tuple of its
# choices, or SWITCH, a flag that takes no value and defaults to False.  An
# option whose default is REQUIRED must be given.
COMMANDS = {
    "count": (cmd_count, "compute the sublattice count f_n(m)", (N, M, METHOD, (
        "--all", SWITCH, False, "run every method and cross-check the values"), FORMAT)),
    "enumerate": (cmd_enumerate, "stream the normal-form basis matrices", (
        N, M, ("--limit", 0, None, "stop after this many matrices"), FORMAT)),
    "table": (cmd_table, "tabulate f_n(m) for m = 1..max-m", (
        N, ("--max-m", 1, REQUIRED, "largest index"), METHOD, FORMAT)),
    "verify": (cmd_verify, "run the cross-method and identity checks", (
        ("--n-max", 1, REQUIRED, "largest dimension"), ("--m-max", 1, REQUIRED, "largest index"),
        T_ORDER)),
    "series": (cmd_series, "print both sides of the generating identity", (N, T_ORDER)),
    "euler-factor": (cmd_euler_factor, "local factor of the count series at a prime", (
        ("--p", 1, REQUIRED, "a prime"), N, ("--k-max", 0, REQUIRED, "largest power of p"),
        FORMAT)),
}


class _ArgvError(Exception):
    """A refused argv, with argparse's words for the reason."""


def _spelled(option) -> str:
    """An option as usage spells it: its flag and its value's name, bracketed unless required."""
    flag, kind, default, _ = option
    if isinstance(kind, tuple):
        flag += f" {{{','.join(kind)}}}"
    elif kind is not SWITCH:
        flag += " " + flag[2:].upper().replace("-", "_")
    return flag if default is REQUIRED else f"[{flag}]"


def _rows(title: str, rows) -> str:
    return "\n".join([f"{title}:", *(f"  {name:21} {text}" for name, text in rows)])


def _help(command: str | None) -> str:
    """The -h/--help text of latcount or of a command, led by its usage line.

    It has one layout on every Python and terminal: a name wider than its
    column pushes its help right, and no line is wrapped.
    """
    if command:
        options = COMMANDS[command][2]
        usage = " ".join(["latcount", command, "[-h]", *map(_spelled, options)])
        rows = [(_spelled(option).strip("[]"), option[3]) for option in options]
        parts = [COMMANDS[command][1], _rows("options", [HELP_ROW, *rows])]
    else:
        usage = f"latcount [-h] {{{','.join(COMMANDS)}}} ..."
        rows = [(name, entry[1]) for name, entry in COMMANDS.items()]
        parts = [DESCRIPTION, _rows("commands", rows), _rows("options", [HELP_ROW]), EPILOG]
    return "\n\n".join([f"usage: {usage}", *parts])


def _read(token: str, flags) -> tuple[str | None, str | None] | None:
    """How argparse reads one token against a parser's flags.

    None is a value.  Otherwise (flag, text): flag is the flag the token
    names, in full or by a unique prefix, or None for an unknown option,
    and text the value given after "=", or None.  An ambiguous prefix is
    refused.  "-" alone, a negative number and a token with a space are
    values, and -hh... is -h given again.
    """
    if token[:1] != "-" or token == "-":
        return None
    head, eq, text = token.partition("=")
    text = text if eq else None
    if head in flags:
        return head, text
    if token[1] == "-":
        matches = [flag for flag in flags if flag.startswith(head)]
        if len(matches) > 1:
            raise _ArgvError(f"ambiguous option: {token} could match {', '.join(matches)}")
        if matches:
            return matches[0], text
    elif token[:2] == "-h":
        return "-h", token[2:].strip("h") or None
    # argparse's negative numbers: "-", digits with at most one "." not last, and one "\n" after.
    number = token[1:].removesuffix("\n")
    if number.replace(".", "", 1).isdecimal() and number[-1] != "." or " " in token:
        return None
    return None, None


def _value(flag: str, kind, text: str):
    """text as the value of an option of this kind, or _ArgvError."""
    if isinstance(kind, tuple):
        if text not in kind:
            choices = ", ".join(map(repr, kind))
            raise _ArgvError(f"argument {flag}: invalid choice: {text!r} (choose from {choices})")
        return text
    try:
        value = int(text)
    except ValueError:
        raise _ArgvError(f"argument {flag}: {text!r} is not an integer") from None
    if value < kind:
        raise _ArgvError(f"argument {flag}: must be >= {kind}, got {value}")
    return value


def _scan(tokens: list[str], fields: dict, extras: list) -> None:
    """Read tokens into fields as argparse reads them: at the top, or in fields' command.

    Every token is read before any is taken, so an ambiguous prefix is
    refused first; in a command, from "--" on nothing is an option.  An
    option takes the next token as its value, unless it reads as an
    option.  At the top the first value, or "--", is the command, and the
    tokens after it are read in that command.  A token no option takes goes
    to extras.  -h prints the help, of the command or at the top of
    latcount, and exits 0.
    """
    command = fields["command"]
    options = COMMANDS[command][2] if command else ()
    flags = {"-h": HELP, "--help": HELP, **{option[0]: option for option in options}}
    end = tokens.index("--") if command and "--" in tokens else len(tokens)
    readings = iter([(t, None if t == "--" else _read(t, flags)) for t in tokens[:end]])
    values = {}
    for token, reading in readings:
        if reading is None and not command:
            fields["command"] = _value("command", tuple(COMMANDS), token)
            # Every token before this one reads as an option, so this is its first place.
            return _scan(tokens[tokens.index(token) + 1 :], fields, extras)
        flag, text = reading or (None, None)
        if flag is None:
            extras.append(token)
            continue
        name, kind = flags[flag][:2]
        if kind is SWITCH and text is not None:
            raise _ArgvError(f"argument {name}: ignored explicit argument {text!r}")
        if name == HELP[0]:
            print(_help(command))
            raise SystemExit(EXIT_OK)
        if kind is not SWITCH and text is None:
            text, reading = next(readings, (None, ()))
            if reading is not None:
                raise _ArgvError(f"argument {flag}: expected one argument")
        values[flag] = True if kind is SWITCH else _value(flag, kind, text)
    missing = [option[0] for option in options if option[2] is REQUIRED and option[0] not in values]
    if missing or not command:
        missing = ", ".join(missing or ["command"])
        raise _ArgvError(f"the following arguments are required: {missing}")
    extras += tokens[end:]
    fields["handler"] = COMMANDS[command][0]
    fields.update({flag[2:].replace("-", "_"): values.get(flag, d) for flag, _, d, _ in options})


def parse_args(argv: list[str]) -> SimpleNamespace:
    """argv read from COMMANDS as argparse read it: command, handler and each option's value.

    An option's value is under its flag's name, "-" read as "_".  A refused
    argv writes a usage line and "<prog>: error: <reason>" to stderr and
    exits 2; -h/--help writes the help to stdout and exits 0.
    """
    fields, extras = {"command": None}, []
    try:
        _scan(argv, fields, extras)
        if extras:
            fields["command"] = None  # argparse refuses these at the top
            raise _ArgvError(f"unrecognized arguments: {' '.join(extras)}")
    except _ArgvError as exc:
        prog = " ".join(filter(None, ("latcount", fields["command"])))
        usage = _help(fields["command"]).split("\n", 1)[0]
        sys.stderr.write(f"{usage}\n{prog}: error: {exc}\n")
        raise SystemExit(EXIT_USAGE) from None
    return SimpleNamespace(**fields)


def main(argv=None) -> int:
    """Run the command argv, or sys.argv[1:], and return its exit code.

    Exact counts, and --m itself, may run past the 4300-digit int-to-str
    default, so the limit is lifted for the command and the caller's
    restored after it.  A library error is one line on stderr and the exit
    code ERROR_EXITS gives its class.
    """
    # An interpreter without the limit reads as 0 through int(), and int() sets nothing.
    limit = getattr(sys, "get_int_max_str_digits", int)()
    set_limit = getattr(sys, "set_int_max_str_digits", int)
    set_limit(0)
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed the pipe.  Point stdout at devnull so that the
        # interpreter's final flush is quiet, as the signal module docs advise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except tuple(ERROR_EXITS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for error, code in ERROR_EXITS.items() if isinstance(exc, error))
    except Exception as exc:
        # Anything else is a bug in latcount, not bad input: one line, no traceback.
        detail = " ".join(f"{type(exc).__name__}: {exc}".splitlines())
        print(f"error: internal: {detail}", file=sys.stderr)
        return EXIT_MISMATCH
    finally:
        set_limit(limit)


if __name__ == "__main__":
    sys.exit(main())

"""The command table reads every argv as the argparse parser it replaced did.

`oracles.build_parser` is that parser, kept verbatim.  Each argv is read by
both, in process: both must accept it or refuse it, an accepted argv must
give the same command, handler and values, and every refusal exits 2 with
nothing on stdout.  A help request (-h/--help) must exit 0 from both; the
help text itself is pinned by tests/test_cli.py.
"""

import ast
import io
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latcount.cli as cli
from oracles import build_parser

TESTS = Path(__file__).resolve().parent
PERFBENCH = str(TESTS.parent / "perfbench")

FLAGS = sorted({option[0] for entry in cli.COMMANDS.values() for option in entry[2]})
# Prefixes of every flag, and options no parser has.  A single-dash -h with
# a tail, "--" and a value given as "=--" are left out: argparse reads them
# differently from one Python to the next (see test_corners_argparse_reads_by_version).
PREFIXES = sorted({flag[:k] for flag in FLAGS + ["--help"] for k in range(3, len(flag))})
JUNK_FLAGS = ["-h", "--help", "--bogus", "-x", "---", "--n-", "--="]
VALUES = [
    "0", "-0", "1", "2", "12", "-1", "-7", " 7", "7 ", "+3", "1_0", "x", "", " ", "1.5", "-1.5",
    "1e3", "0x10", "-", "-x", "--n", "--m", "--bogus", *cli.METHODS, *cli.FORMATS, "Gruber",
    "plain ", "json", "10" * 30,
]
BAD_COMMANDS = ["", "x", "Count", "co", "-1", "countx"]



@pytest.fixture(autouse=True, scope="module")
def restore_int_max_str_digits():
    # parse_args lifts the limit for the whole process; later test modules expect the default.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    yield
    if limit is not None:
        sys.set_int_max_str_digits(limit)


def read(parse, argv):
    """How parse takes argv: ("parsed", fields) or ("exit", code, whether stdout was written)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            return ("parsed", vars(parse(list(argv))))
        except SystemExit as exc:
            return ("exit", exc.code, out.getvalue() != "")


def assert_read_alike(argv):
    new = read(cli.parse_args, argv)
    assert new == read(lambda args: build_parser().parse_args(args), argv), argv
    if new[0] == "exit" and new[1] != 0:
        assert new == ("exit", 2, False), argv


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(list(cli.COMMANDS)) | st.sampled_from(BAD_COMMANDS))
    options = cli.COMMANDS.get(command, (None, None, ()))[2]
    own = [option[0] for option in options]
    flags = st.sampled_from(own or FLAGS) | st.sampled_from(FLAGS + PREFIXES + JUNK_FLAGS)
    values = st.integers(-3, 60).map(str) | st.sampled_from(VALUES)
    argv = draw(st.lists(st.sampled_from(["-h", "--he", "--bogus", "x"]), max_size=1))
    argv.append(command)
    if draw(st.booleans()):
        # Every required option, so that some argvs are accepted.
        for flag, low, default, _ in options:
            if default is cli.REQUIRED:
                argv += [flag, str(draw(st.integers(low, low + 9)))]
    for _ in range(draw(st.integers(0, 5))):
        flag, value, form = draw(flags), draw(values), draw(st.sampled_from("s=bv"))
        if form == "=" and flag.startswith("-h"):
            form = "s"
        argv += {"s": [flag, value], "=": [f"{flag}={value}"], "b": [flag], "v": [value]}[form]
    draw(st.randoms()).shuffle(argv) if draw(st.integers(0, 4)) == 0 else None
    return argv


@settings(max_examples=1500, deadline=None)
@given(argvs())
def test_the_table_reads_every_argv_as_argparse_did(argv):
    assert_read_alike(argv)


def literal_argvs():
    """Every argv the other test files spell out whole.

    That is a string whose first word is a command, a list or tuple of
    strings that starts with one, the strings given to run_cli, and each
    enumerate digest's arguments.
    """
    from test_cli import ENUMERATE_DIGESTS

    found = [["enumerate", *args.split(), "--format", fmt] for args, fmt, _ in ENUMERATE_DIGESTS]
    for path in sorted(TESTS.glob("test_*.py")):
        if path.name == Path(__file__).name:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                words = node.value.split()
            elif isinstance(node, (ast.List, ast.Tuple, ast.Call)):
                items = node.args if isinstance(node, ast.Call) else node.elts
                if isinstance(node, ast.Call) and ast.unparse(node.func) != "run_cli":
                    continue
                words = [item.value for item in items if isinstance(item, ast.Constant)]
                if len(words) < len(items) or not all(isinstance(w, str) for w in words):
                    continue
            else:
                continue
            if words and words[0] in cli.COMMANDS:
                found.append(words)
    return found


def workload_argvs():
    sys.path.insert(0, PERFBENCH)
    try:
        import workloads
    finally:
        sys.path.remove(PERFBENCH)
    found = [list(workloads.SETUP.argv), *(list(probe.argv) for probe in workloads.PROBE)]
    for seed in range(21):
        for workload in workloads.WORKLOADS.values():
            found += [list(call.argv) for call in workload.generate(random.Random(seed))]
    return found


def test_every_argv_in_the_tests_reads_alike():
    argvs = literal_argvs()
    assert len(argvs) > 100
    for argv in argvs:
        assert_read_alike(argv)


def test_every_benchmark_argv_reads_alike_and_is_accepted():
    argvs = workload_argvs()
    assert len(argvs) > 200
    for argv in argvs:
        assert_read_alike(argv)
        assert read(cli.parse_args, argv)[0] == "parsed", argv


@pytest.mark.parametrize(
    "argv, code",
    [
        ("count --n 1 --m 1 --", 2),
        ("-- count --n 1 --m 1", 2),
        ("count -- --n 1 --m 1", 2),
        ("count --n 1 --m 1 -- -h", 2),
        ("count --n 1 --m 1 -h -- x", 0),
        ("count --n 1 --m 1 -hh", 0),
        ("count -hx", 2),
        ("count -hx -h", 2),
        ("table -h --m", 2),
        ("--bogus -h", 0),
        ("count --n 1 --m 1 --bogus -h", 0),
        ("count --n 1 --m 1 --all=", 2),
        # argparse before 3.13 read "--n=--" as n = [], which then failed as an internal error.
        ("count --n=-- --m 1", 2),
        ("count --method=-- --n 1 --m 1", 2),
    ],
)
def test_corners_argparse_reads_by_version(argv, code):
    # Each is read as Python 3.11's argparse read it, but for "=--", refused.
    assert read(cli.parse_args, argv.split())[:2] == ("exit", code)


@pytest.mark.parametrize(
    "argv, fields",
    [
        ("verify --n 4 --m 989 --t 10", {"n_max": 4, "m_max": 989, "t_order": 10}),
        ("count --m 3 --n 2 --me recursion", {"n": 2, "m": 3, "method": "recursion"}),
        ("count --n 1 --n=2 --m 3 --f=csv --al", {"n": 2, "format": "csv", "all": True}),
        ("enumerate --n 2 --m 3 --limit -0", {"limit": 0}),
        ("series --n 3 --t 2 --t-order=4", {"n": 3, "t_order": 4}),
    ],
)
def test_prefixes_repeats_and_equals_forms_are_read(argv, fields):
    outcome = read(cli.parse_args, argv.split())
    assert outcome[0] == "parsed"
    assert fields.items() <= outcome[1].items()


def test_main_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["latcount", "count", "--n", "3", "--m", "12"])
    assert cli.main() == 0
    assert capsys.readouterr().out == "455\n"

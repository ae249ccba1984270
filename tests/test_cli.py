"""CLI contract tests: golden outputs, exit codes, determinism.

Byte-level goldens run the real interpreter via subprocess; fault-injection
cases drive cli.main() in process so internals can be monkeypatched.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import latcount.cli as cli
import latcount.count
from latcount import CountResult, DiscrepancyError, Method, gauss_binomial_at


def run_cli(*args, env_extra=None):
    env = None
    if env_extra:
        import os

        env = dict(os.environ, **env_extra)
    return subprocess.run(
        [sys.executable, "-m", "latcount", *args],
        capture_output=True,
        text=True,
        env=env,
    )


class TestCount:
    def test_all_methods_golden(self):
        proc = run_cli("count", "--n", "2", "--m", "2", "--all")
        assert proc.returncode == 0
        assert proc.stdout == (
            "dirichlet: 3\n"
            "factorization-sum: 3\n"
            "gruber: 3\n"
            "hnf: 3\n"
            "recursion: 3\n"
        )

    def test_single_value_plain(self):
        proc = run_cli("count", "--n", "1", "--m", "12")
        assert proc.returncode == 0
        assert proc.stdout == "1\n"

    def test_method_selection(self):
        for method in ("factorization-sum", "recursion", "gruber", "dirichlet", "hnf"):
            proc = run_cli("count", "--n", "3", "--m", "4", "--method", method)
            assert proc.returncode == 0
            assert proc.stdout == "35\n"

    def test_json_lines_format(self):
        proc = run_cli("count", "--n", "2", "--m", "2", "--all", "--format", "json-lines")
        assert proc.returncode == 0
        records = [json.loads(line) for line in proc.stdout.splitlines()]
        assert [r["method"] for r in records] == [
            "dirichlet",
            "factorization-sum",
            "gruber",
            "hnf",
            "recursion",
        ]
        assert all(r["value"] == "3" and r["n"] == 2 and r["m"] == 2 for r in records)

    def test_invalid_dimension_exits_2(self):
        proc = run_cli("count", "--n", "0", "--m", "5")
        assert proc.returncode == 2
        assert proc.stdout == ""

    def test_capacity_exits_3(self):
        proc = run_cli(
            "count", "--n", "2", "--m", "9",
            env_extra={"LATCOUNT_TRIAL_DIVISION_BOUND": "2"},
        )
        assert proc.returncode == 3
        assert "bound" in proc.stderr

    def test_discrepancy_exits_4(self, monkeypatch, capsys):
        def explode(n, m, include_enumeration=False, enumeration_cap=0):
            raise DiscrepancyError(n, m, [("gruber", 1), ("recursion", 2)])

        monkeypatch.setattr(cli, "count_all_methods", explode)
        code = cli.main(["count", "--n", "2", "--m", "2", "--all"])
        assert code == 4
        assert "disagree" in capsys.readouterr().err

    def test_gruber_product_mismatch_exits_4(self, monkeypatch, capsys):
        class Shifting:
            """A factorization whose factors change between Gruber's two passes."""

            def __init__(self):
                self.passes = iter((((2, 1),), ((3, 1),)))

            @property
            def factors(self):
                return next(self.passes)

        monkeypatch.setattr(latcount.count, "factorize", lambda m: Shifting())
        code = cli.main(["count", "--n", "2", "--m", "2"])
        assert code == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: product forms disagree")

    def test_value_past_the_int_str_digit_limit(self):
        # f_20(2^1000) = [1019 choose 1000]_2 has about 5,700 digits
        proc = run_cli("count", "--n", "20", "--m", str(2**1000))
        assert proc.returncode == 0, proc.stderr
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            assert int(proc.stdout) == gauss_binomial_at(1019, 1000, 2)
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)

    def test_index_past_the_int_str_digit_limit(self):
        proc = run_cli("count", "--n", "1", "--m", "1" + "0" * 4400)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "1\n"


class TestEnumerate:
    def test_two_by_two_golden(self):
        proc = run_cli("enumerate", "--n", "2", "--m", "2")
        assert proc.returncode == 0
        assert proc.stdout == "1,0;0,2\n1,0;1,2\n2,0;0,1\ncount: 3\n"

    def test_dimension_one(self):
        proc = run_cli("enumerate", "--n", "1", "--m", "9")
        assert proc.returncode == 0
        assert proc.stdout == "9\ncount: 1\n"

    def test_three_by_three(self):
        proc = run_cli("enumerate", "--n", "3", "--m", "2")
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert len(lines) == 8
        assert lines[-1] == "count: 7"

    def test_limit_stops_the_stream(self):
        proc = run_cli("enumerate", "--n", "2", "--m", "12", "--limit", "2")
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert len(lines) == 3
        assert lines[-1] == "count: 2"

    def test_json_lines(self):
        proc = run_cli("enumerate", "--n", "2", "--m", "2", "--format", "json-lines")
        records = [json.loads(line) for line in proc.stdout.splitlines()]
        assert records[:-1] == [
            {"n": 2, "m": 2, "matrix": "1,0;0,2"},
            {"n": 2, "m": 2, "matrix": "1,0;1,2"},
            {"n": 2, "m": 2, "matrix": "2,0;0,1"},
        ]
        assert records[-1] == {"count": 3}

    def test_closed_pipe_exits_1_quietly(self):
        # f_3(360) = 624,650 lines: far more than a pipe buffer holds
        proc = subprocess.Popen(
            [sys.executable, "-m", "latcount", "enumerate", "--n", "3", "--m", "360"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            assert proc.stdout.readline() == b"1,0,0;0,1,0;0,0,360\n"
            proc.stdout.close()
            stderr = proc.stderr.read()
            assert proc.wait(timeout=60) == 1
        finally:
            proc.kill()
            proc.wait()
            proc.stderr.close()
        assert stderr == b""


class TestTable:
    def test_sigma_table_csv_golden(self):
        proc = run_cli("table", "--n", "2", "--max-m", "6", "--format", "csv")
        assert proc.returncode == 0
        assert proc.stdout == "1,1\n2,3\n3,4\n4,7\n5,6\n6,12\n"

    def test_dimension_one(self):
        proc = run_cli("table", "--n", "1", "--max-m", "3")
        assert proc.stdout == "1 1\n2 1\n3 1\n"

    def test_dimension_three(self):
        proc = run_cli("table", "--n", "3", "--max-m", "4", "--format", "csv")
        assert proc.stdout == "1,1\n2,7\n3,13\n4,35\n"

    def test_method_override_agrees(self):
        base = run_cli("table", "--n", "3", "--max-m", "10", "--format", "csv")
        for method in ("factorization-sum", "recursion", "dirichlet"):
            other = run_cli(
                "table", "--n", "3", "--max-m", "10", "--format", "csv", "--method", method
            )
            assert other.stdout == base.stdout


class TestVerify:
    def test_small_run_passes(self):
        proc = run_cli("verify", "--n-max", "2", "--m-max", "30", "--t-order", "4")
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert len(lines) == 3
        assert all(": pass" in line for line in lines)

    def test_trivial_bounds(self):
        proc = run_cli("verify", "--n-max", "1", "--m-max", "1", "--t-order", "0")
        assert proc.returncode == 0

    def test_injected_fault_exits_4(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "verify_generating_identity", lambda n, order: False)
        code = cli.main(["verify", "--n-max", "2", "--m-max", "5", "--t-order", "3"])
        assert code == 4
        out = capsys.readouterr().out
        # smallest counterexample in scan order
        assert "generating-identity: fail at n=1 t-order=0" in out

    def test_cross_method_fault_exits_4(self, monkeypatch, capsys):
        real_table = cli.count_table

        def skewed_table(n, max_m, method):
            table = list(real_table(n, max_m, method))
            if method is Method.GRUBER and n == 2:
                table[5] = CountResult(999, Method.GRUBER)
            return table

        monkeypatch.setattr(cli, "count_table", skewed_table)
        code = cli.main(["verify", "--n-max", "2", "--m-max", "8", "--t-order", "1"])
        assert code == 4
        assert (
            "cross-method-agreement: fail at n=2 m=6 (methods disagree for n=2, m=6: "
            "dirichlet=12, factorization-sum=12, gruber=999, recursion=12)"
        ) in capsys.readouterr().out


class TestSeries:
    def test_golden(self):
        proc = run_cli("series", "--n", "2", "--t-order", "2")
        assert proc.returncode == 0
        assert proc.stdout == (
            "lhs:\n"
            "t^0: 1\n"
            "t^1: 1 + q\n"
            "t^2: 1 + q + q^2\n"
            "rhs:\n"
            "t^0: 1\n"
            "t^1: 1 + q\n"
            "t^2: 1 + q + q^2\n"
            "verdict: match\n"
        )


class TestEulerFactor:
    def test_golden(self):
        proc = run_cli("euler-factor", "--p", "2", "--n", "3", "--k-max", "2")
        assert proc.returncode == 0
        assert proc.stdout == "0 1\n1 7\n2 35\n"

    def test_non_prime_exits_2(self):
        proc = run_cli("euler-factor", "--p", "4", "--n", "2", "--k-max", "1")
        assert proc.returncode == 2
        assert "prime" in proc.stderr


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ("count", "--n", "2", "--m", "2", "--all"),
            ("count", "--n", "4", "--m", "360", "--all", "--format", "json-lines"),
            ("table", "--n", "2", "--max-m", "6", "--format", "csv"),
            ("enumerate", "--n", "3", "--m", "4"),
            ("series", "--n", "3", "--t-order", "4"),
        ],
    )
    def test_repeated_runs_are_byte_identical(self, args):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so no check in the package may be one.
    for path in sorted(Path(latcount.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert lines == [], f"assert statements in {path.name} at lines {lines}"

"""CLI contract tests: golden outputs, exit codes, determinism.

Byte-level goldens run the real interpreter via subprocess; fault-injection
cases drive cli.main() in process so internals can be monkeypatched.
"""

import ast
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import latcount.cli as cli
import latcount.count
import latcount.qcalc
import latcount.series
from latcount import (
    CapacityError,
    CountResult,
    DiscrepancyError,
    Method,
    QPolynomial,
    TSeries,
    UsageError,
    gauss_binomial_at,
)
from latcount.core import MAX_PREDICTED_BYTES
from latcount.hnf import _prefix_bytes
from latcount.series import _dirichlet_bytes


def run_cli(*args, env_extra=None, timeout=None):
    env = None
    if env_extra:
        env = dict(os.environ, **env_extra)
    return subprocess.run(
        [sys.executable, "-m", "latcount", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


# sha256 of the stdout of `enumerate ARGS --format FMT`, recorded from the
# printer that built an HnfMatrix and called print() once per line.  The
# limits 255, 256, 257 and 513 sit on the edges of 256-line print chunks.
ENUMERATE_DIGESTS = [
    ("--n 4 --m 24", "plain", "4a7bfe87ac55aa1e8bbf64721f62ec9ed909cbb1d3ca91d8ff963528d1d1e757"),
    ("--n 4 --m 24", "csv", "e99caa3275ef6a7d5a59b4fd078b202215f8cf7aeed7b11b376a65f6ea82c49d"),
    ("--n 4 --m 24", "json-lines", "76f4ca79f0a10f6658e44537cb7f2fe556f5a3f832489b21fe0c534bc970b7ce"),
    ("--n 3 --m 233", "plain", "f792d6b30abc1b2e90e0467f63eda82a87ac54168ef32265a77edafaa2c1162a"),
    ("--n 3 --m 233", "csv", "6f712f376daa17ada346cbf1a37e467a1f477cd01e2fa9fefdb35df5cfda602a"),
    ("--n 3 --m 233", "json-lines", "b9a67e1aa94073de70896476b68fdaeb920b1eff8b0e820406719468ac5dbd8e"),
    ("--n 4 --m 24 --limit 0", "plain", "d15d0edf16d99d8903be3938ca01b315ca5b082184399ef866dc72f3b1fe22dd"),
    ("--n 4 --m 24 --limit 0", "csv", "d8b11969027b22e68a0256571cdfb509e4f75f148f8956c2445d0dbc4e7fcc33"),
    ("--n 4 --m 24 --limit 0", "json-lines", "3108e15dfc911f1a730106ee1e44c941639e0b7add838d095680425e86d086c3"),
    ("--n 4 --m 24 --limit 1", "plain", "4bef6e5eaac0626dd09415c29b9eb091bf2b0ba230e2bfec91082e7d6559d03b"),
    ("--n 4 --m 24 --limit 1", "csv", "0b2e39080e44160dcf54cd47d12ad0654bf774fd981b43be8fd7235c099a4070"),
    ("--n 4 --m 24 --limit 1", "json-lines", "30a6c20d1208ec08db673f593cad9e350b951ff5f9d1bcf6e421d879c2b4fc3b"),
    ("--n 4 --m 24 --limit 255", "plain", "183435aea9c0f565447806ea449ce704b8a329f57cd90983d0cf0442e304ffc8"),
    ("--n 4 --m 24 --limit 255", "csv", "39a92e5d151d8474cde40f437084cecf9c53e360e7b55985b3492ee059338f53"),
    ("--n 4 --m 24 --limit 255", "json-lines", "bf084e476bfc9c9022d90c53e42f5e95a0cf785841a5a621f3a938bb5ff0f838"),
    ("--n 4 --m 24 --limit 256", "plain", "be02ba17949db98a5d94e70912e3c84c51c2c7bcaa38c932183e646e7bdc8cfc"),
    ("--n 4 --m 24 --limit 256", "csv", "6e8076a6d6a8904451195150e8cf6472d4f498e7cbfb55b7101163264893a6af"),
    ("--n 4 --m 24 --limit 256", "json-lines", "9b000fed57e2e7d9847313cf97bb593af562f40dd82a2e66cc451df3144e04a8"),
    ("--n 4 --m 24 --limit 257", "plain", "0f4363a1739b8793f8f1c286cb66628eab3972f04054ff861fa581c6951af091"),
    ("--n 4 --m 24 --limit 257", "csv", "629a030dd826f8361e7e265d07ae98e756f13afe2bc5f27dd66980732fcfce6e"),
    ("--n 4 --m 24 --limit 257", "json-lines", "71eef0ee428d0b2629d58fb579443e7f04cc9fe33cb5e745fcd84ff1ea31b261"),
    ("--n 4 --m 24 --limit 513", "plain", "a44ff4c88d83634e9a707ad70be5ce03e005be51fc7e4ffbe58e1741d131a001"),
    ("--n 4 --m 24 --limit 513", "csv", "93e3728b99b802b118dbb22acc8a307a263fb43ae11f85dfb15815a408fa7c52"),
    ("--n 4 --m 24 --limit 513", "json-lines", "e3188ebe63ffef2718afb5949ea7d14ce59e8b54566830385f8c8be07e1e7faa"),
]

# sha256 of the stdout of the q-side commands, recorded from the schoolbook
# QPolynomial product that multiplied every stored coefficient, zeros too.
Q_SIDE_DIGESTS = [
    ("series --n 17 --t-order 17", "f035f664d03a5d687d8386fff4a32bd684d8a65858a92f7970b2ec326551cfd7"),
    ("series --n 16 --t-order 18", "1d9ab8b775adf7aa632d2ea6e4142ebfccecc8723a4394f4a1701475a4d94398"),
    ("series --n 13 --t-order 21", "447a6ef6028c2b86953ea6eeb8e4479f07f84f3294fe7149cd02f7db5d0192ae"),
    ("series --n 20 --t-order 15", "e304bf536fbfe6e67801ea454b5d1516e101a764863623169e9bc06840513797"),
    ("verify --n-max 5 --m-max 548 --t-order 10", "cc67c90502c601522c9bf439480634b5326f77d7030b55510f15e168edd55bab"),
]

# sha256 of the stdout of verify, recorded from the verify that printed each
# check's line as it finished, compared every symmetric pair from both ends and
# rebuilt both sides of the identity for every truncation order.
VERIFY_DIGESTS = [
    ("verify --n-max 4 --m-max 989 --t-order 10", "e4f5c7a721f8c260fdc89c2fed48e2eee555cac4cebae9151588fed45341b310"),
    ("verify --n-max 5 --m-max 542 --t-order 9", "fb59145a54368393e3ae9caa9f8326801d13483d078daf2086530584c1c202be"),
    ("verify --n-max 3 --m-max 100 --t-order 6", "26ea24b115d9994a13ab7954f835fa01862dccd857cfe3eafd5690e96e150377"),
]

# sha256 of the stdout of commands that walk the divisor lattice, recorded from
# the tuple generator that re-filtered each quotient's divisors from its parent's
# list and the recursion that tested every pair of divisors of m.
DIVISOR_LATTICE_DIGESTS = [
    ("table --n 4 --max-m 300 --method recursion", "4a047515bbfc58944e290212502f9de5b3330b9c9dee2d20661d39e31d171124"),
    ("table --n 5 --max-m 300 --method factorization-sum", "90281e5f6dd218321e5017039bf984760e9097a7359c5f7c7d65202609a82708"),
    ("count --n 4 --m 5040 --all", "a8737d3cfd5ba411efc16b994b242d77d03ed9418d90c31232e596d6a5e1b741"),
    ("count --n 7 --m 53130 --method factorization-sum", "c01a47e62985da5a918b4bf13b6e0145824d110771e1532fc1edd20506373eb7"),
    ("count --n 4 --m 1202570211570 --method recursion", "b575ad3da7406317dc35ce64bb50064382c1bac21ae66d69ed89132b89fb7d9d"),
    ("enumerate --n 4 --m 60 --limit 5000", "ba8e34f3e1a707ed963cc4bf2cfa01ff2a80cc6e66294279013a70e55e9db228"),
]

# The stderr of the digest commands above that leave a method out; the others print none.
DIGEST_NOTES = {
    "count --n 4 --m 5040 --all": (
        "note: hnf left out: it would emit 891777744000 matrices, above the default cap 1000000\n"
    ),
}

# sha256 of the stdout of sweeps over m, recorded from the count_table that built
# a DivisorIndex of each m for factorization-sum and recursion.  The verify is
# the top of the benchmark's n <= 4 band.
SWEEP_DIGESTS = [
    ("table --n 4 --max-m 3000 --method recursion", "a3c96ac6c8843e5e5399a8564f8ceb10940fc511a394c45da3178a0111d34cff"),
    ("table --n 5 --max-m 2000 --method factorization-sum --format csv", "62a50756281fc706448040a37fbb905b7e27dd01b7c9b22ab089a3b1e37fcc87"),
    ("verify --n-max 4 --m-max 1014 --t-order 8", "74275ab06cccebe93da40fb45615e35e6262e37d2288990c1033ca5c654944bf"),
]

# sha256 of the stdout of a recursion table, recorded from the count_table that
# ran the recursion once per m over the divisors of m in one divisor table.
RECURSION_SWEEP_DIGESTS = [
    ("table --n 5 --max-m 3000 --method recursion", "efb55cd4bcb2bff839ee04fdce5fabf9f68b8636a7a2576138537c9d24cf4a65"),
]

# sha256 of the stdout of Dirichlet tables, recorded from the convolution that
# built a list of powers and a fresh list of sums for every shift.
DIRICHLET_DIGESTS = [
    ("table --n 4 --max-m 5000 --method dirichlet", "70130d80a4dfc029b0e0b8beefb70f849d10594714b3c9ff14552b5487f0ed8b"),
    ("table --n 2 --max-m 3000 --method dirichlet --format csv", "ba4160d1d1651d8dadb7d858e8c8a236babd39a9db0d4d233c7707fe42421eff"),
]


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

    def test_json_lines_golden(self):
        # recorded while cli imported json at module level
        proc = run_cli("count", "--n", "2", "--m", "2", "--all", "--format", "json-lines")
        assert proc.returncode == 0
        assert proc.stdout == (
            '{"n":2,"m":2,"method":"dirichlet","value":"3"}\n'
            '{"n":2,"m":2,"method":"factorization-sum","value":"3"}\n'
            '{"n":2,"m":2,"method":"gruber","value":"3"}\n'
            '{"n":2,"m":2,"method":"hnf","value":"3"}\n'
            '{"n":2,"m":2,"method":"recursion","value":"3"}\n'
        )
        assert_stdout_digest(
            "count --n 4 --m 360 --all --format json-lines",
            "7c22c89ff350e83db99645f5f54699728eea23b255807914dae670a819b320c2",
            "note: hnf left out: it would emit 263320200 matrices, above the default cap 1000000\n",
        )

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

    def test_a_trial_search_past_its_cells_exits_3(self):
        # 1000003^500 has 9966 bits, so each candidate costs 20 cells and 1000003 is not reached.
        proc = run_cli("count", "--n", "2", "--m", str(1000003**500))
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"error: cannot factor {1000003**500}: trial division of ")
        assert proc.stderr.endswith(
            " past 562500 would cost more than 3000000 cells, at 20 a candidate\n"
        )

    def test_non_integer_bound_names_the_variable(self):
        proc = run_cli(
            "count", "--n", "2", "--m", "6",
            env_extra={"LATCOUNT_TRIAL_DIVISION_BOUND": "abc"},
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: LATCOUNT_TRIAL_DIVISION_BOUND must be an integer, got 'abc'\n"

    def test_dirichlet_limit_refused_before_allocating(self, capsys):
        tracemalloc.start()
        try:
            code = cli.main(["count", "--n", "5", "--m", str(10**10), "--method", "dirichlet"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 3
        assert peak < 1 << 20
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: dirichlet_coefficients(5, 10000000000) would hold ")
        assert err.endswith(f"bytes in its lists, above the limit {MAX_PREDICTED_BYTES}\n")

    def test_all_leaves_dirichlet_out_past_its_limit(self):
        proc = run_cli("count", "--n", "2", "--m", "10000000019", "--all")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (
            "factorization-sum: 10000000020\ngruber: 10000000020\nrecursion: 10000000020\n"
        )
        assert proc.stderr == (
            f"note: dirichlet left out: it would hold {_dirichlet_bytes(2, 10000000019)} "
            f"bytes in its lists, above the limit {MAX_PREDICTED_BYTES}\n"
            "note: hnf left out: it would emit 10000000020 matrices, above the default cap 1000000\n"
        )

    def test_all_notes_enumeration_left_out_over_its_cap(self):
        proc = run_cli("count", "--n", "3", "--m", "720", "--all")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (
            "dirichlet: 2623530\nfactorization-sum: 2623530\ngruber: 2623530\nrecursion: 2623530\n"
        )
        assert proc.stderr == (
            "note: hnf left out: it would emit 2623530 matrices, above the default cap 1000000\n"
        )

    def test_all_in_more_dimensions_than_the_stack_is_deep(self):
        proc = run_cli("count", "--n", "1100", "--m", "2", "--all", timeout=60)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert [line.split(": ")[0] for line in lines] == [
            "dirichlet",
            "factorization-sum",
            "gruber",
            "recursion",
        ]
        assert len({line.split(": ")[1] for line in lines}) == 1
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith("note: hnf left out: ")

    def test_discrepancy_exits_4(self, monkeypatch, capsys):
        def explode(n, m):
            raise DiscrepancyError(n, m, [("gruber", 1), ("recursion", 2)])

        monkeypatch.setattr(cli, "count_all_methods", explode)
        code = cli.main(["count", "--n", "2", "--m", "2", "--all"])
        assert code == 4
        assert "disagree" in capsys.readouterr().err

    def test_gruber_product_mismatch_exits_4(self, monkeypatch, capsys):
        class Shifting:
            """A factorization whose pairs change between Gruber's two product passes.

            The first pass is the budget's, which sees what the first product form sees.
            """

            def __init__(self):
                self.passes = iter((((2, 1),), ((2, 1),), ((3, 1),)))

            def __iter__(self):
                return iter(next(self.passes))

        monkeypatch.setattr(latcount.count, "factorize", lambda m: Shifting())
        code = cli.main(["count", "--n", "2", "--m", "2"])
        assert code == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: product forms disagree")

    # f_3(720) = 2,623,530 is over the default cap of 10^6, and so is f_11(4) >= 4^10;
    # checked per m only, table would enumerate every m below the first over the cap.
    # table's time is asked before any m's cap: (4, 72), whose f_4(72) = 1,687,950 the cap
    # refused, now passes the sweep's time first.
    @pytest.mark.parametrize(
        "args, expected",
        [
            (("count", "--n", "3", "--m", "720", "--method", "hnf"), "2623530 matrices, above "
             "the default cap 1000000"),
            (("table", "--n", "11", "--max-m", "4", "--method", "hnf"), "(n=11, m=4) would emit "
             "at least m^10 matrices, above the default cap 1000000"),
            (("table", "--n", "4", "--max-m", "72", "--method", "hnf"), "the enumeration sweep "
             "up to n=4, m=72 would take at least 15193353600 ns, above the limit 2000000000"),
        ],
        ids=["args0", "args1", "args2"],
    )
    def test_hnf_over_cap_is_refused_before_the_first_matrix(self, args, expected):
        proc = run_cli(*args, timeout=10)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert expected in proc.stderr

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

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit")
    def test_main_lifts_the_int_str_digit_limit_for_its_command_alone(self, capsys):
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
        try:
            assert cli.main(["count", "--n", "1", "--m", "1" + "0" * 4400]) == 0
            assert capsys.readouterr().out == "1\n"
            assert sys.get_int_max_str_digits() == sys.int_info.default_max_str_digits
        finally:
            sys.set_int_max_str_digits(saved)


class TestExitCodes:
    """Exit 2 only for a UsageError; any other escaping exception is an internal error, exit 4."""

    def test_internal_value_error_exits_4(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_count", lambda n, m, method: CountResult(0, Method.GRUBER))
        code = cli.main(["count", "--n", "2", "--m", "2"])
        assert code == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: internal: ValueError: count must be >= 1, got 0\n"

    def test_any_other_exception_exits_4_on_one_line(self, monkeypatch, capsys):
        def broken(n, max_m, method):
            raise ZeroDivisionError("first line\nsecond line")

        monkeypatch.setattr(cli, "count_table", broken)
        code = cli.main(["table", "--n", "2", "--max-m", "3"])
        assert code == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: internal: ZeroDivisionError: first line second line\n"

    def test_internal_error_in_a_process_has_no_traceback(self):
        script = (
            "import sys\n"
            "import latcount.cli as cli\n"
            "from latcount import CountResult, Method\n"
            "cli.run_count = lambda n, m, method: CountResult(0, Method.GRUBER)\n"
            "sys.exit(cli.main(['count', '--n', '2', '--m', '2']))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 4
        assert proc.stdout == ""
        assert proc.stderr == "error: internal: ValueError: count must be >= 1, got 0\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("enumerate", "--n", "2", "--limit", "1"),
            ("count", "--n", "2", "--method", "factorization-sum"),
            ("count", "--n", "3", "--method", "recursion"),
            ("count", "--n", "2", "--all"),
            ("count", "--n", "2", "--method", "recursion"),
        ],
        ids=["enumerate", "factorization-sum", "recursion", "all", "recursion-n2"],
    )
    def test_an_m_with_too_many_divisors_exits_3_before_output(self, argv):
        # 10^5000 factors at once, but its 5001^2 divisors would take gigabytes to list
        proc = run_cli(*argv, "--m", "1" + "0" * 5000, timeout=30)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == (
            "error: listing the 25010001 divisors of an m of 16610 bits would hold 36089431443 "
            "bytes, above the limit 100000000\n"
        )

    @pytest.mark.parametrize(
        "method, n, m, message",
        [
            (
                "recursion",
                7700,
                "200560490130",
                "the recursion's 2048 values for n=7700 at an m of 38 bits would hold 100186264 "
                "bytes, above the limit 100000000",
            ),
            (
                "recursion",
                392,
                "200560490130",
                "the recursion's levels for n=392 at an m of 38 bits would take 2002692225 ns, "
                "above the limit 2000000000",
            ),
            (
                "factorization-sum",
                8,
                "720720",
                "the 48660480 8-part factorizations of an m of 20 bits would take 4577544420 "
                "ns, above the limit 2000000000",
            ),
        ],
        ids=["recursion-values", "recursion-levels", "factorization-sum"],
    )
    def test_a_single_count_over_its_budget_exits_3_before_output(self, method, n, m, message):
        # Before these budgets (300, 2 * 3 * ... * 31) ran 19 s, and (8, 720720) 10.9 s.
        proc = run_cli("count", "--n", str(n), "--m", m, "--method", method, timeout=30)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ("table", "--n", "5", "--max-m", "42904", "--method", "factorization-sum"),
                "the factorization-sum sweep up to n=5, m=42904 would take at least 2000057300 "
                "ns, above the limit 2000000000",
            ),
            (
                ("table", "--n", "2", "--max-m", "300123", "--method", "factorization-sum"),
                "the factorization-sum sweep's divisor table up to m=300123 would hold 100000020 "
                "bytes, above the limit 100000000",
            ),
            (
                ("verify", "--n-max", "5", "--m-max", "36984", "--t-order", "0"),
                "the factorization-sum sweep up to n=5, m=36984 would take at least 2000075036 "
                "ns, above the limit 2000000000",
            ),
        ],
        ids=["table-cells", "table-pointers", "verify-cells"],
    )
    def test_a_factorization_sum_sweep_over_its_budget_exits_3_before_output(self, argv, message):
        # Before this budget table --n 4 --max-m 87000 ran 8.6 s, one DivisorIndex per m.
        proc = run_cli(*argv, timeout=30)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == f"error: {message}\n"

    # TestCount::test_non_integer_bound_names_the_variable and
    # TestEulerFactor::test_non_prime_exits_2 cover the other two UsageError sites.
    def test_bound_below_two_exits_2(self):
        proc = run_cli(
            "count", "--n", "2", "--m", "6", env_extra={"LATCOUNT_TRIAL_DIVISION_BOUND": "1"}
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: LATCOUNT_TRIAL_DIVISION_BOUND must be >= 2, got 1\n"

    def test_usage_error_from_the_library_exits_2(self, monkeypatch, capsys):
        # parse_args refuses n < 1 first, so reach check_args past it
        real_run_count = cli.run_count
        monkeypatch.setattr(cli, "run_count", lambda n, m, method: real_run_count(0, m, method))
        code = cli.main(["count", "--n", "2", "--m", "2"])
        assert code == 2
        assert capsys.readouterr().err == "error: dimension n must be >= 1, got 0\n"
        assert issubclass(UsageError, ValueError)


# Each public entry point with its own argument check, called with a bad argument.
BAD_ARGUMENTS = [
    ("gauss_binomial m", lambda: latcount.gauss_binomial(-1, 0)),
    ("gauss_binomial k", lambda: latcount.gauss_binomial(3, -2)),
    ("gauss_binomial_at m", lambda: latcount.gauss_binomial_at(-1, 0, 2)),
    ("gauss_binomial_at q0", lambda: latcount.gauss_binomial_at(3, 1, 0)),
    ("geometric_factor", lambda: latcount.geometric_factor(-1, 3)),
    ("QPolynomial.monomial", lambda: QPolynomial.monomial(-1)),
    ("factorize", lambda: latcount.factorize(0)),
    ("divisors", lambda: latcount.divisors(-6)),
    ("ordered_factorizations n", lambda: latcount.ordered_factorizations(12, 0)),
    ("ordered_factorizations m", lambda: latcount.ordered_factorizations(0, 2)),
    ("HnfMatrix n", lambda: latcount.HnfMatrix(0, ())),
    ("HnfMatrix shape", lambda: latcount.HnfMatrix(2, ((1, 0),))),
    ("TSeries empty", lambda: TSeries([])),
    ("TSeries orders", lambda: TSeries([QPolynomial.one()]) * TSeries([QPolynomial.one()] * 2)),
    ("count_by_enumeration", lambda: latcount.count_by_enumeration(2, 2, cap=0)),
    ("run_count", lambda: latcount.run_count(2, 6, "nope")),
    ("count_table", lambda: latcount.count_table(2, 6, "nope")),
]


@pytest.mark.parametrize(
    "call", [call for _, call in BAD_ARGUMENTS], ids=[name for name, _ in BAD_ARGUMENTS]
)
def test_every_bad_argument_is_a_usage_error(call):
    # ordered_factorizations is not advanced: its arguments are checked when it is called.
    with pytest.raises(UsageError):
        call()


def test_import_loads_no_dataclasses_inspect_or_json():
    # -S keeps site's .pth files from importing modules of their own.  A count
    # is run as well, so that what parsing argv imports is seen too.
    src = Path(latcount.__file__).resolve().parent.parent
    script = (
        "import sys, latcount.cli\n"
        "latcount.cli.main(['count', '--n', '1', '--m', '1'])\n"
        "names = {'dataclasses', 'inspect', 'json', 'argparse', 'gettext', 'locale'}\n"
        "names |= {'typing', 're'}\n"
        "print(sorted(names & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1\n[]\n"


# The help layout is the command table's own, so it is the same on every
# Python and terminal width, unlike argparse's.
HELP = {
    "--help": """\
usage: latcount [-h] {count,enumerate,table,verify,series,euler-factor} ...

Count and enumerate index-m sublattices of the integer lattice Z^n.

commands:
  count                 compute the sublattice count f_n(m)
  enumerate             stream the normal-form basis matrices
  table                 tabulate f_n(m) for m = 1..max-m
  verify                run the cross-method and identity checks
  series                print both sides of the generating identity
  euler-factor          local factor of the count series at a prime

options:
  -h, --help            show this help message and exit

The environment variable LATCOUNT_TRIAL_DIVISION_BOUND overrides the
trial-division bound used when factoring m (default 10^7).
""",
    "count --help": """\
usage: latcount count [-h] --n N --m M [--method {factorization-sum,recursion,gruber,dirichlet,hnf}] [--all] [--format {plain,csv,json-lines}]

compute the sublattice count f_n(m)

options:
  -h, --help            show this help message and exit
  --n N                 lattice dimension
  --m M                 sublattice index
  --method {factorization-sum,recursion,gruber,dirichlet,hnf} counting method
  --all                 run every method and cross-check the values
  --format {plain,csv,json-lines} output format
""",
}


@pytest.mark.parametrize("args", sorted(HELP))
def test_help_golden(args):
    for width in ("40", "200"):
        proc = run_cli(*args.split(), env_extra={"COLUMNS": width})
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == HELP[args]


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--n", "4", "--m", "360", "--all"],
        ["count", "--n", "40", "--m", str(2**200), "--method", "recursion"],
        ["table", "--n", "5", "--max-m", "30", "--method", "factorization-sum"],
        ["table", "--n", "1", "--max-m", "1"],
        ["euler-factor", "--p", "1000003", "--n", "7", "--k-max", "30"],
        ["euler-factor", "--p", "2", "--n", "3", "--k-max", "0"],
    ],
)
def test_json_lines_records_are_the_bytes_of_json_dumps(argv, capsys):
    assert cli.main([*argv, "--format", "json-lines"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines
    for line in lines:
        fields = json.loads(line)
        assert line == json.dumps(fields, separators=(",", ":"))


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

    def test_over_cap_is_refused_before_any_output(self):
        # f_3(720) = 2,623,530 is over the default cap of 10^6
        proc = run_cli("enumerate", "--n", "3", "--m", "720")
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert "2623530" in proc.stderr and "1000000" in proc.stderr

    def test_limit_streams_past_the_cap(self):
        proc = run_cli("enumerate", "--n", "3", "--m", "720", "--limit", "5")
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert len(lines) == 6
        assert lines[-1] == "count: 5"

    def test_text_stream_that_leaves_the_matrices_exits_4(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "enumerate_lines", lambda n, m: iter(["1,0;1,2", "1,0;0,2"]))
        code = cli.main(["enumerate", "--n", "2", "--m", "2"])
        assert code == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: enumerate (n=2, m=2): the text stream starts '1,0;1,2'")

    @pytest.mark.parametrize("args, fmt, digest", ENUMERATE_DIGESTS)
    def test_stdout_matches_recorded_digest(self, args, fmt, digest):
        proc = run_cli("enumerate", *args.split(), "--format", fmt)
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest

    # --n 140 peaked at 260 MB; --n 400, killed by the kernel, is checked in tests/test_hnf.py,
    # where a lost budget leaves a lazy stream and not a process that eats the memory.
    @pytest.mark.parametrize("n", [101, 140])
    def test_prefixes_over_the_budget_exit_3_before_output(self, n):
        proc = run_cli("enumerate", "--n", str(n), "--m", "2", "--limit", "1", timeout=10)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == (
            f"error: enumerate_lines({n}, 2) would hold up to {_prefix_bytes(n, 2)} bytes in its "
            "prefixes, above the limit 100000000\n"
        )

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit")
    def test_an_m_past_4300_digits_is_written_in_full(self):
        # main lifts Python's int-to-str limit, so enumerate_lines does not check it
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            m = str(11**4200)  # 4374 digits and 4201 divisors
        finally:
            sys.set_int_max_str_digits(saved)
        proc = run_cli("enumerate", "--n", "2", "--m", m, "--limit", "1")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [f"1,0;0,{m}", "count: 1"]

    def test_last_admitted_prefixes_peak_near_100_mb(self):
        # --n 100 peaked at 81 MB max RSS, --n 101 would at 83 MB and --n 140 at 260 MB.
        # A child's max RSS counts its parent's image before exec, so, as the
        # benchmark harness does, the child is spawned from a small process.
        spawner = (
            "import os, sys\n"
            "argv = [sys.executable, '-m', 'latcount', 'enumerate', '--n', '100', '--m', '2',"
            " '--limit', '1']\n"
            "read_fd, write_fd = os.pipe()\n"
            "pid = os.posix_spawn(argv[0], argv, os.environ,"
            " file_actions=[(os.POSIX_SPAWN_DUP2, write_fd, 1)])\n"
            "os.close(write_fd)\n"
            "lines = 0\n"
            "while chunk := os.read(read_fd, 1 << 16):\n"
            "    lines += chunk.count(b'\\n')\n"
            "_, status, usage = os.wait4(pid, 0)\n"
            "print(os.waitstatus_to_exitcode(status), lines, usage.ru_maxrss)\n"
        )
        src = Path(latcount.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-S", "-c", spawner], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        code, lines, max_rss_kb = map(int, proc.stdout.split())
        assert (code, lines) == (0, 2)
        assert max_rss_kb < 100 * 1024

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

    def test_json_lines_golden(self, capsys):
        # recorded from the printer that built a dict of fields per line
        assert cli.main(["table", "--n", "2", "--max-m", "3", "--format", "json-lines"]) == 0
        assert capsys.readouterr().out == (
            '{"n":2,"m":1,"method":"gruber","value":"1"}\n'
            '{"n":2,"m":2,"method":"gruber","value":"3"}\n'
            '{"n":2,"m":3,"method":"gruber","value":"4"}\n'
        )

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

    def test_factorization_sum_in_more_dimensions_than_the_stack_is_deep(self):
        args = ("table", "--n", "1100", "--max-m", "4", "--method")
        gruber = run_cli(*args, "gruber", timeout=60)
        folded = run_cli(*args, "factorization-sum", timeout=60)
        assert gruber.returncode == folded.returncode == 0, folded.stderr
        assert folded.stdout == gruber.stdout


class TestGruberSweepRefusals:
    # The stderr of the sweep that counted and factored each m on its own.
    @pytest.mark.parametrize("command", ["table", "verify"])
    @pytest.mark.parametrize("bound, m", [(2, 9), (3, 25), (10, 121)])
    def test_the_first_m_past_the_bound_exits_3(self, command, bound, m):
        argv = {
            "table": ("table", "--n", "3", "--max-m", "200", "--method", "gruber"),
            "verify": ("verify", "--n-max", "3", "--m-max", "200", "--t-order", "3"),
        }[command]
        proc = run_cli(*argv, env_extra={"LATCOUNT_TRIAL_DIVISION_BOUND": str(bound)})
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == (
            f"error: cannot factor {m}: no prime factor of {m} below trial-division bound {bound}\n"
        )

    @pytest.mark.parametrize(
        "bound, message",
        [
            ("abc", "LATCOUNT_TRIAL_DIVISION_BOUND must be an integer, got 'abc'"),
            ("1", "LATCOUNT_TRIAL_DIVISION_BOUND must be >= 2, got 1"),
        ],
    )
    def test_a_bad_bound_exits_2_at_max_m_one(self, bound, message):
        for argv in (
            ("table", "--n", "3", "--max-m", "1", "--method", "gruber"),
            ("verify", "--n-max", "1", "--m-max", "1", "--t-order", "0"),
        ):
            proc = run_cli(*argv, env_extra={"LATCOUNT_TRIAL_DIVISION_BOUND": bound})
            assert proc.returncode == 2, argv
            assert proc.stdout == ""
            assert proc.stderr == f"error: {message}\n"


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

    def test_m_max_past_the_dirichlet_limit_exits_3_before_output(self, capsys):
        # At n = 1 Dirichlet's list of 10 bytes an entry is the first budget past 9999999.
        code = cli.main(["verify", "--n-max", "1", "--m-max", "10000000", "--t-order", "0"])
        assert code == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: dirichlet_coefficients(1, 10000000) would hold 100000010 bytes in its lists, "
            "above the limit 100000000\n"
        )

    @staticmethod
    def skew_rhs(monkeypatch, fault_n, fault_power):
        real_rhs_sum = latcount.series.rhs_sum

        def skewed_rhs_sum(n, order):
            coefficients = list(real_rhs_sum(n, order).coefficients)
            if fault_n in (None, n):
                coefficients[fault_power] += QPolynomial.one()
            return TSeries(coefficients)

        monkeypatch.setattr(latcount.series, "rhs_sum", skewed_rhs_sum)

    def test_the_dirichlet_budget_for_n_max_refuses_before_any_level(self):
        # So it comes before the Gruber sweep's refusal at m = 9 of the first level.
        proc = run_cli(
            "verify", "--n-max", "5", "--m-max", "262145", "--t-order", "0",
            env_extra={"LATCOUNT_TRIAL_DIVISION_BOUND": "2"},
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == (
            "error: dirichlet_coefficients(5, 262145) would take 2649761660 ns in its "
            "convolutions, above the limit 2000000000\n"
        )

    def test_injected_fault_exits_4(self, monkeypatch, capsys):
        self.skew_rhs(monkeypatch, None, 0)
        code = cli.main(["verify", "--n-max", "2", "--m-max", "5", "--t-order", "3"])
        assert code == 4
        out = capsys.readouterr().out
        # smallest counterexample in scan order
        assert "generating-identity: fail at n=1 t-order=0" in out

    def test_identity_fault_names_the_least_failing_order(self, monkeypatch, capsys):
        self.skew_rhs(monkeypatch, 2, 2)
        code = cli.main(["verify", "--n-max", "3", "--m-max", "5", "--t-order", "4"])
        assert code == 4
        assert capsys.readouterr().out.splitlines() == [
            "cross-method-agreement: pass (n <= 3, m <= 5)",
            "qbinomial-symmetry: pass (m <= 7)",
            "generating-identity: fail at n=2 t-order=2",
        ]

    @pytest.mark.parametrize("t_order", [150, 10**9])
    def test_symmetry_sweep_over_budget_exits_3_before_output(self, t_order):
        proc = subprocess.run(
            [sys.executable, "-m", "latcount", "verify", "--n-max", "1", "--m-max", "1"]
            + ["--t-order", str(t_order)],
            capture_output=True,
            text=True,
            timeout=10,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"error: qbinomial-symmetry up to m={t_order + 1} ")
        assert proc.stderr.endswith(" ns in its q-Pascal grids, above the limit 2000000000\n")

    def test_symmetry_budget_is_refused_before_the_first_line(self, monkeypatch, capsys):
        # the first pair, (1, 0) and (1, 1), is over 10 bytes
        monkeypatch.setattr(latcount.qcalc, "MAX_PREDICTED_BYTES", 10)
        code = cli.main(["verify", "--n-max", "1", "--m-max", "3", "--t-order", "6"])
        assert code == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert "up to m=7 " in err and "limit 10\n" in err

    def test_symmetry_budget_admits_the_grids_up_to_m_52(self, monkeypatch):
        # the grids up to m=52 take 1,835,814,668 ns and up to m=53, 2,005,549,874
        monkeypatch.setattr(latcount.qcalc, "gauss_binomial", lambda m, k: None)
        assert latcount.qcalc.first_asymmetric_pair(52) is None
        with pytest.raises(CapacityError) as excinfo:
            latcount.qcalc.first_asymmetric_pair(53)
        assert str(excinfo.value) == (
            "qbinomial-symmetry up to m=53 (n-max + t-order) would take at least 2005549874 ns "
            "in its q-Pascal grids, above the limit 2000000000"
        )

    def test_symmetry_fault_exits_4(self, monkeypatch, capsys):
        real_binomial = latcount.qcalc.gauss_binomial

        def skewed_binomial(m, k):
            # [3 choose 1] comes out as [3 choose 0] = 1, so it no longer equals [3 choose 2]
            return real_binomial(m, 0 if (m, k) == (3, 1) else k)

        monkeypatch.setattr(latcount.qcalc, "gauss_binomial", skewed_binomial)
        code = cli.main(["verify", "--n-max", "2", "--m-max", "5", "--t-order", "3"])
        assert code == 4
        assert capsys.readouterr().out.splitlines() == [
            "cross-method-agreement: pass (n <= 2, m <= 5)",
            "qbinomial-symmetry: fail at m=3 k=1",
            "generating-identity: pass (n <= 2, t-order <= 3)",
        ]

    def test_bridge_fault_exits_4(self, monkeypatch, capsys):
        real_bridge = latcount.count.gauss_binomial_at

        def skewed_bridge(m, k, q0):
            # off by one at (5, 3): f_3(p^3) for every prime p
            return real_bridge(m, k, q0) + ((m, k) == (5, 3))

        monkeypatch.setattr(latcount.count, "gauss_binomial_at", skewed_bridge)
        code = cli.main(["verify", "--n-max", "4", "--m-max", "200", "--t-order", "10"])
        assert code == 4
        assert capsys.readouterr().out.splitlines() == [
            "cross-method-agreement: fail at n=3 m=8 (methods disagree for n=3, m=8: "
            "dirichlet=155, factorization-sum=155, gruber=155, recursion=155, "
            "gauss_binomial_at=156)",
            "qbinomial-symmetry: pass (m <= 14)",
            "generating-identity: pass (n <= 4, t-order <= 10)",
        ]

    def test_cross_method_fault_exits_4(self, monkeypatch, capsys):
        real_sweep = latcount.count._TABLES[Method.GRUBER]

        def skewed_sweep(n_max, max_m):
            for n, level in enumerate(real_sweep(n_max, max_m), start=1):
                level = list(level)
                if n == 2:
                    level[5] = 999
                yield level

        monkeypatch.setitem(latcount.count._TABLES, Method.GRUBER, skewed_sweep)
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

    def test_q_pascal_row_over_the_cap_exits_3_before_output(self):
        # (2000, 2)'s products take 1.62 s, inside their budget, so the first refusal is
        # the rhs's bytes, whose last q-binomial's row holds 4,000,000 coefficients.
        proc = run_cli("series", "--n", "2000", "--t-order", "2")
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == (
            "error: rhs_sum(2000, 2) would hold 201340160 bytes in its q-binomials, "
            "above the limit 100000000\n"
        )


    def test_t_order_over_the_budget_exits_3_before_output(self):
        proc = run_cli("series", "--n", "1", "--t-order", "1000000000", timeout=10)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == (
            "error: rhs_sum(1, 1000000000) would hold 130000000150 bytes in its "
            "q-binomials, above the limit 100000000\n"
        )

    def test_lhs_over_the_budget_exits_3_before_output(self):
        # An order rhs_sum admits at n = 2; multiplied out, about a minute.
        proc = run_cli("series", "--n", "2", "--t-order", "1412", timeout=10)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == (
            "error: lhs_product(2, 1412) would take 47119086500 ns in its products, "
            "above the limit 2000000000\n"
        )

    @pytest.mark.parametrize("n, t_order", [(2, 1412), (200, 14)])
    def test_lhs_refusal_builds_no_q_binomial(self, monkeypatch, capsys, n, t_order):
        calls = []
        monkeypatch.setattr(latcount.series, "gauss_binomial", lambda m, k: calls.append((m, k)))
        code = cli.main(["series", "--n", str(n), "--t-order", str(t_order)])
        assert code == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: lhs_product({n}, {t_order}) would take ")
        assert calls == []

    def test_dimension_one_at_a_long_t_order(self):
        # every coefficient is [k choose k]_q = 1, a q-Pascal row of one entry
        proc = run_cli("series", "--n", "1", "--t-order", "20000", timeout=10)
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert len(lines) == 2 * 20001 + 3
        assert lines[-2:] == ["t^20000: 1", "verdict: match"]


class TestEulerFactor:
    def test_json_lines_golden(self, capsys):
        # recorded from the printer that built a dict of fields per line
        argv = ["euler-factor", "--p", "2", "--n", "3", "--k-max", "2", "--format", "json-lines"]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == (
            '{"p":2,"n":3,"k":0,"coefficient":"1"}\n'
            '{"p":2,"n":3,"k":1,"coefficient":"7"}\n'
            '{"p":2,"n":3,"k":2,"coefficient":"35"}\n'
        )

    def test_golden(self):
        proc = run_cli("euler-factor", "--p", "2", "--n", "3", "--k-max", "2")
        assert proc.returncode == 0
        assert proc.stdout == "0 1\n1 7\n2 35\n"

    def test_long_factor_takes_n_minus_1_steps_per_coefficient(self):
        # [k choose k] at 2, each by the empty product rather than k steps
        proc = run_cli("euler-factor", "--p", "2", "--n", "1", "--k-max", "20000", timeout=10)
        assert proc.returncode == 0
        assert proc.stdout == "".join(f"{k} 1\n" for k in range(20001))

    def test_over_the_budget_exits_3_before_any_coefficient(self, monkeypatch, capsys):
        # (2, 2, 20000) printed for 12.8 s before the budget
        calls = []
        monkeypatch.setattr(latcount.series, "gauss_binomial_at", lambda m, k, q0: calls.append(k))
        code = cli.main(["euler-factor", "--p", "2", "--n", "2", "--k-max", "20000"])
        assert code == 3
        assert capsys.readouterr() == (
            "",
            "error: euler_factor(2, 2, 20000) would take 6762522310 ns to compute and print, "
            "above the limit 2000000000\n",
        )
        assert calls == []

    def test_non_prime_exits_2(self):
        proc = run_cli("euler-factor", "--p", "4", "--n", "2", "--k-max", "1")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: 4 is not prime\n"


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

    @pytest.mark.parametrize("args, digest", Q_SIDE_DIGESTS + VERIFY_DIGESTS)
    def test_q_side_stdout_matches_recorded_digest(self, args, digest):
        assert_stdout_digest(args, digest)

    @pytest.mark.parametrize(
        "args, digest", DIVISOR_LATTICE_DIGESTS + SWEEP_DIGESTS + RECURSION_SWEEP_DIGESTS
    )
    def test_divisor_lattice_stdout_matches_recorded_digest(self, args, digest):
        assert_stdout_digest(args, digest, DIGEST_NOTES.get(args, ""))

    @pytest.mark.parametrize("args, digest", DIRICHLET_DIGESTS)
    def test_dirichlet_stdout_matches_recorded_digest(self, args, digest):
        assert_stdout_digest(args, digest)


def assert_stdout_digest(args, digest, stderr=""):
    proc = run_cli(*args.split())
    assert proc.returncode == 0
    assert proc.stderr == stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so no check in the package may be one.
    for path in sorted(Path(latcount.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert lines == [], f"assert statements in {path.name} at lines {lines}"

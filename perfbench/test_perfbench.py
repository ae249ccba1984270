"""Tests of the benchmark itself (not of latcount).

Run from the repository root:

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from latcount import enumerate_hnf, lhs_product, rhs_sum  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    generate = workloads.WORKLOADS[name].generate
    for seed in (0, 1, 12345):
        assert generate(random.Random(seed)) == generate(random.Random(seed))
    sequences = {tuple(inv.argv for inv in generate(random.Random(seed))) for seed in range(20)}
    assert len(sequences) > 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_sequence_shape_and_units_are_seed_independent(name):
    generate = workloads.WORKLOADS[name].generate
    shapes, units = set(), []
    for seed in range(20):
        invocations = generate(random.Random(seed))
        shapes.add(tuple(inv.argv[0] for inv in invocations))
        units.append(sum(inv.units for inv in invocations))
    assert len(shapes) == 1
    assert max(units) <= 1.03 * min(units)


def test_sublattice_count_matches_known_values():
    # f_2 = sigma; f_3(4) = 35 and f_3(120) = 62465 as the CLI prints them.
    assert [workloads.sublattice_count(2, m) for m in range(1, 7)] == [1, 3, 4, 7, 6, 12]
    assert workloads.sublattice_count(3, 4) == 35
    assert workloads.sublattice_count(3, 120) == 62465


def test_probable_prime():
    primes = [p for p in range(200) if workloads.is_probable_prime(p)]
    assert primes == [p for p in range(2, 200) if all(p % d for d in range(2, p))]
    assert workloads.is_probable_prime(999983)
    assert not workloads.is_probable_prime(999983 * 1000003)


def _enumerate_output(n: int, m: int) -> bytes:
    lines = [matrix.to_line() for matrix in enumerate_hnf(n, m)]
    return ("\n".join(lines) + f"\ncount: {len(lines)}\n").encode()


def _series_output(n: int, order: int) -> bytes:
    lines = ["lhs:", *lhs_product(n, order).render_lines()]
    lines += ["rhs:", *rhs_sum(n, order).render_lines(), "verdict: match"]
    return ("\n".join(lines) + "\n").encode()


def test_correct_outputs_pass():
    rng = random.Random(0)
    f = workloads.sublattice_count(3, 12)
    assert checks.check(_enumerate_output(3, 12), ("enumerate", 3, 12, f), rng) is None
    assert checks.check(b"35\n", ("count", "hnf", 3, 4), rng) is None
    assert checks.check(_series_output(4, 5), ("series", 4, 5), rng) is None
    verify = b"a: pass (x)\nb: pass (y)\nc: pass (z)\n"
    assert checks.check(verify, ("verify",), rng) is None


def test_corrupted_enumerate_output_fails():
    rng = random.Random(0)
    f = workloads.sublattice_count(3, 12)
    good = _enumerate_output(3, 12).decode().split("\n")
    dropped = "\n".join(good[1:]).encode()
    assert "matrices" in checks.check(dropped, ("enumerate", 3, 12, f), rng)
    duplicated = "\n".join([good[0], *good[:-3], good[-2], ""]).encode()
    assert "duplicate" in checks.check(duplicated, ("enumerate", 3, 12, f), rng)
    trailer = "\n".join([*good[:-2], f"count: {f + 1}", ""]).encode()
    assert checks.check(trailer, ("enumerate", 3, 12, f), rng) is not None
    # Every line corrupted the same way, so the sample cannot miss it.
    invalid = _enumerate_output(3, 12).replace(b";", b",0;")
    assert checks.check(invalid, ("enumerate", 3, 12, f), rng) is not None


def test_corrupted_answers_fail():
    rng = random.Random(0)
    assert checks.check(b"36\n", ("count", "gruber", 3, 4), rng) is not None
    assert checks.check(b"34\n", ("count", "dirichlet", 3, 4), rng) is not None
    assert checks.check(b"35", ("count", "recursion", 3, 4), rng) is not None
    verify = b"a: pass (x)\nb: fail at m=3 k=1\nc: pass (z)\n"
    assert checks.check(verify, ("verify",), rng) is not None
    series = _series_output(4, 5)
    mismatch = series.replace(b"verdict: match", b"verdict: MISMATCH")
    assert checks.check(mismatch, ("series", 4, 5), rng) is not None
    off_by_one = series.replace(b"t^2: 1 + q + 2*q^2", b"t^2: 1 + q + 3*q^2", 1)
    assert off_by_one != series
    assert checks.check(off_by_one, ("series", 4, 5), rng) is not None
    assert checks.check(b"2\n", ("setup",), rng) is not None


class _Outputs:
    def __init__(self, tmp_path: Path, outputs: dict):
        self.outputs = {}
        for index, (argv, data) in enumerate(outputs.items()):
            path = tmp_path / f"out-{index}"
            path.write_bytes(data)
            self.outputs[argv] = path


def _outcome(invocation, data: bytes, returncode: int = 0) -> run.Outcome:
    digest = hashlib.blake2b(data).hexdigest()
    return run.Outcome(invocation, 0, 1, 0.0, 0, returncode, digest, 0, len(data), "")


def test_failures_count_against_attempted(tmp_path):
    good = workloads.Invocation(("count", "--n", "3", "--m", "4"), 1, ("count", "gruber", 3, 4))
    bad = workloads.Invocation(("count", "--n", "3", "--m", "5"), 1, ("count", "gruber", 3, 5))
    runner = _Outputs(tmp_path, {good.argv: b"35\n", bad.argv: b"32\n"})
    outcomes = [
        _outcome(good, b"35\n"),
        _outcome(good, b"35\n"),
        _outcome(good, b"36\n"),  # differs from the checked copy
        _outcome(good, b"35\n", returncode=3),
        _outcome(bad, b"32\n"),  # f_3(5) = 31
    ]
    failures = run.check_outcomes(runner, outcomes, seed=0)
    assert len(failures) == 3


def _synthetic_spans():
    # root [0, 100] with children a [10, 40] and b [30, 60], which overlap;
    # a has a child c [20, 50] that runs past a's end; d [70, 80] is b's
    # sibling under root and e [90, 95] is a second root.
    names = ["root", "a", "b", "c", "d", "e"]
    parents = array("q", [-1, 0, 0, 1, 0, -1])
    starts = array("q", [0, 10, 30, 20, 70, 90])
    ends = array("q", [100, 40, 60, 50, 80, 95])
    ids = array("q", range(6))
    return spans.Spans(names, {}, ids, parents, starts, ends)


def test_self_time_arithmetic():
    s = _synthetic_spans()
    assert spans.self_times(s.parents, s.starts, s.ends) == [
        100 - 50 - 10,  # children cover [10, 60] and [70, 80]
        30 - 20,  # c is clipped to [20, 40]
        30,
        30,
        10,
        5,
    ]


def test_self_times_add_up_for_properly_nested_spans():
    parents = array("q", [-1, 0, 1, 1, 0, -1])
    starts = array("q", [0, 5, 6, 20, 50, 200])
    ends = array("q", [100, 40, 10, 30, 90, 210])
    selfs = spans.self_times(parents, starts, ends)
    assert sum(selfs) == (100 - 0) + (210 - 200)
    s = spans.Spans(list("rabcde"), {}, array("q", range(6)), parents, starts, ends)
    totals = spans.totals(s)
    assert totals.root_ns == 110
    assert sum(totals.self_ns.values()) == 110
    assert spans.nesting_errors(s, 0, 210) == []


def test_nesting_errors_flag_spans_outside_their_parent():
    errors = spans.nesting_errors(_synthetic_spans(), 0, 95)
    assert len(errors) == 2  # c leaves a, and the first root outlives the process


def test_span_file_round_trip(tmp_path):
    s = _synthetic_spans()
    s.counters = {"hnf.matrices": 7}
    spans.write(str(tmp_path / "x"), s)
    back = spans.read(str(tmp_path / "x"))
    assert back == s


def test_tracer_records_every_layer_of_a_count(tmp_path):
    path = str(tmp_path / "spans")
    env = {"PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"}
    proc = subprocess.run(
        [sys.executable, str(HERE / "tracer.py"), path, "count", "--n", "2", "--m", "12", "--all"],
        capture_output=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().splitlines()[0] == "dirichlet: 28"
    recorded = spans.read(path)
    totals = spans.totals(recorded)
    for name in (
        "cli.import",
        "cli.main",
        "cli.write",
        "arith.factorize",
        "arith.divisors",
        "arith.ordered_factorizations",
        "count.factorization_sum",
        "count.recursion",
        "count.gruber",
        "series.dirichlet",
        "hnf.count_by_enumeration",
        "hnf.enumerate_hnf",
    ):
        assert totals.calls.get(name, 0) > 0, name
    # one span per next(): 28 matrices plus the final StopIteration
    assert totals.calls["hnf.enumerate_hnf"] == 29
    assert recorded.counters["hnf.matrices"] == 28
    assert recorded.counters["series.dirichlet_cells"] == 12
    assert sum(totals.self_ns.values()) == totals.root_ns


def test_tracer_reaches_methods_through_dispatch_and_aliases(tmp_path):
    env = {"PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"}
    cases = (
        (
            ["count", "--n", "3", "--m", "4", "--method", "factorization-sum"],
            ["count.factorization_sum"],
        ),
        (
            ["series", "--n", "3", "--t-order", "3"],
            ["series.tseries_mul", "qcalc.poly_mul", "qcalc.gauss_binomial", "qcalc.format"],
        ),
        (["enumerate", "--n", "2", "--m", "4"], ["hnf.to_line", "hnf.enumerate_hnf"]),
    )
    for argv, names in cases:
        path = str(tmp_path / argv[0])
        proc = subprocess.run(
            [sys.executable, str(HERE / "tracer.py"), path, *argv], env=env, timeout=60
        )
        assert proc.returncode == 0
        calls = spans.totals(spans.read(path)).calls
        for name in names:
            assert calls.get(name, 0) > 0, (argv, name)


def test_benchmark_refuses_to_run_without_the_package(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for source in HERE.glob("*.py"):
        (bench / source.name).write_text(source.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "qseries", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == b""


def test_benchmark_json_matches_the_harness():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    for entry in doc["workloads"]:
        workload = workloads.WORKLOADS[entry["name"]]
        layers = ", ".join(workload.dominant)
        assert f"Dominant layer{'s' if len(workload.dominant) > 1 else ''}: {layers}." in entry["why"]
        assert entry["why"].endswith(f"Unit: {workload.unit}.")
    end_to_end = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    assert end_to_end == run.END_TO_END_UNITS
    per_layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    expected = {name: unit for name, (unit, _, _) in run.PER_LAYER.items()}
    expected.update({"trace.uncovered_s": "s", "trace.overhead_frac": "fraction"})
    assert per_layer == expected

"""The latcount benchmark: fresh CLI processes in a closed loop, with checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every invocation is a fresh ``python -m latcount`` process run against this
checkout's ``src/`` (the package need not be installed).  One client drives
them in a closed loop: the next process starts only after the previous one
has exited, and no two run at once.  The seed generates the workload's
sequence of invocations (``workloads.py``); the sequence is repeated until
``--seconds`` is spent, and every output is checked after the clock stops
(``checks.py``).

``--trace 0`` reports the end-to-end metrics.  Each timed invocation sits
between two runs of a fixed reference kernel (``REFERENCE_KERNEL``), and
times marked "ref" are in units of the mean of those two reference times,
which cancels most of a shared host's swings in speed:

    setup_s         median wall time of the no-work invocation, after warm-up
    wall_ref        median over passes of the pass's time, in ref units
    units_per_ref   units of work (set per workload) per ref unit of time
    first_line_ref  time from spawn to the first stdout byte, in units of the
                    reference time just before: per invocation the median over
                    passes, then the mean over the sequence
    peak_rss_mb     largest max-RSS of any child, from os.wait4

The lines before the JSON also give the same three times in plain seconds
(wall_s, units_per_s, first_line_s), the reference kernel's own times, and
error_rate = failed / attempted.

``--trace 1`` alternates plain passes with traced passes, which run the
three probe invocations (``workloads.PROBE``) and then the same sequence,
each invocation under ``tracer.py``.  It reports the per-layer metrics
(``PER_LAYER``), each summed over a traced pass and then taken as the median
over traced passes; ``trace.uncovered_s``, the traced wall time outside every
span; and ``trace.overhead_frac``, the traced workload invocations' wall time
over the plain ones', minus one.  It also checks that span self times plus
uncovered time add up to the traced wall time, and which layer dominates.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import spans
from workloads import PROBE, SETUP, WORKLOADS, Invocation

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5

# How fast the host runs Python right now, measured next to every timed
# invocation.  On a shared virtual machine the same CPU-bound process can run
# 1.5x faster or slower from one second to the next (seen on a 2-vCPU VM);
# dividing each invocation's time by the mean of the reference times just
# before and just after it cancels most of that.  About 0.1 s of integer
# arithmetic, tuple and str allocation and dict updates, in a fresh
# interpreter like every invocation.
REFERENCE_KERNEL = (
    "d = {}\n"
    "for i in range(80000):\n"
    "    t = (i, i * i % 97, str(i))\n"
    "    d[t[1]] = d.get(t[1], 0) + len(t[2])\n"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_ref": "ref",
    "units_per_ref": "1/ref",
    "first_line_ref": "ref",
    "peak_rss_mb": "MB",
}


@dataclass
class Outcome:
    invocation: Invocation
    start_ns: int
    end_ns: int
    first_byte_s: float | None
    rss_kb: int
    returncode: int
    digest: str
    lines: int
    nbytes: int
    stderr: str
    spans_path: str | None = None

    @property
    def wall_s(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for name in (
        "LATCOUNT_TRIAL_DIVISION_BOUND",
        "PYTHONDONTWRITEBYTECODE",
        "PYTHONPYCACHEPREFIX",
        "PYTHONSTARTUP",
    ):
        env.pop(name, None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    """Client of ``spawner.py``, which runs the children one at a time."""

    def __init__(self, work: Path):
        self.work = work
        self.outputs: dict[tuple[str, ...], Path] = {}
        self.spawner = subprocess.Popen(
            [sys.executable, "-S", str(HERE / "spawner.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=child_env(),
            cwd=ROOT,
            text=True,
        )

    def close(self) -> None:
        self.spawner.stdin.close()
        self.spawner.stdout.close()
        self.spawner.wait()

    def command(self, invocation: Invocation, spans_path: str | None) -> list[str]:
        if spans_path is None:
            return [sys.executable, "-m", "latcount", *invocation.argv]
        return [sys.executable, str(HERE / "tracer.py"), spans_path, *invocation.argv]

    def spawn(self, argv: list[str], sink: Path | None) -> dict:
        request = {
            "argv": argv,
            "sink": None if sink is None else str(sink),
            "stderr": str(self.work / "stderr"),
        }
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = self.spawner.stdout.readline()
        if not reply:
            raise RuntimeError("the spawner process exited early")
        return json.loads(reply)

    def run(self, invocation: Invocation, spans_path: str | None = None) -> Outcome:
        """Run one invocation; keep its stdout on disk the first time its argv runs."""
        sink = None
        if invocation.argv not in self.outputs:
            sink = self.work / f"out-{len(self.outputs)}"
            self.outputs[invocation.argv] = sink
        reply = self.spawn(self.command(invocation, spans_path), sink)
        first_byte_ns = reply["first_byte_ns"]
        stderr = ""
        if reply["returncode"]:
            stderr = (self.work / "stderr").read_text(errors="replace")[:2000]
        return Outcome(
            invocation,
            reply["start_ns"],
            reply["end_ns"],
            None if first_byte_ns is None else (first_byte_ns - reply["start_ns"]) / 1e9,
            reply["rss_kb"],
            reply["returncode"],
            reply["digest"],
            reply["lines"],
            reply["nbytes"],
            stderr,
            spans_path,
        )

    def reference(self) -> float:
        """Wall time of the fixed reference kernel in a fresh interpreter."""
        reply = self.spawn([sys.executable, "-c", REFERENCE_KERNEL], None)
        if reply["returncode"]:
            raise RuntimeError("the reference kernel failed")
        return (reply["end_ns"] - reply["start_ns"]) / 1e9


def run_sequence(runner: Runner, invocations, spans_prefix: str | None) -> list[Outcome]:
    """Run the invocations back to back, under the tracer when given a spans prefix."""
    return [
        runner.run(invocation, None if spans_prefix is None else f"{spans_prefix}-{index}")
        for index, invocation in enumerate(invocations)
    ]


def check_outcomes(runner: Runner, outcomes: list[Outcome], seed: int) -> list[str]:
    """Check every outcome; return one reason per failed invocation.

    An argv's output is checked once, from the copy kept on disk; every other
    run of the same argv must produce the same bytes.
    """
    # checks imports latcount (for validate_hnf); the harness loads the
    # package only here, after every timed child has exited.
    sys.path.insert(0, str(SRC))
    import checks

    reference: dict[tuple[str, ...], tuple[str, str | None]] = {}
    failures = []
    for outcome in outcomes:
        invocation = outcome.invocation
        if invocation.argv not in reference:
            out = runner.outputs[invocation.argv].read_bytes()
            digest = hashlib.blake2b(out).hexdigest()
            reason = checks.check(out, invocation.check, random.Random(seed))
            reference[invocation.argv] = (digest, reason)
        digest, reason = reference[invocation.argv]
        argv = " ".join(invocation.argv)
        if outcome.returncode != 0:
            failures.append(f"{argv}: exit {outcome.returncode}: {outcome.stderr.strip()}")
        elif reason is not None:
            failures.append(reason)
        elif outcome.digest != digest:
            failures.append(f"{argv}: output differs from its first run")
    return failures


@dataclass
class Pass:
    """One pass over the sequence, with a reference time before and after each invocation."""

    outcomes: list[Outcome]
    references: list[float]

    def scales(self) -> list[float]:
        """For each invocation, the mean of the reference times around it."""
        refs = self.references
        return [(before + after) / 2 for before, after in zip(refs, refs[1:])]

    def wall_s(self) -> float:
        return sum(outcome.wall_s for outcome in self.outcomes)

    def wall_ref(self) -> float:
        return sum(o.wall_s / scale for o, scale in zip(self.outcomes, self.scales()))


def first_byte_or_wall(outcome: Outcome) -> float:
    return outcome.first_byte_s if outcome.first_byte_s is not None else outcome.wall_s


def first_line(passes: list[Pass], normalize: bool) -> float:
    """Mean over the sequence's invocations of each one's median first-byte latency.

    Taking the median per invocation first keeps the statistic from jumping
    between invocations of different cost, as a median of the pooled values
    would.  When normalized, the latency is divided by the reference time
    just before the invocation, the one nearest to it in time.
    """
    rows = [
        [
            first_byte_or_wall(outcome) / (ref if normalize else 1)
            for outcome, ref in zip(p.outcomes, p.references)
        ]
        for p in passes
    ]
    return statistics.fmean(statistics.median(column) for column in zip(*rows))


def end_to_end(runner, workload, invocations, seconds: float):
    """Plain passes until ``seconds`` is spent, with set-up sampled around them."""
    runner.run(SETUP)  # warm-up: compiles the package's bytecode
    runner.run(invocations[0])  # warm-up: the workload's first invocation
    # Set-up is sampled at the start and again before every pass, so its
    # median spans the whole run.
    setups = [runner.run(SETUP) for _ in range(SETUP_REPEATS)]
    passes: list[Pass] = []
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        setups.append(runner.run(SETUP))
        this = Pass([], [runner.reference()])
        for invocation in invocations:
            this.outcomes.append(runner.run(invocation))
            this.references.append(runner.reference())
        passes.append(this)
        now = time.perf_counter()
        if now + (now - start) > deadline:  # the next pass would overrun
            break
    timed = [outcome for p in passes for outcome in p.outcomes]
    units = sum(invocation.units for invocation in invocations) * len(passes)
    metrics = {
        "setup_s": statistics.median(outcome.wall_s for outcome in setups),
        "wall_ref": statistics.median(p.wall_ref() for p in passes),
        "units_per_ref": units / sum(p.wall_ref() for p in passes),
        "first_line_ref": first_line(passes, normalize=True),
        "peak_rss_mb": max(outcome.rss_kb for outcome in setups + timed) / 1024,
    }
    walls = sorted(p.wall_s() for p in passes)
    references = [ref for p in passes for ref in p.references]
    notes = [
        f"passes: {len(passes)} of {len(invocations)} invocations ({len(timed)} timed); "
        f"pass wall min {walls[0]:.4f} s, max {walls[-1]:.4f} s",
        f"reference kernel: median {statistics.median(references):.4f} s, "
        f"min {min(references):.4f} s, max {max(references):.4f} s, "
        f"{len(references)} samples",
        f"wall_s {statistics.median(walls):.6f} s",
        f"units_per_s {units / sum(walls):.6f} {workload.unit} per s",
        f"first_line_s {first_line(passes, normalize=False):.6f} s",
    ]
    return setups + timed, metrics, END_TO_END_UNITS, notes, []


LAYERS = ("cli", "hnf", "arith", "count", "series", "qcalc")

# Per-layer metrics, each summed over one traced pass: name -> (unit, kind,
# source).  "total" is the summed duration of the named spans, "self" their
# summed self time, "calls" how many there were, "counter" a count the tracer
# (or, for cli.lines and cli.bytes, the reader of stdout) kept, and "rate" a
# counter divided by the total of a span.
PER_LAYER = {
    "cli.import_s": ("s", "total", "cli.import"),
    "cli.self_s": ("s", "self", "cli.main"),
    "cli.write_s": ("s", "total", "cli.write"),
    "cli.lines": ("count", "counter", "cli.lines"),
    "cli.bytes": ("bytes", "counter", "cli.bytes"),
    "hnf.enumerate_self_s": ("s", "self", "hnf.enumerate_hnf"),
    "hnf.matrices": ("count", "counter", "hnf.matrices"),
    "hnf.matrices_per_s": ("1/s", "rate", ("hnf.matrices", "hnf.enumerate_hnf")),
    "hnf.to_line_s": ("s", "total", "hnf.to_line"),
    "hnf.count_by_enumeration_s": ("s", "total", "hnf.count_by_enumeration"),
    "arith.factorize_s": ("s", "total", "arith.factorize"),
    "arith.factorize_calls": ("count", "calls", "arith.factorize"),
    "arith.divisors_s": ("s", "total", "arith.divisors"),
    "arith.divisors_calls": ("count", "calls", "arith.divisors"),
    "arith.ordered_factorizations_s": ("s", "total", "arith.ordered_factorizations"),
    "arith.tuples": ("count", "counter", "arith.tuples"),
    "arith.tuples_per_s": ("1/s", "rate", ("arith.tuples", "arith.ordered_factorizations")),
    "count.factorization_sum_self_s": ("s", "self", "count.factorization_sum"),
    "count.recursion_self_s": ("s", "self", "count.recursion"),
    "count.gruber_self_s": ("s", "self", "count.gruber"),
    "count.divisor_visits": ("count", "counter", "count.divisor_visits"),
    "series.dirichlet_s": ("s", "total", "series.dirichlet"),
    # computed from the arguments as limit * (n - 1), not counted
    "series.dirichlet_cells": ("count", "counter", "series.dirichlet_cells"),
    "series.tseries_mul_self_s": ("s", "self", "series.tseries_mul"),
    "series.tseries_mul_calls": ("count", "calls", "series.tseries_mul"),
    "qcalc.poly_mul_s": ("s", "total", "qcalc.poly_mul"),
    "qcalc.poly_mul_calls": ("count", "calls", "qcalc.poly_mul"),
    # computed as the sum of len(a) * len(b) over the products
    "qcalc.coeff_products": ("count", "counter", "qcalc.coeff_products"),
    "qcalc.gauss_binomial_s": ("s", "total", "qcalc.gauss_binomial"),
    "qcalc.gauss_binomial_calls": ("count", "calls", "qcalc.gauss_binomial"),
    "qcalc.format_s": ("s", "total", "qcalc.format"),
}


def layer_metric(kind: str, source, totals: spans.Totals, counters: dict[str, int]) -> float:
    if kind == "total":
        return totals.total_ns.get(source, 0) / 1e9
    if kind == "self":
        return totals.self_ns.get(source, 0) / 1e9
    if kind == "calls":
        return totals.calls.get(source, 0)
    if kind == "counter":
        return counters.get(source, 0)
    counter, span = source
    span_ns = totals.total_ns.get(span, 0)
    return counters.get(counter, 0) / (span_ns / 1e9) if span_ns else 0.0


@dataclass
class TracedInvocation:
    totals: spans.Totals
    counters: dict[str, int]
    wall_ns: int
    errors: list[str]


def read_traced(outcome: Outcome) -> TracedInvocation:
    recorded = spans.read(outcome.spans_path)
    counters = dict(recorded.counters)
    counters["cli.lines"] = outcome.lines
    counters["cli.bytes"] = outcome.nbytes
    return TracedInvocation(
        spans.totals(recorded),
        counters,
        outcome.end_ns - outcome.start_ns,
        spans.nesting_errors(recorded, outcome.start_ns, outcome.end_ns),
    )


def combine(traced_invocations: list[TracedInvocation]):
    """Summed span totals, counters and wall time of several traced invocations."""
    totals = spans.Totals({}, {}, {}, 0)
    counters: dict[str, int] = {}
    wall_ns = 0
    for traced_invocation in traced_invocations:
        totals.add(traced_invocation.totals)
        for name, value in traced_invocation.counters.items():
            counters[name] = counters.get(name, 0) + value
        wall_ns += traced_invocation.wall_ns
    return totals, counters, wall_ns


def layer_shares(totals: spans.Totals, uncovered_ns: int) -> dict[str, float]:
    """Share of traced wall time spent in each layer's own code (self time)."""
    by_layer = {"(outside spans)": uncovered_ns}
    for name, self_ns in totals.self_ns.items():
        layer = name.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0) + self_ns
    whole = sum(by_layer.values())
    return {layer: value / whole for layer, value in sorted(by_layer.items())}


def traced(runner, workload, invocations, seconds: float):
    """Alternate untraced passes with traced ones (the probe, then the workload)."""
    runner.run(SETUP)
    runner.run(invocations[0])
    plain_walls, traced_walls, traced_passes, outcomes = [], [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        plain = run_sequence(runner, invocations, None)
        prefix = str(runner.work / f"spans-{len(traced_passes)}")
        traced_outcomes = run_sequence(runner, [*PROBE, *invocations], prefix)
        traced_passes.append(traced_outcomes)
        outcomes += plain + traced_outcomes
        plain_walls.append(sum(outcome.wall_s for outcome in plain))
        traced_walls.append(sum(outcome.wall_s for outcome in traced_outcomes[len(PROBE) :]))
        now = time.perf_counter()
        if now + (now - start) > deadline:  # the next pair would overrun
            break

    notes = [f"passes: {len(traced_passes)} untraced + {len(traced_passes)} traced"]
    pass_metrics, errors, workload_part = [], [], []
    for index, traced_outcomes in enumerate(traced_passes):
        parts = [read_traced(outcome) for outcome in traced_outcomes]
        workload_part += parts[len(PROBE) :]
        totals, counters, wall_ns = combine(parts)
        uncovered_ns = wall_ns - totals.root_ns
        self_ns = sum(totals.self_ns.values())
        errors += [error for part in parts for error in part.errors]
        if self_ns + uncovered_ns != wall_ns:
            errors.append(f"traced pass {index}: self times do not add up to its wall time")
        notes.append(
            f"traced pass {index}: wall {wall_ns / 1e9:.4f} s = span self times "
            f"{self_ns / 1e9:.4f} s + outside spans {uncovered_ns / 1e9:.4f} s"
        )
        metrics = {
            name: layer_metric(kind, source, totals, counters)
            for name, (_, kind, source) in PER_LAYER.items()
        }
        metrics["trace.uncovered_s"] = uncovered_ns / 1e9
        pass_metrics.append(metrics)

    totals, _, wall_ns = combine(workload_part)
    shares = layer_shares(totals, wall_ns - totals.root_ns)
    dominant = max((layer for layer in shares if layer in LAYERS), key=shares.get)
    notes.append(
        "share of traced wall time by layer (workload invocations, all passes): "
        + ", ".join(f"{layer} {share:.1%}" for layer, share in shares.items())
    )
    notes.append(
        f"dominant layer: {dominant} (stated: {', '.join(workload.dominant)})"
        + ("" if dominant in workload.dominant else "  MISMATCH")
    )

    metrics = {
        name: statistics.median(metrics[name] for metrics in pass_metrics)
        for name in pass_metrics[0]
    }
    plain_median = statistics.median(plain_walls)
    metrics["trace.overhead_frac"] = (statistics.median(traced_walls) - plain_median) / plain_median
    units = {name: unit for name, (unit, _, _) in PER_LAYER.items()}
    units.update({"trace.uncovered_s": "s", "trace.overhead_frac": "fraction"})
    return outcomes, metrics, units, notes, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "latcount" / "__init__.py").is_file():
        print(f"error: no latcount package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    invocations = workload.generate(random.Random(args.seed))
    work = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))
    runner = Runner(work)
    measure = traced if args.trace else end_to_end
    try:
        outcomes, metrics, units, notes, errors = measure(
            runner, workload, invocations, args.seconds
        )
        failures = check_outcomes(runner, outcomes, args.seed)
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = len(outcomes), len(failures)
    print(
        f"workload {workload.name} (seed {args.seed}); unit: {workload.unit}; "
        f"stated dominant layer: {', '.join(workload.dominant)}"
    )
    for invocation in invocations:
        print(f"  latcount {' '.join(invocation.argv)}  [{invocation.units} {workload.unit}]")
    for note in notes:
        print(f"  {note}")
    for reason in failures[:10] + errors[:10]:
        print(f"  FAILED: {reason}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:16.6f} {units[name]}")
    print(f"  {'error_rate':34s} {failed / attempted:16.6f} ({failed} of {attempted} invocations)")
    result = {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

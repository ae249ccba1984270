"""Run one latcount CLI invocation with spans around each layer's entry points.

Usage, with latcount importable (for example PYTHONPATH=src):

    python perfbench/tracer.py SPANS_PATH ARG...

runs ``latcount.cli.main([ARG...])`` the way ``python -m latcount ARG...``
would, and writes the spans to SPANS_PATH.json and SPANS_PATH.bin (see
``spans.py``).  The wrappers are installed from here, so nothing in the
package changes: each public entry point below is rebound in every latcount
module (and module-level dispatch table) that holds it.  Generators are
timed once per ``next()``, so the time a consumer spends between items is
charged to the consumer, not to the generator.
"""

from __future__ import annotations

import builtins
import functools
import inspect
import sys
import time
from array import array

import spans

clock = time.perf_counter_ns

# (span name, module, attribute) of plain functions.
FUNCTIONS = (
    ("arith.factorize", "latcount.arith", "factorize"),
    ("arith.divisors", "latcount.arith", "divisors"),
    ("hnf.count_by_enumeration", "latcount.hnf", "count_by_enumeration"),
    ("count.factorization_sum", "latcount.count", "count_by_factorization_sum"),
    ("count.recursion", "latcount.count", "count_by_recursion"),
    ("count.gruber", "latcount.count", "count_by_gruber"),
    ("series.dirichlet", "latcount.series", "dirichlet_coefficients"),
    ("qcalc.gauss_binomial", "latcount.qcalc", "gauss_binomial"),
    ("qcalc.format", "latcount.qcalc", "format_qpolynomial"),
)
# (span name, module, attribute, counter of items yielded) of generators.
GENERATORS = (
    ("arith.ordered_factorizations", "latcount.arith", "ordered_factorizations", "arith.tuples"),
    ("hnf.enumerate_hnf", "latcount.hnf", "enumerate_hnf", "hnf.matrices"),
)
# (span name, module, class, method) of methods.
METHODS = (
    ("hnf.to_line", "latcount.hnf", "HnfMatrix", "to_line"),
    ("series.tseries_mul", "latcount.series", "TSeries", "__mul__"),
    ("qcalc.poly_mul", "latcount.qcalc", "QPolynomial", "__mul__"),
)


class Recorder:
    """Spans of one process, in memory until ``dump``."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.ids = array("q")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.counters: dict[str, int] = {}
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.ids)
        self.ids.append(name_id)
        self.parents.append(self._stack[-1])
        self.ends.append(0)
        self._stack.append(index)
        self.starts.append(clock())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = clock()
        self._stack.pop()

    def count(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def dump(self, path: str) -> None:
        spans.write(
            path,
            spans.Spans(self.names, self.counters, self.ids, self.parents, self.starts, self.ends),
        )


def timed(recorder: Recorder, name: str, fn, tally=None):
    """Wrap fn in a span; ``tally(args, kwargs, result)`` may add to the counters."""
    name_id = recorder.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = recorder.open(name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(index)
        if tally is not None:
            tally(args, kwargs, result)
        return result

    return wrapper


class TimedIterator:
    __slots__ = ("_iterator", "_recorder", "_name_id", "_counter")

    def __init__(self, iterator, recorder: Recorder, name_id: int, counter: str):
        self._iterator = iterator
        self._recorder = recorder
        self._name_id = name_id
        self._counter = counter

    def __iter__(self):
        return self

    def __next__(self):
        index = self._recorder.open(self._name_id)
        try:
            item = next(self._iterator)
        finally:
            self._recorder.close(index)
        self._recorder.count(self._counter, 1)
        return item


def timed_generator(recorder: Recorder, name: str, fn, counter: str):
    name_id = recorder.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return TimedIterator(fn(*args, **kwargs), recorder, name_id, counter)

    return wrapper


def rebind(original, replacement) -> None:
    """Replace ``original`` wherever a latcount module or its module-level dicts hold it."""
    for module_name, module in list(sys.modules.items()):
        if module_name != "latcount" and not module_name.startswith("latcount."):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)
            elif isinstance(value, dict):
                for key, item in value.items():
                    if item is original:
                        value[key] = replacement


def install(recorder: Recorder) -> None:
    """Wrap every entry point above that exists; one that is gone reads as 0."""

    def tally_visits(args, kwargs, result):
        stats = getattr(result, "work_stats", None) or {}
        recorder.count("count.divisor_visits", stats.get("divisor_visits", 0))

    dirichlet = getattr(sys.modules["latcount.series"], "dirichlet_coefficients", None)
    dirichlet_signature = inspect.signature(dirichlet) if dirichlet is not None else None

    def tally_cells(args, kwargs, result):
        bound = dirichlet_signature.bind(*args, **kwargs).arguments
        recorder.count("series.dirichlet_cells", bound["limit"] * (bound["n"] - 1))

    def tally_products(args, kwargs, result):
        left, right = args
        right_length = len(right.coefficients) if hasattr(right, "coefficients") else 1
        recorder.count("qcalc.coeff_products", len(left.coefficients) * right_length)

    tallies = {
        "count.recursion": tally_visits,
        "series.dirichlet": tally_cells,
        "qcalc.poly_mul": tally_products,
    }
    for name, module_name, attribute in FUNCTIONS:
        original = getattr(sys.modules[module_name], attribute, None)
        if original is not None:
            rebind(original, timed(recorder, name, original, tallies.get(name)))
    for name, module_name, attribute, counter in GENERATORS:
        original = getattr(sys.modules[module_name], attribute, None)
        if original is not None:
            rebind(original, timed_generator(recorder, name, original, counter))
    for name, module_name, class_name, attribute in METHODS:
        cls = getattr(sys.modules[module_name], class_name, None)
        original = vars(cls).get(attribute) if cls is not None else None
        if original is None:
            continue
        replacement = timed(recorder, name, original, tallies.get(name))
        # covers aliases such as QPolynomial.__rmul__ = __mul__
        for alias, value in list(vars(cls).items()):
            if value is original:
                setattr(cls, alias, replacement)
    # Every stdout record goes through print() in latcount.cli.
    sys.modules["latcount.cli"].print = timed(recorder, "cli.write", builtins.print)


def main(argv: list[str]) -> int:
    path, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    index = recorder.open(recorder.name_id("cli.import"))
    import latcount.cli

    recorder.close(index)
    install(recorder)
    main_id = recorder.name_id("cli.main")
    write_id = recorder.name_id("cli.write")
    index = recorder.open(main_id)
    try:
        return latcount.cli.main(cli_args)
    finally:
        recorder.close(index)
        index = recorder.open(write_id)
        sys.stdout.flush()
        recorder.close(index)
        recorder.dump(path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

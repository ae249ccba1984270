"""Each byte model is an upper bound on the memory its work holds, and not a loose one.

The byte models are checked at their edges by `tools/budget_edges.py --measure`, where
each peak lies between half its prediction and all of it.  Here every model is checked at
small shapes, which carry more fixed overhead, on every Python the suite runs on: an
interpreter whose objects outgrow a model's literals fails here.
"""

import math
import tracemalloc

import pytest

from latcount import arith, count, hnf, qcalc, series
from latcount.core import MAX_PREDICTED_BYTES, check_budget

MODULES = (arith, count, hnf, qcalc, series)

FS = "factorization-sum"
PRIMORIAL_23 = math.prod((2, 3, 5, 7, 11, 13, 17, 19, 23))

# Each family's calls at small shapes.  Each peak is at least a quarter of its prediction,
# but the matrix stream's: it shares the text stream's model, and holds far less.
CASES = {
    "gauss_binomial(30, 15)": lambda: qcalc.gauss_binomial(30, 15),
    "gauss_binomial(200, 2)": lambda: qcalc.gauss_binomial(200, 2),
    "geometric_factor(3, 100)": lambda: series.geometric_factor(3, 100),
    "geometric_factor(1, 50)": lambda: series.geometric_factor(1, 50),
    "rhs_sum(3, 40)": lambda: series.rhs_sum(3, 40),
    "rhs_sum(1, 2000)": lambda: series.rhs_sum(1, 2000),
    "first_asymmetric_pair(20)": lambda: qcalc.first_asymmetric_pair(20),
    "dirichlet_coefficients(3, 2000)": lambda: series.dirichlet_coefficients(3, 2000),
    "dirichlet_coefficients(1, 100000)": lambda: series.dirichlet_coefficients(1, 10**5),
    "enumerate_lines(30, 6)": lambda: next(hnf.enumerate_lines(30, 6)),
    "enumerate_lines(3, 4096)": lambda: next(hnf.enumerate_lines(3, 4096)),
    "enumerate_hnf(30, 6)": lambda: next(hnf.enumerate_hnf(30, 6)),
    "DivisorIndex(720720)": lambda: arith.DivisorIndex(720720),
    "DivisorIndex(2^1000)": lambda: arith.DivisorIndex(2**1000),
    "count_by_recursion(3, 720720)": lambda: count.count_by_recursion(3, 720720),
    "count_by_recursion(5, 23#)": lambda: count.count_by_recursion(5, PRIMORIAL_23),
    "count_table(2, 1000, factorization-sum)": lambda: count.count_table(2, 1000, FS),
    "count_table(5, 500, factorization-sum)": lambda: list(count.count_table(5, 500, FS)),
}


@pytest.mark.parametrize("name", CASES)
def test_each_byte_model_bounds_its_peak(monkeypatch, name):
    least = 0 if name.startswith("enumerate_hnf") else 0.25
    predictions = [0]

    def record(predicted, limit, work):
        if limit == MAX_PREDICTED_BYTES:
            predictions[0] = max(predictions[0], predicted)
        check_budget(predicted, limit, work)

    for module in MODULES:
        monkeypatch.setattr(module, "check_budget", record)
    tracemalloc.start()
    try:
        CASES[name]()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    predicted = predictions[0]
    assert least * predicted <= peak <= predicted, (peak, predicted)

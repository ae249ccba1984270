"""The benchmark's trace points still name entry points that exist.

perfbench/tracer.py skips an entry point it cannot find, so a renamed or
removed function would read as a per-layer time of 0 without any error.
These checks fail instead.  The tracer's tables are only read here.
"""

import importlib
import inspect
import sys
from pathlib import Path

from latcount import count_by_recursion, dirichlet_coefficients

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")

sys.path.insert(0, PERFBENCH)
try:
    import tracer
finally:
    sys.path.remove(PERFBENCH)


def test_functions_and_generators_resolve():
    for name, module_name, attribute, *_ in tracer.FUNCTIONS + tracer.GENERATORS:
        entry = getattr(importlib.import_module(module_name), attribute, None)
        assert callable(entry), f"{name}: {module_name}.{attribute} is gone"


def test_methods_resolve():
    for name, module_name, class_name, attribute in tracer.METHODS:
        cls = getattr(importlib.import_module(module_name), class_name, None)
        # the tracer looks the method up in the class's own namespace
        assert attribute in vars(cls or object), f"{name}: {class_name}.{attribute} is gone"


def test_dirichlet_binds_n_and_limit():
    bound = inspect.signature(dirichlet_coefficients).bind(3, 10).arguments
    assert dict(bound) == {"n": 3, "limit": 10}


def test_recursion_reports_divisor_visits():
    assert count_by_recursion(3, 12).work_stats["divisor_visits"] > 0

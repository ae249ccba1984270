import ast
from pathlib import Path

import pytest

import latcount
from latcount import CapacityError
from latcount.core import check_budget

# The only functions that may construct a CapacityError.  Every refusal of a
# predicted size goes through check_budget; the others are trial division's
# bound, the enumeration cap shared with `count --all`'s notes, and the count
# that exhausting an enumeration finds after the fact.
CAPACITY_ERROR_SITES = {
    "core.check_budget",
    "arith._least_factor",
    "arith.factorize",
    "count.check_enumeration_size",
    "hnf.count_by_enumeration",
}


class TestCheckBudget:
    def test_a_prediction_at_the_limit_passes(self):
        assert check_budget(10, 10, "the work would hold {} cells") is None
        assert check_budget(0, 0, "the work would hold {} cells") is None

    def test_one_over_the_limit_raises_with_the_work_filled_in(self):
        with pytest.raises(CapacityError) as excinfo:
            check_budget(11, 10, "f(3, 4) would hold {} coefficients in its rows")
        message = "f(3, 4) would hold 11 coefficients in its rows, above the limit 10"
        assert str(excinfo.value) == message


class _CapacityErrorSites(ast.NodeVisitor):
    """Collect module.function for every CapacityError(...) call and bare raise of the class."""

    def __init__(self, module: str):
        self.scope = [module]
        self.sites = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def _note(self, node):
        if getattr(node, "id", getattr(node, "attr", None)) == "CapacityError":
            self.sites.append(".".join(self.scope))

    def visit_Call(self, node):
        self._note(node.func)
        self.generic_visit(node)

    def visit_Raise(self, node):
        self._note(node.exc)
        self.generic_visit(node)


def test_capacity_errors_are_constructed_only_at_the_known_sites():
    sites = []
    for path in sorted(Path(latcount.__file__).parent.glob("*.py")):
        visitor = _CapacityErrorSites(path.stem)
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        sites += visitor.sites
    assert "core.check_budget" in sites
    stray = sorted(set(sites) - CAPACITY_ERROR_SITES)
    assert stray == [], f"CapacityError built outside check_budget and the known sites: {stray}"


def test_cli_imports_no_private_name_from_the_package():
    # Every size decision lives in the library, so the CLI needs none of its private names.
    path = Path(latcount.__file__).parent / "cli.py"
    imported = [
        (node.level * "." + (node.module or ""), alias.name)
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "latcount")
        for alias in node.names
    ]
    assert imported
    private = [
        f"{module} {name}"
        for module, name in imported
        if any(part.startswith("_") for part in [*module.split("."), name])
    ]
    assert private == [], f"cli.py imports private names: {private}"


# The methods stay independent: plumbing may be shared, the arithmetic may not.
# Each function named here may reference none of the names beside it.
FORBIDDEN_NAMES = {
    "series": (
        ("dirichlet_coefficients", "_add_scaled", "count_by_dirichlet"),
        {"factorize", "divisors", "DivisorIndex", "_divisor_table", "ordered_factorizations"},
    ),
    "count": (
        (
            "count_by_factorization_sum",
            "_factorization_sum",
            "count_by_recursion",
            "_recursion_table",
            "_recursion_levels",
        ),
        {"dirichlet_coefficients", "count_by_dirichlet", "count_by_gruber"},
    ),
}


@pytest.mark.parametrize("module", sorted(FORBIDDEN_NAMES))
def test_method_bodies_reference_no_other_methods_arithmetic(module):
    functions, forbidden = FORBIDDEN_NAMES[module]
    path = Path(latcount.__file__).parent / f"{module}.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    bodies = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert set(functions) <= set(bodies)
    for name in functions:
        referenced = {
            getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(bodies[name])
        }
        assert referenced & forbidden == set(), f"{module}.{name} references {referenced & forbidden}"

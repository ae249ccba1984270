import ast
import math
import sys
from pathlib import Path

import pytest

import latcount
from latcount import CapacityError, factorize, run_count
from latcount.core import check_budget, int_text
from oracles import sieve_primes

# The only functions that may construct a CapacityError.  Every refusal of a
# predicted size goes through check_budget; the others are trial division's
# bound (the loop, and the two callers that name the m they were given), the
# enumeration cap shared with `count --all`'s notes, and the count that
# exhausting an enumeration finds after the fact.
CAPACITY_ERROR_SITES = {
    "core.check_budget",
    "arith._least_factor",
    "arith.factorize",
    "arith._least_prime",
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


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit")
class TestIntText:
    @pytest.fixture(autouse=True)
    def default_limit(self):
        # cli.main, which some tests call in this process, lifts the limit
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
        yield
        sys.set_int_max_str_digits(saved)

    def test_writes_what_str_can_and_the_bits_of_what_it_cannot(self):
        assert int_text(10**4299) == str(10**4299)
        assert int_text(10**4300) == "a number of 14285 bits"

    def test_messages_about_a_huge_m_are_capacity_errors(self, monkeypatch):
        monkeypatch.setenv("LATCOUNT_TRIAL_DIVISION_BOUND", "100")
        m = 3**10000 * 1000003
        with pytest.raises(CapacityError) as excinfo:
            factorize(m)
        assert str(excinfo.value) == (
            f"cannot factor a number of {m.bit_length()} bits: "
            "no prime factor of 1000003 below trial-division bound 100"
        )
        m = 101**2200  # 4410 digits, none of whose prime factors is below 100
        with pytest.raises(CapacityError) as excinfo:
            factorize(m)
        bits = m.bit_length()
        assert str(excinfo.value) == (
            f"cannot factor a number of {bits} bits: "
            f"no prime factor of a number of {bits} bits below trial-division bound 100"
        )
        monkeypatch.delenv("LATCOUNT_TRIAL_DIVISION_BOUND")
        # 4724 digits: f_2(m) >= m is over the cap by m's bits, before m is factored.
        m = math.prod(sieve_primes(11_000))
        with pytest.raises(CapacityError) as excinfo:
            run_count(2, m, "hnf")
        assert str(excinfo.value) == (
            "enumeration of (n=2, m=a number of 15693 bits) would emit at least m^1 matrices, "
            "above the default cap 1000000"
        )


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
# Each entry names a module and functions in it that may reference none of the
# names beside them.
FORBIDDEN_NAMES = {
    "series": (
        "series",
        ("_dirichlet_levels", "dirichlet_coefficients", "_add_scaled", "count_by_dirichlet"),
        {"factorize", "divisors", "DivisorIndex", "_divisor_table", "ordered_factorizations"},
    ),
    "count": (
        "count",
        (
            "count_by_factorization_sum",
            "_factorization_sum",
            "_factorization_sum_table",
            "count_by_recursion",
            "_recursion_table",
        ),
        {
            "dirichlet_coefficients",
            "_dirichlet_levels",
            "count_by_dirichlet",
            "count_by_gruber",
            "_gruber",
            "_gruber_table",
        },
    ),
    # The factorization sum keeps only its three-part fold across prefixes, made from divisor
    # lists: it reads none of the recursion's levels, pushes, grid or budgets.
    "factorization-sum": (
        "count",
        (
            "count_by_factorization_sum",
            "_factorization_sum",
            "_factorization_sum_table",
            "_fold",
        ),
        {
            "count_by_recursion",
            "_recursion_table",
            "_recursion_sweep_ns",
            "_recursion_grid_ns",
            "_check_recursion_grid",
        },
    ),
    # The factorization-sum sweep's budget counts tuples with product <= max_m without
    # factoring any number or listing any divisor.
    "factorization-sum-sweep-budget": (
        "count",
        ("_tuple_counts", "_factorization_sum_sweep_ns"),
        {
            "factorize",
            "divisors",
            "DivisorIndex",
            "_divisor_table",
            "ordered_factorization_count",
            "_tuple_count",
        },
    ),
    # The recursion sweep pushes into multiples, so it reads no divisor list at all.
    "recursion-sweep": (
        "count",
        ("_recursion_table",),
        {"_divisor_table", "_divisor_table_size", "DivisorIndex", "divisors", "factorize"},
    ),
    # The recursion's single count sums over m's exponent grid: no divisor has a list of its own.
    "recursion-single": (
        "count",
        ("count_by_recursion",),
        {"DivisorIndex", "divisors", "_divisor_table", "_divisor_table_size"},
    ),
    # The Gruber sweep multiplies prime-power values, each from the body of a single Gruber
    # count, given the factorization of its own split: no prime power is factored again.
    "gruber-sweep": (
        "count",
        ("_gruber_table",),
        {
            "factorize",
            "count_by_gruber",
            "_divisor_table",
            "_divisor_table_size",
            "DivisorIndex",
            "divisors",
            "ordered_factorizations",
            "count_by_factorization_sum",
            "_factorization_sum",
            "_factorization_sum_table",
            "count_by_recursion",
            "_recursion_table",
            "dirichlet_coefficients",
            "_dirichlet_levels",
            "count_by_dirichlet",
            "count_by_enumeration",
        },
    ),
}


@pytest.mark.parametrize("entry", sorted(FORBIDDEN_NAMES))
def test_method_bodies_reference_no_other_methods_arithmetic(entry):
    module, functions, forbidden = FORBIDDEN_NAMES[entry]
    path = Path(latcount.__file__).parent / f"{module}.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    bodies = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert set(functions) <= set(bodies)
    for name in functions:
        referenced = {
            getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(bodies[name])
        }
        assert referenced & forbidden == set(), f"{module}.{name} references {referenced & forbidden}"

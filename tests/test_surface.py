"""The kernel's public surface: every definition has a use, and every name the
tracer patches is where it looks.

A top-level function or class of a kernel module counts as used when some
kernel module names it, as an identifier or as an attribute, or when the
package exports it through ``gbsolve.__all__``.  A helper that only tests call
belongs in ``tests/corpus.py``.

``bench/tracing.py`` patches kernel names from four tables, so a deleted or
renamed name breaks every traced benchmark run; it is loaded here by path.

A coefficient is zero exactly when it is falsy (``fields.Domain``), so no
kernel module calls a zero test on an argument, ``<expr>.is_zero(<arg>)``;
``Polynomial.is_zero()`` takes none.

A product modulo a monic polynomial is ``unipoly.mul_mod``, so no kernel
module reduces a fresh product with ``rem(mul(...), ...)``.

A call the kernel cannot serve raises ``UsageError`` with its reason; the
guards that no other test reaches are called here one by one.
"""

import ast
import importlib
import importlib.util
import operator
from pathlib import Path

import pytest

import gbsolve
from gbsolve import euclidean, groebner, unipoly
from gbsolve.errors import UsageError
from gbsolve.fields import GF, UnivariatePolyDomain
from gbsolve.poly import Polynomial, TermOrder

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gbsolve"
TRACING = ROOT / "bench" / "tracing.py"


def _named(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def unused_definitions(sources, exported):
    """(module, name) for every top-level function or class of the sources
    (module name -> source text) that no source names and that is not in
    ``exported``."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    named = {name for tree in trees.values() for name in _named(tree)}
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, defs) and node.name not in named | exported
    ]


def test_the_check_sees_an_unused_definition():
    sources = {
        "a": "def called(): pass\ndef dead(): pass\nclass Exported: pass\n",
        "b": "from .a import called\ncalled()\nx.attribute\ndef attribute(): pass\n",
    }
    assert unused_definitions(sources, {"Exported"}) == [("a", "dead")]


def test_every_kernel_definition_is_used_or_exported():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unused_definitions(sources, set(gbsolve.__all__)) == []


def test_every_name_the_tracer_patches_exists():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module, attr, _ in tracing.SPAN_FUNCTIONS + tracing.COUNT_FUNCTIONS:
        if not callable(getattr(importlib.import_module(f"gbsolve.{module}"), attr, None)):
            missing.append(f"{module}.{attr}")
    for module, cls, attr, _ in tracing.SPAN_METHODS + tracing.COUNT_METHODS:
        owner = getattr(importlib.import_module(f"gbsolve.{module}"), cls, None)
        if owner is None or attr not in vars(owner):
            missing.append(f"{module}.{cls}.{attr}")
    assert missing == []


def zero_tests_with_an_argument(source):
    """Line numbers of the calls ``<expr>.is_zero(...)`` that pass an argument."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "is_zero"
        and (node.args or node.keywords)
    )


def test_the_check_sees_a_zero_test_with_an_argument():
    source = "dom.is_zero(c)\nf.is_zero()\nself.tower.is_zero(a=x)\n"
    assert zero_tests_with_an_argument(source) == [1, 3]


def test_every_kernel_zero_test_of_a_coefficient_is_truthiness():
    found = {p.name: zero_tests_with_an_argument(p.read_text()) for p in SRC.glob("*.py")}
    assert {name: lines for name, lines in found.items() if lines} == {}


def _callee(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def remainders_of_products(source):
    """Line numbers of the calls ``rem(mul(...), ...)``, through a module
    prefix or not."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and _callee(node) == "rem"
        and node.args
        and isinstance(node.args[0], ast.Call)
        and _callee(node.args[0]) == "mul"
    )


def test_the_check_sees_a_remainder_of_a_product():
    source = (
        "rem(mul(a, b, F), m, F)\n"
        "unipoly.rem(unipoly.mul(a, b, F), m, F)\n"
        "rem(a, m, F)\n"
        "mul(rem(a, m, F), b, F)\n"
    )
    assert remainders_of_products(source) == [1, 2]


def test_every_kernel_modular_product_is_mul_mod():
    found = {p.name: remainders_of_products(p.read_text()) for p in SRC.glob("*.py")}
    assert {name: lines for name, lines in found.items() if lines} == {}


F5 = GF(5)
F5X = UnivariatePolyDomain(F5)  # F5[x1], not a field


@pytest.mark.parametrize(
    "call, reason",
    [
        (lambda: TermOrder((0, 1), (1,)), "one weight per variable"),
        (
            lambda: groebner.buchberger([], domain=F5X, nvars=1),
            "buchberger needs field coefficients",
        ),
        (
            lambda: groebner.eliminate_to_x1(groebner.Ideal([], F5X, 1)),
            "elimination needs field coefficients",
        ),
        (
            lambda: euclidean.to_coeff_view(Polynomial(F5, 0, {(): 1})),
            "no variable available",
        ),
        (
            lambda: euclidean.specialize_basis(
                groebner.buchberger([], domain=F5, nvars=1), 0
            ),
            "specialization needs a K\\[x1\\] basis",
        ),
        (lambda: F5.prefix(1), "has no 1-level prefix"),
        (lambda: F5.generator(), "the prime field has no adjoined generator"),
        (lambda: unipoly.leading(()), "leading coefficient of the zero polynomial"),
        (lambda: unipoly.power(2, -1, operator.mul, 1), "negative powers"),
    ],
    ids=[
        "weight-count",
        "buchberger-over-Kx1",
        "eliminate-over-Kx1",
        "coeff-view-of-no-variables",
        "specialize-a-field-basis",
        "prefix-out-of-range",
        "prime-field-generator",
        "leading-of-zero",
        "negative-power",
    ],
)
def test_a_call_the_kernel_cannot_serve_raises_usage_error(call, reason):
    with pytest.raises(UsageError, match=reason):
        call()

"""Property test: the only exception a problem file can raise is ParseError.

Generator and query lines are random token soup under random ``field``
and ``vars`` headers.  Each expression is wrapped in up to 1200 parentheses or
minus signs, far past the parser's nesting bound: Hypothesis raises the
recursion limit by 2000 frames while a test runs, so only this depth makes
unbounded recursion surface as a RecursionError.  A line gets at most two
``^`` and integer literals up to 12, so no power the soup forms has degree
above 144.

A second property: a parsed line equals the Polynomial that Polynomial
arithmetic gives for the expression tree it was rendered from, term order
included.
"""

from hypothesis import given, reject, settings
from hypothesis import strategies as st

from gbsolve.errors import ParseError
from gbsolve.fields import GF, QQ
from gbsolve.parser import parse_polynomial, parse_problem
from gbsolve.poly import Polynomial

FIELDS = ["field q", "field p 2", "field p 5", "field p 32003"]
VARS = ["vars x", "vars x y", "vars x y z"]
OPERANDS = ["x", "y", "z", "w", "query", "0", "1", "2", "7", "12", "(", ")"]
OPERATORS = ["+", "-", "*", "/", "(", ")", "#", ""]
WRAPPERS = ["(", "-", "-("]


@st.composite
def generator_lines(draw):
    operands = draw(st.lists(st.sampled_from(OPERANDS), min_size=1, max_size=6))
    tokens = operands[:1]
    for operand in operands[1:]:
        tokens += [draw(st.sampled_from(OPERATORS)), operand]
    for _ in range(draw(st.integers(0, 2))):
        tokens.insert(draw(st.integers(0, len(tokens))), "^")
    wrapper = draw(st.sampled_from(WRAPPERS))
    depth = draw(st.one_of(st.integers(0, 2), st.integers(0, 1200)))
    closing = ")" * depth if "(" in wrapper else ""
    head = draw(st.sampled_from(["", "query "]))
    return head + wrapper * depth + " ".join(tokens) + closing


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(
    st.sampled_from(FIELDS),
    st.sampled_from(VARS),
    st.lists(generator_lines(), max_size=3),
)
def test_parse_problem_raises_only_parse_errors(field, names, lines):
    text = "\n".join([field, names, *lines]) + "\n"
    try:
        parse_problem(text)
    except ParseError:
        pass


# -- differential test against Polynomial arithmetic ---------------------------

DIFF_FIELDS = [("field p 5", GF(5)), ("field p 32003", GF(32003)), ("field q", QQ)]
DIFF_NAMES = ("x", "y", "z")
# binary node -> (operator, precedence of the node and of its left operand);
# the right operand needs one level more
BINARY = {"add": ("+", 1), "sub": ("-", 1), "mul": ("*", 2)}
UNARY, POWER, ATOM = 3, 4, 5


def expression_trees(char):
    denominators = st.sampled_from([b for b in range(1, 51) if not char or b % char])
    leaves = st.one_of(
        st.tuples(st.just("var"), st.integers(0, len(DIFF_NAMES) - 1)),
        st.tuples(st.just("int"), st.one_of(st.integers(0, 9), st.integers(0, 10**6))),
        st.tuples(st.just("frac"), st.integers(0, 50), denominators),
    )

    def extend(kids):
        return st.one_of(
            *(st.tuples(st.just(kind), kids, kids) for kind in BINARY),
            st.tuples(st.just("neg"), st.integers(1, 3), kids),
            st.tuples(st.just("pow"), kids, st.integers(1, 4)),
            st.tuples(st.just("paren"), kids),
        )

    return st.recursive(leaves, extend, max_leaves=8)


def _assume_in_bounds(parse, text, *args):
    """Reject an example the parser refuses as too large; any other parse
    error is a rendering bug and fails the test."""
    try:
        parse(text, *args)
    except ParseError as err:
        if "more than" not in str(err):
            raise
        reject()


def _operand(tree, level, dom, sp):
    text, own, p = _render(tree, dom, sp)
    return (text if own >= level else f"({text})"), p


def _render(tree, dom, sp):
    """(text, precedence, Polynomial) of an expression tree.  A power or a
    product the parser refuses as too large is rejected before Polynomial
    arithmetic computes it."""
    kind = tree[0]
    if kind == "var":
        return DIFF_NAMES[tree[1]], ATOM, Polynomial.variable(dom, len(DIFF_NAMES), tree[1])
    if kind in ("int", "frac"):
        value = dom.from_int(tree[1])
        if kind == "frac":
            value = dom.div(value, dom.from_int(tree[2]))
        text = "/".join(map(str, tree[1:]))
        return text, ATOM, Polynomial.constant(dom, len(DIFF_NAMES), value)
    if kind == "paren":
        text, _, p = _render(tree[1], dom, sp)
        return f"({text})", ATOM, p
    if kind == "neg":
        text, p = _operand(tree[2], POWER, dom, sp)
        for _ in range(tree[1]):
            p = -p
        return "-" * tree[1] + text, UNARY, p
    if kind == "pow":
        text, p = _operand(tree[1], ATOM, dom, sp)
        text = f"{text}^{tree[2]}"
        _assume_in_bounds(parse_polynomial, text, dom, DIFF_NAMES)
        return text, POWER, p ** tree[2]
    op, level = BINARY[kind]
    ltext, left = _operand(tree[1], level, dom, sp)
    rtext, right = _operand(tree[2], level + 1, dom, sp)
    text = f"{ltext}{sp}{op}{sp}{rtext}"
    if kind == "mul":
        _assume_in_bounds(parse_polynomial, text, dom, DIFF_NAMES)
        p = left * right
    else:
        p = left + right if kind == "add" else left - right
    return text, level, p


@st.composite
def rendered_problems(draw):
    header, dom = draw(st.sampled_from(DIFF_FIELDS))
    sp = draw(st.sampled_from(["", " "]))
    trees = draw(st.lists(expression_trees(dom.char), min_size=1, max_size=3))
    lines, polys = [], []
    for tree in trees:
        text, _, p = _render(tree, dom, sp)
        lines.append(text)
        polys.append(p)
    text = "\n".join([header, "vars " + " ".join(DIFF_NAMES), *lines]) + "\n"
    _assume_in_bounds(parse_problem, text)  # its lines share one budget
    return text, tuple(polys)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(rendered_problems())
def test_parse_matches_polynomial_arithmetic(problem):
    text, expected = problem
    gens = parse_problem(text).gens
    assert gens == expected
    # later layers iterate a polynomial's terms in insertion order
    assert [list(g.coeffs) for g in gens] == [list(g.coeffs) for g in expected]

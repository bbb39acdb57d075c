"""Property test: the only exception a problem file can raise is ParseError.

Generator and query lines are random token soup under random ``field``
and ``vars`` headers.  Each expression is wrapped in up to 1200 parentheses or
minus signs, far past the parser's nesting bound: Hypothesis raises the
recursion limit by 2000 frames while a test runs, so only this depth makes
unbounded recursion surface as a RecursionError.  A line gets at most two
``^`` and integer literals up to 12, so no power the soup forms has degree
above 144.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from gbsolve.errors import ParseError
from gbsolve.parser import parse_problem

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

"""Problem-file grammar and the command-line transcript contract."""

import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from corpus import constant_value, ideals_equal, random_poly, random_poly_q
from gbsolve import cli
from gbsolve.errors import ParseError
from gbsolve.fields import GF, QQ
from gbsolve.groebner import Ideal
from gbsolve.parser import (
    MAX_COEFF_BITS,
    MAX_DIGITS,
    MAX_FILE_WORDS,
    parse_polynomial,
    parse_problem,
)
from gbsolve.poly import MAX_DENSE_DEGREE, Polynomial, to_text

F5 = GF(5)


def _run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def _problem(tmp_path, text, name="problem.gb"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestParseProblem:
    def test_full_problem(self):
        problem = parse_problem(
            "# a comment line\n"
            "field p 5\n"
            "\n"
            "vars x1 x2\n"
            "x1*x2 - 1   # trailing comment\n"
            "x2^2 - 1\n"
            "query x1 + 4*x2\n"
        )
        assert problem.domain.char == 5
        assert problem.names == ("x1", "x2")
        assert len(problem.gens) == 2
        assert to_text(problem.query, problem.names) == "x1 + 4*x2"

    def test_rational_field(self):
        problem = parse_problem("field q\nvars x\nx - 1/2\n")
        assert problem.domain is QQ
        assert to_text(problem.gens[0], problem.names) == "x - 1/2"

    def test_rational_literal_over_a_prime_field(self):
        problem = parse_problem("field p 5\nvars x\n3/4\n")
        # 3 * 4^-1 = 3 * 4 = 12 = 2
        assert constant_value(problem.gens[0]) == 2

    def test_rational_coefficients_are_fractions(self):
        # lines are worked out in ints; each coefficient becomes a Fraction
        problem = parse_problem(
            "field q\nvars x y\n3*x^2 - 2*y + 1\n7\n(x - 2*y + 1)^3\n"
            "1/2*x*y - 4/2\nquery -(x + y)^2\n"
        )
        coeffs = [c for g in problem.gens + (problem.query,) for c in g.coeffs.values()]
        assert len(coeffs) == 3 + 1 + 10 + 2 + 3
        assert all(type(c) is Fraction for c in coeffs)

    def test_vanishing_denominator(self):
        with pytest.raises(ParseError, match="denominator vanishes"):
            parse_problem("field p 5\nvars x\n1/5\n")

    def test_composite_modulus(self):
        with pytest.raises(ParseError, match="line 1.*4 is not prime"):
            parse_problem("field p 4\nvars x\n")

    def test_pseudoprime_modulus(self):
        # a strong pseudoprime to every base from 2 to 37
        with pytest.raises(ParseError, match="is not prime"):
            parse_problem("field p 318665857834031151167461\nvars x\n")

    def test_structure_errors(self):
        with pytest.raises(ParseError, match="first line must declare the field"):
            parse_problem("vars x\n")
        with pytest.raises(ParseError, match="no 'vars' line"):
            parse_problem("field p 3\n")
        with pytest.raises(ParseError, match="empty input"):
            parse_problem("# nothing here\n")
        with pytest.raises(ParseError, match="already declared"):
            parse_problem("field p 3\nvars x\nfield p 3\n")
        with pytest.raises(ParseError, match="only one query"):
            parse_problem("field p 3\nvars x\nquery x\nquery x\n")

    def test_vars_errors(self):
        with pytest.raises(ParseError, match="duplicate variable"):
            parse_problem("field p 3\nvars x x\n")
        with pytest.raises(ParseError, match="keyword"):
            parse_problem("field p 3\nvars query\n")
        with pytest.raises(ParseError, match="identifiers"):
            parse_problem("field p 3\nvars x 1\n")

    def test_long_vars_line_parses_in_linear_time(self):
        # linear in the names: duplicates are found by hashing, and a unit
        # exponent tuple is built only for a variable the generators use
        names = [f"v{i}" for i in range(20_000)]
        start = time.perf_counter()
        problem = parse_problem(f"field p 5\nvars {' '.join(names)}\nv0\n")
        assert time.perf_counter() - start < 0.5
        assert problem.names == tuple(names)
        assert problem.gens[0].coeffs == {(1,) + (0,) * 19_999: 1}

    def test_expression_errors_carry_positions(self):
        with pytest.raises(ParseError, match="line 3, col 7"):
            parse_problem("field p 3\nvars x\nx*x + y\n")
        with pytest.raises(ParseError, match="exponents must be positive"):
            parse_problem("field p 3\nvars x\nx^0\n")
        with pytest.raises(ParseError, match="integer exponent"):
            parse_problem("field p 3\nvars x\nx^x\n")
        with pytest.raises(ParseError, match="unexpected character '@'"):
            parse_problem("field p 3\nvars x\nx @ x\n")
        with pytest.raises(ParseError, match="expected '\\)'"):
            parse_problem("field p 3\nvars x\n(x + 1\n")

    def test_nesting_bound(self):
        x = Polynomial.variable(F5, 1, 0)

        def nested(depth):
            return f"field p 5\nvars x\n{'(' * depth}x{')' * depth}\n"

        assert parse_problem(nested(100)).gens == (x,)
        with pytest.raises(ParseError, match="line 3, col 101: parentheses nest"):
            parse_problem(nested(101))
        assert parse_problem("field p 5\nvars x\n" + "-" * 1201 + "x").gens == (-x,)

    def test_unary_minus_and_precedence(self):
        problem = parse_problem("field p 5\nvars x y\n-x^2*y + -3\n")
        x = Polynomial.variable(F5, 2, 0)
        y = Polynomial.variable(F5, 2, 1)
        expected = -(x**2) * y - Polynomial.constant(F5, 2, F5.from_int(3))
        assert problem.gens[0] == expected


_H3 = "field p 3\nvars x\n"
_HQ = "field q\nvars x\n"

# One row per ParseError raise site in the parser: input and full message.
PARSE_ERRORS = [
    pytest.param(_H3 + "x @ x\n", "line 3, col 3: unexpected character '@'", id="bad-char"),
    pytest.param(
        f"{_H3}x + {'1' * (MAX_DIGITS + 1)}\n",
        "line 3, col 5: integer literal longer than 640 digits",
        id="long-literal",
    ),
    pytest.param(_H3 + "(x + 1\n", "line 3, col 7: expected ')'", id="close-paren-at-end"),
    pytest.param(_H3 + "(x + 1 x\n", "line 3, col 8: expected ')'", id="close-paren"),
    pytest.param(_H3 + "x x\n", "line 3, col 3: unexpected 'x'", id="trailing-token"),
    pytest.param(
        _HQ + "2^500000*2^500001*x\n",
        "line 3, col 9: product would have a coefficient of more than 1000000 bits",
        id="product-bits",
    ),
    pytest.param(_H3 + "x^x\n", "line 3, col 3: expected an integer exponent", id="exponent"),
    pytest.param(_H3 + "x^\n", "line 3, col 3: expected an integer exponent", id="exponent-at-end"),
    pytest.param(_H3 + "x^0\n", "line 3, col 3: exponents must be positive", id="exponent-zero"),
    pytest.param(
        "field p 32003\nvars x\n(x+1)^4000\n",
        "line 3, col 7: problem expands to more than 10000000 words",
        id="file-words",
    ),
    pytest.param(_H3 + "x +\n", "line 3, col 4: unexpected end of line", id="end-of-line"),
    pytest.param(_H3 + "1/x\n", "line 3, col 3: expected an integer denominator", id="denominator"),
    pytest.param(
        "field p 5\nvars x\n1/5\n",
        "line 3, col 3: denominator vanishes in this field",
        id="denominator-mod-p",
    ),
    pytest.param(_HQ + "1/0\n", "line 3, col 3: denominator vanishes in this field", id="denominator-zero"),
    pytest.param(_H3 + "x + query\n", "line 3, col 5: 'query' is a keyword", id="keyword"),
    pytest.param(_H3 + "x*x + y\n", "line 3, col 7: undeclared variable 'y'", id="undeclared"),
    pytest.param(
        f"{_H3}{'(' * 101}x{')' * 101}\n",
        "line 3, col 101: parentheses nest deeper than 100 levels",
        id="nesting",
    ),
    pytest.param(_H3 + "x + )\n", "line 3, col 5: unexpected ')'", id="bad-atom"),
    pytest.param("field q x\n", "line 1, col 9: trailing input after 'field q'", id="field-q-trailing"),
    pytest.param("field p\n", "line 1: expected 'field p <prime>'", id="field-p-prime"),
    pytest.param("field p 5 7\n", "line 1, col 11: trailing input after the prime", id="field-p-trailing"),
    pytest.param("field p 4\n", "line 1, col 9: 4 is not prime", id="field-p-composite"),
    pytest.param("field r\n", "line 1: expected 'field q' or 'field p <prime>'", id="field-kind"),
    pytest.param("field p 3\nvars\n", "line 2: expected at least one variable name", id="vars-empty"),
    pytest.param(
        "field p 3\nvars x 1\n",
        "line 2, col 8: variable names must be identifiers",
        id="vars-identifier",
    ),
    pytest.param("field p 3\nvars field\n", "line 2, col 6: 'field' is a keyword", id="vars-keyword"),
    pytest.param("field p 3\nvars x x\n", "line 2, col 8: duplicate variable 'x'", id="vars-duplicate"),
    pytest.param("vars x\n", "line 1, col 1: the first line must declare the field", id="no-field"),
    pytest.param(
        "field p 3\nx\n", "line 2, col 1: expected a 'vars' line after the field", id="no-vars-line"
    ),
    pytest.param(_H3 + "field p 3\n", "line 3, col 1: the field is already declared", id="field-twice"),
    pytest.param(_H3 + "vars x\n", "line 3, col 1: variables are already declared", id="vars-twice"),
    pytest.param(
        _H3 + "query x\nquery x\n", "line 4, col 1: only one query line is allowed", id="query-twice"
    ),
    pytest.param(_H3 + "query\n", "line 3, col 1: the query line needs a polynomial", id="query-empty"),
    pytest.param("# nothing\n", "empty input: no field declaration", id="empty-input"),
    pytest.param("field p 3\n", "no 'vars' line", id="no-vars"),
]


@pytest.mark.parametrize("text, message", PARSE_ERRORS)
def test_parse_error_position(text, message):
    with pytest.raises(ParseError) as info:
        parse_problem(text)
    assert str(info.value) == message


def test_parse_polynomial_error_position():
    with pytest.raises(ParseError) as info:
        parse_polynomial(" # only a comment", F5, ("x",))
    assert str(info.value) == "line 1: expected a polynomial"


class TestRoundTrip:
    def test_prime_field(self):
        rng = random.Random(91)
        names = ("x1", "x2", "x3")
        for _ in range(500):
            p = random_poly(rng, F5, 3, max_total=3, max_terms=5)
            assert parse_polynomial(to_text(p, names), F5, names) == p

    def test_rationals(self):
        rng = random.Random(92)
        names = ("x1", "x2")
        for _ in range(500):
            p = random_poly_q(rng, QQ, 2, max_total=3, max_terms=5)
            assert parse_polynomial(to_text(p, names), QQ, names) == p


class TestCommands:
    PROB2 = "field p 5\nvars x1 x2\nx1*x2 - 1\nx2^2 - 1\n"

    def test_gb(self, tmp_path, capsys):
        path = _problem(tmp_path, self.PROB2)
        code, out, err = _run(capsys, "gb", path)
        assert (code, err) == (0, "")
        assert out == "x1 + 4*x2\nx2^2 + 4\n"

    def test_gb_weighted_order(self, tmp_path, capsys):
        path = _problem(tmp_path, self.PROB2)
        code, out, _ = _run(capsys, "gb", "--order", "wlex:1,1", path)
        assert code == 0 and out

    def test_order_flag_errors(self, tmp_path, capsys):
        path = _problem(tmp_path, self.PROB2)
        for flag in ("wlex:1", "wlex:1,a", "degrevlex"):
            code, _, err = _run(capsys, "gb", "--order", flag, path)
            assert code == 2 and err.startswith("error:")

    def test_gb_strong(self, tmp_path, capsys):
        path = _problem(tmp_path, self.PROB2)
        code, out, _ = _run(capsys, "gb-strong", path)
        assert code == 0
        assert out == "x2 + (4*x1)\n(x1^2 + 4)\n"

    def test_gb_strong_needs_two_vars(self, tmp_path, capsys):
        path = _problem(tmp_path, "field p 5\nvars x1\nx1\n")
        code, _, err = _run(capsys, "gb-strong", path)
        assert code == 2 and "two variables" in err

    def test_eliminate(self, tmp_path, capsys):
        path = _problem(tmp_path, self.PROB2)
        code, out, _ = _run(capsys, "eliminate", path)
        assert (code, out) == (0, "x1^2 + 4\n")

    def test_is_trivial_yes(self, tmp_path, capsys):
        path = _problem(tmp_path, "field p 5\nvars x1 x2\nx1\nx1 - 1\n")
        code, out, _ = _run(capsys, "is-trivial", path)
        assert code == 0
        assert out == "TRIVIAL\ncert[0] = 1\ncert[1] = 4\n"

    def test_is_trivial_no(self, tmp_path, capsys):
        path = _problem(tmp_path, "field p 5\nvars x1 x2\nx1\n")
        code, out, _ = _run(capsys, "is-trivial", path)
        assert (code, out) == (1, "NOT TRIVIAL\n")

    def test_member(self, tmp_path, capsys):
        base = "field p 5\nvars x1 x2\nx1\n"
        yes = _problem(tmp_path, base + "query x1*x2 + x1\n", "yes.gb")
        no = _problem(tmp_path, base + "query x2\n", "no.gb")
        assert _run(capsys, "member", yes)[:2] == (0, "MEMBER\n")
        assert _run(capsys, "member", no)[:2] == (1, "NOT MEMBER\n")

    def test_member_requires_query(self, tmp_path, capsys):
        path = _problem(tmp_path, "field p 5\nvars x1 x2\nx1\n")
        code, _, err = _run(capsys, "member", path)
        assert code == 2 and "query" in err

    def test_radical_member(self, tmp_path, capsys):
        base = "field p 3\nvars x1 x2\nx1^2\n"
        yes = _problem(tmp_path, base + "query x1\n", "yes.gb")
        no = _problem(tmp_path, base + "query x2\n", "no.gb")
        assert _run(capsys, "radical-member", yes)[:2] == (0, "RADICAL MEMBER\n")
        assert _run(capsys, "radical-member", no)[:2] == (1, "NOT RADICAL MEMBER\n")

    def test_intersect(self, tmp_path, capsys):
        a = _problem(tmp_path, "field p 5\nvars x1 x2\nx1\n", "a.gb")
        b = _problem(tmp_path, "field p 5\nvars x1 x2\nx2\n", "b.gb")
        code, out, _ = _run(capsys, "intersect", a, b)
        assert (code, out) == (0, "x1*x2\n")
        # the printed generators parse back to the actual intersection
        x1 = Polynomial.variable(F5, 2, 0)
        x2 = Polynomial.variable(F5, 2, 1)
        gens = [
            parse_polynomial(line, F5, ("x1", "x2"))
            for line in out.splitlines()
        ]
        assert ideals_equal(Ideal(gens), Ideal([x1 * x2]))

    def test_intersect_mismatches(self, tmp_path, capsys):
        a = _problem(tmp_path, "field p 5\nvars x1 x2\nx1\n", "a.gb")
        b = _problem(tmp_path, "field p 3\nvars x1 x2\nx2\n", "b.gb")
        c = _problem(tmp_path, "field p 5\nvars u v\nu\n", "c.gb")
        assert _run(capsys, "intersect", a, b)[0] == 2
        assert _run(capsys, "intersect", a, c)[0] == 2

    def test_solve_extension_point(self, tmp_path, capsys):
        path = _problem(tmp_path, "field p 3\nvars x1 x2\nx1^2 + 1\nx2 - x1\n")
        code, out, _ = _run(capsys, "solve", path)
        assert code == 0
        assert out == "POINT\next t1: t1^2 + 1\nx1 = t1\nx2 = t1\nVERIFIED\n"

    def test_solve_trace(self, tmp_path, capsys):
        path = _problem(tmp_path, "field p 3\nvars x1 x2\nx1^2 + 1\nx2 - x1\n")
        code, out, _ = _run(capsys, "solve", "--trace", path)
        assert code == 0
        assert out == (
            "trace x1: branch=root p=x1^2 + 1 a=t1 ext=t1^2 + 1\n"
            "trace x2: branch=base p=x2 + 2*t1 a=t1 ext=-\n"
            "POINT\next t1: t1^2 + 1\nx1 = t1\nx2 = t1\nVERIFIED\n"
        )

    def test_solve_trace_locus_branch(self, tmp_path, capsys):
        path = _problem(tmp_path, "field p 5\nvars x1 x2\nx1*x2 - 1\n")
        code, out, _ = _run(capsys, "solve", "--trace", path)
        assert code == 0
        assert out == (
            "trace x1: branch=locus p=0 a=1 ext=- q=x1\n"
            "trace x2: branch=base p=x2 + 4 a=1 ext=-\n"
            "POINT\nx1 = 1\nx2 = 1\nVERIFIED\n"
        )

    def test_solve_high_x1_degree(self, tmp_path, capsys):
        path = _problem(tmp_path, "field p 5\nvars x y\nx^1000 - 1\ny - x\n")
        code, out, _ = _run(capsys, "solve", "--trace", path)
        assert code == 0
        assert out == (
            "trace x: branch=root p=x^1000 + 4 a=1 ext=-\n"
            "trace y: branch=base p=y + 4 a=1 ext=-\n"
            "POINT\nx = 1\ny = 1\nVERIFIED\n"
        )

    def test_solve_trivial_exits_one(self, tmp_path, capsys):
        path = _problem(tmp_path, "field p 5\nvars x1 x2\nx1\nx1 - 1\n")
        code, out, _ = _run(capsys, "solve", path)
        assert code == 1
        assert out == "TRIVIAL\ncert[0] = 1\ncert[1] = 4\n"

    def test_solve_refuses_rationals(self, tmp_path, capsys):
        path = _problem(tmp_path, "field q\nvars x\nx\n")
        code, _, err = _run(capsys, "solve", path)
        assert code == 2 and "finite characteristic" in err

    def test_pseudoprime_field_exits_two(self, tmp_path, capsys):
        for n in (318665857834031151167461, 3317044064679887385961981):
            path = _problem(tmp_path, f"field p {n}\nvars x1 x2\nx1^2 + 1\nx2 - x1\n")
            code, out, err = _run(capsys, "solve", path)
            assert (code, out) == (2, "")
            assert err.startswith("error:") and f"{n} is not prime" in err

    def test_deep_nesting_exits_two(self, tmp_path, capsys):
        # 300 levels overflowed the recursive descent (exit 3)
        for open_, col in (("(", 101), ("-(", 202)):
            line = open_ * 300 + "x" + ")" * 300
            path = _problem(tmp_path, f"field p 5\nvars x\n{line}\n")
            code, out, err = _run(capsys, "gb", path)
            assert (code, out) == (2, "")
            assert err.startswith(f"error: line 3, col {col}: parentheses nest")

    def test_long_integer_literals_exit_two(self, tmp_path, capsys):
        # past Python's int-string limit these exited 3 with a ValueError
        for digits in (MAX_DIGITS + 1, 4301, 5000):
            n = "1" * digits
            for text, col in (
                (f"field p 5\nvars x\n{n}*x\n", "line 3, col 1"),
                (f"field q\nvars x\n1/{n}*x\n", "line 3, col 3"),
                (f"field p 5\nvars x\nx^{n}\n", "line 3, col 3"),
                (f"field p {n}\nvars x\nx\n", "line 1, col 9"),
            ):
                path = _problem(tmp_path, text)
                code, out, err = _run(capsys, "gb", path)
                assert (code, out) == (2, "")
                assert err == f"error: {col}: integer literal longer than 640 digits\n"

    def test_longest_integer_literal_parses(self, tmp_path, capsys):
        n = "1" * MAX_DIGITS  # 1 mod 5
        path = _problem(tmp_path, f"field p 5\nvars x\n{n}*x^{n} + {n}/{n}\n")
        code, out, err = _run(capsys, "gb", path)
        assert (code, out, err) == (0, f"x^{n} + 1\n", "")

    def test_powers_of_sums_are_bounded(self, tmp_path, capsys):
        # (x1+x2+x3)^44 has C(46, 2) = 1035 terms
        head = "field p 32003\nvars x1 x2 x3\n"
        (f,) = parse_problem(head + "(x1+x2+x3)^44\n").gens
        assert len(f.coeffs) == 1035
        # terms that cancel, also modulo p, leave a base of one term
        (f,) = parse_problem(head + "(x1 + 32002*x1 + x2 - x2 + 2)^5000\n").gens
        assert f.coeffs == {(0, 0, 0): pow(2, 5000, 32003)}
        # each term product costs nvars + 8 words: with 512 variables the
        # squaring ladder of (x1+1)^999 runs out at its exponent, and with
        # one, so does (x1+1)^(640 nines)
        nines = "9" * MAX_DIGITS
        names = " ".join(f"x{i}" for i in range(1, 513))
        for head, line in (
            (f"field p 32003\nvars {names}\n", "(x1+1)^999"),
            ("field p 32003\nvars x1\n", f"(x1+1)^{nines}"),
        ):
            path = _problem(tmp_path, f"{head}{line}\n")
            code, out, err = _run(capsys, "gb", path)
            assert (code, out) == (2, "")
            assert err == f"error: line 3, col 8: problem expands to more than {MAX_FILE_WORDS} words\n"

    def test_products_of_sums_are_bounded(self, tmp_path, capsys):
        # (x1+1)*...*(xn+1) has 2^n terms: 1024 for ten factors
        names = [f"x{i}" for i in range(1, 21)]
        factors = [f"({x}+1)" for x in names]
        head = f"field p 32003\nvars {' '.join(names[:10])}\n"
        (f,) = parse_problem(head + "*".join(factors[:10]) + "\n").gens
        assert len(f.coeffs) == 1024
        # with twenty factors over twenty variables, each atom costs 20 words
        # and the k-th product 2^k * 2 term products of 28 words: the product
        # that passes the budget is refused at its '*'
        line = "*".join(factors)
        spent, k = 2 * 20, 1
        while spent + 20 + 2**k * 2 * 28 <= MAX_FILE_WORDS:
            spent += 20 + 2**k * 2 * 28
            k += 1
        col = len("*".join(factors[: k + 1])) - len(factors[k])
        path = _problem(tmp_path, f"field p 32003\nvars {' '.join(names)}\n{line}\n")
        code, out, err = _run(capsys, "gb", path)
        assert (code, out) == (2, "")
        assert err == f"error: line 3, col {col}: problem expands to more than {MAX_FILE_WORDS} words\n"

    def test_term_products_of_a_line_are_bounded(self, tmp_path, capsys):
        # Over GF(p) a term product costs nvars + 8 words and a variable atom
        # nvars.  (x1+1)^(2^k) is one atom and k squarings, from 2^i + 1 terms
        # for i < k; a chain y*...*y of m atoms makes m - 1 one-term products.
        # Each line spends the budget exactly, and one more '*y' is refused at
        # its atom.
        for nvars in (1, 2):
            w, y = nvars + 8, f"x{nvars}"

            def ladder(k):
                return nvars + w * sum((2**i + 1) ** 2 for i in range(k))

            left, pieces = MAX_FILE_WORDS, []
            for k in range(9, 0, -1):
                while ladder(k) <= left:
                    pieces.append(f"(x1+1)^{2**k}")
                    left -= ladder(k)
            m = (left + w) // (nvars + w)
            pieces.append("*".join([y] * m))
            left -= m * (nvars + w) - w
            assert left % nvars == 0 and left // nvars < nvars + w
            pieces += [y] * (left // nvars)
            line = " + ".join(pieces)
            names = " ".join(f"x{i}" for i in range(1, nvars + 1))
            head = f"field p 32003\nvars {names}\n"
            (f,) = parse_problem(f"{head}{line}\n").gens
            assert len(line) < 400 and len(f.coeffs) >= 513
            path = _problem(tmp_path, f"{head}{line}*{y}\n")
            code, out, err = _run(capsys, "gb", path)
            assert (code, out) == (2, "")
            assert err == (
                f"error: line 3, col {len(line) + 2}: "
                f"problem expands to more than {MAX_FILE_WORDS} words\n"
            )

    def test_term_products_of_a_file_are_bounded(self, tmp_path, capsys):
        # (x1+1)^999 makes 414,686 term products of 9 words and one 1-word
        # atom, so two such lines fit in one file's budget and the third is
        # refused at its exponent
        assert 2 * (414_686 * 9 + 1) <= MAX_FILE_WORDS < 3 * (414_686 * 9 + 1)
        path = _problem(tmp_path, "field p 32003\nvars x1\n" + 3 * "(x1+1)^999\n")
        code, out, err = _run(capsys, "gb", path)
        assert (code, out) == (2, "")
        assert err == f"error: line 5, col 8: problem expands to more than {MAX_FILE_WORDS} words\n"

    def test_coefficient_words_over_a_large_prime(self, tmp_path, capsys):
        # over field p a term product also costs 2 * bits(p) // 64 words: 47
        # for a 1535-bit prime and 48 for a 1536-bit one.  (x1+1)^512 makes
        # 88,412 term products and one 1-word atom, so it fits twice over the
        # first prime and is refused at its exponent the second time over
        # the second
        below, above = 2**1534 + 265, 2**1535 + 699
        assert (below.bit_length(), above.bit_length()) == (1535, 1536)
        assert 2 * (88_412 * 56 + 1) <= MAX_FILE_WORDS < 2 * (88_412 * 57 + 1)
        lines = "vars x1\n" + 2 * "(x1+1)^512\n"
        f, g = parse_problem(f"field p {below}\n{lines}").gens
        assert f == g and f.coeffs[(256,)] == math.comb(512, 256) % below
        path = _problem(tmp_path, f"field p {above}\n{lines}")
        code, out, err = _run(capsys, "gb", path)
        assert (code, out) == (2, "")
        assert err == f"error: line 4, col 8: problem expands to more than {MAX_FILE_WORDS} words\n"

    def test_coefficient_words_of_a_file_are_bounded(self, tmp_path, capsys):
        # over field q a term product also costs (bits(p) + bits(q)) // 64
        # words, so lines that each stay under the coefficient cap add up:
        # 2^1000000*x - 1 costs about 60,000 words, and the 167th such line
        # is refused at the exponent
        path = _problem(tmp_path, "field q\nvars x\n" + 170 * "2^1000000*x - 1\n")
        code, out, err = _run(capsys, "gb", path)
        assert (code, out) == (2, "")
        assert err == f"error: line 169, col 3: problem expands to more than {MAX_FILE_WORDS} words\n"

    def test_one_term_rational_powers_are_bounded(self, tmp_path, capsys):
        # c^e for c = a/b counts max(|a|, b).bit_length() - 1 bits per factor,
        # and the squaring ladder's product that passes the cap is refused
        head = "field q\nvars x\n"
        (f,) = parse_problem(f"{head}2^{MAX_COEFF_BITS}*x - 1\n").gens
        assert f.coeffs[(1,)] == 2**MAX_COEFF_BITS
        nines = "9" * MAX_DIGITS
        over = MAX_COEFF_BITS + 1
        for line, col in (
            (f"2^{over}*x - 1", 3),
            (f"(2*x)^{over}", 7),
            (f"(3/4)^{over // 2 + 1}*x", 7),
            (f"2^{nines}*x - 1", 3),
        ):
            path = _problem(tmp_path, f"{head}{line}\n")
            code, out, err = _run(capsys, "gb", path)
            assert (code, out) == (2, "")
            assert err == (
                f"error: line 3, col {col}: "
                f"product would have a coefficient of more than {MAX_COEFF_BITS} bits\n"
            )
        # coefficients that do not grow: +-1, a bare monomial, a prime field
        (f,) = parse_problem(f"{head}(-1)^{nines}*x - x^{nines} + 1\n").gens
        assert f.coeffs == {(1,): -1, (int(nines),): -1, (0,): 1}
        (f,) = parse_problem(f"field p 5\nvars x\n2^{nines}*x - 1\n").gens
        assert f.coeffs == {(1,): pow(2, int(nines), 5), (0,): 4}

    def test_rational_products_and_powers_of_sums_are_bounded(self, tmp_path, capsys):
        # a product sums its factors' bits against the cap; the words of a
        # power of a sum grow with its coefficients' bits too
        half = MAX_COEFF_BITS // 2
        (f,) = parse_problem(f"field q\nvars x\n2^{half}*2^{half}*x\n").gens
        assert f.coeffs == {(1,): 2**MAX_COEFF_BITS}
        (f,) = parse_problem("field q\nvars x1\n(x1+1)^999\n").gens
        assert len(f.coeffs) == 1000 and f.coeffs[(499,)] == math.comb(999, 499)
        big = "9" * MAX_DIGITS
        coeff = f"product would have a coefficient of more than {MAX_COEFF_BITS} bits"
        words = f"problem expands to more than {MAX_FILE_WORDS} words"
        for line, col, message in (
            ("2^1000000*2^1000000*2^1000000*2^1000000*x - 1", 10, coeff),
            (f"2^{half}*2^{half + 1}*x", 9, coeff),
            (f"({big}*x + 1)^999", MAX_DIGITS + 10, words),
            ("(2^1001*x + 1)^999", 16, words),
            ("(2^1000*x + 1)^999", 16, words),
        ):
            path = _problem(tmp_path, f"field q\nvars x\n{line}\n")
            code, out, err = _run(capsys, "gb", path)
            assert (code, out) == (2, "")
            assert err == f"error: line 3, col {col}: {message}\n"

    def test_long_rational_coefficients_print(self, tmp_path, capsys):
        # x - 1/R^8 for the 600-digit repunit R: a 4793-digit denominator,
        # past the default int-string limit, which used to exit 3
        repunit = "1" * 600
        path = _problem(tmp_path, f"field q\nvars x\n({repunit})^8*x - 1\n")
        runs = [_run(capsys, "gb", path)]
        if hasattr(sys, "set_int_max_str_digits"):
            saved = sys.get_int_max_str_digits()
            sys.set_int_max_str_digits(640)  # the lowest limit Python accepts
            try:
                runs.append(_run(capsys, "gb", path))
            finally:
                sys.set_int_max_str_digits(saved)
        for code, out, err in runs:
            assert (code, err) == (0, "")
            head, den = out.rstrip("\n").split("/")
            assert head == "x - 1" and den[0] != "0"
            value = 0
            for i in range(0, len(den), 500):
                value = value * 10 ** len(den[i : i + 500]) + int(den[i : i + 500])
            assert value == int(repunit) ** 8

    def test_long_order_weight_exits_two(self, tmp_path, capsys):
        path = _problem(tmp_path, "field p 5\nvars x\nx\n")
        for digits in (4301, 5000):
            code, out, err = _run(capsys, "gb", path, "--order", "wlex:" + "1" * digits)
            assert (code, out) == (2, "")
            assert err.startswith("error: bad weight list")

    def test_dense_degree_past_the_bound_exits_two(self, tmp_path, capsys):
        # one past the bound: refused before a list of that length is built
        e = MAX_DENSE_DEGREE + 1
        cases = [
            ("eliminate", f"field p 5\nvars x\nx^{e}\n"),
            ("solve", f"field p 5\nvars x\nx^{e}\n"),
            ("gb-strong", f"field p 5\nvars x1 x2\nx1^{e}*x2 - 1\n"),
        ]
        for command, text in cases:
            code, out, err = _run(capsys, command, _problem(tmp_path, text))
            assert (code, out) == (2, ""), command
            assert err.startswith(f"error: degree {e} exceeds the dense bound"), command

    def test_long_minus_run_is_a_polynomial(self, tmp_path, capsys):
        path = _problem(tmp_path, "field p 5\nvars x\n" + "-" * 1200 + "x\n")
        assert _run(capsys, "gb", path) == (0, "x\n", "")

    def test_missing_file(self, capsys):
        code, _, err = _run(capsys, "gb", "/nonexistent/nowhere.gb")
        assert code == 2 and err.startswith("error: cannot read")

    def test_a_file_that_is_not_utf8_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.gb"
        bad.write_bytes(b"field p 5\nvars x\nx - 1\xff\n")
        good = _problem(tmp_path, "field p 5\nvars x\nx - 1\n")
        for argv in (("gb", str(bad)), ("intersect", good, str(bad))):
            code, out, err = _run(capsys, *argv)
            assert (code, out) == (2, "")
            assert err == f"error: cannot read {bad}: not UTF-8 at byte 22\n"

    def test_parse_error_exits_two(self, tmp_path, capsys):
        path = _problem(tmp_path, "field p 4\nvars x\n")
        code, _, err = _run(capsys, "gb", path)
        assert code == 2 and "not prime" in err

    def test_internal_errors_exit_three(self, tmp_path, capsys, monkeypatch):
        from gbsolve.errors import InvariantViolation

        path = _problem(tmp_path, "field p 3\nvars x\nx\n")

        def boom(*a, **k):
            raise InvariantViolation("synthetic")

        monkeypatch.setattr(cli, "solve", boom)
        code, _, err = _run(capsys, "solve", path)
        assert code == 3 and err == "internal error: synthetic\n"

        def crash(*a, **k):
            raise ValueError("whoops")

        monkeypatch.setattr(cli, "solve", crash)
        code, _, err = _run(capsys, "solve", path)
        assert code == 3 and err == "internal error: ValueError: whoops\n"

    def test_no_command_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main([])
        assert info.value.code == 2
        capsys.readouterr()

    def test_solve_has_no_seed_option(self, tmp_path, capsys):
        # factoring's random splits cannot change any output, so no option
        # chooses their stream
        path = _problem(tmp_path, "field p 3\nvars x1\nx1^2 + 1\n")
        with pytest.raises(SystemExit) as info:
            cli.main(["solve", path, "--seed", "1"])
        assert info.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_consecutive_calls_share_no_state(self, tmp_path, capsys):
        path = _problem(tmp_path, "field p 3\nvars x1 x2\nx1^2 + 1\nx2 - x1\n")
        _run(capsys, "solve", "--trace", path)
        code, out, _ = _run(capsys, "solve", path)
        assert code == 0
        assert out == "POINT\next t1: t1^2 + 1\nx1 = t1\nx2 = t1\nVERIFIED\n"
        path = _problem(tmp_path, self.PROB2, "prob2.gb")
        code, out, _ = _run(capsys, "gb", "--order", "wlex:1,2", path)
        assert (code, out) == (0, "x1^2 + 4\nx2 + 4*x1\n")
        code, out, _ = _run(capsys, "gb", path)
        assert (code, out) == (0, "x1 + 4*x2\nx2^2 + 4\n")
        assert cli.build_parser() is cli.build_parser()

    def test_transcripts_are_deterministic(self, tmp_path, capsys):
        path = _problem(tmp_path, "field p 3\nvars x1 x2\nx1^2 + 1\nx2 - x1\n")
        first = _run(capsys, "solve", "--trace", path)
        second = _run(capsys, "solve", "--trace", path)
        assert first == second


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        path = _problem(tmp_path, "field p 3\nvars x1 x2\nx1^2 + 1\nx2 - x1\n")
        proc = subprocess.run(
            [sys.executable, "-m", "gbsolve", "solve", path],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "POINT\next t1: t1^2 + 1\nx1 = t1\nx2 = t1\nVERIFIED\n"

    def test_closed_stdout_is_reported_as_an_error(self, tmp_path):
        path = _problem(tmp_path, "field p 3\nvars x1 x2\nx1^2 + 1\nx2 - x1\n")
        r, w = os.pipe()
        os.close(r)  # every write to w now fails with a broken pipe
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "gbsolve", "solve", path],
                stdout=w,
                stderr=subprocess.PIPE,
                text=True,
            )
        finally:
            os.close(w)
        assert proc.returncode == 2
        assert proc.stderr == "error: standard output was closed\n"

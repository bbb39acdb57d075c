"""Problem-file parsing.

The format is line oriented.  ``#`` starts a comment, blank lines are
skipped, and the remaining lines are:

    field q                  rational coefficients
    field p <prime>          prime-field coefficients
    vars x1 x2 ... xn        variable declarations, in order
    <polynomial>             one generator per line
    query <polynomial>       optional, at most once, for membership commands

Polynomials use integer literals, declared variables, ``+``, binary and unary
``-``, ``*``, ``^`` with a positive integer exponent, and parentheses.  A
rational literal may be written ``a/b`` (two integer tokens around ``/``) so
that printed rational output parses back, as long as its numerator and
denominator have at most ``MAX_DIGITS`` digits; over a prime field it means
``a * b**-1``.  Whitespace never matters inside a line.  Parentheses nest
at most ``MAX_NESTING`` levels deep; the parser recurses once per level.
An integer literal (coefficient, denominator, exponent or prime) has at most
``MAX_DIGITS`` digits.  A power of a base with two or more terms may expand
to at most ``MAX_POWER_TERMS`` terms, and over the rationals a power or a
product is refused when its coefficients could pass ``MAX_POWER_BITS`` bits.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParseError
from .fields import GF, QQ, is_probable_prime
from .poly import Polynomial

_KEYWORDS = frozenset({"field", "vars", "query"})

# Each level of parentheses costs the recursive descent five Python frames,
# and about 200 levels exhaust the default recursion limit of 1000.
MAX_NESTING = 100

# Python refuses int() of a decimal string longer than its int-string limit
# (4300 digits by default), and the limit may be set as low as 640.  Longer
# literals are a parse error, so no limit setting can turn one into a crash.
MAX_DIGITS = 640

# A power of a sum expands term by term through Polynomial.__pow__, with no
# bound of its own: (x1+1)^1000 took 0.88 s over GF(32003) and 2.55 s over
# QQ, and ^2000 took 3.25 s and 9.51 s, while a 640-digit exponent is a legal
# literal.  A power of a base with k >= 2 terms is refused when its expansion
# may have more than this many terms, C(e+k-1, k-1) for the exponent e.
MAX_POWER_TERMS = 1000

# Over the rationals c^e has about e * log2(c) bits, and printing costs time
# quadratic in its length: gb on 2^e*x - 1 took 0.10 s for e = 3*10**5, 1.1 s
# for 10**6 and 4.4 s for 2*10**6.  Over ``field q`` a polynomial's size is
# the largest max(|a|, b).bit_length() - 1 over its coefficients a/b
# (``_coeff_bits``).  A product is refused when its factors' sizes sum past
# this bound, and a power f^e of f with k >= 1 terms when
# e * (size + (k - 1).bit_length()) does: a coefficient of f^e is a sum of
# at most k^e products of e coefficients of f.
MAX_POWER_BITS = 10**6

_TOKEN = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*^()/]))"
)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    column: int


def _tokenize_line(text, line):
    pos = 0
    out = []
    while pos < len(text):
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos == len(text) or text[pos] == "#":
            break
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            raise ParseError(f"unexpected character {text[pos]!r}", line, pos + 1)
        if m.lastgroup == "int" and len(m.group("int")) > MAX_DIGITS:
            message = f"integer literal longer than {MAX_DIGITS} digits"
            raise ParseError(message, line, m.start("int") + 1)
        if m.lastgroup is not None:
            out.append(Token(m.lastgroup, m.group(m.lastgroup), line, m.start(m.lastgroup) + 1))
        pos = m.end()
    return out


def _coeff_bits(p):
    """The largest max(|a|, b).bit_length() - 1 over p's coefficients a/b."""
    return max(
        (max(abs(c.numerator), c.denominator).bit_length() - 1 for c in p.coeffs.values()),
        default=0,
    )


class _PolyParser:
    """Recursive descent over one line's tokens."""

    def __init__(self, tokens, domain, names, line):
        self.tokens = tokens
        self.pos = 0
        self.domain = domain
        self.rational = domain == QQ  # only rational coefficients grow
        self.names = names
        self.nvars = len(names)
        self.line = line
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is not None:
            self.pos += 1
        return tok

    def fail(self, message, tok=None):
        col = tok.column if tok is not None else (
            self.tokens[-1].column + len(self.tokens[-1].text) if self.tokens else 1
        )
        raise ParseError(message, self.line, col)

    def expect_op(self, op):
        tok = self.take()
        if tok is None or tok.kind != "op" or tok.text != op:
            self.fail(f"expected {op!r}", tok)
        return tok

    def parse(self):
        p = self.expr()
        tok = self.peek()
        if tok is not None:
            self.fail(f"unexpected {tok.text!r}", tok)
        return p

    def expr(self):
        p = self.term()
        while True:
            tok = self.peek()
            if tok is not None and tok.kind == "op" and tok.text in "+-":
                self.take()
                q = self.term()
                p = p + q if tok.text == "+" else p - q
            else:
                return p

    def term(self):
        p = self.unary()
        while True:
            tok = self.peek()
            if tok is not None and tok.kind == "op" and tok.text == "*":
                self.take()
                q = self.unary()
                if self.rational and _coeff_bits(p) + _coeff_bits(q) > MAX_POWER_BITS:
                    message = f"product would have a coefficient of more than {MAX_POWER_BITS} bits"
                    self.fail(message, tok)
                p = p * q
            else:
                return p

    def unary(self):
        negate = False
        tok = self.peek()
        while tok is not None and tok.kind == "op" and tok.text == "-":
            self.take()
            negate = not negate
            tok = self.peek()
        p = self.power()
        return -p if negate else p

    def power(self):
        p = self.atom()
        tok = self.peek()
        if tok is not None and tok.kind == "op" and tok.text == "^":
            self.take()
            etok = self.take()
            if etok is None or etok.kind != "int":
                self.fail("expected an integer exponent", etok)
            e = int(etok.text)
            if e <= 0:
                self.fail("exponents must be positive", etok)
            # f^e for f with k terms may have C(e+k-1, k-1) terms; the
            # product C(e+j, j) over j < k stops once it passes the bound
            terms, k = 1, len(p.coeffs)
            for j in range(1, k):
                terms = terms * (e + j) // j
                if terms > MAX_POWER_TERMS:
                    message = f"power may expand to more than {MAX_POWER_TERMS} terms"
                    self.fail(message, etok)
            if self.rational and k:
                bits = e * (_coeff_bits(p) + (k - 1).bit_length())
                if bits > MAX_POWER_BITS:
                    message = f"power would have a coefficient of more than {MAX_POWER_BITS} bits"
                    self.fail(message, etok)
            return p ** e
        return p

    def atom(self):
        tok = self.take()
        if tok is None:
            self.fail("unexpected end of line")
        if tok.kind == "int":
            value = self.domain.from_int(int(tok.text))
            nxt = self.peek()
            if nxt is not None and nxt.kind == "op" and nxt.text == "/":
                self.take()
                dtok = self.take()
                if dtok is None or dtok.kind != "int":
                    self.fail("expected an integer denominator", dtok)
                denom = self.domain.from_int(int(dtok.text))
                if self.domain.is_zero(denom):
                    self.fail("denominator vanishes in this field", dtok)
                value = self.domain.div(value, denom)
            return Polynomial.constant(self.domain, self.nvars, value)
        if tok.kind == "name":
            if tok.text in _KEYWORDS:
                self.fail(f"{tok.text!r} is a keyword", tok)
            try:
                i = self.names.index(tok.text)
            except ValueError:
                self.fail(f"undeclared variable {tok.text!r}", tok)
            return Polynomial.variable(self.domain, self.nvars, i)
        if tok.kind == "op" and tok.text == "(":
            if self.depth == MAX_NESTING:
                self.fail(f"parentheses nest deeper than {MAX_NESTING} levels", tok)
            self.depth += 1
            p = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return p
        self.fail(f"unexpected {tok.text!r}", tok)


@dataclass(frozen=True)
class ProblemFile:
    """A parsed problem: coefficient field, variable names, generators, query."""

    domain: object
    names: tuple
    gens: tuple
    query: Polynomial = None

    @property
    def nvars(self):
        return len(self.names)


def _parse_field(tokens, line):
    if len(tokens) >= 2 and tokens[1].kind == "name" and tokens[1].text == "q":
        if len(tokens) > 2:
            raise ParseError("trailing input after 'field q'", line, tokens[2].column)
        return QQ
    if len(tokens) >= 2 and tokens[1].kind == "name" and tokens[1].text == "p":
        if len(tokens) < 3 or tokens[2].kind != "int":
            raise ParseError("expected 'field p <prime>'", line, None)
        if len(tokens) > 3:
            raise ParseError("trailing input after the prime", line, tokens[3].column)
        p = int(tokens[2].text)
        if not is_probable_prime(p):
            raise ParseError(f"{p} is not prime", line, tokens[2].column)
        return GF(p)
    raise ParseError("expected 'field q' or 'field p <prime>'", line, None)


def _parse_vars(tokens, line):
    if len(tokens) < 2:
        raise ParseError("expected at least one variable name", line, None)
    names = []
    for tok in tokens[1:]:
        if tok.kind != "name":
            raise ParseError("variable names must be identifiers", line, tok.column)
        if tok.text in _KEYWORDS:
            raise ParseError(f"{tok.text!r} is a keyword", line, tok.column)
        if tok.text in names:
            raise ParseError(f"duplicate variable {tok.text!r}", line, tok.column)
        names.append(tok.text)
    return tuple(names)


def parse_problem(text):
    """Parse a whole problem file into a ProblemFile."""
    domain = None
    names = None
    gens = []
    query = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize_line(raw, lineno)
        if not tokens:
            continue
        head = tokens[0]
        if domain is None:
            if head.kind != "name" or head.text != "field":
                raise ParseError("the first line must declare the field", lineno, head.column)
            domain = _parse_field(tokens, lineno)
            continue
        if names is None:
            if head.kind != "name" or head.text != "vars":
                raise ParseError("expected a 'vars' line after the field", lineno, head.column)
            names = _parse_vars(tokens, lineno)
            continue
        if head.kind == "name" and head.text == "field":
            raise ParseError("the field is already declared", lineno, head.column)
        if head.kind == "name" and head.text == "vars":
            raise ParseError("variables are already declared", lineno, head.column)
        if head.kind == "name" and head.text == "query":
            if query is not None:
                raise ParseError("only one query line is allowed", lineno, head.column)
            body = tokens[1:]
            if not body:
                raise ParseError("the query line needs a polynomial", lineno, head.column)
            query = _PolyParser(body, domain, names, lineno).parse()
            continue
        gens.append(_PolyParser(tokens, domain, names, lineno).parse())
    if domain is None:
        raise ParseError("empty input: no field declaration", None, None)
    if names is None:
        raise ParseError("no 'vars' line", None, None)
    return ProblemFile(domain, names, tuple(gens), query)


def parse_polynomial(text, domain, names, line=1):
    """Parse a single polynomial expression (used for round-trip checks)."""
    tokens = _tokenize_line(text, line)
    if not tokens:
        raise ParseError("expected a polynomial", line, None)
    return _PolyParser(tokens, domain, tuple(names), line).parse()

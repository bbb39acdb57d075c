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
to at most ``MAX_POWER_TERMS`` terms, and a product p*q is refused when
len(p) * len(q) passes ``MAX_PRODUCT_TERMS``.  Over the rationals a power or
a product is refused when one of its coefficients could pass
``MAX_POWER_BITS`` bits, and a power also when all of them together could.
A whole problem file is refused at the product (or the power whose squaring
ladder makes it) that takes the file's term products, the sum of
len(p) * len(q) over every product its generator and query lines make, past
``MAX_FILE_TERM_PRODUCTS``; ``parse_polynomial`` gives each expression a
budget of its own.

Each generator or query line is worked out as one dict {exponent tuple:
coefficient}, with integer coefficients over the rationals until ``a/b``
makes a Fraction, and becomes a single Polynomial at the end of the line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParseError
from .fields import GF, QQ, is_probable_prime
from .poly import Polynomial, exp_add
from .unipoly import power

_KEYWORDS = frozenset({"field", "vars", "query"})

# Each level of parentheses costs the recursive descent five Python frames,
# and about 200 levels exhaust the default recursion limit of 1000.
MAX_NESTING = 100

# Python refuses int() of a decimal string longer than its int-string limit
# (4300 digits by default), and the limit may be set as low as 640.  Longer
# literals are a parse error, so no limit setting can turn one into a crash.
MAX_DIGITS = 640

# A power of a sum expands term by term, with no bound of its own: through
# Polynomial.__pow__, (x1+1)^1000 took 0.88 s over GF(32003) and 2.55 s over
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
# at most k^e products of e coefficients of f.  Such a power is refused as
# well when its at most C(e+k-1, k-1) coefficients could pass the bound
# together, so (2^1000*x + 1)^999 cannot ask for 1000 coefficients of about
# 10^6 bits each.
MAX_POWER_BITS = 10**6

# A product of sums multiplies every term of one factor by every term of
# the other: (x1+1)*(x2+1)*...*(xn+1) has 2^n terms, its 16,384 terms for
# n = 14 took 0.15 s through Polynomial products, and a line of about 250
# bytes reaches 2^30.  A product p*q is refused at its ``*`` when
# len(p) * len(q) passes this bound.
MAX_PRODUCT_TERMS = 1000

# The bounds above hold for one power or one product, but a file may hold
# any number of them: the squaring ladder of (x1+1)^999 makes 414,686 term
# products (0.34 s over GF(32003)), and five copies of it on one 62-byte
# line took 1.38 s.  A problem file is refused at the product that takes the
# sum of len(p) * len(q) over the products all its lines make, ladders
# included, past this bound, so two copies of (x1+1)^999 fit in a file,
# whether on one line or on two.
MAX_FILE_TERM_PRODUCTS = 10**6

_TOKEN = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*^()/])"
    r"|(?P<end>#|\Z)|(?P<bad>.))",
    re.DOTALL,
)


def _tokenize_line(text, line):
    """The line's tokens as (kind, text, column) tuples, closed by an
    ("end", "", column) token placed just past the last one."""
    out = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "end":
            break
        word, col = m.group(kind), m.start(kind) + 1
        if kind == "bad":
            raise ParseError(f"unexpected character {word!r}", line, col)
        if kind == "int" and len(word) > MAX_DIGITS:
            raise ParseError(f"integer literal longer than {MAX_DIGITS} digits", line, col)
        out.append((kind, word, col))
    _, word, col = out[-1] if out else ("end", "", 1)
    out.append(("end", "", col + len(word)))
    return out


def _coeff_bits(p):
    """The largest max(|a|, b).bit_length() - 1 over p's coefficients a/b."""
    return max(
        (max(abs(c.numerator), c.denominator).bit_length() - 1 for c in p.values()),
        default=0,
    )


def _add_to(p, q, negate, mod):
    """p += q, or p -= q when negate, dropping the terms that cancel."""
    get = p.get
    for e, c in q.items():
        c = get(e, 0) - c if negate else get(e, 0) + c
        if mod:
            c %= mod
        if c:
            p[e] = c
        else:
            del p[e]


def _negated(p, mod):
    if mod:
        return {e: mod - c for e, c in p.items()}
    return {e: -c for e, c in p.items()}


class _PolyParser:
    """Recursive descent over a line's tokens, for one field and variable list.

    A subexpression is a dict {exponent tuple: nonzero coefficient}.
    Coefficients are ints in [1, p) over a field of characteristic p, and
    ints or Fractions over the rationals; only a whole line becomes a
    Polynomial, its coefficients mapped into the field by ``from_int``.
    Every line one parser reads draws on one budget of term products.
    """

    def __init__(self, domain, names):
        n = len(names)
        self.domain = domain
        self.mod = domain.char  # 0 over the rationals, whose coefficients grow
        self.nvars = n
        self.zero = (0,) * n
        self.units = {
            name: tuple(int(j == i) for j in range(n)) for i, name in enumerate(names)
        }
        self.budget = MAX_FILE_TERM_PRODUCTS

    def parse(self, tokens, pos, line):
        """The Polynomial of tokens[pos:], which end with the end token."""
        self.tokens, self.pos, self.line, self.depth = tokens, pos, line, 0
        p = self.expr()
        tok = tokens[self.pos]
        if tok[0] != "end":
            self.fail(f"unexpected {tok[1]!r}", tok)
        from_int = self.domain.from_int
        return Polynomial(self.domain, self.nvars, {e: from_int(c) for e, c in p.items()})

    def fail(self, message, tok):
        raise ParseError(message, self.line, tok[2])

    def product(self, p, q, tok):
        """p*q, charged to the parser's budget of term products; refused at tok."""
        self.budget -= len(p) * len(q)
        if self.budget < 0:
            self.fail(f"problem makes more than {MAX_FILE_TERM_PRODUCTS} term products", tok)
        out = {}
        get = out.get
        for s, a in p.items():
            for t, b in q.items():
                e = exp_add(s, t)
                out[e] = get(e, 0) + a * b
        mod = self.mod
        if mod:
            return {e: r for e, c in out.items() if (r := c % mod)}
        return {e: c for e, c in out.items() if c}

    def expr(self):
        p = self.term()
        tokens = self.tokens
        while True:
            op = tokens[self.pos][1]
            if op != "+" and op != "-":
                return p
            self.pos += 1
            _add_to(p, self.term(), op == "-", self.mod)

    def term(self):
        p = self.unary()
        tokens = self.tokens
        while tokens[self.pos][1] == "*":
            tok = tokens[self.pos]
            self.pos += 1
            q = self.unary()
            if not self.mod and _coeff_bits(p) + _coeff_bits(q) > MAX_POWER_BITS:
                message = f"product would have a coefficient of more than {MAX_POWER_BITS} bits"
                self.fail(message, tok)
            if len(p) * len(q) > MAX_PRODUCT_TERMS:
                self.fail(f"product may expand to more than {MAX_PRODUCT_TERMS} terms", tok)
            p = self.product(p, q, tok)
        return p

    def unary(self):
        negate = False
        tokens = self.tokens
        while tokens[self.pos][1] == "-":
            self.pos += 1
            negate = not negate
        p = self.power()
        return _negated(p, self.mod) if negate else p

    def power(self):
        p = self.atom()
        if self.tokens[self.pos][1] != "^":
            return p
        etok = self.tokens[self.pos + 1]
        self.pos += 2
        if etok[0] != "int":
            self.fail("expected an integer exponent", etok)
        e = int(etok[1])
        if e <= 0:
            self.fail("exponents must be positive", etok)
        # f^e for f with k terms may have C(e+k-1, k-1) terms; the
        # product C(e+j, j) over j < k stops once it passes the bound
        terms, k = 1, len(p)
        for j in range(1, k):
            terms = terms * (e + j) // j
            if terms > MAX_POWER_TERMS:
                self.fail(f"power may expand to more than {MAX_POWER_TERMS} terms", etok)
        if not self.mod and k:
            bits = e * (_coeff_bits(p) + (k - 1).bit_length())
            if bits > MAX_POWER_BITS:
                message = f"power would have a coefficient of more than {MAX_POWER_BITS} bits"
                self.fail(message, etok)
            if terms * bits > MAX_POWER_BITS:
                self.fail(f"power may expand to more than {MAX_POWER_BITS} coefficient bits", etok)
        return power(p, e, lambda a, b: self.product(a, b, etok), {self.zero: 1})

    def atom(self):
        tok = self.tokens[self.pos]
        kind, word, _ = tok
        self.pos += 1
        if kind == "int":
            value, mod = int(word), self.mod
            if self.tokens[self.pos][1] == "/":
                dtok = self.tokens[self.pos + 1]
                self.pos += 2
                if dtok[0] != "int":
                    self.fail("expected an integer denominator", dtok)
                denom = int(dtok[1])
                if mod:
                    denom %= mod
                if not denom:
                    self.fail("denominator vanishes in this field", dtok)
                if mod:
                    value *= pow(denom, -1, mod)
                else:
                    dom = self.domain
                    value = dom.div(dom.from_int(value), dom.from_int(denom))
            if mod:
                value %= mod
            return {self.zero: value} if value else {}
        if kind == "name":
            exps = self.units.get(word)
            if exps is None:
                if word in _KEYWORDS:
                    self.fail(f"{word!r} is a keyword", tok)
                self.fail(f"undeclared variable {word!r}", tok)
            return {exps: 1}
        if word == "(":
            if self.depth == MAX_NESTING:
                self.fail(f"parentheses nest deeper than {MAX_NESTING} levels", tok)
            self.depth += 1
            p = self.expr()
            tok = self.tokens[self.pos]
            if tok[1] != ")":
                self.fail("expected ')'", tok)
            self.pos += 1
            self.depth -= 1
            return p
        if kind == "end":
            self.fail("unexpected end of line", tok)
        self.fail(f"unexpected {word!r}", tok)


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
    """The field a 'field' line declares; tokens exclude the end token."""
    words = [word for _, word, _ in tokens]
    if words[1:2] == ["q"]:
        if len(tokens) > 2:
            raise ParseError("trailing input after 'field q'", line, tokens[2][2])
        return QQ
    if words[1:2] == ["p"]:
        if len(tokens) < 3 or tokens[2][0] != "int":
            raise ParseError("expected 'field p <prime>'", line, None)
        if len(tokens) > 3:
            raise ParseError("trailing input after the prime", line, tokens[3][2])
        p = int(words[2])
        if not is_probable_prime(p):
            raise ParseError(f"{p} is not prime", line, tokens[2][2])
        return GF(p)
    raise ParseError("expected 'field q' or 'field p <prime>'", line, None)


def _parse_vars(tokens, line):
    """The names a 'vars' line declares; tokens exclude the end token."""
    if len(tokens) < 2:
        raise ParseError("expected at least one variable name", line, None)
    names = []
    for kind, word, col in tokens[1:]:
        if kind != "name":
            raise ParseError("variable names must be identifiers", line, col)
        if word in _KEYWORDS:
            raise ParseError(f"{word!r} is a keyword", line, col)
        if word in names:
            raise ParseError(f"duplicate variable {word!r}", line, col)
        names.append(word)
    return tuple(names)


def parse_problem(text):
    """Parse a whole problem file into a ProblemFile."""
    domain = None
    names = None
    parser = None
    gens = []
    query = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize_line(raw, lineno)
        kind, head, col = tokens[0]
        if kind == "end":
            continue
        if domain is None:
            if head != "field":
                raise ParseError("the first line must declare the field", lineno, col)
            domain = _parse_field(tokens[:-1], lineno)
            continue
        if names is None:
            if head != "vars":
                raise ParseError("expected a 'vars' line after the field", lineno, col)
            names = _parse_vars(tokens[:-1], lineno)
            parser = _PolyParser(domain, names)
            continue
        if head == "field":
            raise ParseError("the field is already declared", lineno, col)
        if head == "vars":
            raise ParseError("variables are already declared", lineno, col)
        if head == "query":
            if query is not None:
                raise ParseError("only one query line is allowed", lineno, col)
            if tokens[1][0] == "end":
                raise ParseError("the query line needs a polynomial", lineno, col)
            query = parser.parse(tokens, 1, lineno)
            continue
        gens.append(parser.parse(tokens, 0, lineno))
    if domain is None:
        raise ParseError("empty input: no field declaration", None, None)
    if names is None:
        raise ParseError("no 'vars' line", None, None)
    return ProblemFile(domain, names, tuple(gens), query)


def parse_polynomial(text, domain, names, line=1):
    """Parse a single polynomial expression (used for round-trip checks)."""
    tokens = _tokenize_line(text, line)
    if tokens[0][0] == "end":
        raise ParseError("expected a polynomial", line, None)
    return _PolyParser(domain, tuple(names)).parse(tokens, 0, line)

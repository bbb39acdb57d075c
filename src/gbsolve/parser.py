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
``MAX_DIGITS`` digits.

Everything a file expands is paid for before it is made, and ``product`` is
the one place that makes it: every ``*``, every unary minus (a product by
-1) and every step of a power's squaring ladder.  Two limits are checked
there, and a refusal names the ``*``, the ``-`` or the exponent:

* ``MAX_FILE_WORDS``, one budget of machine words for the whole file.  A
  product of an m-term and an n-term factor makes m * n term products, each
  charged nvars + 8 words, plus the words of a coefficient product,
  (bits(p) + bits(q)) // 64 over ``field q`` and 2 * bits(p) // 64 over
  ``field p`` (0 for p < 2^32); each variable atom is charged nvars.  So
  ``(x1+1)^999`` (414,686 term products) fits twice in a file over one
  variable and is refused at its exponent the third time, or the first
  time with 512 variables declared or over a prime of 512 bits or more.
* ``MAX_COEFF_BITS`` over ``field q``, where bits(p) is the largest
  max(|a|, b).bit_length() - 1 over p's coefficients a/b: a product is
  refused when bits(p) + bits(q) passes it, so ``2^1000000*x`` parses and
  ``2^1000001*x`` does not.

``parse_polynomial`` gives each expression a budget of its own.

Each generator or query line is worked out as one dict {exponent tuple:
coefficient}, with integer coefficients over the rationals until ``a/b``
makes a Fraction, and becomes a single Polynomial at the end of the line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParseError, UsageError
from .fields import GF, QQ
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

# One term product takes about 0.45 + 0.048 * nvars us over a prime field,
# so the budget is spent in about a second: three (x1+1)^999 lines over one
# variable are refused after 0.9 s.  The + 8 per term product gives a file
# over one or two variables about 10**6 term products.  A file that fills
# it over a 640-digit prime (75 words per term product) also takes 1 s.
MAX_FILE_WORDS = 10**7

# Printing costs time quadratic in a coefficient's length: gb on 2^e*x - 1
# over ``field q`` took 0.10 s for e = 3*10**5, 1.1 s for 10**6 and 4.4 s for
# 2*10**6.
MAX_COEFF_BITS = 10**6

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


class _PolyParser:
    """Recursive descent over a line's tokens, for one field and variable list.

    A subexpression is a dict {exponent tuple: nonzero coefficient}.
    Coefficients are ints in [1, p) over a field of characteristic p, and
    ints or Fractions over the rationals; only a whole line becomes a
    Polynomial, its coefficients mapped into the field by ``from_int``.
    Every line one parser reads draws on one budget of ``MAX_FILE_WORDS``.
    """

    def __init__(self, domain, names):
        self.domain = domain
        self.mod = domain.char  # 0 over the rationals, whose coefficients grow
        self.nvars = len(names)
        self.zero = (0,) * self.nvars
        self.index = {name: i for i, name in enumerate(names)}
        self.units = {}  # name -> exponent tuple, built on first use
        self.words = MAX_FILE_WORDS

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

    def charge(self, words, tok):
        """Spend words of the parser's budget; refused at tok once it is gone."""
        self.words -= words
        if self.words < 0:
            self.fail(f"problem expands to more than {MAX_FILE_WORDS} words", tok)

    def product(self, p, q, tok):
        """p*q, charged to the parser's budget before it is made; refused at tok."""
        words = self.nvars + 8 + 2 * self.mod.bit_length() // 64  # 0 over QQ
        if not self.mod:
            bits = _coeff_bits(p) + _coeff_bits(q)
            if bits > MAX_COEFF_BITS:
                message = f"product would have a coefficient of more than {MAX_COEFF_BITS} bits"
                self.fail(message, tok)
            words += bits // 64
        self.charge(len(p) * len(q) * words, tok)
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
            p = self.product(p, self.unary(), tok)
        return p

    def unary(self):
        tokens = self.tokens
        tok, negate = tokens[self.pos], False
        while tokens[self.pos][1] == "-":
            self.pos += 1
            negate = not negate
        p = self.power()
        # -p is p * -1 (mod - 1 over GF(mod), -1 over QQ), charged as any product
        return self.product(p, {self.zero: self.mod - 1}, tok) if negate else p

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
                i = self.index.get(word)
                if i is None:
                    if word in _KEYWORDS:
                        self.fail(f"{word!r} is a keyword", tok)
                    self.fail(f"undeclared variable {word!r}", tok)
                exps = self.units[word] = self.zero[:i] + (1,) + self.zero[i + 1 :]
            self.charge(self.nvars, tok)
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
        try:
            return GF(p)  # tests p once: 0.3 s for a 640-digit prime
        except UsageError:
            raise ParseError(f"{p} is not prime", line, tokens[2][2]) from None
    raise ParseError("expected 'field q' or 'field p <prime>'", line, None)


def _parse_vars(tokens, line):
    """The names a 'vars' line declares; tokens exclude the end token."""
    if len(tokens) < 2:
        raise ParseError("expected at least one variable name", line, None)
    names = {}  # a dict keeps the order and tests membership in O(1)
    for kind, word, col in tokens[1:]:
        if kind != "name":
            raise ParseError("variable names must be identifiers", line, col)
        if word in _KEYWORDS:
            raise ParseError(f"{word!r} is a keyword", line, col)
        if word in names:
            raise ParseError(f"duplicate variable {word!r}", line, col)
        names[word] = None
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


def parse_polynomial(text, domain, names):
    """Parse a single polynomial expression (used for round-trip checks), as
    if it were line 1 of a file."""
    tokens = _tokenize_line(text, 1)
    if tokens[0][0] == "end":
        raise ParseError("expected a polynomial", 1, None)
    return _PolyParser(domain, tuple(names)).parse(tokens, 0, 1)

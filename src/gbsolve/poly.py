"""Sparse multivariate polynomials and the term orders that rank their terms.

A polynomial is a map from exponent tuples to nonzero coefficients, tagged
with its coefficient domain and variable count.  Term orders are total orders
on exponent tuples; both plain and weighted lexicographic orders support an
arbitrary variable priority so the same machinery serves elimination.
``Packing`` turns exponent tuples into ints whose integer order is a term
order, for division and completion.  Evaluation takes one power per exponent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from operator import add, itemgetter, mul

from .errors import UsageError, ZeroPolynomialError
from .unipoly import elem_pow, power

# Largest degree that ``dense`` lays out as a list, one slot per degree; a
# higher one is a usage error.
MAX_DENSE_DEGREE = 10**6


def exp_add(s, t):
    return tuple(map(add, s, t))


def _compile_key(priority, weights):
    """Key function of an order: the exponents in priority order, led by the
    weighted degree when the order is weighted."""
    if priority == tuple(range(len(priority))):
        lex = tuple
    else:
        lex = itemgetter(*priority)  # a permutation of two or more variables
    if weights is None:
        return lex
    return lambda exps: (sum(map(mul, weights, exps)),) + lex(exps)


@dataclass(frozen=True)
class TermOrder:
    """Lexicographic or weighted-lexicographic order with a variable priority.

    ``priority`` lists variable indices from most to least significant; the
    default ranks x1 above x2 above later variables.  Weighted orders compare
    the weighted total degree first and fall back to the priority lex order.
    """

    priority: tuple
    weights: tuple = None

    def __post_init__(self):
        n = len(self.priority)
        if sorted(self.priority) != list(range(n)):
            raise UsageError("priority must be a permutation of the variables")
        if self.weights is not None:
            if len(self.weights) != n:
                raise UsageError("one weight per variable is required")
            if any(w <= 0 or w != int(w) for w in self.weights):
                raise UsageError("weights must be positive integers")
        object.__setattr__(self, "_key", _compile_key(self.priority, self.weights))

    @staticmethod
    def lex(nvars, priority=None):
        if priority is None:
            return _default_lex(nvars)
        return TermOrder(tuple(priority))

    @staticmethod
    @cache
    def elimination(nvars):
        """Lex with x_n > ... > x2 > x1, so x1 ranks below every other variable.

        A basis under it meets K[x1] in a basis of the ideal's intersection
        with K[x1].  Ranking the later variables higher makes a triangular
        system (x_k's generator led by a pure power of x_k, the rest in the
        earlier variables) already a basis, so its completion reduces no
        S-pair.  Each recursion level drops x1 and renumbers, so every level
        works in the same order: the lex order that the Gianni-Kalkbrener
        specialization theorem needs.  With fewer than two variables it is
        ``lex(nvars)``.  Built once per variable count, like ``lex(nvars)``.
        """
        return TermOrder.lex(nvars, range(nvars - 1, -1, -1))

    @staticmethod
    def weighted(weights, priority=None):
        if priority is None:
            priority = tuple(range(len(weights)))
        return TermOrder(tuple(priority), tuple(int(w) for w in weights))

    @property
    def nvars(self):
        return len(self.priority)

    def key(self, exps):
        """Sort key; larger key means larger term."""
        return self._key(exps)

    def compare(self, s, t):
        """-1, 0 or 1 as s is below, equal to or above t."""
        if len(s) != self.nvars or len(t) != self.nvars:
            raise UsageError("exponent tuple does not match the order's variables")
        ks, kt = self.key(s), self.key(t)
        return (ks > kt) - (ks < kt)


@cache
def _default_lex(nvars):
    return TermOrder(tuple(range(nvars)))


class Overflow(ArithmeticError):
    """A packed field passed its maximum; the caller retries with wider fields."""


class Packing:
    """Exponent tuples packed into one int whose integer order is the term order.

    Every field is ``bits`` wide with one guard bit above it.  The variables'
    fields go in ``order.priority`` order, most significant first, and a
    weighted order puts the weighted degree in the top field, so comparing
    two packed terms compares their ``order.key``.  While no guard bit is set,
    the product of two terms is the sum of their packed ints, and s divides t
    exactly when ``(t - s) & guard`` is 0: a field with s above t borrows
    from its guard bit.  A sum that passes a field's maximum sets that
    field's guard bit instead of wrapping, so every new term is checked
    against ``guard`` and the work restarts with wider fields on ``Overflow``.
    The lcm of two terms is a guard-bit mask under every order; a weighted
    order then writes the lcm's weighted degree into the top field, so a
    packed term's weighted degree is ``t >> deg_shift``.
    """

    __slots__ = ("order", "bits", "guard", "deg_shift", "_shifts", "_weight_shifts")

    def __init__(self, order, bits):
        n = order.nvars
        stride = bits + 1
        nfields = n + (order.weights is not None)
        self.order = order
        self.bits = bits
        self.guard = sum(1 << (stride * k + bits) for k in range(nfields))
        shifts = [0] * n
        for rank, var in enumerate(order.priority):
            shifts[var] = stride * (n - 1 - rank)
        self._shifts = tuple(shifts)
        self.deg_shift = None if order.weights is None else stride * n
        self._weight_shifts = tuple(zip(order.weights or (), shifts))

    def pack(self, exps):
        """The packed int of an exponent tuple; Overflow when a field is too big."""
        fields = list(exps)
        packed = sum(e << s for e, s in zip(fields, self._shifts))
        if self.deg_shift is not None:
            deg = sum(map(mul, self.order.weights, fields))
            packed += deg << self.deg_shift
            fields.append(deg)
        if fields and max(fields) >> self.bits:
            raise Overflow
        return packed

    def unit(self, var):
        """The packed term x_var."""
        return self.pack(tuple(int(k == var) for k in range(self.order.nvars)))

    def unpack(self, packed):
        field = (1 << self.bits) - 1
        return tuple((packed >> s) & field for s in self._shifts)

    def lcm(self, s, t):
        """Fieldwise max: g marks where t >= s, g - (g >> bits) fills those.

        A weighted order's top field then holds the larger degree, so it is
        replaced by the weighted degree of the lcm's variable fields."""
        g = ((t | self.guard) - s) & self.guard
        mask = g - (g >> self.bits)
        m = (t & mask) | (s & ~mask)
        d = self.deg_shift
        if d is None:
            return m
        field = (1 << self.bits) - 1
        deg = sum([w * (m >> sh & field) for w, sh in self._weight_shifts])
        if deg >> self.bits:
            raise Overflow
        return (m & ((1 << d) - 1)) | deg << d


def dense(terms, zero):
    """Ascending coefficient tuple of the univariate terms {degree: c}."""
    top = max(terms, default=-1)
    if top > MAX_DENSE_DEGREE:
        raise UsageError(f"degree {top} exceeds the dense bound {MAX_DENSE_DEGREE}")
    out = [zero] * (top + 1)
    for e, c in terms.items():
        out[e] = c
    return tuple(out)


def _powers(a, exps, dom):
    """{e: a^e}, ascending: the previous power times a^gap, or a^e where
    that is fewer products, so never more than one ``elem_pow`` each."""
    ladder = lambda e: e.bit_length() + e.bit_count()  # its products + 2
    out, prev = {0: dom.one()}, 0
    for e in sorted(set(exps) - {0}):
        if prev and ladder(e - prev) + 1 < ladder(e):
            out[e] = dom.mul(out[prev], elem_pow(a, e - prev, dom))
        else:
            out[e] = elem_pow(a, e, dom)
        prev = e
    return out


@dataclass(frozen=True)
class Monomial:
    coefficient: object
    exponents: tuple


class Polynomial:
    """Immutable sparse polynomial over an explicit coefficient domain."""

    __slots__ = ("domain", "nvars", "coeffs", "_hash")

    def __init__(self, domain, nvars, coeffs):
        clean = {}
        for exps, c in coeffs.items():
            exps = tuple(exps)
            if len(exps) != nvars:
                raise UsageError("exponent tuple does not match the variable count")
            if exps and min(exps) < 0:
                raise UsageError("negative exponent")
            if c:  # every domain's zero is falsy (``fields.Domain``)
                clean[exps] = c
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, domain, nvars):
        return cls(domain, nvars, {})

    @classmethod
    def constant(cls, domain, nvars, c):
        return cls(domain, nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, domain, nvars, i):
        exps = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(domain, nvars, {exps: domain.one()})

    @classmethod
    def term(cls, domain, nvars, c, exps):
        return cls(domain, nvars, {tuple(exps): c})

    @classmethod
    def from_dense(cls, domain, nvars, var, coeffs):
        """Build from an ascending univariate coefficient tuple in variable var."""
        terms = {}
        for e, c in enumerate(coeffs):
            exps = tuple(e if j == var else 0 for j in range(nvars))
            terms[exps] = c
        return cls(domain, nvars, terms)

    # -- structure ------------------------------------------------------------

    def is_zero(self):
        return not self.coeffs

    def is_one(self):
        if len(self.coeffs) != 1:
            return False
        ((exps, c),) = self.coeffs.items()
        return not any(exps) and self.domain.is_one(c)

    def is_constant(self):
        return all(not any(exps) for exps in self.coeffs)

    def univariate_in(self, var):
        """True when no variable other than var appears (constants qualify)."""
        return not any(any(exps[:var] + exps[var + 1 :]) for exps in self.coeffs)

    def dense_in(self, var):
        """Ascending coefficient tuple of a polynomial univariate in var."""
        if not self.univariate_in(var):
            raise UsageError("polynomial involves more than one variable")
        terms = {exps[var]: c for exps, c in self.coeffs.items()}
        return dense(terms, self.domain.zero())

    def leading(self, order):
        """Leading monomial under the given order; rejects the zero polynomial."""
        if not self.coeffs:
            raise ZeroPolynomialError("the zero polynomial has no leading term")
        exps = max(self.coeffs, key=order.key)
        return Monomial(self.coeffs[exps], exps)

    def sorted_terms(self, order):
        """Terms in descending order, the canonical iteration for printing."""
        return [
            (exps, self.coeffs[exps])
            for exps in sorted(self.coeffs, key=order.key, reverse=True)
        ]

    # -- arithmetic -----------------------------------------------------------

    def _check_peer(self, other):
        if not isinstance(other, Polynomial):
            raise UsageError(f"expected a Polynomial, got {type(other).__name__}")
        if other.domain != self.domain:
            raise UsageError(f"domain mismatch: {self.domain.tag} vs {other.domain.tag}")
        if other.nvars != self.nvars:
            raise UsageError("variable count mismatch")

    def __add__(self, other):
        self._check_peer(other)
        dom = self.domain
        out = dict(self.coeffs)
        for exps, c in other.coeffs.items():
            if exps in out:
                out[exps] = dom.add(out[exps], c)
            else:
                out[exps] = c
        return Polynomial(dom, self.nvars, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        dom = self.domain
        return Polynomial(
            dom, self.nvars, {e: dom.neg(c) for e, c in self.coeffs.items()}
        )

    def __mul__(self, other):
        self._check_peer(other)
        dom = self.domain
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                exps = exp_add(e1, e2)
                prod = dom.mul(c1, c2)
                if exps in out:
                    out[exps] = dom.add(out[exps], prod)
                else:
                    out[exps] = prod
        return Polynomial(dom, self.nvars, out)

    def __pow__(self, e):
        if not isinstance(e, int):
            raise UsageError("polynomial powers take an integer exponent")
        one = Polynomial.constant(self.domain, self.nvars, self.domain.one())
        return power(self, e, mul, one)

    # -- variable plumbing ------------------------------------------------------

    def with_new_var(self, index):
        """Insert a fresh (unused) variable slot at the given index."""
        out = {}
        for exps, c in self.coeffs.items():
            out[exps[:index] + (0,) + exps[index:]] = c
        return Polynomial(self.domain, self.nvars + 1, out)

    def drop_var(self, index):
        """Remove a variable slot that no term uses."""
        out = {}
        for exps, c in self.coeffs.items():
            if exps[index] != 0:
                raise UsageError("cannot drop a variable that appears")
            out[exps[:index] + exps[index + 1 :]] = c
        return Polynomial(self.domain, self.nvars - 1, out)

    # -- evaluation ---------------------------------------------------------

    def evaluate_x1(self, a, dom=None):
        """Substitute a for the first variable, landing over dom (>= self.domain)."""
        if dom is None:
            dom = self.domain
        out = {}
        powers = _powers(a, [exps[0] for exps in self.coeffs], dom)
        for exps, c in self.coeffs.items():
            rest, c = exps[1:], dom.lift(c, self.domain)
            val = dom.mul(c, powers[exps[0]]) if exps[0] else c
            if rest in out:
                out[rest] = dom.add(out[rest], val)
            else:
                out[rest] = val
        return Polynomial(dom, self.nvars - 1, out)

    def evaluate(self, point, dom=None):
        """Evaluate at a full point (a sequence of dom elements)."""
        if dom is None:
            dom = self.domain
        if len(point) != self.nvars:
            raise UsageError("point length does not match the variable count")
        total = dom.zero()
        powers = [_powers(a, col, dom) for a, col in zip(point, zip(*self.coeffs))]
        for exps, c in self.coeffs.items():
            val = dom.lift(c, self.domain)
            for pw, e in zip(powers, exps):
                if e:
                    val = dom.mul(val, pw[e])
            total = dom.add(total, val)
        return total

    # -- comparison and display -------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.domain == other.domain
            and self.nvars == other.nvars
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        if self._hash is None:
            items = frozenset(self.coeffs.items())
            object.__setattr__(self, "_hash", hash((self.domain, self.nvars, items)))
        return self._hash

    def __str__(self):
        return to_text(self)

    def __repr__(self):
        return f"Polynomial({self.domain.tag}, {to_text(self)!r})"


def default_names(nvars):
    return tuple(f"x{i + 1}" for i in range(nvars))


def to_text(p, names=None, order=None):
    """Canonical text form: terms descending, ^ for powers, * for products."""
    if names is None:
        names = default_names(p.nvars)
    if order is None:
        order = TermOrder.lex(p.nvars)
    if p.is_zero():
        return "0"
    dom = p.domain
    parts = []
    for exps, c in p.sorted_terms(order):
        negative, text = dom.coeff_text(c)
        factors = []
        for i, e in enumerate(exps):
            if e:
                factors.append(names[i] if e == 1 else f"{names[i]}^{e}")
        if not factors:
            body = text
        elif dom.is_one(c) or text == "1":
            body = "*".join(factors)
        else:
            body = "*".join([text] + factors)
        if not parts:
            parts.append(("-" if negative else "") + body)
        else:
            parts.append(("- " if negative else "+ ") + body)
    return " ".join(parts)

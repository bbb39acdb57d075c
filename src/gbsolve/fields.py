"""Coefficient domains: exact rationals, prime fields, their extension towers
and the Euclidean ring K[x1], all under the two contracts of ``Domain``.

Tower elements are plain nested tuples (ints at the prime-field floor), so they
hash and compare structurally; the tower object itself carries the arithmetic,
and ``FFElement`` only pairs an element with its tower.  A tower grows one
level at a time from ``GF(p)``: ``extend`` checks a level from outside,
``adjoin_root``'s included, and the solver stacks irreducible factors
unchecked.  Every element handed to a tower operation must already live at
that tower's top level; ``lift`` embeds elements from any prefix tower.

A tower with at least one level and order q <= ``TABLE_MAX_ORDER`` computes
through Zech-logarithm tables (Huber 1990, "Some comments on Zech's
logarithms"): ``exp[k] = g^k`` for a generator g of its multiplicative group,
``log`` inverting it, and ``Z[k] = log(1 + g^k)``.  A product or inverse is
then index arithmetic, and a sum is ``exp[la + Z[lb - la]]``.  Each tower
object builds its own tables when its level is stacked, from its polynomial
arithmetic, in one walk of a candidate's powers: g is accepted when its
powers first return to 1 at g^(q-1).  A reducible level (only a test that
bypasses the irreducibility check can build one) has no such g and keeps
polynomial arithmetic.  The tables hold the same canonical tuples the
polynomial arithmetic makes, so no result changes.  A larger tower multiplies
over its sub-level with ``unipoly.mul_mod``, reducing in the same pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import unipoly
from .errors import InvariantViolation, UsageError
from .poly import Polynomial, TermOrder, to_text


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n):
    """Baillie-PSW: strong probable prime to the first 12 prime bases and a
    strong Lucas probable prime.

    The 12 bases alone are exact below 3.18 * 10**23; above that there are
    composites passing them all, such as 318665857834031151167461, which the
    Lucas step rejects.  No composite is known to pass both tests.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        y = pow(a, d, n)
        if y == 1 or y == n - 1:
            continue
        for _ in range(s - 1):
            y = y * y % n
            if y == n - 1:
                break
        else:
            return False
    return _is_strong_lucas_prp(n)


def _jacobi(a, n):
    """Jacobi symbol (a/n) for odd positive n."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _half(x, n):
    """x / 2 modulo odd n."""
    x %= n
    return (x + n if x & 1 else x) // 2


def _is_strong_lucas_prp(n):
    """Strong Lucas test with Selfridge's parameters, for odd n > 37.

    D is the first of 5, -7, 9, -11, ... with Jacobi symbol (D/n) = -1,
    P = 1 and Q = (1 - D) / 4.  With n + 1 = d * 2**s, n passes when
    U_d = 0 or V_(d * 2**r) = 0 for some 0 <= r < s (all modulo n).
    """
    if math.isqrt(n) ** 2 == n:
        return False  # no suitable D exists for a square
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0:
            return False  # gcd(D, n) > 1 and |D| < n
        D = -D - 2 if D > 0 else -D + 2
    P, Q = 1, (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # U_k, V_k and Q**k for k = 1, walking the bits of d below the top one
    U, V, Qk = 1, P, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = _half(P * U + V, n), _half(D * U + P * V, n), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


class Domain:
    """Interface shared by all coefficient domains; see the subclasses.

    An element is falsy exactly when it is zero (``0``, ``()`` or
    ``Fraction(0)``), so the kernel tests zero by truthiness alone.  Every
    domain is a field (``is_field``) except K[x1] (``UnivariatePolyDomain``),
    the one Euclidean ring, and only it has units, gcds, lcms and divisibility.
    """

    is_field = False
    tag = "?"
    # p when the elements are the ints in [0, p) under arithmetic mod p, as in
    # ``FieldTower(p)``, so that division does its arithmetic inline mod p;
    # None for every other domain, whose arithmetic goes through its methods
    modulus = None

    def is_one(self, a):
        return a == self.one()

    def coeff_text(self, a):
        """(negative, magnitude-text) for the canonical printer."""
        return False, self.to_text(a)

    def lift(self, a, src):
        """Embed an element of the domain ``src`` into this domain."""
        if src == self:
            return a
        raise UsageError(f"cannot lift elements of {src.tag} into {self.tag}")

    def __repr__(self):
        return self.tag


class Field(Domain):
    """A field: every nonzero element is a unit, so division is exact."""

    is_field = True

    def div(self, a, b):
        if self.is_one(b):
            return a
        return self.mul(a, self.inv(b))

    def euclid_divmod(self, a, b):
        """The Euclidean step ``groebner._divide`` takes: remainder zero."""
        return self.div(a, b), self.zero()


# Python's str(int) refuses more digits than its int-string limit (4300 by
# default, 640 at its lowest), and rational arithmetic can outgrow any input
# bound, so rationals print in decimal chunks well below every limit setting.
_CHUNK_DIGITS = 600
_CHUNK = 10**_CHUNK_DIGITS


def _decimal(n):
    """Decimal text of the int n >= 0, whatever the int-string limit."""
    chunks = []
    while n >= _CHUNK:
        n, low = divmod(n, _CHUNK)
        chunks.append(f"{low:0{_CHUNK_DIGITS}d}")
    chunks.append(str(n))
    return "".join(reversed(chunks))


class RationalField(Field):
    """The rationals, represented by fractions.Fraction."""

    tag = "QQ"
    char = 0

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if not a:
            raise UsageError("inverse of zero")
        return 1 / a

    def is_one(self, a):
        return a == 1

    def to_text(self, a):
        negative, text = self.coeff_text(a)
        return "-" + text if negative else text

    def coeff_text(self, a):
        text = _decimal(abs(a.numerator))
        if a.denominator != 1:
            text += "/" + _decimal(a.denominator)
        return a < 0, text

    def sort_key(self, a):
        return a

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")


QQ = RationalField()


# Building the tables of an order-q tower costs about q products and q sums,
# so they pay only where a tower does many more operations than that.  The
# GF(25) towers of the solve-tower benchmark do; its GF(625) towers do about
# 36 top-level products each (seed 1), and with quadratic levels multiplied
# in closed form a bound of 625 ran about 3 times slower there than 256.  At
# order 256 a tower's three tables hold about 1300 entries.
TABLE_MAX_ORDER = 256


@dataclass(frozen=True)
class TowerLevel:
    """One extension step: a named generator and its monic minimal polynomial."""

    name: str
    minpoly: tuple

    @property
    def degree(self):
        return len(self.minpoly) - 1


class FieldTower(Field):
    """F_p, or an iterated extension F_p(t1)(t2)... built by ``extend``.

    Elements of the base are ints in [0, p); elements of a k-level tower are
    tuples of (k-1)-level elements in ascending degree order with trailing
    zeros trimmed, so representations are canonical.

    A tower with at least one level and order at most ``TABLE_MAX_ORDER``
    adds, subtracts, negates, multiplies and inverts through log, antilog and
    Zech tables (see the module docstring), which ``_stack`` builds with
    ``_tabulate``; ``_log`` is False for a tower without tables.  Without
    them, and in the walk of ``_tabulate``, a product is ``unipoly.mul_mod``
    by the top minimal polynomial and an inverse the ``unipoly.xgcd`` cofactor.

    ``FieldTower(p)`` is the prime field; every level above it is built by
    one stacking step, ``_stack``, which checks nothing.  A level from
    outside enters through ``extend``, which checks only the new level and
    shares the tower it extends; ``adjoin_root`` passes a polynomial of
    degree >= 2 to ``extend``.  The solver stacks the factors
    ``unipoly.factor`` returns and the output of ``unipoly.first_irreducible``
    unchecked (``_adjoin_irreducible``), as both are irreducible by
    construction.
    """

    __slots__ = (
        "p",
        "levels",
        "modulus",
        "_sub",
        "_order",
        "_hash",
        "_one",  # 1, or (sub.one(),) once the level is stacked
        "_log",  # element -> k with g^k = element, built at stacking; False if none
        "_exp",  # exp[k] = g^k for 0 <= k < 2(q - 1), so index sums need no mod
        "_zech",  # zech[k] = log(1 + g^k), None where 1 + g^k = 0; period q - 1
        "_log_minus_one",  # log(-1): (q - 1)/2 for odd q, 0 in characteristic 2
    )

    def __init__(self, p):
        if not is_probable_prime(p):
            raise UsageError(f"characteristic {p} is not prime")
        self.p = p
        self.levels = ()
        self.modulus = p
        self._sub = None
        self._order = p
        self._hash = hash((p, ()))
        self._one = 1
        self._log = False

    @staticmethod
    def _stack(sub, minpoly):
        """``sub`` extended by the level t<k> with the monic irreducible
        minpoly, k being its new level count: unchecked, with tables when its
        order is at most ``TABLE_MAX_ORDER``."""
        top = TowerLevel(f"t{len(sub.levels) + 1}", minpoly)
        tower = object.__new__(FieldTower)
        tower.p = sub.p
        tower.levels = sub.levels + (top,)
        tower.modulus = None
        tower._sub = sub
        tower._order = sub.order ** top.degree
        tower._hash = hash((tower.p, tower.levels))
        tower._one = (sub.one(),)  # read by _tabulate
        tower._log = False
        if tower._order <= TABLE_MAX_ORDER:
            tower._tabulate()
        return tower

    @property
    def char(self):
        return self.p

    @property
    def order(self):
        return self._order

    @property
    def tag(self):
        if not self.levels:
            return f"GF({self.p})"
        return f"GF({self.p})({','.join(lv.name for lv in self.levels)})"

    def __eq__(self, other):
        return (
            isinstance(other, FieldTower)
            and self.p == other.p
            and self.levels == other.levels
        )

    def __hash__(self):
        return self._hash

    # -- element arithmetic --------------------------------------------------

    def zero(self):
        return 0 if not self.levels else ()

    def one(self):
        return self._one

    def from_int(self, n):
        if not self.levels:
            return n % self.p
        return unipoly.constant(self._sub.from_int(n), self._sub)

    def add(self, a, b):
        if not self.levels:
            return (a + b) % self.p
        log = self._log
        if log:
            if not a:
                return b
            if not b:
                return a
            la = log[a]
            z = self._zech[log[b] - la]
            return () if z is None else self._exp[la + z]
        return unipoly.add(a, b, self._sub)

    def sub(self, a, b):
        if not self.levels:
            return (a - b) % self.p
        log = self._log
        if log:
            if not b:
                return a
            lb = log[b] + self._log_minus_one  # log(-b)
            if not a:
                return self._exp[lb]
            la = log[a]
            z = self._zech[lb - la]
            return () if z is None else self._exp[la + z]
        return unipoly.sub(a, b, self._sub)

    def mul(self, a, b):
        if not self.levels:
            return a * b % self.p
        log = self._log
        if log:
            return self._exp[log[a] + log[b]] if a and b else ()
        return unipoly.mul_mod(a, b, self.levels[-1].minpoly, self._sub)

    def neg(self, a):
        if not self.levels:
            return -a % self.p
        log = self._log
        if log:
            return self._exp[log[a] + self._log_minus_one] if a else a
        return unipoly.neg(a, self._sub)

    def inv(self, a):
        if not a:
            raise UsageError("inverse of zero")
        if not self.levels:
            return pow(a, -1, self.p)
        log = self._log
        if log:
            return self._exp[-log[a]]  # g^(2(q-1) - k) = g^-k
        if self.is_one(a):
            return a
        d, u, _ = unipoly.xgcd(a, self.levels[-1].minpoly, self._sub)
        if d != unipoly.one(self._sub):
            raise InvariantViolation(
                f"{self.tag}: an element shares a factor with the minimal polynomial"
            )
        return u  # deg u < deg minpoly, as for every Bezout cofactor

    def _tabulate(self):
        """Build this tower's tables in one walk of a candidate's powers.

        Candidates g are taken in ``element`` order from the first element
        outside the sub-level, whose elements have orders dividing the
        sub-level's order minus 1.  The walk multiplies x <- x*g, appending
        each power to exp, until x returns to 1 or exp holds q - 1 powers.  g
        is accepted, and the tables kept, exactly when the first return to 1
        is at g^(q-1); in a field g then generates the group and its powers
        fill exp.  A reducible level has no such g: its units form a group of
        fewer than q - 1 elements, and a zero divisor never reaches 1.
        """
        n, one, minpoly = self._order - 1, self.one(), self.levels[-1].minpoly
        for i in range(self._sub.order, self._order):
            g = x = self.element(i)
            exp = [one]
            while x != one and len(exp) < n:
                exp.append(x)
                x = unipoly.mul_mod(x, g, minpoly, self._sub)
            if x == one and len(exp) == n:
                break
        else:
            return
        log = {a: k for k, a in enumerate(exp)}
        # log has no entry for 0, so zech holds None where 1 + g^k = 0
        zech = [log.get(unipoly.add(one, a, self._sub)) for a in exp]
        self._exp = exp + exp
        self._zech = zech + zech
        self._log_minus_one = 0 if self.p == 2 else n // 2
        self._log = log

    # -- tower structure -----------------------------------------------------

    def extend(self, minpoly):
        """Adjoin a root of a monic irreducible over this tower's top level.

        The one checked way up a level: a minimal polynomial of degree below
        2, or one reducible over this tower, is rejected.
        """
        minpoly = unipoly.monic(unipoly.trim(minpoly, self), self)
        if unipoly.deg(minpoly) < 2:
            raise UsageError("tower levels must have degree >= 2")
        if not unipoly.is_irreducible(minpoly, self):
            level = len(self.levels) + 1
            raise UsageError(f"minimal polynomial of t{level} is reducible")
        return FieldTower._stack(self, minpoly)

    def prefix(self, k):
        """The tower of the first k levels, shared rather than rebuilt."""
        if not 0 <= k <= len(self.levels):
            raise UsageError(f"{self.tag} has no {k}-level prefix")
        tower = self
        while len(tower.levels) > k:
            tower = tower._sub
        return tower

    def generator(self):
        """Representation of the top level's adjoined generator."""
        if not self.levels:
            raise UsageError("the prime field has no adjoined generator")
        return (self._sub.zero(), self._sub.one())

    def lift(self, a, src):
        if not isinstance(src, FieldTower) or src.p != self.p:
            raise UsageError(f"cannot lift elements of {src.tag} into {self.tag}")
        k = len(src.levels)
        if self.levels[:k] != src.levels:
            raise UsageError(f"{src.tag} is not a prefix of {self.tag}")
        for _ in range(k, len(self.levels)):
            a = (a,) if a else ()
        return a

    # -- enumeration ---------------------------------------------------------

    def element(self, i):
        """The i-th element in coordinate-lexicographic order (element(0) = 0)."""
        if not 0 <= i < self.order:
            raise UsageError(f"element index {i} out of range for {self.tag}")
        if not self.levels:
            return i
        sub = self._sub
        coords = []
        while i:
            coords.append(sub.element(i % sub.order))
            i //= sub.order
        return unipoly.trim(coords, sub)

    def index(self, a):
        if not self.levels:
            return a
        sub = self._sub
        total = 0
        for c in reversed(a):
            total = total * sub.order + sub.index(c)
        return total

    def elements(self):
        return (self.element(i) for i in range(self.order))

    def sort_key(self, a):
        return self.index(a)

    # -- printing ------------------------------------------------------------

    def _expand(self, a):
        # map (e_t1, ..., e_tk) -> F_p residue
        if not self.levels:
            return {(): a} if a else {}
        out = {}
        for i, c in enumerate(a):
            for exps, r in self._sub._expand(c).items():
                out[exps + (i,)] = r
        return out

    def to_text(self, a):
        if not self.levels:
            return str(a)
        return self._text(self._expand(a))

    def _text(self, terms):
        """An expanded element as a polynomial in the level names."""
        k = len(self.levels)
        names = tuple(lv.name for lv in self.levels)
        order = TermOrder.elimination(k)  # the top level leads
        return to_text(Polynomial(self.prefix(0), k, terms), names, order)

    def coeff_text(self, a):
        """Parenthesized when it has more than one term; expanded once."""
        if not self.levels:
            return False, str(a)
        terms = self._expand(a)
        text = self._text(terms)
        return False, f"({text})" if len(terms) > 1 else text


def GF(p):
    """The prime field F_p as a zero-level tower."""
    return FieldTower(p)


@dataclass(frozen=True)
class FFElement:
    """A tower element bundled with its tower, for API boundaries and tests;
    its arithmetic is the tower's."""

    tower: FieldTower
    rep: object

    def __str__(self):
        return self.tower.to_text(self.rep)


def adjoin_root(tower, g):
    """Return (tower, root) for an irreducible g over the tower's top level.

    Degree-1 input yields its root in the unchanged tower; higher degrees
    go through ``extend``, checked, and the root is the new level's generator.
    """
    g = unipoly.trim(g, tower)
    if unipoly.deg(g) < 1:
        raise UsageError("cannot adjoin a root of a constant")
    if unipoly.deg(g) == 1:
        return _adjoin_irreducible(tower, unipoly.monic(g, tower))
    bigger = tower.extend(g)
    return bigger, FFElement(bigger, bigger.generator())


def _adjoin_irreducible(tower, g):
    """``adjoin_root`` for a monic g already known to be irreducible, such as
    a factor from ``unipoly.factor`` or the output of ``first_irreducible``:
    a new level is stacked without running ``is_irreducible`` again."""
    if unipoly.deg(g) == 1:
        return tower, FFElement(tower, tower.neg(g[0]))
    bigger = FieldTower._stack(tower, g)
    return bigger, FFElement(bigger, bigger.generator())


@dataclass(frozen=True)
class UnivariatePolyDomain(Domain):
    """K[x1] as a Euclidean coefficient domain; elements are dense tuples."""

    field: Field
    name: str = "x1"

    @property
    def tag(self):
        return f"{self.field.tag}[{self.name}]"

    @property
    def char(self):
        return self.field.char

    def zero(self):
        return ()

    def one(self):
        return (self.field.one(),)

    def from_int(self, n):
        return unipoly.constant(self.field.from_int(n), self.field)

    def add(self, a, b):
        return unipoly.add(a, b, self.field)

    def sub(self, a, b):
        return unipoly.sub(a, b, self.field)

    def mul(self, a, b):
        return unipoly.mul(a, b, self.field)

    def neg(self, a):
        return unipoly.neg(a, self.field)

    def is_one(self, a):
        return len(a) == 1 and self.field.is_one(a[0])

    def euclid_divmod(self, a, b):
        return unipoly.divmod_(a, b, self.field)

    def is_unit(self, a):
        return len(a) == 1

    def inv(self, a):
        if not self.is_unit(a):
            raise UsageError("only the nonzero constants of K[x1] are invertible")
        return (self.field.inv(a[0]),)

    def canonical_unit(self, a):
        """The unit u with a/u monic."""
        return unipoly.constant(unipoly.leading(a), self.field)

    def gcd(self, a, b):
        return unipoly.gcd(a, b, self.field)

    def xgcd(self, a, b):
        return unipoly.xgcd(a, b, self.field)

    def lcm(self, a, b):
        return unipoly.lcm(a, b, self.field)

    def exact_div(self, a, b):
        q, r = unipoly.divmod_(a, b, self.field)
        if r:
            raise UsageError("inexact division in a coefficient ring")
        return q

    def divides(self, d, a):
        if not d:
            return not a
        return unipoly.divides(d, a, self.field)

    def lift(self, a, src):
        if src == self:
            return a
        if isinstance(src, UnivariatePolyDomain):
            return tuple(self.field.lift(c, src.field) for c in a)
        raise UsageError(f"cannot lift elements of {src.tag} into {self.tag}")

    def to_text(self, a):
        return to_text(Polynomial.from_dense(self.field, 1, 0, a), (self.name,))

    def coeff_text(self, a):
        return False, f"({self.to_text(a)})"

    def sort_key(self, a):
        return (len(a), tuple(self.field.sort_key(c) for c in a))

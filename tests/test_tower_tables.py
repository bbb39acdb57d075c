"""Log/antilog/Zech tables of small towers against polynomial arithmetic.

``PolynomialTower`` is the textbook reference: at every level a product is
``unipoly.rem(unipoly.mul(a, b, below), minpoly, below)`` and a sum is
``unipoly.add``, over the reference of the level below, so no table is used
anywhere in it.  Orders up to 32 are checked on every pair of elements, larger
ones on Hypothesis samples.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbsolve import unipoly
from gbsolve.errors import InvariantViolation
from gbsolve.fields import GF, TABLE_MAX_ORDER, is_probable_prime


class PolynomialTower:
    """A tower's arithmetic with no tables at any level."""

    def __init__(self, tower):
        self.p = tower.p
        k = len(tower.levels)
        self.minpoly = tower.levels[-1].minpoly if k else None
        self.below = PolynomialTower(tower.prefix(k - 1)) if k else None

    def zero(self):
        return () if self.below else 0

    def one(self):
        return (self.below.one(),) if self.below else 1

    def is_one(self, a):
        return a == self.one()

    def add(self, a, b):
        return unipoly.add(a, b, self.below) if self.below else (a + b) % self.p

    def sub(self, a, b):
        return unipoly.sub(a, b, self.below) if self.below else (a - b) % self.p

    def neg(self, a):
        return unipoly.neg(a, self.below) if self.below else -a % self.p

    def mul(self, a, b):
        if not self.below:
            return a * b % self.p
        return unipoly.rem(unipoly.mul(a, b, self.below), self.minpoly, self.below)


def _stack(p, degrees):
    """GF(p) extended by first_irreducible levels of the given degrees."""
    tower = GF(p)
    for d in degrees:
        tower = tower.extend(unipoly.first_irreducible(d, tower))
    return tower


def _is_canonical(a, tower):
    """a is a trimmed nested tuple, with ints in [0, p) at the floor."""
    if not tower.levels:
        return isinstance(a, int) and 0 <= a < tower.p
    below = tower.prefix(len(tower.levels) - 1)
    return (
        isinstance(a, tuple)
        and len(a) <= tower.levels[-1].degree
        and (not a or bool(a[-1]))
        and all(_is_canonical(c, below) for c in a)
    )


def _check(tower, ref, a, b, c):
    """Every tabled operation on a, b agrees with the reference, every result
    is canonical, and a, b, c satisfy the field axioms."""
    pairs = [
        (tower.mul(a, b), ref.mul(a, b)),
        (tower.add(a, b), ref.add(a, b)),
        (tower.sub(a, b), ref.sub(a, b)),
        (tower.neg(a), ref.neg(a)),
    ]
    for got, want in pairs:
        assert got == want, (a, b)
        assert _is_canonical(got, tower), got
    if a:
        inverse = tower.inv(a)
        assert _is_canonical(inverse, tower), inverse
        assert ref.mul(a, inverse) == tower.mul(a, inverse) == tower.one()
    assert tower.add(a, tower.neg(a)) == tower.zero()
    assert tower.mul(a, tower.add(b, c)) == tower.add(tower.mul(a, b), tower.mul(a, c))


# (p, degrees of the levels).  Untabled tops multiply through
# unipoly.mul_mod: over the prime GF(32003), over an untabled GF(625), and,
# in the last tower, of order 625 over a tabled GF(25)
TOWERS = [
    (2, (2,)),
    (2, (3,)),
    (3, (2,)),
    (5, (2,)),
    (7, (2,)),
    (5, (3,)),
    (2, (8,)),
    (32003, (2,)),
    (5, (2, 2, 2)),
    (5, (2, 2)),
]
BUILT = [_stack(p, degrees) for p, degrees in TOWERS]
SMALL = [t for t in BUILT if t.order <= 32]
LARGE = [t for t in BUILT if t.order > 32]


def _ids(towers):
    return [f"GF({t.order})-{len(t.levels)}-level" for t in towers]


@pytest.mark.parametrize("tower", SMALL, ids=_ids(SMALL))
def test_small_towers_agree_on_every_pair(tower):
    ref = PolynomialTower(tower)
    elements = list(tower.elements())
    for a in elements:
        for i, b in enumerate(elements):
            _check(tower, ref, a, b, elements[(3 * i + 1) % len(elements)])


@pytest.mark.parametrize("tower", LARGE, ids=_ids(LARGE))
@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_larger_towers_agree_on_samples(tower, data):
    index = st.integers(0, tower.order - 1)
    a, b, c = (tower.element(data.draw(index)) for _ in range(3))
    _check(tower, PolynomialTower(tower), a, b, c)


def test_the_tower_of_order_625_is_untabled_over_a_tabled_level():
    tower = BUILT[-1]
    tower.mul(tower.one(), tower.one())
    assert tower.order > TABLE_MAX_ORDER and tower._log is False
    assert tower.prefix(1)._log  # its GF(25) level computes through tables


def _prime_powers(bound):
    """(p, k) with p prime, k >= 2 and p^k <= bound."""
    for p in range(2, bound):
        if is_probable_prime(p):
            k = 2
            while p**k <= bound:
                yield p, k
                k += 1


def _degree_chains(k):
    """Every ordered sequence of level degrees >= 2 with product k."""
    if k == 1:
        yield ()
    for d in range(2, k + 1):
        if k % d == 0:
            for rest in _degree_chains(k // d):
                yield (d,) + rest


def _multiplicative_order(a, ref):
    """The least k >= 1 with a^k = 1, by repeated reference products."""
    x, k = a, 1
    while not ref.is_one(x):
        x, k = ref.mul(x, a), k + 1
    return k


@pytest.mark.parametrize("p, k", list(_prime_powers(TABLE_MAX_ORDER)))
def test_every_order_up_to_the_bound_gets_tables(p, k):
    for degrees in _degree_chains(k):
        tower = _stack(p, degrees)
        assert tower._log, degrees  # built when the level was stacked
        assert len(tower._log) == tower.order - 1
        ref = PolynomialTower(tower)
        first = next(
            a
            for a in map(tower.element, range(1, tower.order))
            if _multiplicative_order(a, ref) == tower.order - 1
        )
        assert tower._exp[1] == first, degrees
        g = tower.generator()
        assert tower.mul(g, g) == ref.mul(g, g)


# reducible levels over F3, each with a zero divisor of the quotient ring
REDUCIBLE = [
    # x^2 + 2 = (x - 1)(x + 1); t1 - 1
    pytest.param((2, 0, 1), (2, 1), id="GF(9)-split"),
    # (x^2 + 1)^2 and (x^2 + 1)(x^2 + x + 2), both rootless; t1^2 + 1
    pytest.param((1, 0, 2, 0, 1), (1, 0, 1), id="GF(81)-square"),
    pytest.param((2, 1, 0, 1, 1), (1, 0, 1), id="GF(81)-product"),
]


@pytest.mark.parametrize("minpoly, zero_divisor", REDUCIBLE)
def test_a_reducible_level_keeps_polynomial_arithmetic(monkeypatch, minpoly, zero_divisor):
    # only reachable when a reducible minimal polynomial slips past the check
    monkeypatch.setattr(unipoly, "is_irreducible", lambda f, F: True)
    bad = GF(3).extend(minpoly)
    assert bad._log is False  # the walk found no generator
    ref = PolynomialTower(bad)
    elements = list(bad.elements())
    stride = 1 if len(elements) < 81 else 9  # every pair at order 9, a ninth at 81
    for i, a in enumerate(elements):
        for b in elements[i % stride :: stride]:
            assert bad.mul(a, b) == ref.mul(a, b)
            assert bad.add(a, b) == ref.add(a, b)
            assert bad.sub(a, b) == ref.sub(a, b)
        assert bad.neg(a) == ref.neg(a)
    with pytest.raises(InvariantViolation, match="shares a factor"):
        bad.inv(zero_divisor)

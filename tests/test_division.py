"""Differential tests for division on seeded random inputs.

``groebner._divide`` is one loop for every coefficient domain.  It takes
terms from a lazily pruned heap and picks its arithmetic once per call:
inline ints mod p over a prime field (GF5, GF32003), the domain's methods
over a tower (GF49), QQ and K[x1].  Each result must satisfy
f = sum(cof * g) + r, leave no reducible term in r, and agree exactly with
the textbook loops below, which rescan the whole remaining polynomial for
its leading term at every step.  Over a field the two textbook loops agree
with each other as well.
"""

import random

import pytest

from corpus import exp_divides, exp_sub, random_poly, random_poly_q
from gbsolve import euclidean, groebner
from gbsolve.fields import GF, QQ, FieldTower, UnivariatePolyDomain
from gbsolve.poly import Polynomial, TermOrder

F5 = GF(5)
F32003 = GF(32003)  # coefficients far above 5, non-monic divisors
F49 = GF(7).extend((1, 0, 1))  # t^2 + 1 has no root mod 7

ORDERS = [
    TermOrder.lex(3),
    TermOrder.lex(3, (2, 0, 1)),
    TermOrder.weighted((1, 1, 1)),
    TermOrder.weighted((2, 1, 3), (1, 2, 0)),
]


def _naive_divide(f, basis, order):
    """Field division: take the leading term, reduce by the first divisor."""
    dom, n = f.domain, f.nvars
    p = f
    remainder = Polynomial.zero(dom, n)
    cofs = [Polynomial.zero(dom, n) for _ in basis]
    while not p.is_zero():
        lt = p.leading(order)
        for idx, g in enumerate(basis):
            lg = g.leading(order)
            if exp_divides(lg.exponents, lt.exponents):
                q = Polynomial.term(
                    dom,
                    n,
                    dom.div(lt.coefficient, lg.coefficient),
                    exp_sub(lt.exponents, lg.exponents),
                )
                p = p - q * g
                cofs[idx] = cofs[idx] + q
                break
        else:
            head = Polynomial.term(dom, n, lt.coefficient, lt.exponents)
            remainder = remainder + head
            p = p - head
    return remainder, tuple(cofs)


def _naive_strong_divide(f, basis, order):
    """Strong division: reduce the leading coefficient by the first divisor
    with a nonzero Euclidean quotient until none is left."""
    dom, n = f.domain, f.nvars
    p = f
    remainder = Polynomial.zero(dom, n)
    cofs = [Polynomial.zero(dom, n) for _ in basis]
    while not p.is_zero():
        lt = p.leading(order)
        for idx, g in enumerate(basis):
            lg = g.leading(order)
            if exp_divides(lg.exponents, lt.exponents):
                quot, _ = dom.euclid_divmod(lt.coefficient, lg.coefficient)
                if quot:
                    q = Polynomial.term(dom, n, quot, exp_sub(lt.exponents, lg.exponents))
                    p = p - q * g
                    cofs[idx] = cofs[idx] + q
                    break
        else:
            head = Polynomial.term(dom, n, lt.coefficient, lt.exponents)
            remainder = remainder + head
            p = p - head
    return remainder, tuple(cofs)


def _combination(cofs, basis, remainder):
    total = remainder
    for c, g in zip(cofs, basis):
        total = total + c * g
    return total


def _random_problem(rng, maker, nbasis):
    f = maker(rng, 4, 6)
    basis = []
    while len(basis) < nbasis:
        g = maker(rng, 2, 3)
        if not g.is_zero():
            basis.append(g)
    return f, basis


FIELD_MAKERS = pytest.mark.parametrize(
    "maker",
    [
        lambda rng, d, t: random_poly(rng, F5, 3, d, t),
        lambda rng, d, t: random_poly(rng, F32003, 3, d, t),
        lambda rng, d, t: random_poly(rng, F49, 3, d, t),
        lambda rng, d, t: random_poly_q(rng, QQ, 3, d, t),
    ],
    ids=["GF5", "GF32003", "GF49", "QQ"],
)


@FIELD_MAKERS
def test_field_division_matches_the_textbook_loop(maker):
    rng = random.Random(20240)
    for trial in range(60):
        order = ORDERS[trial % len(ORDERS)]
        f, basis = _random_problem(rng, maker, 1 + trial % 4)
        r, cofs = groebner.reduce(f, basis, order)
        assert _combination(cofs, basis, r) == f
        leads = [g.leading(order).exponents for g in basis]
        assert not any(exp_divides(lt, t) for t in r.coeffs for lt in leads)
        assert (r, cofs) == _naive_divide(f, basis, order)
        assert groebner.normal_form(f, basis, order) == r


@FIELD_MAKERS
def test_textbook_strong_division_is_field_division_over_a_field(maker):
    rng = random.Random(20241)
    for trial in range(60):
        order = ORDERS[trial % len(ORDERS)]
        f, basis = _random_problem(rng, maker, 1 + trial % 4)
        assert _naive_strong_divide(f, basis, order) == _naive_divide(f, basis, order)


def test_strong_division_matches_the_textbook_loop():
    dom = UnivariatePolyDomain(F5)
    rng = random.Random(7)

    def maker(rng, d, t):
        return euclidean.to_coeff_view(random_poly(rng, F5, 3, d, t))

    orders = [TermOrder.lex(2), TermOrder.lex(2, (1, 0)), TermOrder.weighted((1, 2))]
    for trial in range(80):
        order = orders[trial % len(orders)]
        f, basis = _random_problem(rng, maker, 1 + trial % 4)
        r, cofs = groebner.reduce(f, basis, order)
        assert _combination(cofs, basis, r) == f
        for t, c in r.coeffs.items():
            for g in basis:
                lg = g.leading(order)
                if exp_divides(lg.exponents, t):
                    quot, _ = dom.euclid_divmod(c, lg.coefficient)
                    assert not quot
        assert (r, cofs) == _naive_strong_divide(f, basis, order)
        assert groebner.normal_form(f, basis, order) == r


def test_prime_field_division_makes_no_domain_calls(monkeypatch):
    # over GF(p) division does its coefficient arithmetic inline mod p; the
    # calls are counted inside _divide only
    inside, divisions, calls = [False], [], []
    for name in ("mul", "sub", "euclid_divmod"):
        method = getattr(FieldTower, name)

        def counting(self, *args, _name=name, _method=method):
            if inside[0]:
                calls.append(_name)
            return _method(self, *args)

        monkeypatch.setattr(FieldTower, name, counting)
    divide = groebner._divide

    def counted_divide(*args):
        divisions.append(1)
        inside[0] = True
        try:
            return divide(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(groebner, "_divide", counted_divide)

    def maker(rng, d, t):
        return random_poly(rng, F32003, 3, d, t)

    rng = random.Random(20242)
    for trial in range(8):
        f, basis = _random_problem(rng, maker, 1 + trial % 4)
        r, cofs = groebner.reduce(f, basis, ORDERS[trial % len(ORDERS)])
        assert _combination(cofs, basis, r) == f
    assert len(divisions) == 8 and calls == []

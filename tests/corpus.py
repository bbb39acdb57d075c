"""Shared test helpers: seeded random generators, brute-force oracles and the
plain references that kernel arithmetic is checked against."""

import itertools
import random
from fractions import Fraction
from unittest import mock

from gbsolve import unipoly
from gbsolve.errors import SpecializationError, UsageError
from gbsolve.fields import FFElement
from gbsolve.groebner import member
from gbsolve.poly import Polynomial


# Tuple references for the packed exponent arithmetic of gbsolve.poly.
def exp_sub(s, t):
    return tuple(a - b for a, b in zip(s, t))


def exp_lcm(s, t):
    return tuple(max(a, b) for a, b in zip(s, t))


def exp_divides(s, t):
    """True when the term with exponents s divides the term with exponents t."""
    return all(a <= b for a, b in zip(s, t))


def poly_pow(f, e, F):
    """f**e of a dense univariate tuple by squaring, e >= 0."""
    return unipoly.power(f, e, lambda g, h: unipoly.mul(g, h, F), unipoly.one(F))


def horner_specialize(basis, a):
    """The elements of ``euclidean.specialize_basis(basis, a)`` by its own
    loop: every K[x1] coefficient lifted into the point's field and evaluated
    by Horner's rule (``unipoly.evaluate``)."""
    field = target = basis.domain.field
    if isinstance(a, FFElement):
        target, a = a.tower, a.rep
    out = []
    for g in basis.elements:
        terms = {}
        for exps, cs in g.coeffs.items():
            lifted = tuple(target.lift(c, field) for c in cs)
            terms[exps] = unipoly.evaluate(lifted, a, target)
        h = Polynomial(target, basis.nvars, terms)
        if g.leading(basis.order).exponents not in h.coeffs:
            raise SpecializationError("the point is a root of a leading coefficient")
        out.append(h)
    out.sort(key=lambda g: basis.order.key(g.leading(basis.order).exponents), reverse=True)
    return tuple(out)


def split_stream(seed):
    """A context in which ``unipoly.edf`` draws its random splits from
    ``random.Random(seed)`` instead of the ``random.Random(0)`` it makes."""
    real = random.Random
    return mock.patch.object(unipoly.random, "Random", lambda _: real(seed))


def reference_factor(f, F):
    """factor's answer through sqf_list, ddf and edf alone, with no square-root
    split of quadratics: the reference for unipoly.factor."""
    out = []
    for g, e in unipoly.sqf_list(f, F):
        for part, d in unipoly.ddf(g, F):
            for irr in unipoly.edf(part, d, F):
                out.append((unipoly.monic(irr, F), e))
    return sorted(out, key=lambda ge: unipoly.factor_key(ge[0], F))


def constant_value(f):
    """The constant term of a constant polynomial."""
    if f.is_zero():
        return f.domain.zero()
    if not f.is_constant():
        raise UsageError("polynomial is not constant")
    return f.coeffs[(0,) * f.nvars]


def total_degree(f):
    """The largest total degree of a term of f, -1 for zero."""
    if not f.coeffs:
        return -1
    return max(sum(exps) for exps in f.coeffs)


def exponent_tuples(nvars, max_total):
    """All exponent tuples with the given total-degree cap, a fixed list."""
    return [
        e
        for e in itertools.product(range(max_total + 1), repeat=nvars)
        if sum(e) <= max_total
    ]


def random_poly(rng, field, nvars, max_total=2, max_terms=3):
    """Random polynomial over a finite tower; may come out zero."""
    candidates = exponent_tuples(nvars, max_total)
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        exps = candidates[rng.randrange(len(candidates))]
        c = field.element(rng.randrange(field.order))
        if not c:
            terms.pop(exps, None)
        else:
            terms[exps] = c
    return Polynomial(field, nvars, terms)


def random_poly_q(rng, domain, nvars, max_total=2, max_terms=3):
    """Random polynomial over the rationals with small coefficients."""
    candidates = exponent_tuples(nvars, max_total)
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        exps = candidates[rng.randrange(len(candidates))]
        c = Fraction(rng.randrange(-4, 5), rng.randrange(1, 5))
        if c:
            terms[exps] = c
        else:
            terms.pop(exps, None)
    return Polynomial(domain, nvars, terms)


def random_unipoly(rng, field, max_deg=3, monic=False, nonzero=True):
    """Random dense univariate tuple over a finite tower."""
    while True:
        deg = rng.randrange(max_deg + 1)
        coeffs = [field.element(rng.randrange(field.order)) for _ in range(deg)]
        top = (
            field.one()
            if monic
            else field.element(rng.randrange(1, field.order))
        )
        f = tuple(coeffs) + (top,)
        if len(f) == 1 and not f[0]:
            f = ()
        if f or not nonzero:
            return f


def textbook_divmod(f, g, F):
    """Long division multiplying by the inverse of g's leading coefficient at
    every step, whether g is monic or not; the reference for fast paths."""
    lead_inv = F.inv(g[-1])
    rem = list(f)
    quo = [F.zero()] * max(len(f) - len(g) + 1, 0)
    for i in range(len(f) - len(g), -1, -1):
        q = F.mul(rem[i + len(g) - 1], lead_inv)
        quo[i] = q
        for j, b in enumerate(g):
            rem[i + j] = F.sub(rem[i + j], F.mul(q, b))
    return unipoly.trim(quo, F), unipoly.trim(rem, F)


def common_zeros(gens, tower, nvars):
    """Every point of tower**nvars where all generators vanish; exhaustive."""
    hits = []
    for point in itertools.product(list(tower.elements()), repeat=nvars):
        if not any(g.evaluate(list(point), tower) for g in gens):
            hits.append(point)
    return hits


def ideals_equal(left, right):
    """Equality by mutual generator membership."""
    return all(member(g, right) for g in left.gens) and all(
        member(g, left) for g in right.gens
    )

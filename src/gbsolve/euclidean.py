"""Strong Groebner bases over the Euclidean coefficient ring K[x1].

Polynomials here live in K[x1][x2..xn]: ordinary sparse polynomials whose
coefficient domain is UnivariatePolyDomain(K).  Division, S- and
G-polynomials, completion and ``certify_basis`` are the ones in
``groebner``, which work over any Euclidean coefficient domain: a monomial
c*t is rewritten by g only when the term of lm(g) divides t and the
Euclidean quotient of c by the coefficient of lm(g) is nonzero, so remainder
coefficients end up reduced modulo every applicable leading coefficient.
Completion over K[x1] processes S-polynomials (cancelling leading terms
through the coefficient lcm) and G-polynomials (combining leading
coefficients into their gcd); that pairing is what makes the resulting
leading-monomial set strong.  Specialization evaluates x1 at a point off the
leading-coefficient locus.
"""

from __future__ import annotations

from . import unipoly
from .errors import SpecializationError, UsageError
from .fields import UnivariatePolyDomain
from .groebner import StrongBasis, _complete, _ring
from .poly import Polynomial, dense


def to_coeff_view(p, name="x1"):
    """Regroup a field polynomial so x1 moves into the coefficients."""
    if not p.domain.is_field:
        raise UsageError("the coefficient view starts from field coefficients")
    if p.nvars < 1:
        raise UsageError("no variable available to absorb")
    dom = UnivariatePolyDomain(p.domain, name)
    groups = {}
    for exps, c in p.coeffs.items():
        groups.setdefault(exps[1:], {})[exps[0]] = c
    zero = p.domain.zero()
    out = {rest: dense(terms, zero) for rest, terms in groups.items()}
    return Polynomial(dom, p.nvars - 1, out)


def from_coeff_view(p):
    """Inverse of to_coeff_view; x1 returns as the first variable."""
    dom = p.domain
    if not isinstance(dom, UnivariatePolyDomain):
        raise UsageError("expected a polynomial over K[x1]")
    field = dom.field
    out = {}
    for rest, cs in p.coeffs.items():
        for e, c in enumerate(cs):
            out[(e,) + rest] = c  # the constructor drops zeros
    return Polynomial(field, p.nvars + 1, out)


def strong_buchberger(gens, order=None, *, domain=None, nvars=None):
    """Strong basis over K[x1], from the completion engine in ``groebner``."""
    gens = list(gens)
    domain, nvars = _ring(gens, domain, nvars)
    if not isinstance(domain, UnivariatePolyDomain):
        raise UsageError("strong_buchberger expects K[x1] coefficients")
    return _complete(gens, order, domain, nvars, False)


def specialization_locus(basis):
    """Product of the basis's leading coefficients, monic, as a K polynomial."""
    dom = basis.domain
    if not isinstance(dom, UnivariatePolyDomain):
        raise UsageError("specialization locus needs a K[x1] basis")
    field = dom.field
    acc = unipoly.one(field)
    for g in basis.elements:
        acc = unipoly.mul(acc, g.leading(basis.order).coefficient, field)
    return Polynomial.from_dense(field, 1, 0, unipoly.monic(acc, field))


def specialize_basis(basis, a, tower=None):
    """Evaluate x1 at a point off the locus; the result is still a strong basis.

    The image of each leading coefficient is nonzero, so leading terms and
    the vanishing of every S- and G-polynomial reduction carry over without
    another completion run.  ``a`` is an element of ``tower`` (by default K
    itself), a tower over K, and the result lies over that tower.
    """
    dom = basis.domain
    if not isinstance(dom, UnivariatePolyDomain):
        raise UsageError("specialization needs a K[x1] basis")
    if tower is None:
        tower = dom.field
    out = []
    for g in basis.elements:
        h = from_coeff_view(g).evaluate_x1(a, tower)
        if g.leading(basis.order).exponents not in h.coeffs:
            raise SpecializationError(
                "the point is a root of a leading coefficient (locus vanishes)"
            )
        out.append(h)
    out.sort(key=lambda g: basis.order.key(g.leading(basis.order).exponents), reverse=True)
    return StrongBasis(tuple(out), basis.order, tower, basis.nvars)

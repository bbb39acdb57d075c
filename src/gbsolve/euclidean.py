"""Strong Groebner bases over the Euclidean coefficient ring K[x1].

Polynomials here live in K[x1][x2..xn]: ordinary sparse polynomials whose
coefficient domain is UnivariatePolyDomain(K).  Reduction, S- and
G-polynomials and ``certify_basis`` are the ones in ``groebner``, which work
over any Euclidean coefficient domain: a monomial c*t is rewritten by g only
when the term of lm(g) divides t and the Euclidean quotient of c by the
coefficient of lm(g) is nonzero, so remainder coefficients end up reduced
modulo every applicable leading coefficient.  Completion here processes both
S-polynomials (cancelling leading terms through the coefficient lcm) and
G-polynomials (combining leading coefficients into their gcd); that pairing
is what makes the resulting leading-monomial set strong.  Specialization
evaluates x1 at a point off the leading-coefficient locus.
"""

from __future__ import annotations

from heapq import heappop, heappush

from . import unipoly
from .errors import InvariantViolation, SpecializationError, UsageError
from .fields import FFElement, UnivariatePolyDomain
from .groebner import StrongBasis, _divide, _gpoly, _leading, _ring, _spoly
from .poly import Polynomial, TermOrder, exp_divides, exp_lcm


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
    out = {}
    for rest, dense in groups.items():
        cs = [p.domain.zero()] * (max(dense) + 1)
        for e, c in dense.items():
            cs[e] = c
        out[rest] = tuple(cs)
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
            if not field.is_zero(c):
                out[(e,) + rest] = c
    return Polynomial(field, p.nvars + 1, out)


def normalize_leading_unit(f, order):
    """Scale by a unit of K[x1] so the leading coefficient is monic."""
    m = f.leading(order)
    unit = f.domain.canonical_unit(m.coefficient)
    field = f.domain.field
    return f.scaled(unipoly.constant(field.inv(unipoly.leading(unit)), field))


def _lead_divides(dom, lead_a, lead_b):
    (ta, ca), (tb, cb) = lead_a, lead_b
    return exp_divides(ta, tb) and dom.divides(ca, cb)


def strong_buchberger(gens, order=None, *, domain=None, nvars=None):
    """Strong basis over K[x1]; S- and G-pairs are all processed, no skips."""
    gens = list(gens)
    domain, nvars = _ring(gens, domain, nvars)
    if not isinstance(domain, UnivariatePolyDomain):
        raise UsageError("strong_buchberger expects K[x1] coefficients")
    if order is None:
        order = TermOrder.lex(nvars)
    if order.nvars != nvars:
        raise UsageError("order does not match the variable count")

    basis = []
    lead = []
    queue = []  # (order key of the lcm, kind, i, j); kind 0 is S, 1 is G

    def push(f):
        f = normalize_leading_unit(f, order)
        f_lead = _leading(f, order)
        j = len(basis)
        for i in range(j):
            k = order.key(exp_lcm(lead[i][0], f_lead[0]))
            heappush(queue, (k, 0, i, j))
            heappush(queue, (k, 1, i, j))
        basis.append(f)
        lead.append(f_lead)

    for g in gens:
        if not g.is_zero():
            push(g)

    while queue:
        _, kind, i, j = heappop(queue)
        make = _spoly if kind == 0 else _gpoly
        candidate = make(basis[i], lead[i], basis[j], lead[j])
        if candidate.is_zero():
            continue
        r = _divide(candidate, basis, lead, order, False)[0]
        if not r.is_zero():
            push(r)

    # conservative minimalization: drop g only when another leading monomial
    # strongly divides lm(g) and g still reduces to zero without it
    elems = list(basis)
    changed = True
    while changed:
        changed = False
        ranked = sorted(
            range(len(elems)),
            key=lambda k: _canonical_key(lead[k], domain, order),
            reverse=True,
        )
        for k in ranked:
            rest = elems[:k] + elems[k + 1 :]
            rest_lead = lead[:k] + lead[k + 1 :]
            covered = any(_lead_divides(domain, h, lead[k]) for h in rest_lead)
            if covered and _divide(
                elems[k], rest, rest_lead, order, False
            )[0].is_zero():
                elems.pop(k)
                lead.pop(k)
                changed = True
                break

    # inter-reduce, but only against unit-coefficient divisors so the
    # strong-basis property survives
    changed = True
    while changed:
        changed = False
        for k in range(len(elems)):
            others = [
                idx
                for idx in range(len(elems))
                if idx != k and domain.is_unit(lead[idx][1])
            ]
            if not others:
                continue
            reducers = [elems[idx] for idx in others]
            reducer_lead = [lead[idx] for idx in others]
            r = _divide(elems[k], reducers, reducer_lead, order, False)[0]
            if r != elems[k]:
                if r.is_zero():
                    raise InvariantViolation(
                        "minimal strong basis elements cannot vanish"
                    )
                elems[k] = normalize_leading_unit(r, order)
                lead[k] = _leading(elems[k], order)
                changed = True

    ranked = sorted(
        range(len(elems)),
        key=lambda k: _canonical_key(lead[k], domain, order),
        reverse=True,
    )
    elems = tuple(elems[k] for k in ranked)
    return StrongBasis(elems, order, domain, nvars)


def _canonical_key(g_lead, domain, order):
    exps, coeff = g_lead
    return (order.key(exps), domain.sort_key(coeff))


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


def specialize_basis(basis, a, target=None):
    """Evaluate x1 at a point off the locus; the result is still a strong basis.

    The image of each leading coefficient is nonzero, so leading terms and
    the vanishing of every S- and G-polynomial reduction carry over without
    another completion run.
    """
    dom = basis.domain
    if not isinstance(dom, UnivariatePolyDomain):
        raise UsageError("specialization needs a K[x1] basis")
    field = dom.field
    if isinstance(a, FFElement):
        if target is None:
            target = a.tower
        a = a.rep
    if target is None:
        target = field
    out = []
    for g in basis.elements:
        lead = g.leading(basis.order).coefficient
        lifted = tuple(target.lift(c, field) for c in lead)
        if target.is_zero(unipoly.evaluate(lifted, a, target)):
            raise SpecializationError(
                "the point is a root of a leading coefficient (locus vanishes)"
            )
    for g in basis.elements:
        terms = {}
        for exps, cs in g.coeffs.items():
            lifted = tuple(target.lift(c, field) for c in cs)
            val = unipoly.evaluate(lifted, a, target)
            if not target.is_zero(val):
                terms[exps] = val
        out.append(Polynomial(target, basis.nvars, terms))
    out.sort(key=lambda g: basis.order.key(g.leading(basis.order).exponents), reverse=True)
    return StrongBasis(tuple(out), basis.order, target, basis.nvars)

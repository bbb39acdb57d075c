"""Division, S- and G-polynomials and Buchberger's algorithm.

Division, the pair polynomials and ``certify_basis`` work over any Euclidean
coefficient domain: a field (where every Euclidean remainder is zero) or
K[x1] (see ``euclidean``).  Division tracks cofactors so every reduction
yields an exact combination identity; Buchberger, which needs field
coefficients, can additionally track how each basis element was assembled
from the input generators, which is how triviality certificates are
produced.  Reduced bases are monic, inter-reduced and sorted with the
largest leading term first, so equal ideals print identically.

1 lies in an ideal exactly when its reduced basis is {1}, under any term
order, so ``is_trivial`` reads the verdict from whichever basis an ``Ideal``
has cached and otherwise computes the one under ``TermOrder.elimination``,
which ``eliminate_to_x1`` needs anyway.  A certificate comes from a tracked
lex run, made only for a trivial ideal.

Each term order key is computed once.  Division keeps the live terms of the
dividend in a max-heap keyed when a term first appears, and drops an entry
whose term has cancelled when it reaches the top; since reduction only adds
terms below the current one, terms are taken in strictly descending order.
Completion keys each pair (key of the lcm, i, j) once, when the later basis
element is added, and reduces pairs smallest lcm first from a heap.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from . import unipoly
from .errors import InvariantViolation, UsageError
from .poly import (
    Polynomial,
    TermOrder,
    exp_add,
    exp_divides,
    exp_lcm,
    exp_sub,
    heap_entry,
)


@dataclass(frozen=True)
class StrongBasis:
    """A computed basis plus the order it was computed under.

    ``lineage`` is present on tracked runs: one cofactor vector per element,
    expressing it in terms of the original generators.
    """

    elements: tuple
    order: TermOrder
    domain: object
    nvars: int
    lineage: tuple = None


def _ring(gens, domain, nvars):
    """The (domain, nvars) every generator shares; an empty list needs both."""
    for g in gens:
        if domain is None:
            domain, nvars = g.domain, g.nvars
        elif g.domain != domain or g.nvars != nvars:
            raise UsageError("generators disagree on domain or variables")
    if domain is None:
        raise UsageError("an empty ideal needs an explicit domain and nvars")
    return domain, nvars


def _leading(f, order):
    m = f.leading(order)
    return m.exponents, m.coefficient


def _leads(basis, order):
    """Leading (exponents, coefficient) of each divisor; rejects zero."""
    lead = []
    for g in basis:
        if g.is_zero():
            raise UsageError("division by a basis containing zero")
        lead.append(_leading(g, order))
    return lead


def _divide(f, basis, lead, order, want_cofs):
    """Strong division of f by the basis whose leading terms are ``lead``.

    A term c*t meets the divisors in order; at each one whose leading term
    divides t, c is replaced by its Euclidean remainder modulo the leading
    coefficient and the quotient times the shifted divisor is subtracted.
    Over a field the first such divisor leaves remainder zero.  Over K[x1] a
    remainder has lower degree than every leading coefficient passed over
    with quotient zero, so one pass leaves c reduced modulo all of them.

    Live terms wait in a max-heap, keyed once when they enter ``work``; a
    term that cancelled since is skipped when its entry surfaces.  Every new
    term lies below the one being reduced, so the heap yields the terms in
    strictly descending order.
    """
    dom = f.domain
    work = dict(f.coeffs)
    heap = [heap_entry(order, t) for t in work]
    heapify(heap)
    remainder = {}
    cofs = [dict() for _ in basis] if want_cofs else None
    while heap:
        t = heappop(heap)[1]
        c = work.pop(t, None)
        if c is None:
            continue
        for idx, (lexp, lc) in enumerate(lead):
            if not exp_divides(lexp, t):
                continue
            u, c = dom.euclid_divmod(c, lc)
            if not dom.is_zero(u):
                m = exp_sub(t, lexp)
                for s, cs in basis[idx].coeffs.items():
                    if s == lexp:
                        continue
                    key = exp_add(s, m)
                    old = work.get(key)
                    nv = dom.sub(dom.zero() if old is None else old, dom.mul(u, cs))
                    if dom.is_zero(nv):
                        work.pop(key, None)
                    else:
                        if old is None:
                            heappush(heap, heap_entry(order, key))
                        work[key] = nv
                if want_cofs:
                    cofs[idx][m] = dom.add(cofs[idx].get(m, dom.zero()), u)
            if dom.is_zero(c):
                break
        else:
            remainder[t] = c
    rem = Polynomial(dom, f.nvars, remainder)
    if not want_cofs:
        return rem, None
    return rem, tuple(Polynomial(dom, f.nvars, c) for c in cofs)


def reduce(f, basis, order=None):
    """Remainder and cofactors with f = sum(cof * g) + remainder exactly."""
    if order is None:
        order = TermOrder.lex(f.nvars)
    basis = list(basis)
    return _divide(f, basis, _leads(basis, order), order, True)


def normal_form(f, basis, order=None):
    """Remainder of f on division by the basis, without cofactor bookkeeping."""
    if order is None:
        order = TermOrder.lex(f.nvars)
    basis = list(basis)
    return _divide(f, basis, _leads(basis, order), order, False)[0]


def spoly(f, g, order):
    """S-polynomial through the coefficient lcm; leading monomials cancel."""
    return _spoly(f, _leading(f, order), g, _leading(g, order))


def gpoly(f, g, order):
    """G-polynomial: leading coefficients combine into their gcd."""
    return _gpoly(f, _leading(f, order), g, _leading(g, order))


def _spoly(f, f_lead, g, g_lead):
    (fe, fc), (ge, gc) = f_lead, g_lead
    dom = f.domain
    t = exp_lcm(fe, ge)
    l = dom.lcm(fc, gc)
    return f.mul_monomial(dom.exact_div(l, fc), exp_sub(t, fe)) - g.mul_monomial(
        dom.exact_div(l, gc), exp_sub(t, ge)
    )


def _gpoly(f, f_lead, g, g_lead):
    (fe, fc), (ge, gc) = f_lead, g_lead
    dom = f.domain
    t = exp_lcm(fe, ge)
    _, u, v = dom.xgcd(fc, gc)
    return f.mul_monomial(u, exp_sub(t, fe)) + g.mul_monomial(v, exp_sub(t, ge))


def buchberger(gens, order=None, *, track=False, domain=None, nvars=None):
    """Reduced Groebner basis; with track=True, lineage over the input is kept."""
    gens = list(gens)
    domain, nvars = _ring(gens, domain, nvars)
    if not domain.is_field:
        raise UsageError("buchberger needs field coefficients")
    if order is None:
        order = TermOrder.lex(nvars)
    if order.nvars != nvars:
        raise UsageError("order does not match the variable count")

    basis = []
    lts = []
    lead = []  # (lt, 1): every basis element is monic
    lineage = []
    pending = set()
    queue = []  # (order key of the lcm, i, j, lcm), smallest first
    one = domain.one()

    def push(f, vec):
        lexp, lc = _leading(f, order)
        inv = domain.inv(lc)
        f = f.scaled(inv)
        if track:
            vec = tuple(v.scaled(inv) for v in vec)
        j = len(basis)
        for i in range(j):
            lcm = exp_lcm(lts[i], lexp)
            heappush(queue, (order.key(lcm), i, j, lcm))
            pending.add((i, j))
        basis.append(f)
        lts.append(lexp)
        lead.append((lexp, one))
        lineage.append(vec)

    zero = Polynomial.zero(domain, nvars)
    for k, g in enumerate(gens):
        if g.is_zero():
            continue
        vec = None
        if track:
            vec = tuple(
                Polynomial.constant(domain, nvars, one) if m == k else zero
                for m in range(len(gens))
            )
        push(g, vec)

    while queue:
        _, i, j, lcm_ij = heappop(queue)
        pending.discard((i, j))
        if lcm_ij == exp_add(lts[i], lts[j]):
            continue  # disjoint leading terms: S-polynomial reduces to zero
        skip = False
        for k in range(len(basis)):
            if k in (i, j) or not exp_divides(lts[k], lcm_ij):
                continue
            a = (min(i, k), max(i, k))
            b = (min(j, k), max(j, k))
            if a not in pending and b not in pending:
                skip = True
                break
        if skip:
            continue
        ui = exp_sub(lcm_ij, lts[i])
        uj = exp_sub(lcm_ij, lts[j])
        s = basis[i].mul_monomial(one, ui) - basis[j].mul_monomial(one, uj)
        r, cofs = _divide(s, basis, lead, order, track)
        if r.is_zero():
            continue
        vec = None
        if track:
            vec = [
                a.mul_monomial(one, ui) - b.mul_monomial(one, uj)
                for a, b in zip(lineage[i], lineage[j])
            ]
            for m, cof in enumerate(cofs):
                if cof.is_zero():
                    continue
                vec = [v - cof * lv for v, lv in zip(vec, lineage[m])]
            vec = tuple(vec)
        push(r, vec)

    # minimal basis: drop any element whose leading term another covers
    keep = []
    for idx in sorted(range(len(basis)), key=lambda k: (order.key(lts[k]), k)):
        if not any(exp_divides(lts[k], lts[idx]) for k in keep):
            keep.append(idx)

    final = [basis[k] for k in keep]
    final_lead = [lead[k] for k in keep]
    final_lin = [lineage[k] for k in keep] if track else None
    changed = True
    while changed:
        changed = False
        for idx in range(len(final)):
            others = final[:idx] + final[idx + 1 :]
            if not others:
                continue
            other_lead = final_lead[:idx] + final_lead[idx + 1 :]
            r, cofs = _divide(final[idx], others, other_lead, order, track)
            if r == final[idx]:
                continue
            changed = True
            if r.is_zero():
                raise InvariantViolation("minimal basis elements cannot vanish")
            lexp, lc = _leading(r, order)
            inv = domain.inv(lc)
            final[idx] = r.scaled(inv)
            final_lead[idx] = (lexp, one)
            if track:
                vec = list(final_lin[idx])
                other_lin = final_lin[:idx] + final_lin[idx + 1 :]
                for cof, lv in zip(cofs, other_lin):
                    if cof.is_zero():
                        continue
                    vec = [v - cof * l for v, l in zip(vec, lv)]
                final_lin[idx] = tuple(v.scaled(inv) for v in vec)

    ranked = sorted(
        range(len(final)), key=lambda k: order.key(final_lead[k][0]), reverse=True
    )
    elements = tuple(final[k] for k in ranked)
    lin = tuple(final_lin[k] for k in ranked) if track else None
    return StrongBasis(elements, order, domain, nvars, lineage=lin)


def certify_basis(elements, order):
    """Re-reduce every S- and G-polynomial from scratch; all must vanish.

    Over a field a G-polynomial is a monomial multiple of one element, so
    only the S-polynomials can fail; over K[x1] both kinds are needed for a
    strong basis.
    """
    elements = list(elements)
    lead = _leads(elements, order)
    for i in range(len(elements)):
        for j in range(i + 1, len(elements)):
            for make in (_spoly, _gpoly):
                c = make(elements[i], lead[i], elements[j], lead[j])
                if c.is_zero():
                    continue
                if not _divide(c, elements, lead, order, False)[0].is_zero():
                    return False
    return True


class Ideal:
    """A generator list with cached Groebner bases, one per term order."""

    def __init__(self, gens, domain=None, nvars=None):
        self.gens = tuple(gens)
        self.domain, self.nvars = _ring(self.gens, domain, nvars)
        self._bases = {}

    def groebner(self, order=None, track=False):
        if order is None:
            order = TermOrder.lex(self.nvars)
        hit = self._bases.get(order)
        if hit is not None and (hit.lineage is not None or not track):
            return hit
        computed = buchberger(
            self.gens, order, track=track, domain=self.domain, nvars=self.nvars
        )
        self._bases[order] = computed
        return computed

    def cached_basis(self):
        """Some basis computed so far, under any order, or None."""
        return next(iter(self._bases.values()), None)

    def __repr__(self):
        return f"Ideal({len(self.gens)} gens over {self.domain.tag})"


@dataclass(frozen=True)
class Triviality:
    """Answer to 'is this the unit ideal', with a certificate when it is."""

    trivial: bool
    certificate: tuple = None

    def __bool__(self):
        return self.trivial


def is_trivial(ideal):
    """Decide whether 1 lies in the ideal; on yes, certify 1 = sum(c_i * gen_i).

    1 lies in the ideal exactly when its reduced basis is {1}, under any term
    order, so the verdict comes from whichever basis the ideal has cached.
    With none cached it computes the elimination basis, which
    ``eliminate_to_x1`` then reuses.  The certificate comes from a tracked
    run under lex, made only when the ideal is trivial.
    """
    gb = ideal.cached_basis()
    if gb is None:
        gb = ideal.groebner(TermOrder.elimination(ideal.nvars))
    if not (len(gb.elements) == 1 and gb.elements[0].is_one()):
        return Triviality(False, None)
    tracked = ideal.groebner(TermOrder.lex(ideal.nvars), track=True)
    return Triviality(True, tracked.lineage[0])


def member(f, ideal):
    """Ideal membership by reduction to normal form."""
    if f.domain != ideal.domain or f.nvars != ideal.nvars:
        raise UsageError("query polynomial does not match the ideal's ring")
    gb = ideal.groebner()
    if not gb.elements:
        return f.is_zero()
    return normal_form(f, gb.elements, gb.order).is_zero()


def eliminate_to_x1(ideal):
    """Monic generator of the ideal's intersection with K[x1] (zero if empty).

    Uses the basis under ``TermOrder.elimination``, collects the univariate
    basis elements and takes their gcd.
    """
    if not ideal.domain.is_field:
        raise UsageError("elimination needs field coefficients")
    if ideal.nvars < 1:
        raise UsageError("elimination needs at least one variable")
    gb = ideal.groebner(TermOrder.elimination(ideal.nvars))
    univariate = [g.dense_in(0) for g in gb.elements if g.univariate_in(0)]
    acc = ()
    for dense in univariate:
        acc = unipoly.gcd(acc, dense, ideal.domain)
    return Polynomial.from_dense(ideal.domain, 1, 0, acc)

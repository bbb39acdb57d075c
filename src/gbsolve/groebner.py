"""Division, S- and G-polynomials and one completion engine for every ring.

Division, the pair polynomials, completion and ``certify_basis`` work over a
field or over K[x1] (see ``euclidean``), the one domain that is not a field
and the only one asked for units, gcds, lcms or divisibility.  ``buchberger``
and ``euclidean.strong_buchberger`` are the same engine behind different
domain checks.  Over a field (``is_field``) every leading coefficient is 1,
the strong criteria are the field criteria and no G-pair arises, so the
engine is plain Buchberger.  Division tracks cofactors so every reduction
yields an exact combination identity; completion stops at its first element
that is 1, and tracking yields the certificate of a trivial ideal: that
element's cofactors over the input generators.  Reduced bases over a field
are monic, inter-reduced and sorted with the largest leading term first, so
equal ideals print identically.

1 lies in an ideal exactly when its reduced basis is {1}, under any term
order, so ``is_trivial`` reads the verdict from the basis under
``TermOrder.elimination`` (lex x_n > ... > x1), which ``eliminate_to_x1``
and ``Ideal.evaluate_x1`` need anyway; under it a triangular system is
already a basis, and its completion reduces no S-pair.  A certificate comes
from a tracked lex run, made only for a trivial ideal.

Division and completion work on packed terms (``poly.Packing``).  Each
exponent tuple becomes one int of equal fields, one per variable in the
order's priority and, for a weighted order, the weighted degree in the top
field, each with a guard bit above it.  Integer comparison is then the term
order, a product of terms is a sum, and s divides t exactly when t - s
borrows from no guard bit.  Every entry point packs its input once and
unpacks its output once; a tracked completion keeps each element's lineage
packed too, one packed cofactor per generator, and unpacks only the unit's.
Since reduction only adds terms below the current one, division takes the
terms in strictly descending order.  Completion queues each pair as
(packed lcm, kind, i, j) and reduces pairs smallest lcm first.

The fields start a few bits wider than the largest field value of the input,
but exponents grow during completion and, under lex, during division.  A sum
that passes a field's maximum would carry into the next field and silently
become another term; instead it sets that field's guard bit, every new term
is checked against the guard bits, and the run restarts from its input with
fields twice as wide, so the width only changes how often a run restarts,
never what it returns.  Lineage terms are checked the same way: a
certificate can need higher powers than any basis element.

Division has two loops, and ``_completion`` alone chooses between them.
An untracked completion over a prime field, whose elements are the ints in
[0, p) (``Domain.modulus``, set by ``FieldTower(p)`` alone), under a
weighted order works on rows (``_Rows``): one big int with a slot per
monomial.  It builds each S-pair as the sum of two cached rows of lifted
basis elements, and each kept element of the final inter-reduction as its
leading term plus its cached tail, reduced by the whole basis.
``_Rows.reduce`` subtracts each column's reducer x^m*g as a row built once
per completion and kept with the column: F4's sharing (Faugere 1999) in
Kronecker-style packed ints, while the columns stay few against the
basis's terms.  That basis is monic and no cofactor is kept.  Every other
dividend, a pair or kept element past the column limits included, is a
packed polynomial for the heap loop ``_divide``, with inline int
arithmetic mod p over a prime field and the domain's methods over towers,
QQ and K[x1].
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .errors import UsageError, ZeroPolynomialError
from .poly import Overflow, Packing, Polynomial, TermOrder


@dataclass(frozen=True)
class StrongBasis:
    """A computed basis plus the order it was computed under.

    Tracking yields the certificate of a trivial ideal: ``lineage`` holds the
    basis {1}'s one cofactor vector over the generators, or else is None.
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


def _start_width(top):
    """Starting field width for inputs whose largest field value is top.

    Three spare bits let values grow eightfold, which covers the completions
    of typical inputs without a restart; wider fields make every int longer.
    """
    return top.bit_length() + 3


def _packed(order, polys, run):
    """run(packing, packed polys) with fields wide enough for every term.

    A packed polynomial is a dict from packed term to coefficient.  The
    fields start a few bits wider than the largest field value of the input
    terms.  A term that passes the field maximum raises ``Overflow``, and
    the run starts over with fields twice as wide.
    """
    for f in polys:
        if f.nvars != order.nvars:
            raise UsageError("order does not match the variable count")
    top = max((v for f in polys for e in f.coeffs for v in order.key(e)), default=0)
    bits = _start_width(top)
    while True:
        pk = Packing(order, bits)
        try:
            packed = [{pk.pack(e): c for e, c in f.coeffs.items()} for f in polys]
            return run(pk, packed)
        except Overflow:
            bits *= 2


def _unpack(f, pk, domain, nvars):
    return Polynomial(domain, nvars, {pk.unpack(t): c for t, c in f.items()})


def _leading(f):
    """Leading (packed term, coefficient) of a packed polynomial."""
    if not f:
        raise ZeroPolynomialError("the zero polynomial has no leading term")
    t = max(f)
    return t, f[t]


def _leads(basis):
    """Leading (packed term, coefficient) of each divisor; rejects zero."""
    if not all(basis):
        raise UsageError("division by a basis containing zero")
    return [_leading(g) for g in basis]


# Limits of the row loop; past any one, a pair takes the heap loop.  A row
# step costs O(columns), a heap step O(reducer terms), so a degree gets
# columns only while they number at most ROW_COLUMNS_PER_TERM times a basis
# element's mean terms and at most ROW_MAX_COLUMNS.  CPU time on a shared
# 2-CPU host (Python 3.11): dense systems stay under 340 columns per term
# (katsura-6 and -7 140, cyclic-6 334); binomials lose from about 640, and
# six cubic ones in 8 variables took 0.08 s with no per-term limit, 0.011 s
# at 512 and 0.009 s on the heap loop.  katsura-7 took 1.6-1.9 s at this
# cap, 1.4-1.9 s with none (24,310 columns), 2.4-2.9 s at 4096 and 5.4 s
# on the heap loop; it caches 1.27 M words, and 2^19 slowed it to 2.1 s.
ROW_MAX_COLUMNS = 2**14
ROW_COLUMNS_PER_TERM = 512
ROW_MAX_WORDS = 2**22  # 64-bit words of one completion's cached rows


class _Rows:
    """One untracked completion's columns and cached reducer rows.

    It serves the completion's S-pairs and its final inter-reduction over
    GF(p) under a weighted order; the basis is monic and only grows.  A row
    is one int with a ``width``-bit slot per column.  Column k holds the k-th
    monomial, in ascending term order, of weighted degree at most ``top``;
    every degree-d monomial ranks below every degree-(d+1) one, so raising
    ``top`` appends columns and moves none.  Column 0, the monomial 1, is
    there from the start.  ``units`` holds the packed x_i whose weight fits
    the degree field; no other x_i lies in a column.  ``tails`` maps (k, t)
    to ``tail(k, t)``, basis[k] lifted to the packed term t less its leading
    term: an S-pair lifted to t is the row tail(i, t) + (p-1)*tail(j, t), a
    kept element the row tail(k, lt_k).  ``red[k]`` is column k's reducer
    row, the tail of its first divisor among ``lead`` lifted to the column
    (an int >= 0), or ~n when none of the first n elements divides it.  A
    degree whose columns would pass the limits above, measured against the
    mean terms of ``basis``, is recorded and never searched again.  A row
    starts with slots below p + (p-1)^2 < p^2; a reduction then adds less
    than p^2 to a slot at most once per column, so slots of 2*bits(p) +
    bits(ROW_MAX_COLUMNS) + 1 bits never carry.
    """

    def __init__(self, pk, p, basis, lead):
        self.pk, self.p, self.basis, self.lead = pk, p, basis, lead
        self.width = 2 * p.bit_length() + ROW_MAX_COLUMNS.bit_length() + 1
        weights = pk.order.weights
        self.units = [pk.unit(i) for i, w in enumerate(weights) if not w >> pk.bits]
        self.mono, self.col, self.red = [0], {0: 0}, [-1]
        self.top, self.capped = 0, float("inf")  # degrees with and past columns
        self.tails, self.words = {}, 0

    def reaches(self, t):
        """Whether the degree of packed term t has columns, extended to it
        when needed; False past a limit."""
        d = t >> self.pk.deg_shift
        if d >= self.capped or self.words > ROW_MAX_WORDS:
            return False
        if d > self.top and not self._extend(d):
            self.capped = d
            return False
        return True

    def _extend(self, d):
        """Append the columns of degree top+1..d, or return False past the cap.

        Every monomial above ``top`` is a unit times one of degree above top
        - max(weights), so a breadth-first search over ``units`` from those
        columns finds each new monomial, keeping the sums of degree at most
        d that have no column yet.  d is the degree of a packed term, so
        d < 2^bits, and a sum that sets a guard bit fails the degree test.
        """
        col, units, shift = self.col, self.units, self.pk.deg_shift
        terms = sum(map(len, self.basis)) / len(self.basis)
        room = min(ROW_MAX_COLUMNS, ROW_COLUMNS_PER_TERM * terms) - len(self.mono)
        low = self.top - max(self.pk.order.weights)
        frontier, new = [t for t in self.mono if t >> shift > low], set()
        while frontier:
            frontier = {
                s
                for t in frontier
                for u in units
                if (s := t + u) >> shift <= d and s not in col and s not in new
            }
            new |= frontier
            if len(new) > room:
                return False
        for t in sorted(new):
            col[t] = len(self.mono)
            self.mono.append(t)
        self.red += [-1] * len(new)
        self.top = d
        return True

    def tail(self, k, t):
        """The cached row of x^(t - lt_k)*basis[k] less its leading term lt_k."""
        row = self.tails.get((k, t))
        if row is None:
            width, col, lt = self.width, self.col, self.lead[k][0]
            g, m = self.basis[k], t - lt
            row = sum(c << width * col[s + m] for s, c in g.items() if s != lt)
            self.tails[k, t] = row
            self.words += row.bit_length() >> 6
        return row

    def reduce(self, row):
        """The packed remainder of a row on division by the basis.

        The top slot is read off by ``bit_length`` and reduced mod p; when
        its column has a divisor, whose leading coefficient is 1, it is
        replaced by (p - c) times that column's reducer row from ``red``.  A
        column marked ~n searches the elements from n on and records what it
        finds.
        """
        p, width, red = self.p, self.width, self.red
        lead, guard = self.lead, self.pk.guard
        remainder = {}
        while row:
            k = (row.bit_length() - 1) // width
            c = row >> k * width
            row -= c << k * width
            c %= p
            if not c:
                continue
            reducer = red[k]
            if reducer < 0:
                t = self.mono[k]
                for idx in range(~reducer, len(lead)):
                    if not (t - lead[idx][0]) & guard:
                        break
                else:
                    red[k] = ~len(lead)
                    remainder[t] = c
                    continue
                reducer = red[k] = self.tail(idx, t)
            row += (p - c) * reducer
        return remainder


def _divide(f, basis, lead, guard, dom, want_cofs):
    """Strong division of packed f by the packed basis with leading terms ``lead``.

    A term c*t meets the divisors in order; at each one whose leading term
    divides t, c is replaced by its Euclidean remainder modulo the leading
    coefficient and the quotient times the shifted divisor is subtracted.
    Over a field the first such divisor leaves remainder zero.  Over K[x1] a
    remainder has lower degree than every leading coefficient passed over
    with quotient zero, so one pass leaves c reduced modulo all of them.

    Every new term lies below the one being reduced, so the terms are
    visited in strictly descending order: each is reduced once and gives
    each divisor's cofactor at most one term.  Returns the packed remainder
    and, with ``want_cofs``, the packed cofactors.

    This is the heap loop, for every dividend that is not a row (rows go to
    ``_Rows.reduce``): the terms wait in a max-heap of negated packed terms,
    and a term that cancelled since it was pushed is skipped when its entry
    surfaces.  It chooses its arithmetic once per call.  Over GF(p), whose
    elements are the ints in [0, p) (``dom.modulus``), it is inline int
    arithmetic mod p, dividing c by a leading coefficient lc only when lc is
    not 1 (every basis ``buchberger`` builds is monic).  Over towers, QQ and
    K[x1] it is the domain's ``euclid_divmod``, ``sub`` and ``mul``.
    Every zero test is truthiness, as each domain's zero is falsy.
    """
    p = dom.modulus
    remainder = {}
    cofs = [{} for _ in basis] if want_cofs else None
    if not p:
        divmod_, sub, mul = dom.euclid_divmod, dom.sub, dom.mul
    zero = dom.zero()
    work = dict(f)
    heap = [-t for t in work]
    heapify(heap)
    while heap:
        t = -heappop(heap)
        c = work.pop(t, None)
        if c is None:
            continue
        for idx, (lt, lc) in enumerate(lead):
            m = t - lt
            if m & guard:
                continue
            if p:
                u, c = c if lc == 1 else c * pow(lc, -1, p) % p, 0
            else:
                u, c = divmod_(c, lc)
            if u:
                for s, cs in basis[idx].items():
                    if s == lt:
                        continue
                    key = s + m
                    old = work.get(key)
                    if old is None:
                        if key & guard:
                            raise Overflow
                        heappush(heap, -key)
                        old = zero
                    nv = (old - u * cs) % p if p else sub(old, mul(u, cs))
                    if nv:
                        work[key] = nv
                    else:
                        work.pop(key, None)
                if want_cofs:
                    cofs[idx][m] = u
            if not c:
                break
        else:
            remainder[t] = c
    return remainder, cofs


def _division(f, basis, order, want_cofs):
    if order is None:
        order = TermOrder.lex(f.nvars)
    dom, nvars = f.domain, f.nvars

    def run(pk, packed):
        pf, *divisors = packed
        r, cofs = _divide(pf, divisors, _leads(divisors), pk.guard, dom, want_cofs)
        if want_cofs:
            cofs = tuple(_unpack(c, pk, dom, nvars) for c in cofs)
        return _unpack(r, pk, dom, nvars), cofs

    return _packed(order, [f, *basis], run)


def reduce(f, basis, order=None):
    """Remainder and cofactors with f = sum(cof * g) + remainder exactly."""
    return _division(f, basis, order, True)


def normal_form(f, basis, order=None):
    """Remainder of f on division by the basis, without cofactor bookkeeping."""
    return _division(f, basis, order, False)[0]


_S, _G = 0, 1  # pair kinds; at an equal lcm the S-pair pops first


def spoly(f, g, order):
    """S-polynomial through the coefficient lcm; leading monomials cancel."""
    return _pair_poly(_S, f, g, order)


def gpoly(f, g, order):
    """G-polynomial: leading coefficients combine into their gcd."""
    return _pair_poly(_G, f, g, order)


def _pair_poly(kind, f, g, order):
    def run(pk, packed):
        pf, pg = packed
        h = _pair(kind, pf, _leading(pf), pg, _leading(pg), pk, f.domain)
        return _unpack(h, pk, f.domain, f.nvars)

    return _packed(order, [f, g], run)


def _multipliers(kind, f_lead, g_lead, t, dom):
    """(a, m, b, n) with a*x^m*f - b*x^n*g the S- or G-polynomial of f, g.

    x^m and x^n lift both leading terms to their lcm t (all packed).  An
    S-polynomial scales both leading coefficients to their lcm, a
    G-polynomial combines them into their gcd through Bezout cofactors.
    Over a field both are 1: the S-polynomial is f/lc(f) - g/lc(g) and the
    G-polynomial f/lc(f), lifted to t, and ``div`` inverts no 1.
    """
    (fe, fc), (ge, gc) = f_lead, g_lead
    if dom.is_field:
        one = dom.one()
        a = dom.div(one, fc)
        b = dom.div(one, gc) if kind == _S else dom.zero()
    elif kind == _S:
        l = dom.lcm(fc, gc)
        a, b = dom.exact_div(l, fc), dom.exact_div(l, gc)
    else:
        _, a, b = dom.xgcd(fc, gc)
        b = dom.neg(b)
    return a, t - fe, b, t - ge


def _combine(f, g, a, m, b, n, dom, guard):
    """a*x^m*f - b*x^n*g on packed polynomials."""
    out = {}
    for p, u, shift in ((f, a, m), (g, dom.neg(b), n)):
        for s, c in p.items():
            t = s + shift
            if t & guard:
                raise Overflow
            c = dom.mul(c, u)
            out[t] = dom.add(out[t], c) if t in out else c
    return {t: c for t, c in out.items() if c}


def _pair(kind, f, f_lead, g, g_lead, pk, dom):
    t = pk.lcm(f_lead[0], g_lead[0])
    return _combine(f, g, *_multipliers(kind, f_lead, g_lead, t, dom), dom, pk.guard)


def _strongly_divides(dom, guard, lead_a, lead_b):
    """Whether leading monomial a divides b, term and coefficient (not over
    a field, where ``dom`` is None)."""
    (ta, ca), (tb, cb) = lead_a, lead_b
    return not (tb - ta) & guard and (dom is None or dom.divides(ca, cb))


def _submul(vec, cofs, vecs, dom, guard):
    """Packed vector vec minus the sum of cof * w over cofs and vecs, slotwise."""
    out = [dict(v) for v in vec]
    zero = dom.zero()
    for cof, w in zip(cofs, vecs):
        for acc, f in zip(out, w):
            for s, c in cof.items():
                for t, d in f.items():
                    key = s + t
                    if key & guard:
                        raise Overflow
                    acc[key] = dom.sub(acc.get(key, zero), dom.mul(c, d))
    return [{t: c for t, c in acc.items() if c} for acc in out]


def _unit_normalizer(dom, lc):
    """The unit that turns the leading coefficient lc canonical (monic):
    1/lc over a field, over K[x1] the inverse of lc's top coefficient."""
    return dom.inv(lc if dom.is_field else dom.canonical_unit(lc))


def buchberger(gens, order=None, *, track=False, domain=None, nvars=None):
    """Reduced Groebner basis; track=True adds a trivial ideal's certificate."""
    gens = list(gens)
    domain, nvars = _ring(gens, domain, nvars)
    if not domain.is_field:
        raise UsageError("buchberger needs field coefficients")
    return _complete(gens, order, domain, nvars, track)


def _complete(gens, order, domain, nvars, track):
    """Strong basis over a Euclidean domain; the reduced basis over a field.

    Every element is scaled to a canonical leading coefficient (1 over a
    field).  Pairs pop smallest lcm first.  An S-pair is skipped when both
    the leading terms and the leading coefficients are coprime, or when a
    third leading monomial divides its lcm monomial and that element's
    S-pairs with both are done; a G-pair is made only when neither leading
    coefficient divides the other, so over a field there are none.  No pair
    pops once an element is 1 (over K[x1] a non-unit constant is not).  With
    ``track`` each element carries its cofactors over the generators, packed
    like the element itself; the generators are packed once, and the basis
    and the first unit's cofactors, the certificate, unpacked once at the end.
    """
    if order is None:
        order = TermOrder.lex(nvars)
    if order.nvars != nvars:
        raise UsageError("order does not match the variable count")
    return _packed(
        order, gens, lambda pk, packed: _completion(pk, packed, domain, nvars, track)
    )


def _completion(pk, gens, domain, nvars, track):
    """``_complete`` on the generators packed by ``pk``."""
    guard = pk.guard
    field = domain.is_field  # leading coefficients 1: no G-pair, gcd or lcm
    basis = []  # packed elements
    lead = []  # (packed leading term, canonical leading coefficient)
    lineage = []  # with track: packed cofactors over the generators
    pending = set()  # S-pairs not yet popped
    queue = []  # (packed lcm, kind, i, j), smallest first
    unit = None  # index of the first element that is 1; no pair pops after it
    p = domain.modulus
    rows = _Rows(pk, p, basis, lead) if p and pk.order.weights and not track else None

    def push(f, vec):
        nonlocal unit
        lt = max(f)
        u = _unit_normalizer(domain, f[lt])
        f = {t: domain.mul(c, u) for t, c in f.items()}
        lc = f[lt]
        j = len(basis)
        if unit is None and not lt and domain.is_one(lc):
            unit = j
        for i, (e, c) in enumerate(lead):
            t = pk.lcm(e, lt)
            heappush(queue, (t, _S, i, j))
            pending.add((i, j))
            if not (field or domain.divides(c, lc) or domain.divides(lc, c)):
                heappush(queue, (t, _G, i, j))
        basis.append(f)
        lead.append((lt, lc))
        if track:
            lineage.append([{t: domain.mul(c, u) for t, c in v.items()} for v in vec])

    for k, g in enumerate(gens):
        if not g:
            continue
        vec = None
        if track:  # generator k is 1 times itself: the constant term packs to 0
            vec = [{0: domain.one()} if m == k else {} for m in range(len(gens))]
        push(g, vec)

    while queue and unit is None:
        t, kind, i, j = heappop(queue)
        if kind == _S:
            pending.discard((i, j))
            (ei, ci), (ej, cj) = lead[i], lead[j]
            if t == ei + ej and (field or domain.is_unit(domain.gcd(ci, cj))):
                continue  # coprime leading monomials: reduces to zero
            lc_ij = None if field else domain.lcm(ci, cj)
            if any(
                not (t - e) & guard
                and k != i
                and k != j
                and (field or domain.divides(c, lc_ij))
                and (min(i, k), max(i, k)) not in pending
                and (min(j, k), max(j, k)) not in pending
                for k, (e, c) in enumerate(lead)
            ):
                continue  # chain criterion: a third leading monomial covers it
        if rows and rows.reaches(t):  # both leading terms cancel
            r = rows.reduce(rows.tail(i, t) + (p - 1) * rows.tail(j, t))
        else:
            mult = _multipliers(kind, lead[i], lead[j], t, domain)
            h = _combine(basis[i], basis[j], *mult, domain, guard)
            r, cofs = _divide(h, basis, lead, guard, domain, track)
        if not r:
            continue
        vec = None
        if track:
            pair = zip(lineage[i], lineage[j])
            vec = [_combine(x, y, *mult, domain, guard) for x, y in pair]
            vec = _submul(vec, cofs, lineage, domain, guard)
        push(r, vec)

    # Minimal basis: visit in ascending (leading term, coefficient sort key),
    # so every strong divisor comes first, and keep an element unless a kept
    # one strongly divides its leading monomial.  Among equal leading
    # monomials the latest element survives (printed strong bases over K[x1]
    # depend on it; over a field the reduced basis is unique, and the
    # certificate is the first unit's lineage, kept apart from the basis).
    keep = []
    cdom = None if field else domain  # coefficient test of _strongly_divides
    ranked = sorted(
        range(len(basis)), key=lambda k: (lead[k][0], domain.sort_key(lead[k][1]), -k)
    )
    for k in ranked:
        if not any(_strongly_divides(cdom, guard, lead[m], lead[k]) for m in keep):
            keep.append(k)

    # Inter-reduce in the same order against unit-led elements only.  Such an
    # element's leading term divides no other kept one, so leading monomials
    # stay as they are and the basis stays strong.  One pass suffices: whether
    # a term can be rewritten depends only on the other elements' leading
    # monomials, which no reduction changes, and a remainder keeps no term
    # that a unit-led element could rewrite.  With a row context an element
    # is its leading term plus the remainder of its cached tail on division
    # by the whole basis: that basis is a Groebner basis over a field, so the
    # remainder is the unique normal form, the same as the kept elements give.
    elems = [basis[k] for k in keep]
    leads = [lead[k] for k in keep]
    units = [m for m in range(len(elems)) if field or domain.is_unit(leads[m][1])]
    for idx in range(len(elems)):
        others = [m for m in units if m != idx]
        if not others:
            continue
        lt, lc = leads[idx]
        if rows and rows.reaches(lt):
            elems[idx] = {lt: lc, **rows.reduce(rows.tail(keep[idx], lt))}
            continue
        elems[idx] = _divide(
            elems[idx],
            [elems[m] for m in others],
            [leads[m] for m in others],
            guard,
            domain,
            False,
        )[0]

    def unpack(f):
        return _unpack(f, pk, domain, nvars)

    # leading monomials are distinct now, so this is descending order
    elements = tuple(map(unpack, reversed(elems)))
    lin = (tuple(map(unpack, lineage[unit])),) if track and unit is not None else None
    return StrongBasis(elements, pk.order, domain, nvars, lineage=lin)


def certify_basis(elements, order):
    """Re-reduce every S- and G-polynomial from scratch; all must vanish.

    Over a field a G-polynomial is f/lc(f) times a monomial, which f
    reduces to zero, so only the S-polynomials are formed; over K[x1] both
    kinds are needed for a strong basis.
    """
    elements = list(elements)

    def run(pk, packed):
        lead = _leads(packed)
        for i, f in enumerate(packed):
            dom = elements[i].domain
            kinds = (_S,) if dom.is_field else (_S, _G)
            for j in range(i + 1, len(packed)):
                for kind in kinds:
                    c = _pair(kind, f, lead[i], packed[j], lead[j], pk, dom)
                    if c and _divide(c, packed, lead, pk.guard, dom, False)[0]:
                        return False
        return True

    return _packed(order, elements, run)


class Ideal:
    """A generator list with cached Groebner bases, one per term order."""

    def __init__(self, gens, domain=None, nvars=None):
        self.gens = tuple(gens)
        self.domain, self.nvars = _ring(self.gens, domain, nvars)
        self._bases = {}

    def groebner(self, order=None):
        if order is None:
            order = TermOrder.lex(self.nvars)
        hit = self._bases.get(order)
        if hit is None:
            hit = buchberger(self.gens, order, domain=self.domain, nvars=self.nvars)
            self._bases[order] = hit
        return hit

    def evaluate_x1(self, a, tower):
        """I(a): x1 fixed at a, over ``tower`` (at or above the ideal's field).

        Its generators are the nonzero images g(a) of the reduced basis G
        under ``TermOrder.elimination``, which generates the same ideal.  When
        every g vanishes at a or leads free of x1 (so is monic), the images in
        G's order are I(a)'s reduced basis under the elimination order of one
        variable fewer (Gianni 1987, Kalkbrener 1987) and are cached: an
        S-pair of two images is the image of theirs, whose standard
        representation over G maps to one below the x1-free lcm, and x1-free
        leading monomials stay leading, so the images stay reduced and in
        order.
        """
        order = TermOrder.elimination(self.nvars)
        basis = self.groebner(order).elements
        images = [g.evaluate_x1(a, tower) for g in basis]
        gens = [h for h in images if not h.is_zero()]
        ideal = Ideal(gens, domain=tower, nvars=self.nvars - 1)
        if all(
            h.is_zero() or not g.leading(order).exponents[0]
            for g, h in zip(basis, images)
        ):
            order = TermOrder.elimination(ideal.nvars)
            ideal._bases[order] = StrongBasis(tuple(gens), order, tower, ideal.nvars)
        return ideal

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
    order, so the verdict comes from the ideal's elimination basis, which
    ``eliminate_to_x1`` then reuses.  Tracking yields the certificate of a
    trivial ideal: a tracked ``buchberger`` run under lex, made only when the
    ideal is trivial and not cached, since no other caller reads it.
    """
    gb = ideal.groebner(TermOrder.elimination(ideal.nvars))
    if not (len(gb.elements) == 1 and gb.elements[0].is_one()):
        return Triviality(False, None)
    tracked = buchberger(ideal.gens, TermOrder.lex(ideal.nvars), track=True)
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

    Reads it from the reduced basis under ``TermOrder.elimination``, which has
    at most one element in K[x1]: two would have leading terms x1^a and x1^b,
    one dividing the other.
    """
    if not ideal.domain.is_field:
        raise UsageError("elimination needs field coefficients")
    if ideal.nvars < 1:
        raise UsageError("elimination needs at least one variable")
    gb = ideal.groebner(TermOrder.elimination(ideal.nvars))
    dense = next((g.dense_in(0) for g in gb.elements if g.univariate_in(0)), ())
    return Polynomial.from_dense(ideal.domain, 1, 0, dense)

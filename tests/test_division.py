"""Differential tests for division on seeded random inputs.

``groebner._divide`` is the heap loop: it takes a packed polynomial's terms
from a lazily pruned heap, with its arithmetic picked once per call: inline
ints mod p over a prime field (GF5, GF32003), the domain's methods over a
tower (GF49), QQ and K[x1].  Each result must satisfy f = sum(cof * g) + r,
leave no reducible term in r, and agree exactly with the textbook loops
below, which rescan the whole remaining polynomial for its leading term at
every step.  Over a field the two textbook loops agree with each other as
well.

The other loop is the row loop: in an untracked completion over a prime
field under a weighted order, a row context (``groebner._Rows``) holds each
basis element's cached tail lifted to a packed term, ``tail(k, t)``; the
completion builds an S-pair's row from two of them and, in the final
inter-reduction, a kept element's row from one, and ``_Rows.reduce``
reduces each one big int by the columns' cached reducer rows.  A tail must
be the lifted element less its leading term; an S-pair row must equal the
row of its S-polynomial slot by slot mod p, and reduce to the heap loop's
remainder of that S-polynomial; completions, their inter-reduction
included, must equal the heap loop's; ``_divide`` never meets a row, and
``_Rows.reduce`` nothing else; every column's reducer row must be its first
divisor's lifted tail; and columns grown degree by degree must equal the
ones a single search finds.
"""

import collections
import itertools
import operator
import random

import pytest

from corpus import exp_divides, exp_sub, random_poly, random_poly_q
from gbsolve import euclidean, groebner
from gbsolve.fields import GF, QQ, FieldTower, UnivariatePolyDomain
from gbsolve.groebner import buchberger
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


HUGE = 10**200
ROW_ORDERS = pytest.mark.parametrize(
    "order",
    [
        TermOrder.weighted((1, 1, 1, 1)),
        TermOrder.weighted((1, 2, 3)),
        TermOrder.weighted((HUGE, HUGE + 1, 3 * HUGE), (1, 2, 0)),
    ],
    ids=["graded", "weights-123", "huge-weights"],
)


def _monic(packed, p):
    """Packed polynomials over GF(p) scaled to leading coefficient 1."""
    return [{t: c * pow(f[max(f)], -1, p) % p for t, c in f.items()} for f in packed]


def _s_polynomial(basis, lead, i, j, t, pk, field):
    """The packed S-polynomial of basis elements i and j, lifted to lcm t."""
    mult = groebner._multipliers(groebner._S, lead[i], lead[j], t, field)
    return groebner._combine(basis[i], basis[j], *mult, field, pk.guard)


@pytest.mark.parametrize("field", [F5, F32003], ids=["GF5", "GF32003"])
@ROW_ORDERS
@pytest.mark.parametrize("bits", [1, None], ids=["one-bit", "normal"])
def test_row_loop_matches_the_heap_loop(field, order, bits, monkeypatch):
    # the basis grows one element at a time, as in a completion, and all its
    # pairs share one row context, so cached rows and first divisors carry
    # from call to call and a column's divisor search resumes past the
    # elements it has already tried
    if bits:
        monkeypatch.setattr(groebner, "_start_width", lambda top: bits)
    rng = random.Random(20243)
    n, p, rows_used = order.nvars, field.modulus, 0

    def run(pk, packed):
        nonlocal rows_used
        basis, lead = [], []
        rows = groebner._Rows(pk, p, basis, lead)
        for g in _monic(packed, p):
            basis.append(g)
            lead.append(groebner._leading(g))
            j = len(basis) - 1
            for i in range(j):
                t = pk.lcm(lead[i][0], lead[j][0])
                h = _s_polynomial(basis, lead, i, j, t, pk, field)
                heap = groebner._divide(h, basis, lead, pk.guard, field, False)
                assert rows.reaches(t)
                row = rows.tail(i, t) + (p - 1) * rows.tail(j, t)
                assert (rows.reduce(row), None) == heap
        rows_used += bool(rows.mono)

    for trial in range(30):
        gens = []
        while len(gens) < 2 + trial % 3:
            g = random_poly(rng, field, n, 2, 4)
            if not g.is_zero():
                gens.append(g)
        groebner._packed(order, gens, run)
    assert rows_used == 30


def _graded_bases(field, seed):
    rng = random.Random(seed)
    systems = [[random_poly(rng, field, 3, 2, 4) for _ in range(3)] for _ in range(12)]
    return [
        buchberger(gens, order, track=track, domain=field, nvars=3)
        for gens in systems
        for order in (TermOrder.weighted((1, 1, 1)), TermOrder.weighted((1, 2, 3)))
        for track in (False, True)
    ]


@pytest.mark.parametrize("field", [F5, F32003], ids=["GF5", "GF32003"])
def test_graded_completions_match_the_heap_loop(field, monkeypatch):
    # with no columns every pair is refused a row and takes the heap loop
    seen = _count_dividends(monkeypatch)
    expected = _graded_bases(field, 20244)
    assert seen["pair-row"]
    monkeypatch.setattr(groebner, "ROW_MAX_COLUMNS", 0)
    assert _graded_bases(field, 20244) == expected


def test_only_rows_meet_a_row_context(monkeypatch):
    # the S-pair rows and the kept elements' tails meet the row context, and
    # _divide never meets a row; ten columns refuse some pairs a row, and a
    # refused pair divides as a polynomial; a tracked completion builds none
    calls, built = [], []
    divide, init = groebner._divide, groebner._Rows.__init__
    reduce = groebner._Rows.reduce

    def spy_divide(f, *args):
        calls.append(("divide", type(f)))
        return divide(f, *args)

    def spy_reduce(self, row):
        calls.append(("reduce", type(row)))
        return reduce(self, row)

    def spy_init(self, *args):
        built.append(1)
        init(self, *args)

    monkeypatch.setattr(groebner, "_divide", spy_divide)
    monkeypatch.setattr(groebner._Rows, "reduce", spy_reduce)
    monkeypatch.setattr(groebner._Rows, "__init__", spy_init)
    seen = _count_dividends(monkeypatch)
    monkeypatch.setattr(groebner, "ROW_MAX_COLUMNS", 10)
    rng = random.Random(20249)
    for _ in range(12):
        gens = [random_poly(rng, F32003, 3, 2, 4) for _ in range(3)]
        for order in (TermOrder.weighted((1, 1, 1)), TermOrder.weighted((1, 2, 3))):
            built.clear()
            buchberger(gens, order, track=True, domain=F32003, nvars=3)
            assert not built
            buchberger(gens, order, domain=F32003, nvars=3)
            assert len(built) == 1
    assert set(calls) == {("divide", dict), ("reduce", int)}
    assert seen["pair-row"] and seen["pair-heap"]


def _count_dividends(monkeypatch):
    """Patch both loops to count untracked completions' dividends in the
    returned Counter: "pair-row" and "element-row" for ``_Rows.reduce``,
    told apart by the cached tails fetched for the row (an S-pair row sums
    two, a kept element's row is one), and "pair-heap" and "element-heap"
    for ``_divide`` without cofactors, an S-pair's built by ``_multipliers``."""
    seen = collections.Counter()
    fetched, lifted = [], []
    divide, multipliers = groebner._divide, groebner._multipliers
    tail, reduce = groebner._Rows.tail, groebner._Rows.reduce

    def spy_multipliers(*args):
        lifted.append(1)
        return multipliers(*args)

    def spy_divide(f, basis, lead, guard, dom, want_cofs):
        if not want_cofs:
            seen["pair-heap" if lifted else "element-heap"] += 1
        lifted.clear()
        return divide(f, basis, lead, guard, dom, want_cofs)

    def spy_tail(self, k, t):
        fetched.append(1)
        return tail(self, k, t)

    def spy_reduce(self, row):
        seen[{1: "element-row", 2: "pair-row"}[len(fetched)]] += 1
        try:
            return reduce(self, row)
        finally:
            fetched.clear()  # reduce fetches its reducer rows as tails too

    monkeypatch.setattr(groebner, "_multipliers", spy_multipliers)
    monkeypatch.setattr(groebner, "_divide", spy_divide)
    monkeypatch.setattr(groebner._Rows, "tail", spy_tail)
    monkeypatch.setattr(groebner._Rows, "reduce", spy_reduce)
    return seen


def _untracked_bases(field, order, seed):
    rng = random.Random(seed)
    n = order.nvars
    systems = [[random_poly(rng, field, n, 2, 4) for _ in range(3)] for _ in range(10)]
    return [buchberger(gens, order, domain=field, nvars=n) for gens in systems]


@pytest.mark.parametrize("field", [F5, F32003], ids=["GF5", "GF32003"])
@ROW_ORDERS
def test_the_final_inter_reduction_reduces_cached_tails(field, order, monkeypatch):
    # the dividends no pair accounts for are the kept elements of the final
    # inter-reduction: as rows of their cached tails, reduced by the whole
    # basis, they give the heap loop's reduced bases; with ten columns some
    # element's degree has no columns, and it keeps the heap loop
    seen, uncapped = _count_dividends(monkeypatch), groebner.ROW_MAX_COLUMNS

    def run(cap):
        monkeypatch.setattr(groebner, "ROW_MAX_COLUMNS", cap)
        seen.clear()
        bases = _untracked_bases(field, order, 20250)
        return bases, seen["element-row"], seen["element-heap"]

    expected, heap, no_rows = run(0)
    assert heap == 0 and no_rows > 0
    bases, as_rows, on_heap = run(uncapped)
    assert bases == expected and (as_rows, on_heap) == (no_rows, 0)
    bases, as_rows, on_heap = run(10)
    assert bases == expected and as_rows + on_heap == no_rows
    assert as_rows and on_heap


@pytest.mark.parametrize("field", [F5, F32003], ids=["GF5", "GF32003"])
@ROW_ORDERS
def test_each_column_keeps_its_first_divisors_reducer_row(field, order, monkeypatch):
    # after a completion a column's entry is the row of its first divisor's
    # tail shifted to the column, or ~n when none of the first n divides it
    contexts = []
    init = groebner._Rows.__init__

    def spy_init(self, *args):
        contexts.append(self)
        init(self, *args)

    monkeypatch.setattr(groebner._Rows, "__init__", spy_init)
    _untracked_bases(field, order, 20251)
    found = marked = 0
    for rows in contexts:
        guard = rows.pk.guard
        for t, entry in zip(rows.mono, rows.red):
            divisors = [k for k, (s, _) in enumerate(rows.lead) if not (t - s) & guard]
            if entry < 0:
                assert all(k >= ~entry for k in divisors)
                marked += ~entry > 0
            else:
                g, (lt, _) = rows.basis[divisors[0]], rows.lead[divisors[0]]
                tail = {s + t - lt: c for s, c in g.items() if s != lt}
                assert entry == _row_of(tail, rows)
                found += 1
    assert found and marked


def test_a_column_marked_past_the_basis_gains_its_later_divisor():
    # x^2 + 1 does not divide y*z, so its column is marked ~1; once y + 2
    # joins the basis, the next visit finds it and keeps the row of 2*z
    order = TermOrder.weighted((1, 1, 1))
    gens = [
        Polynomial(F5, 3, {(2, 0, 0): F5.one(), (0, 0, 0): F5.one()}),
        Polynomial(F5, 3, {(0, 1, 0): F5.one(), (0, 0, 0): F5.element(2)}),
    ]

    def run(pk, packed):
        basis, lead = packed[:1], groebner._leads(packed[:1])
        rows = groebner._Rows(pk, F5.modulus, basis, lead)
        assert rows._extend(2)
        yz, z = pk.pack((0, 1, 1)), pk.pack((0, 0, 1))
        k = rows.col[yz]
        assert rows.reduce(1 << rows.width * k) == {yz: 1}
        assert rows.red[k] == ~1
        basis.append(packed[1])
        lead.append(groebner._leading(packed[1]))
        assert rows.reduce(1 << rows.width * k) == {z: 3}
        assert rows.red[k] == 2 << rows.width * rows.col[z]

    groebner._packed(order, gens, run)


@pytest.mark.parametrize(
    "limit, value", [("ROW_MAX_COLUMNS", 10), ("ROW_COLUMNS_PER_TERM", 3)]
)
def test_a_degree_past_the_column_cap_is_never_searched_again(
    limit, value, monkeypatch
):
    # ten columns hold the monomials of degree <= 2 under weighted((1, 1, 1))
    # and of degree <= 3 under weighted((1, 2, 3)), and three per basis term
    # are about as many, so completions pass the cap; searching again at or
    # above the degree that passed it would repeat a search that can only fail
    expected = _graded_bases(F32003, 20245)
    builds = []
    real = groebner._Rows._extend

    def extend(self, d):
        ok = real(self, d)
        builds.append((self, d, ok))
        return ok

    monkeypatch.setattr(groebner, limit, value)
    monkeypatch.setattr(groebner._Rows, "_extend", extend)
    assert _graded_bases(F32003, 20245) == expected
    capped = {}
    for rows, d, ok in builds:
        assert d < capped.get(id(rows), float("inf"))
        if not ok:
            capped[id(rows)] = d
    assert capped and any(ok for _, _, ok in builds)


def _row_of(f, rows):
    """Packed polynomial f as a row over the columns of ``rows``."""
    return sum(c << rows.width * rows.col[t] for t, c in f.items())


def _reduced_slots(row, width, p):
    """The row with every slot reduced mod p."""
    out, shift, mask = 0, 0, (1 << width) - 1
    while row:
        out |= (row & mask) % p << shift
        row >>= width
        shift += width
    return out


@pytest.mark.parametrize("field", [F5, F32003], ids=["GF5", "GF32003"])
@ROW_ORDERS
def test_a_pair_row_is_the_packed_s_polynomial(field, order):
    # the pairs of one basis share a row context, so some lcms lie within
    # its columns and others extend them
    rng = random.Random(20247)
    n, p = order.nvars, field.modulus
    extended = within = 0

    def run(pk, packed):
        nonlocal extended, within
        basis = _monic(packed, p)
        lead = groebner._leads(basis)
        rows = groebner._Rows(pk, p, basis, lead)
        for i, j in itertools.combinations(range(len(basis)), 2):
            t = pk.lcm(lead[i][0], lead[j][0])
            grows = t >> pk.deg_shift > rows.top
            assert rows.reaches(t)
            row = rows.tail(i, t) + (p - 1) * rows.tail(j, t)
            h = _s_polynomial(basis, lead, i, j, t, pk, field)
            assert _reduced_slots(row, rows.width, p) == _row_of(h, rows)
            extended += grows
            within += not grows

    for _ in range(15):
        gens = []
        while len(gens) < 4:
            g = random_poly(rng, field, n, 3, 5)
            if not g.is_zero():
                gens.append(g)
        groebner._packed(order, gens, run)
    assert extended and within


@pytest.mark.parametrize("field", [F5, F32003], ids=["GF5", "GF32003"])
@ROW_ORDERS
def test_a_tail_is_the_lifted_element_less_its_leading_term(field, order):
    # tail(k, t) is x^(t - lt_k)*g_k less its leading term, at its own
    # leading term and at its lcm with each other element; two tails at an
    # lcm, the second times p - 1, make a row that reduces to the heap loop's
    # remainder of the S-polynomial that _combine builds
    rng = random.Random(20252)
    n, p = order.nvars, field.modulus
    checked = 0

    def run(pk, packed):
        nonlocal checked
        basis = _monic(packed, p)
        lead = groebner._leads(basis)
        rows = groebner._Rows(pk, p, basis, lead)
        for i, j in itertools.permutations(range(len(basis)), 2):
            t = pk.lcm(lead[i][0], lead[j][0])
            assert rows.reaches(t)
            lt = lead[i][0]
            for at in (lt, t):
                lifted = {s + at - lt: c for s, c in basis[i].items() if s != lt}
                assert rows.tail(i, at) == _row_of(lifted, rows)
            h = _s_polynomial(basis, lead, i, j, t, pk, field)
            heap = groebner._divide(h, basis, lead, pk.guard, field, False)
            row = rows.tail(i, t) + (p - 1) * rows.tail(j, t)
            assert (rows.reduce(row), None) == heap
            checked += 1

    for _ in range(10):
        gens = []
        while len(gens) < 3:
            g = random_poly(rng, field, n, 3, 4)
            if not g.is_zero():
                gens.append(g)
        groebner._packed(order, gens, run)
    assert checked == 60


@pytest.mark.parametrize("field", [F5, F32003], ids=["GF5", "GF32003"])
def test_a_pair_past_the_column_cap_falls_back_to_its_polynomial(field, monkeypatch):
    # ten columns hold the monomials of degree <= 2 under weighted((1, 1, 1))
    # and of degree <= 3 under weighted((1, 2, 3)): some lcms get a row and
    # others are refused, and a refused pair is built and reduced as a
    # polynomial
    expected = _graded_bases(field, 20244)
    seen = _count_dividends(monkeypatch)
    monkeypatch.setattr(groebner, "ROW_MAX_COLUMNS", 0)
    assert _graded_bases(field, 20244) == expected and not seen["pair-row"]
    monkeypatch.setattr(groebner, "ROW_MAX_COLUMNS", 10)
    seen.clear()
    assert _graded_bases(field, 20244) == expected
    assert seen["pair-row"] and seen["pair-heap"]


def _monomials(pk, d):
    """The packed monomials of weighted degree at most d, by brute force."""
    weights = pk.order.weights
    ranges = [range(d // w + 1) for w in weights]
    return sorted(
        pk.pack(e)
        for e in itertools.product(*ranges)
        if sum(map(operator.mul, weights, e)) <= d
    )


@ROW_ORDERS
@pytest.mark.parametrize("cap", [None, 12], ids=["uncapped", "cap-12"])
def test_columns_grown_degree_by_degree_match_one_search(order, cap, monkeypatch):
    # a search that starts from the columns already found must append the
    # columns, and give the verdict, of a fresh search from 1
    if cap:
        monkeypatch.setattr(groebner, "ROW_MAX_COLUMNS", cap)
    rng = random.Random(20248)
    refused = 0

    def run(pk, packed):
        nonlocal refused
        lead = groebner._leads(packed)
        shift = pk.deg_shift
        top = 2 * max(map(max, packed)) >> shift

        def fresh():
            return groebner._Rows(pk, F5.modulus, packed, lead)

        whole, stepwise = fresh(), fresh()
        degrees = {t >> shift for t in _monomials(pk, top)}
        for d in sorted({e for d in degrees for e in (d, d + 1) if e <= top}):
            one = fresh()
            verdict = one._extend(d)
            assert stepwise._extend(d) == verdict
            if not verdict:
                refused += 1
                assert not whole._extend(top)
                return
            assert stepwise.mono == one.mono == _monomials(pk, d)
            assert stepwise.col == one.col
        assert whole._extend(top)
        assert (whole.mono, whole.col) == (stepwise.mono, stepwise.col)

    for _ in range(8):
        gens = []
        while len(gens) < 3:
            g = random_poly(rng, F5, order.nvars, 3, 4)
            if not g.is_zero():
                gens.append(g)
        groebner._packed(order, gens, run)
    assert bool(refused) == bool(cap)


def test_a_unit_past_the_degree_field_gets_no_column(monkeypatch):
    # generators in x1 alone, of degree at most 3, start with 5-bit fields;
    # x2's weight 64 passes them, so x2 lies in no column, and packing its
    # unit would only raise Overflow and restart the run with wider fields
    order = TermOrder.weighted((1, 64))

    def x1_poly(*coeffs):
        return Polynomial(
            F32003, 2, {(e, 0): F32003.element(c) for e, c in enumerate(coeffs) if c}
        )

    gens = [x1_poly(3, 3, 1, 1), x1_poly(5, 6, 1)]  # (x1+1)(x1^2+3), (x1+1)(x1+5)
    widths, extended = [], []
    packing, extend = groebner.Packing, groebner._Rows._extend

    def spy_packing(order, bits):
        widths.append(bits)
        return packing(order, bits)

    def spy_extend(self, d):
        ok = extend(self, d)
        extended.append(ok)
        return ok

    monkeypatch.setattr(groebner, "Packing", spy_packing)
    monkeypatch.setattr(groebner._Rows, "_extend", spy_extend)
    basis = buchberger(gens, order, domain=F32003, nvars=2)
    assert widths == [5] and any(extended)
    assert basis.elements == (x1_poly(1, 1),)
    monkeypatch.setattr(groebner, "ROW_MAX_COLUMNS", 0)
    assert buchberger(gens, order, domain=F32003, nvars=2) == basis

"""Strong bases over K[x1]: views, strong reduction, completion, specialization."""

import random

import pytest

from corpus import exp_divides, exp_lcm, horner_specialize, random_poly, random_poly_q
from gbsolve import euclidean, unipoly
from gbsolve.errors import SpecializationError, UsageError
from gbsolve.fields import GF, QQ, UnivariatePolyDomain
from gbsolve.groebner import (
    Ideal,
    certify_basis,
    eliminate_to_x1,
    gpoly,
    member,
    normal_form,
    reduce,
    spoly,
)
from gbsolve.poly import Polynomial, TermOrder, to_text

F3 = GF(3)
F5 = GF(5)
D3 = UnivariatePolyDomain(F3)
D5 = UnivariatePolyDomain(F5)


def _view_gens(field, full_gens):
    return [euclidean.to_coeff_view(g) for g in full_gens]


def _cpoly(dom, terms):
    """Coefficient-view polynomial from {exps: dense x1 tuple}."""
    return Polynomial(dom, len(next(iter(terms))), terms) if terms else None


class TestViews:
    def test_round_trip_random(self):
        rng = random.Random(51)
        for _ in range(60):
            p = random_poly(rng, F5, 3, max_total=3, max_terms=4)
            v = euclidean.to_coeff_view(p)
            assert v.nvars == 2
            assert isinstance(v.domain, UnivariatePolyDomain)
            assert euclidean.from_coeff_view(v) == p

    def test_view_groups_by_trailing_exponents(self):
        x1 = Polynomial.variable(F5, 2, 0)
        x2 = Polynomial.variable(F5, 2, 1)
        one = Polynomial.constant(F5, 2, F5.one())
        v = euclidean.to_coeff_view(x1 * x1 * x2 + x2 + x1 + one)
        assert v.coeffs == {(1,): (1, 0, 1), (0,): (1, 1)}

    def test_rejects_wrong_domains(self):
        p = Polynomial.variable(F5, 2, 0)
        v = euclidean.to_coeff_view(p)
        with pytest.raises(UsageError):
            euclidean.to_coeff_view(v)
        with pytest.raises(UsageError):
            euclidean.from_coeff_view(p)


class TestStrongReduction:
    def test_contract_random(self):
        # exact identity plus: no remainder monomial admits a strong step
        rng = random.Random(52)
        order = TermOrder.lex(2)
        for _ in range(80):
            full = [
                random_poly(rng, F5, 3, max_total=2, max_terms=3)
                for _ in range(rng.randrange(1, 4))
            ]
            basis = [v for v in _view_gens(F5, full) if not v.is_zero()]
            if not basis:
                continue
            f = euclidean.to_coeff_view(
                random_poly(rng, F5, 3, max_total=3, max_terms=5)
            )
            rem, cofs = reduce(f, basis, order)
            acc = rem
            for cof, g in zip(cofs, basis):
                acc = acc + cof * g
            assert acc == f
            for t, c in rem.coeffs.items():
                for g in basis:
                    m = g.leading(order)
                    if exp_divides(m.exponents, t):
                        q, _ = D5.euclid_divmod(c, m.coefficient)
                        assert not q

    def test_zero_divisor_in_basis_rejected(self):
        f = _cpoly(D5, {(1,): (1,)})
        with pytest.raises(UsageError):
            reduce(f, [Polynomial.zero(D5, 1)])


class TestPairPolynomials:
    def test_spoly_drops_below_the_lcm_term(self):
        rng = random.Random(53)
        order = TermOrder.lex(2)
        for _ in range(60):
            f = euclidean.to_coeff_view(random_poly(rng, F3, 3, max_total=3))
            g = euclidean.to_coeff_view(random_poly(rng, F3, 3, max_total=3))
            if f.is_zero() or g.is_zero():
                continue
            t = exp_lcm(f.leading(order).exponents, g.leading(order).exponents)
            s = spoly(f, g, order)
            if not s.is_zero():
                assert order.compare(s.leading(order).exponents, t) == -1

    def test_gpoly_lands_exactly_on_the_gcd(self):
        rng = random.Random(54)
        order = TermOrder.lex(2)
        for _ in range(60):
            f = euclidean.to_coeff_view(random_poly(rng, F3, 3, max_total=3))
            g = euclidean.to_coeff_view(random_poly(rng, F3, 3, max_total=3))
            if f.is_zero() or g.is_zero():
                continue
            fm, gm = f.leading(order), g.leading(order)
            h = gpoly(f, g, order)
            m = h.leading(order)
            assert m.exponents == exp_lcm(fm.exponents, gm.exponents)
            assert m.coefficient == D3.gcd(fm.coefficient, gm.coefficient)


class TestStrongBuchberger:
    def test_frozen_common_factor(self):
        # x1*x2 and (x1+1)*x2 together reach plain x2
        gens = [_cpoly(D5, {(1,): (0, 1)}), _cpoly(D5, {(1,): (1, 1)})]
        sb = euclidean.strong_buchberger(gens)
        assert len(sb.elements) == 1
        assert sb.elements[0].coeffs == {(1,): (1,)}

    def test_frozen_two_variable_system(self):
        x1 = Polynomial.variable(F5, 2, 0)
        x2 = Polynomial.variable(F5, 2, 1)
        one = Polynomial.constant(F5, 2, F5.one())
        gens = _view_gens(F5, [x1 * x2 - one, x2 * x2 - one])
        sb = euclidean.strong_buchberger(gens)
        texts = [to_text(g, names=("x2",)) for g in sb.elements]
        assert texts == ["x2 + (4*x1)", "(x1^2 + 4)"]

    def test_certify_accepts_output_rejects_raw_gens(self):
        gens = [_cpoly(D5, {(1,): (0, 1)}), _cpoly(D5, {(1,): (1, 1)})]
        order = TermOrder.lex(1)
        sb = euclidean.strong_buchberger(gens, order)
        assert certify_basis(sb.elements, order)
        assert not certify_basis(gens, order)

    def test_random_bases_certify(self):
        rng = random.Random(55)
        for field in (F3, F5):
            for _ in range(12):
                full = [
                    random_poly(rng, field, 3, max_total=2)
                    for _ in range(rng.randrange(1, 3))
                ]
                gens = [v for v in _view_gens(field, full) if not v.is_zero()]
                if not gens:
                    continue
                sb = euclidean.strong_buchberger(
                    gens, domain=gens[0].domain, nvars=2
                )
                assert certify_basis(sb.elements, sb.order)
        # larger systems, where the pair criteria skip most pairs
        for field in (F3, F5, QQ):
            maker = random_poly_q if field is QQ else random_poly
            for _ in range(10):
                full = [
                    maker(rng, field, 3, max_total=2, max_terms=4)
                    for _ in range(rng.randrange(3, 5))
                ]
                gens = [v for v in _view_gens(field, full) if not v.is_zero()]
                if not gens:
                    continue
                for order in (TermOrder.lex(2), TermOrder.weighted((1, 1))):
                    sb = euclidean.strong_buchberger(
                        gens, order, domain=gens[0].domain, nvars=2
                    )
                    assert certify_basis(sb.elements, sb.order)

    def test_membership_matches_field_groebner(self):
        # strong normal form vanishes exactly on ideal members
        rng = random.Random(56)
        for _ in range(25):
            full = [
                random_poly(rng, F5, 2, max_total=2) for _ in range(2)
            ]
            full = [g for g in full if not g.is_zero()]
            if not full:
                continue
            ideal = Ideal(full)
            sb = euclidean.strong_buchberger(_view_gens(F5, full))
            for _ in range(6):
                f = random_poly(rng, F5, 2, max_total=3, max_terms=4)
                got = normal_form(
                    euclidean.to_coeff_view(f), sb.elements, sb.order
                ).is_zero()
                assert got == member(f, ideal)
        # three variables over GF(5) and QQ; half the queries are members
        for field in (F5, QQ):
            maker = random_poly_q if field is QQ else random_poly
            for _ in range(8):
                full = [
                    maker(rng, field, 3, max_total=2, max_terms=4)
                    for _ in range(rng.randrange(3, 5))
                ]
                full = [g for g in full if not g.is_zero()]
                if not full:
                    continue
                ideal = Ideal(full)
                sb = euclidean.strong_buchberger(_view_gens(field, full))
                for k in range(6):
                    f = maker(rng, field, 3, max_total=3, max_terms=4)
                    if k % 2:  # a member by construction
                        f = Polynomial.zero(field, 3)
                        for g in full:
                            f = f + maker(rng, field, 3, max_total=1) * g
                    got = normal_form(
                        euclidean.to_coeff_view(f), sb.elements, sb.order
                    ).is_zero()
                    assert got == member(f, ideal)

    def test_error_paths(self):
        with pytest.raises(UsageError):
            euclidean.strong_buchberger([])
        with pytest.raises(UsageError):
            euclidean.strong_buchberger([Polynomial.variable(F5, 2, 0)])
        with pytest.raises(UsageError):
            euclidean.strong_buchberger(
                [_cpoly(D5, {(1,): (1,)})], TermOrder.lex(2)
            )


class TestSpecialization:
    def _frozen_basis(self):
        x1 = Polynomial.variable(F5, 2, 0)
        x2 = Polynomial.variable(F5, 2, 1)
        one = Polynomial.constant(F5, 2, F5.one())
        return euclidean.strong_buchberger(_view_gens(F5, [x1 * x2 - one, x2 * x2 - one]))

    def test_locus_frozen(self):
        sb = self._frozen_basis()
        assert to_text(euclidean.specialization_locus(sb)) == "x1^2 + 4"
        flat = euclidean.strong_buchberger([_cpoly(D5, {(1,): (1,)})])
        assert euclidean.specialization_locus(flat).is_one()

    def test_specialize_off_the_locus(self):
        sb = self._frozen_basis()
        ev = euclidean.specialize_basis(sb, 2)
        assert ev.domain is F5
        assert [to_text(g, names=("x2",)) for g in ev.elements] == ["x2 + 3", "3"]
        assert certify_basis(ev.elements, ev.order)

    def test_specialize_on_the_locus_fails(self):
        sb = self._frozen_basis()
        for a in (1, 4):  # the two roots of x1^2 + 4
            with pytest.raises(SpecializationError):
                euclidean.specialize_basis(sb, a)

    def test_specialize_matches_lift_and_horner(self):
        # at every GF(5) point and at points of GF(25) and GF(125), on the
        # locus (both refuse) and off it (the same elements); a GF(5) point
        # leaves the tower to its default, the basis's own field
        F25 = F5.extend(unipoly.first_irreducible(2, F5))
        F125 = F5.extend(unipoly.first_irreducible(3, F5))
        points = [(a, None) for a in range(5)]
        points += [(F25.element(i), F25) for i in (5, 7, 13, 24)]
        points += [(F125.element(i), F125) for i in (25, 61, 124)]
        rng = random.Random(58)
        compared = refused = 0
        for _ in range(25):
            full = [random_poly(rng, F5, 3, max_total=2, max_terms=4) for _ in range(3)]
            gens = [v for v in _view_gens(F5, full) if not v.is_zero()]
            if not gens:
                continue
            sb = euclidean.strong_buchberger(gens)
            for a, tower in points:
                try:
                    want = horner_specialize(sb, a, tower)
                except SpecializationError:
                    with pytest.raises(SpecializationError):
                        euclidean.specialize_basis(sb, a, tower)
                    refused += 1
                    continue
                ev = euclidean.specialize_basis(sb, a, tower)
                assert ev.elements == want
                assert ev.domain is (tower or F5)
                compared += 1
        assert compared > 100 and refused > 5, (compared, refused)

    def test_specialized_images_stay_members(self):
        # evaluating generators commutes with membership in the evaluated ideal
        rng = random.Random(57)
        checked = 0
        while checked < 15:
            full = [random_poly(rng, F3, 2, max_total=2) for _ in range(2)]
            full = [g for g in full if not g.is_zero()]
            if not full:
                continue
            sb = euclidean.strong_buchberger(_view_gens(F3, full))
            locus = euclidean.specialization_locus(sb)
            point = next(
                (
                    a
                    for a in range(3)
                    if locus.evaluate([F3.element(a)], F3)
                ),
                None,
            )
            if point is None:
                continue
            checked += 1
            ev = euclidean.specialize_basis(sb, point)
            assert certify_basis(ev.elements, ev.order)
            if not ev.elements:
                continue
            evaluated = Ideal(list(ev.elements), domain=F3, nvars=1)
            for g in full:
                image = g.evaluate_x1(F3.element(point))
                assert member(image, evaluated)

    def test_locus_depends_only_on_the_ideal(self):
        # solve's locus level completes the carried generators (the images of
        # the previous level's elimination basis), not the input generators
        # with x1 substituted; both generate I(a), and a minimal strong basis
        # leads at each leading term with a generator of all leading
        # coefficients there, so the monic product cannot move
        def locus(gens, field):
            views = [euclidean.to_coeff_view(g) for g in gens]
            dom = UnivariatePolyDomain(field)
            basis = euclidean.strong_buchberger(views, domain=dom, nvars=1)
            return euclidean.specialization_locus(basis)

        compared = differ = 0
        for field in (F3, F5, GF(7)):
            rng = random.Random(67)
            for _ in range(60):
                ngens = rng.randrange(1, 4)
                gens = [random_poly(rng, field, 3, max_total=2, max_terms=4) for _ in range(ngens)]
                ideal = Ideal(gens, domain=field, nvars=3)
                for a in field.elements():
                    carried = ideal.evaluate_x1(a, field)
                    if not eliminate_to_x1(carried).is_zero():
                        continue
                    substituted = [g.evaluate_x1(a, field) for g in gens]
                    assert locus(carried.gens, field) == locus(substituted, field)
                    compared += 1
                    differ += set(carried.gens) != set(substituted)
        assert compared > 180 and differ > 140, (compared, differ)

    def test_wrong_domain_rejected(self):
        with pytest.raises(UsageError):
            euclidean.specialization_locus(
                Ideal([Polynomial.variable(F5, 1, 0)]).groebner()
            )

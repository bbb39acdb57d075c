"""Buchberger over fields: division, reduced bases, certificates, elimination."""

import importlib.util
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import exp_divides, exp_lcm, random_poly, random_poly_q
from gbsolve import euclidean, groebner, unipoly
from gbsolve.errors import UsageError
from gbsolve.fields import GF, QQ
from gbsolve.groebner import (
    Ideal,
    buchberger,
    certify_basis,
    eliminate_to_x1,
    gpoly,
    is_trivial,
    member,
    normal_form,
    reduce,
    spoly,
)
from gbsolve.parser import parse_problem
from gbsolve.poly import Polynomial, TermOrder, to_text

F2 = GF(2)
F3 = GF(3)
F5 = GF(5)
F7 = GF(7)
F25 = F5.extend(unipoly.first_irreducible(2, F5))  # tabled: order 25 <= 256
F49 = GF(7).extend((1, 0, 1))  # t^2 + 1 has no root mod 7


def _vars(domain, nvars):
    return [Polynomial.variable(domain, nvars, i) for i in range(nvars)]


def _const(domain, nvars, n):
    return Polynomial.constant(domain, nvars, domain.from_int(n))


def _nonzero(rng, maker):
    while True:
        f = maker(rng)
        if not f.is_zero():
            return f


class TestDivision:
    def test_division_contract_random(self):
        # f = sum(cof * g) + rem with no remainder term divisible by a leading term
        rng = random.Random(11)
        order = TermOrder.lex(2)
        for _ in range(150):
            f = random_poly(rng, F5, 2, max_total=3, max_terms=4)
            basis = [
                _nonzero(rng, lambda r: random_poly(r, F5, 2, max_total=2))
                for _ in range(rng.randrange(1, 4))
            ]
            rem, cofs = reduce(f, basis, order)
            acc = rem
            for cof, g in zip(cofs, basis):
                acc = acc + cof * g
            assert acc == f
            lts = [g.leading(order).exponents for g in basis]
            for exps in rem.coeffs:
                assert not any(exp_divides(lt, exps) for lt in lts)

    def test_division_contract_rationals(self):
        rng = random.Random(12)
        order = TermOrder.lex(2)
        for _ in range(40):
            f = random_poly_q(rng, QQ, 2, max_total=3, max_terms=4)
            basis = [_nonzero(rng, lambda r: random_poly_q(r, QQ, 2))]
            rem, cofs = reduce(f, basis, order)
            assert cofs[0] * basis[0] + rem == f

    def test_frozen_reduction(self):
        x1, x2 = _vars(F5, 2)
        rem, cofs = reduce(x1**2 * x2, [x1 * x2 - _const(F5, 2, 1)])
        assert rem == x1
        assert cofs == (x1,)

    def test_normal_form_matches_reduce(self):
        rng = random.Random(13)
        for _ in range(50):
            f = random_poly(rng, F3, 2, max_total=3)
            basis = [_nonzero(rng, lambda r: random_poly(r, F3, 2))]
            assert normal_form(f, basis) == reduce(f, basis)[0]

    def test_spoly_cancels_leading_terms(self):
        rng = random.Random(14)
        order = TermOrder.lex(2)
        for _ in range(80):
            f = _nonzero(rng, lambda r: random_poly(r, F5, 2, max_total=3))
            g = _nonzero(rng, lambda r: random_poly(r, F5, 2, max_total=3))
            s = spoly(f, g, order)
            if s.is_zero():
                continue
            t = exp_lcm(
                f.leading(order).exponents, g.leading(order).exponents
            )
            assert order.compare(s.leading(order).exponents, t) == -1

    @pytest.mark.parametrize("domain", [F5, F49, QQ], ids=["GF5", "GF49", "QQ"])
    def test_pair_polynomials_over_a_field_are_the_textbook_ones(self, domain):
        # with t = lcm(lm f, lm g): S = (t/lt f)*f/lc(f) - (t/lt g)*g/lc(g)
        # and G = (t/lt f)*f/lc(f), for leading coefficients other than 1 too
        rng = random.Random(15)
        orders = [TermOrder.lex(2), TermOrder.weighted((1, 2))]
        make = random_poly_q if domain is QQ else random_poly
        non_monic = 0
        for trial in range(60):
            order = orders[trial % 2]
            f, g = (_nonzero(rng, lambda r: make(r, domain, 2, 3, 4)) for _ in "fg")
            lf, lg = f.leading(order), g.leading(order)
            t = exp_lcm(lf.exponents, lg.exponents)

            def lifted(h, lead):
                shift = tuple(a - b for a, b in zip(t, lead.exponents))
                inverse = domain.inv(lead.coefficient)
                return Polynomial.term(domain, 2, inverse, shift) * h

            assert spoly(f, g, order) == lifted(f, lf) - lifted(g, lg)
            assert gpoly(f, g, order) == lifted(f, lf)
            non_monic += not domain.is_one(lf.coefficient)
        assert non_monic >= 30


class TestBuchberger:
    def test_frozen_basis(self):
        x1, x2 = _vars(F5, 2)
        one = _const(F5, 2, 1)
        gb = buchberger([x1 * x2 - one, x2 * x2 - one])
        assert [to_text(g) for g in gb.elements] == ["x1 + 4*x2", "x2^2 + 4"]

    def test_reduced_basis_is_canonical(self):
        # permuting and rescaling generators cannot change the reduced basis
        rng = random.Random(21)
        for _ in range(25):
            gens = [
                _nonzero(rng, lambda r: random_poly(r, F3, 2, max_total=2))
                for _ in range(3)
            ]
            gb = buchberger(gens, domain=F3, nvars=2)
            shuffled = list(gens)
            rng.shuffle(shuffled)
            scaled = [g * _const(F3, 2, rng.randrange(1, 3)) for g in shuffled]
            assert buchberger(scaled, domain=F3, nvars=2).elements == gb.elements

    def test_certify_accepts_output_rejects_raw_gens(self):
        x1, x2 = _vars(F5, 2)
        one = _const(F5, 2, 1)
        gens = [x1 * x2 - one, x2 * x2 - one]
        order = TermOrder.lex(2)
        gb = buchberger(gens, order)
        assert certify_basis(gb.elements, order)
        assert not certify_basis(gens, order)

    def test_certify_random_bases(self):
        rng = random.Random(22)
        cases = [(F2, 2), (F3, 2), (F5, 3)]
        for field, nvars in cases:
            for _ in range(10):
                gens = [
                    random_poly(rng, field, nvars, max_total=2)
                    for _ in range(rng.randrange(1, 4))
                ]
                gb = buchberger(gens, domain=field, nvars=nvars)
                assert certify_basis(gb.elements, gb.order)

    def test_certify_random_bases_rationals(self):
        rng = random.Random(23)
        for _ in range(8):
            gens = [random_poly_q(rng, QQ, 2) for _ in range(2)]
            gb = buchberger(gens, domain=QQ, nvars=2)
            assert certify_basis(gb.elements, gb.order)

    def test_weighted_order_basis_certifies(self):
        rng = random.Random(24)
        order = TermOrder.weighted((2, 1))
        for _ in range(15):
            gens = [random_poly(rng, F5, 2, max_total=2) for _ in range(2)]
            gb = buchberger(gens, order, domain=F5, nvars=2)
            assert gb.order is order
            assert certify_basis(gb.elements, order)

    def test_certify_reduces_g_polynomials_only_over_k_x1(self, monkeypatch):
        """Over a field certify_basis reduces one S-polynomial per pair and no
        G-polynomial: 78 reductions, not 156, for the 13-element graded basis
        of the first seed-1 gb-graded job.  Over K[x1] it reduces both kinds.
        The verdicts are the same either way."""
        path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        problem = parse_problem(workloads.make_jobs("gb-graded", 1)[0].text)
        order = TermOrder.weighted((1, 1, 1, 1))
        gb = buchberger(problem.gens, order, domain=problem.domain, nvars=4)
        rng = random.Random(3)
        gens = [
            euclidean.to_coeff_view(random_poly(rng, F5, 3, max_total=2, max_terms=4))
            for _ in range(3)
        ]
        strong = euclidean.strong_buchberger(gens)
        reductions = []
        real = groebner._divide
        monkeypatch.setattr(
            groebner, "_divide", lambda *a: reductions.append(1) or real(*a)
        )
        assert len(gb.elements) == 13
        assert certify_basis(gb.elements, order)
        assert len(reductions) == 78
        assert not certify_basis(problem.gens, order)
        reductions.clear()
        assert len(strong.elements) == 4
        assert certify_basis(strong.elements, strong.order)
        assert len(reductions) == 11
        assert not certify_basis(gens, strong.order)

    def test_a_completion_stops_at_the_unit(self, monkeypatch):
        x1, x2 = _vars(F5, 2)
        one = _const(F5, 2, 1)
        events = []
        pop, divide = groebner.heappop, groebner._divide

        def spy_pop(heap):
            item = pop(heap)
            if isinstance(item, tuple):  # the pair queue, not a division heap
                events.append("pop")
            return item

        def spy_divide(*args):
            r, cofs = divide(*args)
            events.append("unit" if list(r) == [0] else "divide")
            return r, cofs

        monkeypatch.setattr(groebner, "heappop", spy_pop)
        monkeypatch.setattr(groebner, "_divide", spy_divide)
        # a constant generator: no pair is reduced, tracked or not; the
        # pair of x1^2 + x2 and x1 + 1 would pop before either pair with 3
        gens = [x1 * x1 + x2, x1 + one, _const(F5, 2, 3)]
        for track in (False, True):
            events.clear()
            gb = buchberger(gens, track=track)
            assert gb.elements == (one,) and events == []
        # a unit from the first pair reduced: no pair pops after it
        events.clear()
        gens = [x1 * x2, x1 * x2 + one, x1 * x1 + x2, x2**3 + x1]
        assert buchberger(gens).elements == (one,)
        assert events == ["pop", "unit"]
        # over K[x1], a constant that is not a unit (x1) does not stop the
        # run: the pair x2*x1 - (x1*x2 + 1) still reduces to the unit
        views = [euclidean.to_coeff_view(g) for g in (x1, x1 * x2 + one)]
        events.clear()
        strong = euclidean.strong_buchberger(views)
        assert [to_text(g) for g in strong.elements] == ["(1)"]
        assert events.count("pop") >= 1 and events[-1] == "unit"

    def test_a_proper_ideal_keeps_no_lineage(self):
        # tracking yields only the certificate of a trivial ideal
        rng = random.Random(25)
        proper = 0
        for field in (F5, F49, QQ):
            maker = random_poly_q if field is QQ else random_poly
            for _ in range(10):
                gens = [maker(rng, field, 3, max_total=2) for _ in range(2)]
                tracked = buchberger(gens, track=True, domain=field, nvars=3)
                bare = buchberger(gens, domain=field, nvars=3)
                assert tracked.elements == bare.elements
                if bare.elements != (Polynomial.constant(field, 3, field.one()),):
                    assert tracked.lineage is None
                    proper += 1
        assert proper >= 25

    def test_tracked_runs_unpack_once(self, monkeypatch):
        # the lineage stays packed: the only polynomials built are the
        # unpacked elements and, for a trivial ideal, its one certificate
        rng = random.Random(27)
        systems = []
        for field in (F5, F49, QQ):
            maker = random_poly_q if field is QQ else random_poly
            for _ in range(10):
                count = rng.randrange(1, 5)
                gens = [maker(rng, field, 3, max_total=2) for _ in range(count)]
                systems.append((field, gens))
        built = [0]
        real = Polynomial.__init__

        def counting(self, *args):
            built[0] += 1
            real(self, *args)

        monkeypatch.setattr(Polynomial, "__init__", counting)
        kinds = set()
        for field, gens in systems:
            built[0] = 0
            gb = buchberger(gens, track=True, domain=field, nvars=3)
            trivial = gb.lineage is not None
            kinds.add(trivial)
            assert built[0] == (1 + len(gens) if trivial else len(gb.elements))
        assert kinds == {False, True}

    def test_zero_generators_are_dropped(self):
        x1, _ = _vars(F5, 2)
        gb = buchberger([Polynomial.zero(F5, 2), x1])
        assert [to_text(g) for g in gb.elements] == ["x1"]

    def test_empty_input_needs_explicit_ring(self):
        with pytest.raises(UsageError):
            buchberger([])
        gb = buchberger([], domain=F5, nvars=2)
        assert gb.elements == ()

    def test_mixed_rings_rejected(self):
        with pytest.raises(UsageError):
            buchberger([_vars(F5, 2)[0], _vars(F3, 2)[0]])
        with pytest.raises(UsageError):
            buchberger([_vars(F5, 2)[0], _vars(F5, 3)[0]])

    def test_order_width_checked(self):
        with pytest.raises(UsageError):
            buchberger([_vars(F5, 2)[0]], TermOrder.lex(3))

    def test_criteria_skip_the_pinned_pairs(self, monkeypatch):
        """Count the dividends of both division loops, ``_divide`` and
        ``_Rows.reduce``, on seeded ideals: one per pair the criteria keep,
        plus the inter-reduction.  The counts were taken before the chain
        criterion became one inline scan; a rewrite of the criteria that
        skips a different set of pairs changes them.  A deliberate change to
        a criterion updates these numbers."""
        calls = []
        real, reduce = groebner._divide, groebner._Rows.reduce
        monkeypatch.setattr(
            groebner, "_divide", lambda *a: calls.append(1) or real(*a)
        )
        monkeypatch.setattr(
            groebner._Rows, "reduce", lambda *a: calls.append(1) or reduce(*a)
        )
        counts = {}
        for name, order in (
            ("lex", TermOrder.lex(4)),
            ("elimination", TermOrder.elimination(4)),
            ("graded", TermOrder.weighted((1, 1, 1, 1))),
        ):
            rng = random.Random(29)
            calls.clear()
            for _ in range(8):
                gens = [random_poly(rng, F7, 4, max_total=2, max_terms=4) for _ in range(3)]
                buchberger(gens, order, domain=F7, nvars=4)
            counts[name] = len(calls)
        rng = random.Random(31)
        calls.clear()
        for _ in range(8):
            gens = [
                euclidean.to_coeff_view(random_poly(rng, F5, 3, max_total=2, max_terms=4))
                for _ in range(3)
            ]
            euclidean.strong_buchberger(gens)
        counts["strong"] = len(calls)
        assert counts == {"lex": 69, "elimination": 67, "graded": 65, "strong": 37}


class TestIdeal:
    def test_basis_is_cached_per_order(self):
        x1, x2 = _vars(F5, 2)
        ideal = Ideal([x1 * x2 - _const(F5, 2, 1)])
        first = ideal.groebner()
        assert ideal.groebner() is first
        assert ideal.groebner(TermOrder.lex(2)) is first
        graded = ideal.groebner(TermOrder.weighted((1, 1)))
        assert graded is not first
        assert ideal._bases == {TermOrder.lex(2): first, graded.order: graded}
        assert first.lineage is None and graded.lineage is None

    def test_mixed_generators_rejected(self):
        with pytest.raises(UsageError):
            Ideal([_vars(F5, 2)[0], _vars(F3, 2)[0]])
        with pytest.raises(UsageError):
            Ideal([])

    def test_zero_ideal(self):
        ideal = Ideal([], domain=F5, nvars=2)
        assert not is_trivial(ideal)
        assert member(Polynomial.zero(F5, 2), ideal)
        assert not member(_vars(F5, 2)[0], ideal)


class TestTriviality:
    def test_frozen_certificate(self):
        x1, _ = _vars(F5, 2)
        one = _const(F5, 2, 1)
        verdict = is_trivial(Ideal([x1, x1 - one]))
        assert verdict
        assert [to_text(c) for c in verdict.certificate] == ["1", "4"]

    def test_certificate_identity_random(self):
        # build obviously trivial ideals and check the combination hits 1
        rng = random.Random(31)
        for field in (F2, F3, F5, QQ):
            maker = random_poly_q if field is QQ else random_poly
            hits = 0
            while hits < 12:
                gens = [
                    maker(rng, field, 2, max_total=2)
                    for _ in range(rng.randrange(1, 4))
                ]
                verdict = is_trivial(Ideal(gens, domain=field, nvars=2))
                if not verdict:
                    continue
                hits += 1
                acc = Polynomial.zero(field, 2)
                for cof, gen in zip(verdict.certificate, gens):
                    acc = acc + cof * gen
                assert acc.is_one()

    def test_the_certificate_run_is_not_cached(self, monkeypatch):
        # the verdict reads the cached elimination basis; the tracked lex run
        # goes to buchberger directly and leaves the cache as it was
        x1, x2, x3 = _vars(F5, 3)
        unit = Ideal([x1 * x2 - x3, x3 - _const(F5, 3, 1), x1 * x2])
        elimination = unit.groebner(TermOrder.elimination(3))
        calls = []
        real = groebner.buchberger

        def counting(gens, order=None, **kwargs):
            calls.append((order, kwargs.get("track", False)))
            return real(gens, order, **kwargs)

        monkeypatch.setattr(groebner, "buchberger", counting)
        verdict = is_trivial(unit)
        assert [to_text(c) for c in verdict.certificate] == ["4", "4", "1"]
        assert calls == [(TermOrder.lex(3), True)]
        assert unit._bases == {elimination.order: elimination}
        assert is_trivial(unit) == verdict
        assert len(calls) == 2

    @pytest.mark.parametrize("field", [F5, F49], ids=["GF5", "GF49"])
    def test_verdict_from_the_elimination_basis_matches_lex(self, field):
        rng = random.Random(53)
        one = Polynomial.constant(field, 3, field.one())
        verdicts = []
        for _ in range(60):
            gens = [random_poly(rng, field, 3, max_total=2, max_terms=4) for _ in range(3)]
            verdict = is_trivial(Ideal(gens, domain=field, nvars=3))
            lex = buchberger(gens, TermOrder.lex(3), domain=field, nvars=3)
            assert bool(verdict) == (lex.elements == (one,))
            verdicts.append(bool(verdict))
        assert set(verdicts) == {True, False}

    @settings(max_examples=80, derandomize=True, database=None, deadline=None)
    @given(
        st.sampled_from([F3, F5]),
        st.integers(2, 3),
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
    )
    def test_verdict_does_not_depend_on_the_cached_basis(self, field, nvars, ngens, seed):
        rng = random.Random(seed)
        gens = [random_poly(rng, field, nvars, max_total=2, max_terms=4) for _ in range(ngens)]
        ideals = [Ideal(gens, domain=field, nvars=nvars) for _ in range(3)]
        ideals[1].groebner(TermOrder.lex(nvars))
        ideals[2].groebner(TermOrder.weighted((1,) * nvars))
        verdicts = [is_trivial(ideal) for ideal in ideals]
        assert verdicts[0] == verdicts[1] == verdicts[2]  # verdict and certificate
        if verdicts[0]:
            acc = Polynomial.zero(field, nvars)
            for cof, gen in zip(verdicts[0].certificate, gens):
                acc = acc + cof * gen
            assert acc.is_one()
        eliminants = [eliminate_to_x1(ideal) for ideal in ideals]
        assert eliminants[0] == eliminants[1] == eliminants[2]

    def test_proper_ideal_has_no_certificate(self):
        x1, x2 = _vars(F3, 2)
        verdict = is_trivial(Ideal([x1, x2]))
        assert not verdict and verdict.certificate is None


class TestMembership:
    def test_constructed_combinations_are_members(self):
        rng = random.Random(41)
        for _ in range(30):
            gens = [
                _nonzero(rng, lambda r: random_poly(r, F5, 2, max_total=2))
                for _ in range(2)
            ]
            ideal = Ideal(gens)
            f = Polynomial.zero(F5, 2)
            for g in gens:
                f = f + random_poly(rng, F5, 2, max_total=2) * g
            assert member(f, ideal)

    def test_frozen_non_members(self):
        x1, x2 = _vars(F5, 2)
        ideal = Ideal([x1])
        assert not member(x2, ideal)
        assert not member(_const(F5, 2, 1), ideal)
        assert member(x1 * x2 + x1, ideal)

    def test_ring_mismatch_rejected(self):
        x1, _ = _vars(F5, 2)
        with pytest.raises(UsageError):
            member(_vars(F3, 2)[0], Ideal([x1]))


class TestElimination:
    def test_frozen_example(self):
        x1, x2 = _vars(F5, 2)
        one = _const(F5, 2, 1)
        ideal = Ideal([x1 * x2 - one, x2 * x2 - one])
        p = eliminate_to_x1(ideal)
        assert p.nvars == 1 and to_text(p) == "x1^2 + 4"

    def test_generator_is_member_but_divisors_are_not(self):
        x1, x2 = _vars(F5, 2)
        one = _const(F5, 2, 1)
        ideal = Ideal([x1 * x2 - one, x2 * x2 - one])
        p = eliminate_to_x1(ideal)
        embedded = Polynomial.from_dense(F5, 2, 0, p.dense_in(0))
        assert member(embedded, ideal)
        # x1^2 + 4 = (x1 + 1)(x1 + 4); neither factor may already lie inside
        for n in (1, 4):
            factor = x1 + _const(F5, 2, n)
            assert not member(factor, ideal)

    def test_single_variable_ideal(self):
        x1 = Polynomial.variable(F5, 1, 0)
        one = Polynomial.constant(F5, 1, F5.one())
        ideal = Ideal([x1 * x1 - one, x1 - one])
        assert to_text(eliminate_to_x1(ideal)) == "x1 + 4"

    def test_no_variables_rejected(self):
        for gens in ([], [Polynomial.constant(F5, 0, 2)]):
            with pytest.raises(UsageError, match="at least one variable"):
                eliminate_to_x1(Ideal(gens, domain=F5, nvars=0))

    def test_empty_intersection_gives_zero(self):
        x1, x2 = _vars(F3, 2)
        ideal = Ideal([x1 - x2])
        assert eliminate_to_x1(ideal).is_zero()

    def test_intersection_membership_oracle(self):
        # any univariate member of the ideal must be a multiple of the generator
        rng = random.Random(42)
        for _ in range(20):
            gens = [random_poly(rng, F3, 2, max_total=2) for _ in range(2)]
            ideal = Ideal(gens, domain=F3, nvars=2)
            if is_trivial(ideal):
                continue
            p = eliminate_to_x1(ideal)
            if p.is_zero():
                continue
            embedded = Polynomial.from_dense(F3, 2, 0, p.dense_in(0))
            assert member(embedded, ideal)

    @pytest.mark.parametrize("nvars", [3, 4])
    @pytest.mark.parametrize("field", [F5, F49], ids=["GF5", "GF49"])
    def test_eliminant_and_verdict_match_the_old_variable_ranking(self, field, nvars):
        # reference: lex with x2 > ... > x_n > x1, the elimination order before
        # x_n > ... > x2 > x1; both rank x1 last, so the eliminant is the same
        old = TermOrder.lex(nvars, tuple(range(1, nvars)) + (0,))
        assert old != TermOrder.elimination(nvars)
        one = Polynomial.constant(field, nvars, field.one())
        rng = random.Random(61)
        kinds = set()
        for _ in range(40):
            gens = [random_poly(rng, field, nvars) for _ in range(nvars)]
            ref = buchberger(gens, old, domain=field, nvars=nvars)
            dense = next((g.dense_in(0) for g in ref.elements if g.univariate_in(0)), ())
            ideal = Ideal(gens, domain=field, nvars=nvars)
            verdict = bool(is_trivial(ideal))
            assert verdict == (ref.elements == (one,))
            p = eliminate_to_x1(ideal)
            assert p == Polynomial.from_dense(field, 1, 0, dense)
            kinds.add("trivial" if verdict else "zero" if p.is_zero() else "nonzero")
        assert kinds == {"trivial", "zero", "nonzero"}

    def test_triangular_system_is_already_a_basis(self, monkeypatch):
        x1, x2, x3 = _vars(F5, 3)
        gens = [  # tests/golden/tower3_gf5.gb, largest leading term first
            x3 * x3 + x2 * x3 + x1 + _const(F5, 3, 1),
            x2 * x2 + x1 * x2 + _const(F5, 3, 3),
            x1 * x1 + _const(F5, 3, 2),
        ]
        pairs = []
        real = groebner._multipliers
        monkeypatch.setattr(
            groebner, "_multipliers", lambda *a: pairs.append(a[0]) or real(*a)
        )
        order = TermOrder.elimination(3)
        basis = buchberger(gens, order)
        assert pairs == []  # every S-pair has coprime leading monomials
        leads = [g.leading(order).exponents for g in basis.elements]
        assert leads == [(0, 0, 2), (0, 2, 0), (2, 0, 0)]
        assert list(basis.elements) == gens


class TestEvaluateX1:
    """I(a) from the carried elimination basis against a fresh completion."""

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(
        st.sampled_from([F3, F5, F7, F25]),
        st.integers(2, 4),
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
    )
    def test_carried_basis_matches_a_fresh_completion(self, field, nvars, ngens, seed):
        rng = random.Random(seed)
        gens = [random_poly(rng, field, nvars, max_total=2, max_terms=3) for _ in range(ngens)]
        ideal = Ideal(gens, domain=field, nvars=nvars)
        order = TermOrder.elimination(nvars - 1)
        for a in field.elements():
            carried = ideal.evaluate_x1(a, field)
            substituted = [g.evaluate_x1(a, field) for g in gens]
            fresh = buchberger(substituted, order, domain=field, nvars=nvars - 1)
            # the cached basis when the images were already one, else a completion
            assert carried.groebner(order).elements == fresh.elements
            assert carried.domain is field and carried.nvars == nvars - 1

    def test_a_root_of_a_triangular_system_is_carried(self):
        x1, x2, x3 = _vars(F5, 3)
        one = _const(F5, 3, 1)
        ideal = Ideal([x1 * x1 - one, x2 * x2 - x1, x3 * x3 + x2 * x3 + x1])
        carried = ideal.evaluate_x1(F5.from_int(4), F5)  # x1 = -1
        order = TermOrder.elimination(2)
        assert list(carried._bases) == [order]
        cached = carried._bases[order]
        assert [to_text(g, order=cached.order) for g in cached.elements] == [
            "x2^2 + x1*x2 + 4",
            "x1^2 + 1",
        ]

    def test_x1_times_x2_minus_one_at_zero_is_the_unit_ideal(self):
        # x1*x2 - 1 leads with x1 and evaluates to -1: nothing is cached
        x1, x2 = _vars(F5, 2)
        carried = Ideal([x1 * x2 - _const(F5, 2, 1)]).evaluate_x1(F5.zero(), F5)
        assert carried._bases == {}
        assert is_trivial(carried)

    def test_a_non_root_of_the_eliminant_gives_the_unit_ideal(self):
        x1, x2 = _vars(F5, 2)
        ideal = Ideal([x1 * x1 - _const(F5, 2, 1), x2 - x1])
        assert to_text(eliminate_to_x1(ideal)) == "x1^2 + 4"
        carried = ideal.evaluate_x1(F5.from_int(2), F5)
        assert carried._bases == {}
        assert is_trivial(carried)

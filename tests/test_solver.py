"""The point-finder and the ideal operations built around it."""

import itertools
import random
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from corpus import (
    common_zeros,
    exp_divides,
    ideals_equal,
    random_poly,
    random_unipoly,
    split_stream,
)
from gbsolve import euclidean, groebner, solver, unipoly
from gbsolve.errors import KernelError, UsageError
from gbsolve.fields import GF, QQ, FFElement, adjoin_root
from gbsolve.groebner import Ideal, Triviality, is_trivial, member
from gbsolve.parser import parse_problem
from gbsolve.poly import Polynomial, TermOrder, to_text
from gbsolve.solver import (
    Point,
    coprime_split_identity,
    find_branch_root,
    good_specialization_point,
    ideal_intersect,
    radical_member,
    radical_witness,
    solve,
)

F2 = GF(2)
F3 = GF(3)
F5 = GF(5)
F9 = F3.extend((1, 0, 1))


def _vars(domain, nvars):
    return [Polynomial.variable(domain, nvars, i) for i in range(nvars)]


def _const(domain, nvars, n):
    return Polynomial.constant(domain, nvars, domain.from_int(n))


def _uni(field, *coeffs):
    """1-variable polynomial from dense coefficients, constant first."""
    return Polynomial.from_dense(field, 1, 0, tuple(field.from_int(c) for c in coeffs))


class TestGoodSpecializationPoint:
    def test_constant_one_gives_zero(self):
        a = good_specialization_point(_uni(F3, 1))
        assert a == FFElement(F3, 0)

    def test_skips_the_roots(self):
        a = good_specialization_point(_uni(F3, 0, 1))  # q = x1
        assert a == FFElement(F3, 1)

    def test_extends_when_the_base_field_is_used_up(self):
        # x1(x1-1)(x1-2) kills all of F3; the first F9 element past it is t1
        q = _uni(F3, 0, 1) * _uni(F3, 2, 1) * _uni(F3, 1, 1)
        a = good_specialization_point(q)
        assert a.tower.order == 9
        assert a.rep == (0, 1)
        assert a.tower.to_text(a.rep) == "t1"

    def test_zero_rejected(self):
        with pytest.raises(UsageError):
            good_specialization_point(Polynomial.zero(F3, 1))
        with pytest.raises(UsageError):
            good_specialization_point(Polynomial.zero(QQ, 1))

    def test_never_returns_a_root(self):
        rng = random.Random(61)
        for _ in range(40):
            coeffs = [F3.element(rng.randrange(3)) for _ in range(rng.randrange(1, 5))]
            coeffs.append(F3.one())
            q = Polynomial.from_dense(F3, 1, 0, tuple(coeffs))
            a = good_specialization_point(q)
            lifted = [a.tower.lift(c, F3) for c in q.dense_in(0)]
            assert unipoly.evaluate(tuple(lifted), a.rep, a.tower)


class TestFindBranchRoot:
    def test_root_of_the_first_factor(self):
        extended = 0
        for field in (F3, F5, F9):
            rng = random.Random(74)
            for _ in range(40):
                dense = random_unipoly(rng, field, max_deg=5)
                if unipoly.deg(dense) < 1:
                    continue
                p = Polynomial.from_dense(field, 1, 0, dense)
                root = find_branch_root(p)
                g = unipoly.factor(p.dense_in(0), field)[0][0]
                assert root == adjoin_root(field, g)[1]
                extended += root.tower != field
                lifted = tuple(root.tower.lift(c, field) for c in p.dense_in(0))
                assert not unipoly.evaluate(lifted, root.rep, root.tower)
        assert extended >= 10

    def test_first_root_wins_when_it_works(self):
        root = find_branch_root(_uni(F3, 2, 0, 1))  # x1^2 - 1
        assert root == FFElement(F3, 1)

    def test_every_factor_of_the_eliminant_keeps_the_ideal_proper(self):
        # The Closure Theorem: every root of the eliminant extends to a zero
        ideals = multi = extended = 0
        for field, nvars in itertools.product((F3, F5), (2, 3)):
            rng = random.Random(73)
            for _ in range(80):
                gens = [random_poly(rng, field, nvars, 3, 4) for _ in range(3)]
                ideal = Ideal(gens, domain=field, nvars=nvars)
                p = groebner.eliminate_to_x1(ideal)
                if is_trivial(ideal) or p.is_zero():
                    continue
                factors = unipoly.factor(p.dense_in(0), field)
                ideals += 1
                multi += len(factors) > 1
                extended += any(unipoly.deg(g) > 1 for g, _ in factors)
                for g, _ in factors:
                    tower, root = adjoin_root(field, g)
                    evaluated = [h.evaluate_x1(root.rep, tower) for h in gens]
                    assert not is_trivial(Ideal(evaluated, domain=tower, nvars=nvars - 1))
                assert find_branch_root(p) == adjoin_root(field, factors[0][0])[1]
        assert ideals >= 150 and multi >= 40 and extended >= 20

    def test_adjoins_an_extension_when_needed(self):
        root = find_branch_root(_uni(F3, 1, 0, 1))  # x1^2 + 1
        assert root.tower.order == 9
        assert root.rep == (0, 1)

    def test_usage_errors(self):
        x1, x2 = _vars(F3, 2)
        with pytest.raises(UsageError):
            find_branch_root(_const(F3, 1, 1))  # constant p
        with pytest.raises(UsageError):
            find_branch_root(x1 * x2)  # p not in x1
        with pytest.raises(UsageError):
            find_branch_root(_vars(QQ, 1)[0])  # not a finite field


class TestSolve:
    def test_frozen_extension_point(self):
        x1, x2 = _vars(F3, 2)
        one = _const(F3, 2, 1)
        outcome, trace = solve(Ideal([x1 * x1 + one, x2 - x1]))
        assert isinstance(outcome, Point)
        assert outcome.tower.order == 9
        assert outcome.reps() == [(0, 1), (0, 1)]
        assert [s.branch for s in trace] == ["root", "base"]
        assert [s.var_index for s in trace] == [0, 1]
        assert to_text(trace[0].eliminated) == "x1^2 + 1"
        assert trace[0].extension is not None and trace[0].extension.order == 9

    def test_frozen_locus_branch(self):
        x1, x2 = _vars(F5, 2)
        one = _const(F5, 2, 1)
        outcome, trace = solve(Ideal([x1 * x2 - one]))
        assert isinstance(outcome, Point)
        assert outcome.tower is F5
        assert outcome.reps() == [1, 1]
        assert [s.branch for s in trace] == ["locus", "base"]
        assert to_text(trace[0].locus) == "x1"
        assert trace[0].eliminated.is_zero()

    def test_a_point_on_the_locus_is_a_kernel_fault(self, monkeypatch):
        # x1 = 0 is a root of the locus x1, so I(0) = <-1> is trivial; the
        # next level's eliminant is then 1, which no proper ideal has
        x1, x2 = _vars(F5, 2)
        monkeypatch.setattr(
            solver, "good_specialization_point", lambda q: FFElement(F5, F5.zero())
        )
        with pytest.raises(KernelError) as caught:
            solve(Ideal([x1 * x2 - _const(F5, 2, 1)]))
        assert not isinstance(caught.value, UsageError)

    def test_one_untracked_completion_per_ideal(self, monkeypatch):
        x1, x2, x3 = _vars(F5, 3)
        two = _const(F5, 3, 2)
        # x1 needs an extension (root), x2*x3 = x1 then meets K[x2] in 0 (locus)
        ideal = Ideal([x1 * x1 - two, x2 * x3 - x1])
        runs = []
        real = groebner.buchberger

        def counting(gens, order=None, **kwargs):
            runs.append((gens, order, kwargs.get("track", False)))
            return real(gens, order, **kwargs)

        monkeypatch.setattr(groebner, "buchberger", counting)
        outcome, trace = solve(ideal)
        assert isinstance(outcome, Point)
        assert [s.branch for s in trace] == ["root", "locus", "base"]
        untracked = [(gens, order) for gens, order, track in runs if not track]
        assert len(untracked) == len(runs) >= 2
        for _, order in untracked:  # so never lex(n) for n >= 2
            assert order == TermOrder.elimination(order.nvars)
        # the root step never completes the 0-variable ideal it evaluates to
        assert all(order.nvars >= 1 for _, order, _ in runs)
        # runs keeps every generator tuple alive, so no id is reused
        assert max(Counter(id(gens) for gens, _ in untracked).values()) == 1

    def _completions(self, monkeypatch, ideal):
        """Runs of the completion engine (field and K[x1]) while solving."""
        runs = []
        real = groebner._complete

        def counting(*args):
            runs.append(args[2])
            return real(*args)

        monkeypatch.setattr(groebner, "_complete", counting)
        monkeypatch.setattr(euclidean, "_complete", counting)
        outcome, trace = solve(ideal)
        assert isinstance(outcome, Point)
        return runs, [s.branch for s in trace]

    def test_a_triangular_system_completes_once(self, monkeypatch):
        # each level's elimination basis is the image of the previous one's
        # (every element leads free of x1 or is the eliminant, which vanishes
        # at the root), so only the input is completed
        golden = Path(__file__).parent / "golden" / "tower3_gf5.gb"
        problem = parse_problem(golden.read_text())
        ideal = Ideal(problem.gens, domain=problem.domain, nvars=problem.nvars)
        runs, branches = self._completions(monkeypatch, ideal)
        assert branches == ["root", "root", "base"]
        assert runs == [problem.domain]

    def test_the_root_level_carries_its_basis(self, monkeypatch):
        # the root level's image is already a basis; the locus level's is not
        # (x2*x3 - t1 leads with x2 and does not vanish at x2 = 1), so the
        # input, the strong basis and the base level make the 3 runs
        x1, x2, x3 = _vars(F5, 3)
        ideal = Ideal([x1 * x1 - _const(F5, 3, 2), x2 * x3 - x1])
        runs, branches = self._completions(monkeypatch, ideal)
        assert branches == ["root", "locus", "base"]
        assert len(runs) == 3
        assert [dom.is_field for dom in runs] == [True, False, True]

    def test_tower_levels_from_factor_output_are_not_rechecked(self, monkeypatch):
        golden = Path(__file__).parent / "golden" / "tower3_levels_gf5.gb"
        problem = parse_problem(golden.read_text())  # x1^2 + 3*x1 + 4 has no root
        ideal = Ideal(problem.gens, domain=problem.domain, nvars=problem.nvars)
        calls = []
        real = unipoly.is_irreducible
        monkeypatch.setattr(
            unipoly, "is_irreducible", lambda f, F: calls.append(F) or real(f, F)
        )
        outcome, trace = solve(ideal)
        assert isinstance(outcome, Point) and len(outcome.tower.levels) == 3
        assert [s.branch for s in trace] == ["root", "root", "base"]
        assert calls == []
        # a level from first_irreducible is not checked a second time either
        unipoly.first_irreducible(2, F3)
        searched = len(calls)
        calls.clear()
        good_specialization_point(_uni(F3, 0, 1) * _uni(F3, 2, 1) * _uni(F3, 1, 1))
        assert len(calls) == searched

    def test_a_level_from_outside_is_checked(self, monkeypatch):
        calls = []
        real = unipoly.is_irreducible
        monkeypatch.setattr(
            unipoly, "is_irreducible", lambda f, F: calls.append(F) or real(f, F)
        )
        # x^2 + 2 = (x - 1)(x + 1) over F3: one check, one message, either way
        for build in (lambda: adjoin_root(F3, (2, 0, 1)), lambda: F3.extend((2, 0, 1))):
            calls.clear()
            with pytest.raises(UsageError) as raised:
                build()
            assert str(raised.value) == "minimal polynomial of t1 is reducible"
            assert calls == [F3]

    def test_zero_ideal_yields_the_origin(self):
        outcome, trace = solve(Ideal([], domain=F3, nvars=2))
        assert isinstance(outcome, Point)
        assert outcome.reps() == [0, 0]
        assert [s.branch for s in trace] == ["locus", "base"]

    def test_zero_ideal_in_one_variable_takes_zero(self):
        outcome, trace = solve(Ideal([], domain=F3, nvars=1))
        assert isinstance(outcome, Point)
        assert outcome.tower is F3 and outcome.reps() == [0]
        assert [s.branch for s in trace] == ["base"]
        assert trace[0].eliminated.is_zero() and trace[0].extension is None

    def test_the_eliminant_passes_over_an_embedded_component(self):
        x1, x2 = _vars(F3, 2)
        one = _const(F3, 2, 1)
        # x1 = 1 makes the second generator -1, so the eliminant is x1 + 1
        embedded = (x1 - one) * (x1 - _const(F3, 2, 2))
        gens = [embedded, (x1 - one) * x2 - one]
        outcome, trace = solve(Ideal(gens))
        assert isinstance(outcome, Point) and outcome.reps() == [2, 1]
        assert to_text(trace[0].eliminated) == "x1 + 1"
        assert all(not g.evaluate(outcome.reps(), F3) for g in gens)

    def test_a_root_that_zeroes_every_generator(self):
        x1, x2 = _vars(F3, 2)
        one = _const(F3, 2, 1)
        outcome, trace = solve(Ideal([(x1 - one) * x2, x1 - one]))
        assert outcome.reps() == [1, 0]
        assert [s.branch for s in trace] == ["root", "base"]
        assert trace[1].eliminated.is_zero()

    def test_one_eliminant_read_per_level(self, monkeypatch):
        x1, x2, x3 = _vars(F5, 3)
        reads = []
        real = solver.eliminate_to_x1
        monkeypatch.setattr(
            solver, "eliminate_to_x1", lambda I: reads.append(I.nvars) or real(I)
        )
        _, trace = solve(Ideal([x1 * x1 - _const(F5, 3, 2), x2 * x3 - x1]))
        assert [s.branch for s in trace] == ["root", "locus", "base"]
        assert reads == [3, 2, 1]

    def test_trivial_ideal_certificate(self):
        x1, _ = _vars(F5, 2)
        one = _const(F5, 2, 1)
        outcome, trace = solve(Ideal([x1, x1 - one]))
        assert isinstance(outcome, Triviality) and trace == []
        assert [to_text(c) for c in outcome.certificate] == ["1", "4"]

    def test_unit_ideal(self):
        one = _const(F2, 2, 1)
        outcome, _ = solve(Ideal([one]))
        assert isinstance(outcome, Triviality)
        assert len(outcome.certificate) == 1 and outcome.certificate[0].is_one()

    def test_tower_input_stays_in_its_tower(self):
        x1 = Polynomial.variable(F9, 1, 0)
        t = Polynomial.constant(F9, 1, (0, 1))
        outcome, _ = solve(Ideal([x1 - t]))
        assert isinstance(outcome, Point)
        assert outcome.tower == F9 and outcome.reps() == [(0, 1)]

    def test_rationals_rejected(self):
        x1 = Polynomial.variable(QQ, 1, 0)
        with pytest.raises(UsageError):
            solve(Ideal([x1]))

    def test_no_variables_rejected(self):
        with pytest.raises(UsageError):
            solve(Ideal([], domain=F3, nvars=0))

    def test_random_outcomes_verify(self):
        rng = random.Random(62)
        points = 0
        trivials = 0
        for _ in range(40):
            gens = [
                random_poly(rng, F3, 2, max_total=2)
                for _ in range(rng.randrange(1, 3))
            ]
            ideal = Ideal(gens, domain=F3, nvars=2)
            outcome, trace = solve(ideal)
            if isinstance(outcome, Triviality):
                trivials += 1
                acc = Polynomial.zero(F3, 2)
                for cof, g in zip(outcome.certificate, gens):
                    acc = acc + cof * g
                assert acc.is_one()
                continue
            points += 1
            reps = outcome.reps()
            for g in gens:
                assert not g.evaluate(reps, outcome.tower)
            assert [s.var_index for s in trace] == list(range(2))
        assert points and trivials

    def test_base_field_points_appear_in_the_exhaustive_list(self):
        rng = random.Random(63)
        for _ in range(25):
            gens = [random_poly(rng, F2, 2, max_total=2) for _ in range(2)]
            ideal = Ideal(gens, domain=F2, nvars=2)
            outcome, _ = solve(ideal)
            if isinstance(outcome, Triviality) or outcome.tower != F2:
                continue
            assert tuple(outcome.reps()) in {
                tuple(z) for z in common_zeros(gens, F2, 2)
            }

    def test_seed_determinism(self):
        # a solve repeats itself, and factoring under another stream for the
        # random splits gives the same outcome
        rng = random.Random(64)
        systems = [
            [random_poly(rng, F3, 2, max_total=2) for _ in range(2)] for _ in range(10)
        ]
        first = [solve(Ideal(gens, domain=F3, nvars=2)) for gens in systems]
        assert [solve(Ideal(gens, domain=F3, nvars=2)) for gens in systems] == first
        with split_stream(5):
            assert [solve(Ideal(gens, domain=F3, nvars=2)) for gens in systems] == first

    def test_memory_does_not_grow_with_the_levels_left(self):
        # v0 + ... + v79 takes 80 steps; each step's ideal and cached bases
        # are freed once the next one is built, so the peak stays near one
        # level's size (about 0.4 MB; all 80 levels together hold about 7 MB)
        names = [f"v{i}" for i in range(80)]
        problem = parse_problem(f"field p 5\nvars {' '.join(names)}\n{' + '.join(names)}\n")
        ideal = Ideal(list(problem.gens), domain=F5, nvars=80)
        tracemalloc.start()
        try:
            outcome, trace = solve(ideal)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(outcome, Point) and len(trace) == 80
        assert peak < 2 * 10**6


class TestIntersect:
    def test_frozen_products(self):
        x1, x2 = _vars(F5, 2)
        one = _const(F5, 2, 1)
        both = ideal_intersect(Ideal([x1]), Ideal([x2]))
        assert ideals_equal(both, Ideal([x1 * x2]))
        both = ideal_intersect(Ideal([x1]), Ideal([x1 + one]))
        assert ideals_equal(both, Ideal([x1 * (x1 + one)]))

    def test_self_intersection(self):
        rng = random.Random(71)
        for _ in range(10):
            gens = [random_poly(rng, F3, 2, max_total=2) for _ in range(2)]
            ideal = Ideal(gens, domain=F3, nvars=2)
            assert ideals_equal(ideal_intersect(ideal, ideal), ideal)

    def test_membership_both_sides(self):
        rng = random.Random(72)
        for _ in range(15):
            left = Ideal(
                [random_poly(rng, F3, 2, max_total=2)], domain=F3, nvars=2
            )
            right = Ideal(
                [random_poly(rng, F3, 2, max_total=2)], domain=F3, nvars=2
            )
            both = ideal_intersect(left, right)
            for g in both.gens:
                assert member(g, left) and member(g, right)
            if left.gens[0].is_zero() or right.gens[0].is_zero():
                continue
            assert member(left.gens[0] * right.gens[0], both)

    def test_ring_mismatch_rejected(self):
        with pytest.raises(UsageError):
            ideal_intersect(
                Ideal([_vars(F3, 2)[0]]), Ideal([_vars(F5, 2)[0]])
            )


class TestCoprimeSplit:
    def test_frozen_split(self):
        x1, x2 = _vars(F5, 2)
        one = _const(F5, 2, 1)
        f1 = x1 - one
        f2 = x1 - _const(F5, 2, 2)
        proof = coprime_split_identity(f1, f2, Ideal([x2]))
        assert proof.equal
        assert (proof.q1 * f1 + proof.q2 * f2).is_one()
        assert len(proof.identities) == 4
        for lhs, rhs in proof.identities:
            assert lhs == rhs

    def test_empty_ideal_side(self):
        x1, _ = _vars(F5, 2)
        one = _const(F5, 2, 1)
        proof = coprime_split_identity(
            x1, x1 - one, Ideal([], domain=F5, nvars=2)
        )
        assert proof.equal
        assert ideals_equal(proof.intersection, Ideal([x1 * (x1 - one)]))

    def test_random_coprime_pairs(self):
        rng = random.Random(73)
        done = 0
        while done < 12:
            a, b = rng.sample(range(5), 2)
            x1, x2 = _vars(F5, 2)
            f1 = x1 - _const(F5, 2, a)
            f2 = x1 - _const(F5, 2, b)
            ideal = Ideal([random_poly(rng, F5, 2, max_total=2)], domain=F5, nvars=2)
            proof = coprime_split_identity(f1, f2, ideal)
            assert proof.equal
            assert (proof.q1 * f1 + proof.q2 * f2).is_one()
            done += 1

    def test_usage_errors(self):
        x1, x2 = _vars(F5, 2)
        ideal = Ideal([x2])
        with pytest.raises(UsageError):
            coprime_split_identity(x1, x1, ideal)  # shared factor
        with pytest.raises(UsageError):
            coprime_split_identity(x2, x1, ideal)  # not univariate in x1
        with pytest.raises(UsageError):
            coprime_split_identity(_vars(F3, 2)[0], x1, ideal)


class TestRadical:
    def test_nilpotent_generator(self):
        x1, x2 = _vars(F3, 2)
        ideal = Ideal([x1 * x1])
        verdict = radical_member(x1, ideal)
        assert verdict and verdict.certificate is not None
        assert not radical_member(x2, ideal)
        assert radical_witness(x1, ideal) == 2
        assert radical_witness(x2, ideal) is None

    def test_plain_members_are_radical_members(self):
        rng = random.Random(81)
        for _ in range(15):
            gens = [random_poly(rng, F3, 2, max_total=2) for _ in range(2)]
            ideal = Ideal(gens, domain=F3, nvars=2)
            f = gens[0] * random_poly(rng, F3, 2, max_total=1)
            assert radical_member(f, ideal)

    def test_witness_agrees_with_the_decision(self):
        rng = random.Random(82)
        for _ in range(20):
            gens = [random_poly(rng, F2, 2, max_total=2)]
            ideal = Ideal(gens, domain=F2, nvars=2)
            f = random_poly(rng, F2, 2, max_total=1)
            e = radical_witness(f, ideal, bound=8)
            if e is not None:
                assert member(f**e, ideal)
                assert radical_member(f, ideal)

    def test_usage_errors(self):
        x1, _ = _vars(F3, 2)
        with pytest.raises(UsageError):
            radical_member(_vars(F5, 2)[0], Ideal([x1]))
        with pytest.raises(UsageError):
            radical_witness(x1, Ideal([x1]), bound=0)


class TestQuotientSplit:
    """Coprime splits preserve residue counts, not just ideal equality."""

    @staticmethod
    def _staircase(ideal):
        gb = ideal.groebner()
        order = gb.order
        leads = [g.leading(order).exponents for g in gb.elements]
        box = []
        for i in range(ideal.nvars):
            pure = [e[i] for e in leads if all(e[j] == 0 for j in range(ideal.nvars) if j != i)]
            if not pure:
                return None  # not zero-dimensional
            box.append(min(pure))
        count = 0
        for exps in itertools.product(*(range(b) for b in box)):
            if not any(exp_divides(lt, exps) for lt in leads):
                count += 1
        return count

    def test_dimension_counts_add_up(self):
        rng = random.Random(83)
        x1, x2 = _vars(F3, 2)
        done = 0
        while done < 10:
            a, b = rng.sample(range(3), 2)
            f1 = x1 - _const(F3, 2, a)
            f2 = x1 - _const(F3, 2, b)
            # keep the quotient finite: cap x2 with a random monic univariate
            cap_coeffs = [F3.element(rng.randrange(3)) for _ in range(2)] + [F3.one()]
            cap = Polynomial.from_dense(F3, 2, 1, tuple(cap_coeffs))
            ideal = Ideal([cap], domain=F3, nvars=2)
            whole = Ideal(list(ideal.gens) + [f1 * f2], domain=F3, nvars=2)
            side1 = Ideal(list(ideal.gens) + [f1], domain=F3, nvars=2)
            side2 = Ideal(list(ideal.gens) + [f2], domain=F3, nvars=2)
            if is_trivial(whole):
                continue
            total = self._staircase(whole)
            parts = [self._staircase(side1), self._staircase(side2)]
            if total is None or None in parts:
                continue
            assert total == parts[0] + parts[1]
            done += 1

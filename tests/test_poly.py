"""Sparse polynomials and term orders."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import exp_divides, random_poly, random_poly_q, total_degree
from gbsolve import unipoly
from gbsolve.errors import UsageError, ZeroPolynomialError
from gbsolve.fields import GF, QQ
from gbsolve.poly import (
    Overflow,
    Packing,
    Polynomial,
    TermOrder,
    exp_add,
    to_text,
)
from gbsolve.unipoly import elem_pow

F5 = GF(5)
F3 = GF(3)
F9 = F3.extend((1, 0, 1))
F625 = F5.extend(unipoly.first_irreducible(2, F5))
F625 = F625.extend(unipoly.first_irreducible(2, F625))  # untabled over GF(25)


def _xyz(domain, nvars=2):
    return [Polynomial.variable(domain, nvars, i) for i in range(nvars)]


def const(domain, nvars, n):
    return Polynomial.constant(domain, nvars, domain.from_int(n))


def _cmp(a, b):
    return (a > b) - (a < b)


def _or_overflow(f, *args):
    try:
        return f(*args)
    except Overflow:
        return Overflow


def _check_packing(order, rng, bits=3):
    """Packed terms compare, divide, add, take lcms and unpack as their
    exponent tuples."""
    top = (1 << bits) - 1
    pk = Packing(order, bits)
    n = order.nvars
    samples = [tuple(rng.choice((0, 1, top, rng.randrange(top + 1))) for _ in range(n))]
    samples += [tuple(rng.randrange(top + 1) for _ in range(n)) for _ in range(6)]
    samples += [tuple(rng.randrange(4) for _ in range(n)) for _ in range(3)]
    # each variable alone at the largest value its field (and the degree) holds
    weights = order.weights or (1,) * n
    samples += [tuple(top // w if j == i else 0 for j in range(n)) for i, w in enumerate(weights)]
    packed = {}
    for exps in samples:
        if max(order.key(exps), default=0) > top:
            with pytest.raises(Overflow):
                pk.pack(exps)
        else:
            packed[exps] = pk.pack(exps)
            assert pk.unpack(packed[exps]) == exps
    for s, ps in packed.items():
        for t, pt in packed.items():
            assert _cmp(ps, pt) == _cmp(order.key(s), order.key(t))
            assert ((pt - ps) & pk.guard == 0) == exp_divides(s, t)
            total = exp_add(s, t)
            if max(order.key(total), default=0) > top:
                assert (ps + pt) & pk.guard
            else:
                assert ps + pt == pk.pack(total)
            lcm = tuple(map(max, s, t))
            assert _or_overflow(pk.lcm, ps, pt) == _or_overflow(pk.pack, lcm)


class TestTermOrder:
    def test_lex_ranks_x1_first(self):
        order = TermOrder.lex(2)
        assert order.compare((1, 0), (0, 5)) == 1
        assert order.compare((2, 0), (2, 3)) == -1
        assert order.compare((1, 1), (1, 1)) == 0

    def test_priority_permutes_significance(self):
        order = TermOrder.lex(2, priority=(1, 0))
        assert order.compare((5, 0), (0, 1)) == -1

    def test_weighted_compares_total_weight_first(self):
        order = TermOrder.weighted((1, 1))
        assert order.compare((0, 3), (2, 0)) == 1
        # tie on weight falls back to lex
        assert order.compare((2, 1), (1, 2)) == 1

    def test_one_is_minimal_and_multiplication_compatible(self):
        rng = random.Random(7)
        for order in (TermOrder.lex(3), TermOrder.weighted((2, 1, 3))):
            for _ in range(200):
                s = tuple(rng.randrange(4) for _ in range(3))
                t = tuple(rng.randrange(4) for _ in range(3))
                u = tuple(rng.randrange(4) for _ in range(3))
                if s != (0, 0, 0):
                    assert order.compare(s, (0, 0, 0)) == 1
                c = order.compare(s, t)
                su = tuple(a + b for a, b in zip(s, u))
                tu = tuple(a + b for a, b in zip(t, u))
                assert order.compare(su, tu) == c

    def test_total_on_distinct_tuples(self):
        order = TermOrder.lex(2)
        assert order.compare((1, 2), (1, 3)) != 0

    def test_bad_priority_rejected(self):
        with pytest.raises(UsageError):
            TermOrder((0, 0))
        with pytest.raises(UsageError):
            TermOrder.weighted((1, -1))

    def test_length_mismatch_rejected(self):
        with pytest.raises(UsageError):
            TermOrder.lex(2).compare((1,), (2,))

    def test_elimination_ranks_x1_last(self):
        assert TermOrder.elimination(0) == TermOrder.lex(0)
        assert TermOrder.elimination(0).priority == ()
        assert TermOrder.elimination(1) == TermOrder.lex(1)
        order = TermOrder.elimination(3)
        assert order.priority == (2, 1, 0)
        assert order.compare((0, 0, 1), (5, 0, 0)) == 1  # x3 above x1^5
        assert order.compare((0, 0, 1), (0, 9, 0)) == 1  # x3 above x2^9
        assert order.compare((0, 1, 0), (9, 0, 0)) == 1  # x2 above x1^9

    def test_key_is_priority_lex_led_by_weighted_degree(self):
        rng = random.Random(3)
        for nvars in range(5):
            for _ in range(20):
                priority = tuple(rng.sample(range(nvars), nvars))
                weights = tuple(rng.randrange(1, 4) for _ in range(nvars))
                exps = tuple(rng.randrange(4) for _ in range(nvars))
                lexkey = tuple(exps[i] for i in priority)
                weighted = (sum(w * e for w, e in zip(weights, exps)),) + lexkey
                assert TermOrder.lex(nvars, priority).key(exps) == lexkey
                assert TermOrder.weighted(weights, priority).key(exps) == weighted
                assert TermOrder.lex(nvars, priority).key(list(exps)) == lexkey
                for order in (
                    TermOrder.lex(nvars, priority),
                    TermOrder.elimination(nvars),
                    TermOrder.weighted(weights, priority),
                    TermOrder.weighted((1,) * nvars, priority),
                ):
                    _check_packing(order, rng)


class TestPackedLcm:
    """``Packing.lcm`` is bitwise under every order, with a weighted order's
    degree field recomputed from the lcm's variable fields; it must equal the
    packed fieldwise max, ``Overflow`` included."""

    def test_lcm_under_plain_permuted_and_weighted_orders(self):
        rng = random.Random(11)
        base = 10**200  # weights as large as test_overflow_restart's
        for order, bits in (
            (TermOrder.lex(3), 3),
            (TermOrder.lex(3, (2, 0, 1)), 3),
            (TermOrder.weighted((1, 1, 1)), 3),
            (TermOrder.weighted((2, 1, 3), (1, 2, 0)), 4),
            (TermOrder.weighted((base, base + 1, 3 * base)), 670),
            (TermOrder.weighted((base + 7, base, base), (1, 2, 0)), 670),
        ):
            for _ in range(20):
                _check_packing(order, rng, bits)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.data())
    def test_lcm_is_the_packed_fieldwise_max(self, data):
        nvars = data.draw(st.integers(1, 4))
        bits = data.draw(st.integers(1, 6))
        kind = data.draw(st.sampled_from(["lex", "elimination", "priority", "weighted"]))
        priority = data.draw(st.permutations(range(nvars)))
        if kind == "lex":
            order = TermOrder.lex(nvars)
        elif kind == "elimination":
            order = TermOrder.elimination(nvars)
        elif kind == "priority":
            order = TermOrder.lex(nvars, priority)
        else:
            weights = data.draw(st.lists(st.integers(1, 3), min_size=nvars, max_size=nvars))
            order = TermOrder.weighted(weights, priority)
        pk, top = Packing(order, bits), (1 << bits) - 1
        field = st.one_of(st.just(0), st.just(top), st.integers(0, top))
        terms = []
        for _ in range(2):
            exps = [data.draw(field) for _ in range(nvars)]
            while max(order.key(tuple(exps))) > top:  # the weighted degree fits
                exps[exps.index(max(exps))] -= 1
            terms.append(pk.pack(tuple(exps)))
        s, t = terms
        lcm = tuple(map(max, pk.unpack(s), pk.unpack(t)))
        if max(order.key(lcm)) > top:
            with pytest.raises(Overflow):
                pk.lcm(s, t)
            return
        assert pk.lcm(s, t) == pk.lcm(t, s) == pk.pack(lcm)


class _Counting:
    """A tower's arithmetic that counts its products."""

    def __init__(self, tower):
        self.tower, self.products = tower, 0

    def mul(self, a, b):
        self.products += 1
        return self.tower.mul(a, b)

    def __getattr__(self, name):
        return getattr(self.tower, name)


def _per_term_evaluate_x1(f, a, dom):
    """evaluate_x1 with one ``elem_pow`` per term, the reference."""
    out = {}
    for exps, c in f.coeffs.items():
        val = dom.mul(dom.lift(c, f.domain), elem_pow(a, exps[0], dom))
        rest = exps[1:]
        out[rest] = dom.add(out[rest], val) if rest in out else val
    return {e: c for e, c in out.items() if c}


def _per_term_evaluate(f, point, dom):
    """evaluate with one ``elem_pow`` per variable of each term, the reference."""
    total = dom.zero()
    for exps, c in f.coeffs.items():
        val = dom.lift(c, f.domain)
        for a, e in zip(point, exps):
            if e:
                val = dom.mul(val, elem_pow(a, e, dom))
        total = dom.add(total, val)
    return total


class TestEvaluationPowers:
    """Evaluation takes one power per distinct exponent of each variable,
    with the same values and never more products than per-term powers."""

    @settings(max_examples=80, derandomize=True, database=None, deadline=None)
    @given(st.sampled_from([F9, F625]), st.data())
    def test_evaluation_matches_per_term_powers(self, tower, data):
        exponent = st.one_of(st.integers(0, 6), st.integers(0, 70), st.just(2**40 + 3))
        nterms = data.draw(st.integers(1, 8))
        coeffs = {
            (data.draw(exponent), data.draw(exponent)): data.draw(st.integers(1, 2))
            for _ in range(nterms)
        }
        f = Polynomial(F3 if tower is F9 else F5, 2, coeffs)
        index = st.integers(0, tower.order - 1)
        point = [tower.element(data.draw(index)) for _ in range(2)]
        for method, reference, args in (
            ("evaluate_x1", _per_term_evaluate_x1, (point[0],)),
            ("evaluate", _per_term_evaluate, (point,)),
        ):
            fast, slow = _Counting(tower), _Counting(tower)
            got = getattr(f, method)(*args, fast)
            want = reference(f, *args, slow)
            assert (got.coeffs if method == "evaluate_x1" else got) == want
            assert fast.products <= slow.products

    def test_a_huge_exponent_costs_its_ladder(self):
        x1, x2 = _xyz(F5)
        f = x1 ** 3 * x2 + x1 + Polynomial.term(F5, 2, 1, (2**200, 1))
        a, b = F625.generator(), F625.add(F625.generator(), F625.one())
        fast, slow = _Counting(F625), _Counting(F625)
        start = time.perf_counter()
        got = f.evaluate_x1(a, fast)
        assert time.perf_counter() - start < 0.5
        assert got.coeffs == _per_term_evaluate_x1(f, a, slow)
        assert fast.products <= slow.products
        assert f.evaluate([a, b], F625) == _per_term_evaluate(f, [a, b], F625)


class TestConstruction:
    def test_zero_coefficients_dropped(self):
        p = Polynomial(F5, 2, {(1, 0): F5.from_int(5), (0, 1): F5.from_int(1)})
        assert p.coeffs == {(0, 1): 1}

    def test_negative_exponent_rejected(self):
        with pytest.raises(UsageError):
            Polynomial(F5, 2, {(-1, 0): 1})

    def test_wrong_arity_rejected(self):
        with pytest.raises(UsageError):
            Polynomial(F5, 2, {(1,): 1})

    def test_grammar_walk_example(self):
        # x1^2*x2 - 3 over the rationals
        x1, x2 = _xyz(QQ)
        p = x1 * x1 * x2 - const(QQ, 2, 3)
        assert p.coeffs == {(2, 1): 1, (0, 0): -3}

    def test_leading_of_zero_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            Polynomial.zero(F5, 2).leading(TermOrder.lex(2))


class TestArithmetic:
    @pytest.mark.parametrize("seed", range(4))
    def test_ring_axioms_random(self, seed):
        rng = random.Random(seed)
        for domain, sample in ((F5, random_poly), (QQ, random_poly_q)):
            f = sample(rng, domain, 2)
            g = sample(rng, domain, 2)
            h = sample(rng, domain, 2)
            assert (f + g) * h == f * h + g * h
            assert f * g == g * f
            assert f - f == Polynomial.zero(domain, 2)
            assert (f * g) * h == f * (g * h)

    def test_pow_matches_repeated_multiplication(self):
        x1, x2 = _xyz(F5)
        f = x1 + x2
        assert f ** 3 == f * f * f
        assert f ** 0 == Polynomial.constant(F5, 2, F5.one())
        with pytest.raises(UsageError):
            f ** -1

    def test_evaluation_is_a_homomorphism(self):
        rng = random.Random(11)
        for _ in range(50):
            f = random_poly(rng, F5, 2)
            g = random_poly(rng, F5, 2)
            point = [rng.randrange(5), rng.randrange(5)]
            ev = lambda p: p.evaluate(point)
            assert ev(f + g) == F5.add(ev(f), ev(g))
            assert ev(f * g) == F5.mul(ev(f), ev(g))

    def test_evaluate_x1_lifts_into_towers(self):
        F9 = F3.extend((1, 0, 1))
        t = F9.generator()
        x1, x2 = _xyz(F3)
        p = x1 * x1 + const(F3, 2, 1)  # vanishes at t
        q = p.evaluate_x1(t, F9)
        assert q.nvars == 1 and q.is_zero()
        r = (x1 + x2).evaluate_x1(t, F9)
        assert r.coeffs == {(1,): F9.one(), (0,): t}

    def test_evaluate_x1_takes_sparse_high_powers(self):
        F9 = F3.extend((1, 0, 1))
        a, b = F9.add(F9.generator(), F9.one()), F9.generator()
        x1, x2 = _xyz(F3)
        p = x1**5000 * x2 + const(F3, 2, 2) * x1 * x2 * x2 + const(F3, 2, 1)
        assert p.evaluate_x1(a, F9).evaluate([b], F9) == p.evaluate([a, b], F9)


class TestStructure:
    def test_univariate_and_dense_round_trip(self):
        x1, _ = _xyz(F5)
        p = x1 * x1 - const(F5, 2, 1)
        assert p.univariate_in(0)
        assert not (p + _xyz(F5)[1]).univariate_in(0)
        assert p.dense_in(0) == (4, 0, 1)
        assert Polynomial.from_dense(F5, 2, 0, p.dense_in(0)) == p

    def test_with_new_var_then_drop_round_trips(self):
        rng = random.Random(3)
        for _ in range(20):
            p = random_poly(rng, F3, 2)
            for i in range(3):
                assert p.with_new_var(i).drop_var(i) == p

    def test_drop_used_variable_rejected(self):
        x1, _ = _xyz(F5)
        with pytest.raises(UsageError):
            x1.drop_var(0)

    def test_total_degree(self):
        x1, x2 = _xyz(F5)
        assert total_degree(x1 * x1 * x2 + x2) == 3
        assert total_degree(Polynomial.zero(F5, 2)) == -1


class TestPrinting:
    def test_monic_quadratic(self):
        x1, _ = _xyz(QQ)
        assert to_text(x1 * x1 - const(QQ, 2, 1)) == "x1^2 - 1"

    def test_residues_stay_nonnegative(self):
        x1, _ = _xyz(F5)
        assert to_text(x1 * x1 - const(F5, 2, 1)) == "x1^2 + 4"

    def test_leading_minus_and_fractions(self):
        x1, _ = _xyz(QQ)
        half = Polynomial.constant(QQ, 2, QQ.from_int(1) / 2)
        assert to_text(-x1 + half) == "-x1 + 1/2"

    def test_zero_and_constants(self):
        assert to_text(Polynomial.zero(QQ, 2)) == "0"
        assert to_text(const(QQ, 2, -1)) == "-1"

    def test_minus_one_coefficient_not_spelled(self):
        x1, x2 = _xyz(QQ)
        assert to_text(x2 - x1 * x1) == "-x1^2 + x2"

    def test_custom_names(self):
        x1, x2 = _xyz(F5)
        assert to_text(x1 * x2 * x2, names=("u", "v")) == "u*v^2"

"""Dense univariate arithmetic and finite-field factorization.

Factorization results are checked against two independent oracles: exact
product reconstruction, and irreducibility by exhaustive trial division at
small sizes.
"""

import itertools
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import poly_pow, reference_factor, split_stream, textbook_divmod
from gbsolve import unipoly
from gbsolve.errors import UsageError
from gbsolve.fields import GF, QQ, FieldTower
from gbsolve.poly import Polynomial

F2, F3, F5, F7 = GF(2), GF(3), GF(5), GF(7)
F4 = F2.extend((1, 1, 1))
F9 = F3.extend((1, 0, 1))
F81 = F9.extend(unipoly.first_irreducible(2, F9))
F25 = F5.extend(unipoly.first_irreducible(2, F5))
F27 = F3.extend(unipoly.first_irreducible(3, F3))
F49 = F7.extend(unipoly.first_irreducible(2, F7))
F625 = F25.extend(unipoly.first_irreducible(2, F25))  # above TABLE_MAX_ORDER
F125 = F5.extend(unipoly.first_irreducible(3, F5))
F32003 = GF(32003)
# prime, large prime, tabled, and untabled over a tabled sub-level
ARITHMETIC = [F5, F32003, F9, F625]
ARITHMETIC_IDS = ["GF5", "GF32003", "GF9", "GF625"]


def _random_tuple(rng, field, max_deg):
    return unipoly.trim(
        tuple(field.element(rng.randrange(field.order)) for _ in range(max_deg + 1)),
        field,
    )


def _all_monic(field, degree):
    base = list(field.elements())
    for tail in itertools.product(base, repeat=degree):
        yield unipoly.trim(tuple(tail) + (field.one(),), field)


def _irreducible_by_trial_division(f, field):
    d = unipoly.deg(f)
    if d < 1:
        return False
    for k in range(1, d // 2 + 1):
        for g in _all_monic(field, k):
            if unipoly.divides(g, f, field):
                return False
    return True


def _operand_pairs(rng, field, n, max_deg):
    """n random pairs of tuples of degree <= max_deg, each also with the
    zero polynomial and with a constant in its place."""
    for _ in range(n):
        a = _random_tuple(rng, field, max_deg)
        b = _random_tuple(rng, field, max_deg)
        c = (field.element(rng.randrange(1, field.order)),)
        yield from [(a, b), ((), b), (a, ()), (c, b), (a, c)]


class TestDivision:
    @pytest.mark.parametrize("field", [F2, F3, F5, F9, F32003, F625])
    def test_divmod_contract(self, field):
        # q*g + r = f and deg r < deg g, for monic and non-monic divisors,
        # constants included, and quo and rem are its two halves
        rng = random.Random(2)
        for a, b in _operand_pairs(rng, field, 30, 5):
            for g in (b, unipoly.monic(b, field), unipoly.trim(b[:2], field)):
                if not g:
                    continue
                q, r = unipoly.divmod_(a, g, field)
                recombined = unipoly.add(unipoly.mul(q, g, field), r, field)
                assert recombined == a
                assert unipoly.deg(r) < unipoly.deg(g)
                assert unipoly.quo(a, g, field) == q and unipoly.rem(a, g, field) == r

    @pytest.mark.parametrize("field", [F5, F9, F81], ids=["GF5", "GF9", "GF81"])
    def test_monic_divisor_inverts_nothing(self, field, monkeypatch):
        rng = random.Random(19)
        general, monic = [], []
        while len(general) < 30:
            a = _random_tuple(rng, field, 6)
            b = _random_tuple(rng, field, 3)
            if b:
                general.append((a, b))
                monic.append((a, unipoly.monic(b, field)))
        expected = [textbook_divmod(a, b, field) for a, b in monic + general]
        calls = []
        real_inv, real_xgcd = FieldTower.inv, unipoly.xgcd
        monkeypatch.setattr(
            FieldTower, "inv", lambda F, a: calls.append("inv") or real_inv(F, a)
        )
        monkeypatch.setattr(
            unipoly, "xgcd", lambda *a: calls.append("xgcd") or real_xgcd(*a)
        )
        got = [unipoly.divmod_(a, b, field) for a, b in monic]
        assert calls == []
        got += [unipoly.divmod_(a, b, field) for a, b in general]
        assert got == expected
        # rem keeps no quotient: at most (deg a - n + 1) * n products of field
        # elements for a monic b of degree n, none when deg a < n
        while len(general) < 40:
            a = _random_tuple(rng, field, 2)
            b = _random_tuple(rng, field, 3)
            if unipoly.deg(b) > unipoly.deg(a):
                general.append((a, b))
                monic.append((a, unipoly.monic(b, field)))
        expected = [textbook_divmod(a, b, field)[1] for a, b in monic + general]
        calls.clear()
        products = []
        real_mul = FieldTower.mul

        def counting_mul(F, x, y):
            if F is field:
                products.append((x, y))
            return real_mul(F, x, y)

        monkeypatch.setattr(FieldTower, "mul", counting_mul)
        for (a, b), want in zip(monic, expected):
            products.clear()
            assert unipoly.rem(a, b, field) == want
            n = unipoly.deg(b)
            assert len(products) <= max(unipoly.deg(a) - n + 1, 0) * n
        assert calls == []
        got = [unipoly.rem(a, b, field) for a, b in general]
        assert got == expected[len(monic):]

    @pytest.mark.parametrize("field", ARITHMETIC, ids=ARITHMETIC_IDS)
    def test_mul_mod_is_the_remainder_of_the_product(self, field):
        # operands reduced or not, zero and constant ones, and moduli of
        # degree 0 to 4
        rng = random.Random(31)
        for a, b in _operand_pairs(rng, field, 30, 6):
            m = unipoly.monic(_random_tuple(rng, field, rng.randrange(5)), field)
            if not m:
                continue
            want = unipoly.rem(unipoly.mul(a, b, field), m, field)
            assert unipoly.mul_mod(a, b, m, field) == want
            ra, rb = unipoly.rem(a, m, field), unipoly.rem(b, m, field)
            assert unipoly.mul_mod(ra, rb, m, field) == want

    @pytest.mark.parametrize("field", [F2, F3], ids=["GF2", "GF3"])
    def test_mul_mod_by_every_quadratic(self, field):
        # the written-out product modulo t^2 + c1*t + c0, on every monic
        # quadratic, reducible ones such as t^2 and t^2 + 1 over GF(2)
        # included, and every pair of operands of degree <= 1
        moduli = list(_all_monic(field, 2))
        pairs = itertools.product(range(field.p), repeat=2)
        operands = [unipoly.trim(t, field) for t in pairs]
        assert len(moduli) == field.p**2 and len(set(operands)) == field.p**2
        assert F2 is not field or {(0, 0, 1), (1, 0, 1)} <= set(moduli)
        for m in moduli:
            for a, b in itertools.product(operands, repeat=2):
                want = unipoly.rem(unipoly.mul(a, b, field), m, field)
                assert unipoly.mul_mod(a, b, m, field) == want, (a, b, m)

    @pytest.mark.parametrize(
        "field", [F32003, F9, F25, F625], ids=["GF32003", "GF9", "GF25", "GF625"]
    )
    def test_mul_mod_by_a_quadratic_over_every_sub_level(self, field, monkeypatch):
        # a prime field in ints, tabled and untabled sub-levels through the
        # field's methods, which never multiply by zero; operands of degree
        # >= 2 take the general loop
        rng = random.Random(33)
        zero_products = []
        real_mul = FieldTower.mul

        def mul(F, x, y):
            if F is field and not (x and y):
                zero_products.append((x, y))
            return real_mul(F, x, y)

        monkeypatch.setattr(FieldTower, "mul", mul)
        rand = lambda: field.element(rng.randrange(field.order))
        for _ in range(40):
            m = (rand(), rand(), field.one())
            low_zero = (field.zero(), field.element(rng.randrange(1, field.order)))
            pairs = list(_operand_pairs(rng, field, 3, 1))
            pairs += [(low_zero, b) for _, b in pairs] + [(low_zero, low_zero)]
            pairs += list(_operand_pairs(rng, field, 3, 4))
            for a, b in pairs:
                want = unipoly.rem(unipoly.mul(a, b, field), m, field)
                zero_products.clear()
                assert unipoly.mul_mod(a, b, m, field) == want, (a, b, m)
                if unipoly.deg(a) <= 1 and unipoly.deg(b) <= 1:
                    assert zero_products == []

    @pytest.mark.parametrize("field", ARITHMETIC, ids=ARITHMETIC_IDS)
    def test_pow_mod_with_a_non_monic_modulus(self, field):
        rng = random.Random(32)
        checked = 0
        while checked < 12:
            m = _random_tuple(rng, field, rng.randrange(1, 4))
            if unipoly.deg(m) < 1 or field.is_one(m[-1]):
                continue
            checked += 1
            f = _random_tuple(rng, field, 4)
            e = rng.randrange(12)
            want = unipoly.rem(poly_pow(f, e, field), m, field)
            assert unipoly.pow_mod(f, e, m, field) == want
            assert unipoly.pow_mod(f, e, unipoly.monic(m, field), field) == want

    def test_division_by_zero_rejected(self):
        with pytest.raises(UsageError):
            unipoly.divmod_((1, 1), (), F5)

    def test_gcd_of_common_multiples(self):
        rng = random.Random(9)
        for _ in range(40):
            w = _random_tuple(rng, F5, 2)
            u = _random_tuple(rng, F5, 2)
            v = _random_tuple(rng, F5, 2)
            if not (w and u and v):
                continue
            f = unipoly.mul(u, w, F5)
            g = unipoly.mul(v, w, F5)
            d = unipoly.gcd(f, g, F5)
            assert unipoly.divides(w, d, F5)
            assert unipoly.divides(d, f, F5) and unipoly.divides(d, g, F5)
            assert F5.is_one(d[-1])

    def test_gcd_works_over_the_rationals(self):
        # (x-1)(x+2) and (x-1)(x-3)
        f = unipoly.mul((-1, 1), (2, 1), QQ)
        g = unipoly.mul((-1, 1), (-3, 1), QQ)
        assert unipoly.gcd(f, g, QQ) == (-1, 1)


class TestDerivativeAndSquarefree:
    def test_derivative_product_rule(self):
        rng = random.Random(4)
        for _ in range(30):
            f = _random_tuple(rng, F5, 3)
            g = _random_tuple(rng, F5, 3)
            lhs = unipoly.derivative(unipoly.mul(f, g, F5), F5)
            rhs = unipoly.add(
                unipoly.mul(unipoly.derivative(f, F5), g, F5),
                unipoly.mul(f, unipoly.derivative(g, F5), F5),
                F5,
            )
            assert lhs == rhs

    def test_sqf_reconstructs_and_separates(self):
        rng = random.Random(8)
        for field in (F2, F3, F5):
            for _ in range(25):
                f = _random_tuple(rng, field, 4)
                if unipoly.deg(f) < 1:
                    continue
                parts = unipoly.sqf_list(unipoly.monic(f, field), field)
                acc = unipoly.one(field)
                for g, e in parts:
                    acc = unipoly.mul(acc, poly_pow(g, e, field), field)
                assert acc == unipoly.monic(f, field)


class TestFactor:
    @pytest.mark.parametrize("field", [F2, F3, F5, F4, F9])
    def test_reconstruction_and_irreducibility(self, field):
        rng = random.Random(31)
        for _ in range(25):
            f = _random_tuple(rng, field, 4)
            if unipoly.deg(f) < 1:
                continue
            factors = unipoly.factor(f, field)
            acc = unipoly.one(field)
            for g, e in factors:
                assert F_is_monic(g, field)
                if field.order <= 9:
                    assert _irreducible_by_trial_division(g, field)
                acc = unipoly.mul(acc, poly_pow(g, e, field), field)
            assert acc == unipoly.monic(f, field)

    def test_factor_is_deterministic(self):
        f = (2, 0, 1, 0, 1, 1)
        with split_stream(7):
            first = unipoly.factor(f, F3)
            second = unipoly.factor(f, F3)
        assert first == second

    def test_frozen_split_over_f5(self):
        # x^2 - 1: roots ordered 1 then 4
        assert unipoly.factor((4, 0, 1), F5) == [((4, 1), 1), ((1, 1), 1)]

    def test_frozen_multiplicities(self):
        # (x-1)^2 (x^2+1) over F3
        f = unipoly.mul(unipoly.mul((2, 1), (2, 1), F3), (1, 0, 1), F3)
        assert unipoly.factor(f, F3) == [((2, 1), 2), ((1, 0, 1), 1)]

    def test_pth_power_multiplicity(self):
        # x^3 - 1 = (x-1)^3 over F3
        assert unipoly.factor((2, 0, 0, 1), F3) == [((2, 1), 3)]

    def test_field_equation_splits_into_all_roots(self):
        for field in (F2, F3, F5):
            q = field.order
            f = tuple(
                field.one() if i == q else (field.neg(field.one()) if i == 1 else field.zero())
                for i in range(q + 1)
            )
            factors = unipoly.factor(f, field)
            roots = [field.neg(g[0]) for g, _ in factors]
            assert roots == list(field.elements())

    def test_char2_extension_split(self):
        # x^2 + x + 1 splits over F4 into the two generators
        f = (F4.one(), F4.one(), F4.one())
        factors = unipoly.factor(f, F4)
        assert len(factors) == 2 and all(e == 1 for _, e in factors)
        for g, _ in factors:
            assert unipoly.evaluate(f, F4.neg(g[0]), F4) == F4.zero()

    def test_constant_rejected(self):
        with pytest.raises(UsageError):
            unipoly.factor((3,), F5)
        with pytest.raises(UsageError):
            unipoly.factor((), F5)


def _euler_square(a, field):
    """Euler's criterion: a is 0 or a^((q-1)/2) = 1."""
    return not a or field.is_one(unipoly.elem_pow(a, (field.order - 1) // 2, field))


class TestQuadraticSplit:
    """Squarefree quadratics in odd characteristic split by one square root."""

    @pytest.mark.parametrize(
        "field", [F3, F5, F7, F9, F25, F27, F49, F81, F125], ids=lambda F: f"GF{F.order}"
    )
    def test_sqrt_of_every_element(self, field):
        roots = {a: unipoly._sqrt(a, field) for a in field.elements()}
        squares = {a for a, r in roots.items() if r is not None}
        assert all(field.mul(r, r) == a for a, r in roots.items() if r is not None)
        assert len(squares) == (field.order + 1) // 2
        assert squares == {field.mul(b, b) for b in field.elements()}
        assert squares == {a for a in field.elements() if _euler_square(a, field)}

    @pytest.mark.parametrize("field", [F625, GF(32003)], ids=["GF625", "GF32003"])
    def test_sqrt_on_a_fixed_sample(self, field):
        squares = {field.mul(b, b) for b in field.elements()}
        for i in random.Random(3).sample(range(field.order), 60):
            a = field.element(i)
            r = unipoly._sqrt(a, field)
            assert (r is not None) == (a in squares) == _euler_square(a, field), i
            assert r is None or field.mul(r, r) == a, i

    @settings(max_examples=120, derandomize=True, database=None, deadline=None)
    @given(
        st.sampled_from([F3, F5, F7, F9, F25, F81, F625, F4]),
        st.sampled_from(["split", "irreducible", "squared", "product"]),
        st.integers(0, 2**32 - 1),
    )
    def test_factor_matches_the_reference(self, field, shape, seed):
        rng = random.Random(seed)

        def monic_of_degree(d):
            tail = tuple(field.element(rng.randrange(field.order)) for _ in range(d))
            return tail + (field.one(),)

        if shape == "split":
            a, b = rng.sample(range(field.order), 2)
            one = field.one()
            f = unipoly.mul((field.element(a), one), (field.element(b), one), field)
        elif shape == "irreducible":
            f = monic_of_degree(2)
            while not unipoly.is_irreducible(f, field):  # about half of all quadratics are
                f = monic_of_degree(2)
        elif shape == "squared":
            f = poly_pow(monic_of_degree(2), 2, field)
        else:
            f = (field.element(rng.randrange(1, field.order)),)
            for _ in range(rng.randrange(1, 4)):
                g = poly_pow(monic_of_degree(rng.randrange(1, 4)), rng.randrange(1, 3), field)
                f = unipoly.mul(f, g, field)
        want = reference_factor(f, field)
        with split_stream(seed):
            assert unipoly.factor(f, field) == want
        if shape in ("split", "irreducible"):
            assert len(want) == (2 if shape == "split" else 1)

    @staticmethod
    def _generic_factor(f, field):
        """factor's answer for a monic quadratic by derivative and gcd, then
        ddf and edf: no discriminant and no square root."""
        g = unipoly.gcd(f, unipoly.derivative(f, field), field)
        parts = [(f, 1)] if unipoly.deg(g) == 0 else [(g, 2)]
        assert parts == unipoly.sqf_list(f, field)
        out = [
            (unipoly.monic(irr, field), e)
            for h, e in parts
            for part, d in unipoly.ddf(h, field)
            for irr in unipoly.edf(part, d, field)
        ]
        return sorted(out, key=lambda ge: unipoly.factor_key(ge[0], field))

    @pytest.mark.parametrize("field", [F5, F9, F25], ids=lambda F: f"GF{F.order}")
    def test_every_monic_quadratic_factors_as_the_generic_way(self, field):
        elements = list(field.elements())
        for b in elements:
            for c in elements:
                f = unipoly.trim((c, b, field.one()), field)
                assert unipoly.factor(f, field) == self._generic_factor(f, field), f

    def test_sampled_quadratics_over_gf625_factor_as_the_generic_way(self):
        rng, one = random.Random(6), F625.one()
        double_roots = [F625.element(rng.randrange(F625.order)) for _ in range(10)]
        squares = [unipoly.mul((h, one), (h, one), F625) for h in double_roots]
        for f in squares + [
            (F625.element(rng.randrange(F625.order)), F625.element(rng.randrange(F625.order)), one)
            for _ in range(40)
        ]:
            f = unipoly.trim(f, F625)
            assert unipoly.factor(f, F625) == self._generic_factor(f, F625), f

    def test_quadratic_takes_no_gcd_and_no_ddf(self, monkeypatch):
        """A quadratic over GF(625), split or irreducible, is found squarefree
        by its discriminant and split by one square root: no gcd, ddf or edf."""
        calls = []
        for name in ("ddf", "edf", "gcd"):
            real = getattr(unipoly, name)
            monkeypatch.setattr(
                unipoly, name, lambda *a, real=real, name=name: calls.append(name) or real(*a)
            )
        t = F625.generator()
        split = unipoly.mul((t, F625.one()), (F625.one(), F625.one()), F625)  # (x + t)(x + 1)
        irreducible = unipoly.first_irreducible(2, F625)
        for f, n in ((split, 2), (irreducible, 1)):
            calls.clear()
            assert len(unipoly.factor(f, F625)) == n
            assert calls == []


def F_is_monic(g, field):
    return bool(g) and field.is_one(g[-1])


def _counting(product):
    """product wrapped in a function that counts its calls in ``.calls``."""

    def counted(*args):
        counted.calls += 1
        return product(*args)

    counted.calls = 0
    return counted


def _ladder_cost(e):
    """Squarings plus multiplications of a ladder that stops at the top bit."""
    return 0 if e == 0 else (e.bit_length() - 1) + (bin(e).count("1") - 1)


class TestPower:
    """Every power in the kernel goes through ``unipoly.power``."""

    @pytest.mark.parametrize("site", ["elem_pow", "pow_mod", "Polynomial"])
    def test_ladder_matches_repeated_products_at_its_cost(self, site, monkeypatch):
        if site == "elem_pow":
            a = F9.add(F9.generator(), F9.one())
            counted = _counting(F9.mul)
            counting_field = SimpleNamespace(mul=counted, one=F9.one)
            raise_to = lambda e: unipoly.elem_pow(a, e, counting_field)
            one, step = F9.one(), lambda acc: F9.mul(acc, a)
        elif site == "Polynomial":
            x1, x2 = (Polynomial.variable(F3, 2, i) for i in range(2))
            f = x1 + x2 * x2 + Polynomial.constant(F3, 2, 2)
            counted = _counting(Polynomial.__mul__)
            monkeypatch.setattr(Polynomial, "__mul__", counted)
            raise_to = lambda e: f**e
            one, step = Polynomial.constant(F3, 2, 1), lambda acc: acc * f
        else:
            f = (2, 1, 1)  # x^2 + x + 2
            m = unipoly.first_irreducible(3, F3)
            counted = _counting(unipoly.mul_mod)
            monkeypatch.setattr(unipoly, "mul_mod", counted)
            one = unipoly.one(F3)
            raise_to = lambda e: unipoly.pow_mod(f, e, m, F3)
            step = lambda acc: unipoly.rem(unipoly.mul(acc, f, F3), m, F3)
        naive = one
        for e in range(65):
            counted.calls = 0
            assert raise_to(e) == naive, e
            assert counted.calls == _ladder_cost(e), e
            naive = step(naive)

    def test_negative_exponent_raises(self):
        with pytest.raises(UsageError):
            unipoly.elem_pow(F9.generator(), -1, F9)
        with pytest.raises(UsageError):
            unipoly.pow_mod((0, 1), -3, (1, 0, 1), F3)
        with pytest.raises(UsageError):
            poly_pow((0, 1), -1, F3)


class TestIrreducible:
    def test_matches_trial_division(self):
        cases = []
        for field, max_deg in ((F2, 5), (F3, 4), (F4, 3), (F9, 2)):
            for d in range(1, max_deg + 1):
                cases += [(field, f) for f in _all_monic(field, d)]
        rng = random.Random(11)
        for field in (F9, F81):
            scales = [c for c in field.elements() if c and not field.is_one(c)]
            for i in range(40):
                f = _random_tuple(rng, field, 3)
                if i % 2:
                    # rescale by a unit other than 1: the test must not assume monic input
                    f = unipoly.scale(f, rng.choice(scales), field)
                cases.append((field, f))
        for field, f in cases:
            assert unipoly.is_irreducible(f, field) == _irreducible_by_trial_division(
                f, field
            ), f

    def test_first_irreducible_frozen(self):
        assert unipoly.first_irreducible(2, F3) == (1, 0, 1)
        assert unipoly.first_irreducible(2, F2) == (1, 1, 1)
        assert unipoly.first_irreducible(3, F2) == (1, 1, 0, 1)

    def test_first_irreducible_is_minimal(self):
        # candidates are tried with c0 varying fastest; everything before the
        # winner in that order must be reducible
        got = unipoly.first_irreducible(2, F5)
        assert unipoly.is_irreducible(got, F5)
        q = F5.order
        for i in range(q**2):
            k = i
            coeffs = []
            for _ in range(2):
                coeffs.append(F5.element(k % q))
                k //= q
            f = tuple(coeffs) + (F5.one(),)
            if f == got:
                break
            assert not unipoly.is_irreducible(f, F5)
        else:
            raise AssertionError("winner not in enumeration")

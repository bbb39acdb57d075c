"""Rationals, prime fields, extension towers, and the K[x1] coefficient domain."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from corpus import textbook_divmod
from gbsolve import fields, unipoly
from gbsolve.errors import InvariantViolation, UsageError
from gbsolve.fields import (
    GF,
    QQ,
    FFElement,
    FieldTower,
    UnivariatePolyDomain,
    adjoin_root,
    is_probable_prime,
)

F2, F3, F5 = GF(2), GF(3), GF(5)
F9 = F3.extend((1, 0, 1))


def _trial_division_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class TestPrimality:
    def test_matches_trial_division_below_ten_thousand(self):
        for n in range(10_000):
            assert is_probable_prime(n) == _trial_division_prime(n), n

    def test_larger_primes(self):
        assert is_probable_prime(2**31 - 1)
        assert not is_probable_prime(2**31)
        assert is_probable_prime(2**89 - 1)
        assert is_probable_prime(2**127 - 1)

    # strong pseudoprimes to all of the bases 2..37, with no factor below 10**6
    PSEUDOPRIMES = (318665857834031151167461, 3317044064679887385961981)

    def test_strong_pseudoprimes_to_the_first_twelve_bases_are_rejected(self):
        for n in self.PSEUDOPRIMES:
            assert not is_probable_prime(n), n
        # carmichael numbers and a strong Lucas pseudoprime (5459 = 53 * 103)
        for n in (561, 41041, 825265, 5459, 3215031751, 2152302898747):
            assert not is_probable_prime(n), n

    def test_the_lucas_step_rejects_squares_and_shared_factors(self):
        # the Selfridge search finds no D with (D/n) = -1 for a square, so
        # 41^2 must be rejected before it; for 5*41, (5/n) = 0 ends the
        # search with a factor.  Neither exit is reached through
        # is_probable_prime, whose bases reject both first
        assert fields._jacobi(5, 5 * 41) == 0
        for n in (41**2, 5 * 41):
            assert not fields._is_strong_lucas_prp(n), n
        assert fields._is_strong_lucas_prp(1009)

    def test_pseudoprime_characteristic_is_refused(self):
        for n in self.PSEUDOPRIMES:
            with pytest.raises(UsageError, match="not prime"):
                FieldTower(n)


class TestRationals:
    def test_exact_fraction_arithmetic(self):
        a = QQ.from_int(1) / 3
        b = QQ.from_int(1) / 6
        assert QQ.add(a, b) == Fraction(1, 2)
        assert QQ.inv(Fraction(2, 3)) == Fraction(3, 2)
        with pytest.raises(UsageError):
            QQ.inv(QQ.zero())

    def test_coeff_text_carries_the_sign_out(self):
        assert QQ.coeff_text(Fraction(-3, 4)) == (True, "3/4")
        assert QQ.coeff_text(Fraction(5)) == (False, "5")


def _axiom_samples(tower, rng, k=12):
    return [tower.element(rng.randrange(tower.order)) for _ in range(k)]


class TestTowers:
    @pytest.mark.parametrize("tower", [F2, F5, F9, F9.extend(unipoly.first_irreducible(2, F9))])
    def test_field_axioms_on_samples(self, tower):
        rng = random.Random(17)
        xs = _axiom_samples(tower, rng)
        for a in xs:
            for b in xs:
                assert tower.add(a, b) == tower.add(b, a)
                assert tower.mul(a, b) == tower.mul(b, a)
                assert tower.sub(a, b) == tower.add(a, tower.neg(b))
                if b:
                    assert tower.mul(tower.div(a, b), b) == a
                for c in xs[:4]:
                    assert tower.mul(a, tower.add(b, c)) == tower.add(
                        tower.mul(a, b), tower.mul(a, c)
                    )

    def test_characteristic_and_order(self):
        assert (F9.char, F9.order) == (3, 9)
        f81 = F9.extend(unipoly.first_irreducible(2, F9))
        assert (f81.char, f81.order) == (3, 81)

    def test_from_int_wraps_modulo_p(self):
        assert F5.from_int(7) == 2
        assert F9.from_int(-1) == F9.neg(F9.one())

    def test_adjoined_generator_squares_to_minus_one(self):
        t = F9.generator()
        assert F9.mul(t, t) == F9.from_int(2)
        assert F9.inv(t) == F9.mul(F9.from_int(2), t)

    def test_constructor_rejects_bad_input(self):
        with pytest.raises(UsageError):
            GF(4)
        with pytest.raises(UsageError):
            F3.extend((2, 0, 1))  # x^2 + 2 = (x-1)(x+1) over F3
        # reducible quartics without a root in F3: only the d = 2 step of the
        # irreducibility test finds their quadratic factors
        for minpoly in ((1, 0, 2, 0, 1), (2, 1, 0, 1, 1)):  # (x^2+1)^2, (x^2+1)(x^2+x+2)
            with pytest.raises(UsageError):
                F3.extend(minpoly)
        with pytest.raises(UsageError):
            F3.extend((1, 1))  # degree-1 level

    def test_element_index_bijection(self):
        for tower in (F5, F9):
            seen = []
            for i in range(tower.order):
                a = tower.element(i)
                assert tower.index(a) == i
                seen.append(a)
            assert len(set(seen)) == tower.order
        with pytest.raises(UsageError):
            F9.element(9)

    def test_enumeration_starts_at_zero_and_canonical_text(self):
        texts = [tower.to_text(a) for tower, a in ((F9, x) for x in F9.elements())]
        assert texts == ["0", "1", "2", "t1", "t1 + 1", "t1 + 2", "2*t1", "2*t1 + 1", "2*t1 + 2"]

    def test_lift_through_prefixes(self):
        f81 = F9.extend(unipoly.first_irreducible(2, F9))
        for i in range(9):
            a = F9.element(i)
            lifted = f81.lift(a, F9)
            assert f81.sub(lifted, lifted) == f81.zero()
            # lifting respects arithmetic
            b = F9.element((i * 2 + 3) % 9)
            assert f81.mul(f81.lift(a, F9), f81.lift(b, F9)) == f81.lift(F9.mul(a, b), F9)

    def test_lift_rejects_non_prefix(self):
        other = F3.extend((2, 2, 1))  # a different irreducible quadratic
        with pytest.raises(UsageError):
            other.lift(F9.one(), F9)
        with pytest.raises(UsageError):
            F9.lift(F5.one(), F5)

    def test_inverse_with_a_shared_factor_is_an_invariant_violation(self, monkeypatch):
        # only reachable when a reducible minimal polynomial slips past the check
        monkeypatch.setattr(unipoly, "is_irreducible", lambda f, F: True)
        bad = F3.extend((2, 0, 1))  # x^2 + 2 = (x - 1)(x + 1) over F3
        with pytest.raises(InvariantViolation, match="shares a factor"):
            bad.inv((2, 1))  # t1 - 1

    def test_invariant_violation_survives_optimized_mode(self):
        code = (
            "from gbsolve import fields, unipoly\n"
            "from gbsolve.errors import InvariantViolation\n"
            "unipoly.is_irreducible = lambda f, F: True\n"
            "try:\n"
            "    fields.GF(3).extend((2, 0, 1)).inv((2, 1))\n"
            "except InvariantViolation:\n"
            "    print('raised')\n"
        )
        src = str(Path(fields.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
        )
        assert proc.stdout == "raised\n", proc.stderr

    def test_extend_checks_only_the_new_level(self, monkeypatch):
        f81 = F9.extend(unipoly.first_irreducible(2, F9))
        minpoly = unipoly.first_irreducible(2, f81)
        calls = []
        real = unipoly.is_irreducible

        def counting(f, F):
            calls.append(F)
            return real(f, F)

        monkeypatch.setattr(unipoly, "is_irreducible", counting)
        bigger = f81.extend(minpoly)
        assert calls == [f81]
        assert bigger.prefix(2) is f81 and bigger.prefix(0) == F3
        rebuilt = GF(3)
        for level in bigger.levels:
            rebuilt = rebuilt.extend(level.minpoly)
        assert bigger == rebuilt

    def test_two_level_arithmetic_inverts_no_leading_one(self, monkeypatch):
        f81 = F9.extend(unipoly.first_irreducible(2, F9))
        minpoly = f81.levels[-1].minpoly
        rng = random.Random(17)
        pairs = [
            (f81.element(rng.randrange(81)), f81.element(rng.randrange(81)))
            for _ in range(60)
        ]
        expected = [
            textbook_divmod(unipoly.mul(a, b, F9), minpoly, F9)[1] for a, b in pairs
        ]
        calls = []
        real_inv, real_xgcd = FieldTower.inv, unipoly.xgcd
        monkeypatch.setattr(
            FieldTower, "inv", lambda F, a: calls.append("inv") or real_inv(F, a)
        )
        monkeypatch.setattr(
            unipoly, "xgcd", lambda *a: calls.append("xgcd") or real_xgcd(*a)
        )
        assert [f81.mul(a, b) for a, b in pairs] == expected
        assert [f81.div(a, f81.one()) for a, _ in pairs] == [a for a, _ in pairs]
        assert f81.inv(f81.one()) == f81.one()
        assert calls == ["inv"]  # the inverse of one asked for just above

    def test_extend_checks_a_reducible_second_level(self):
        reducible = (F9.neg(F9.one()), F9.zero(), F9.one())
        with pytest.raises(UsageError, match="t2 is reducible"):
            F9.extend(reducible)  # t2^2 - 1 splits over F9

    def test_towers_compare_by_structure(self):
        assert F9 == F3.extend((1, 0, 1))
        assert F9 != F3.extend((2, 2, 1))
        assert hash(F9) == hash(F3.extend((1, 0, 1)))


class TestFFElement:
    def test_enumerate_elements(self):
        first = next(iter(F9.elements()))
        assert not first
        assert len(list(F9.elements())) == 9


class TestAdjoinRoot:
    def test_linear_input_stays_home(self):
        tower, root = adjoin_root(F5, (3, 1))  # x + 3
        assert tower is F5 and root == FFElement(F5, 2)

    def test_quadratic_input_extends(self):
        tower, root = adjoin_root(F3, (1, 0, 1))
        assert tower.order == 9
        assert unipoly.evaluate(tuple(tower.lift(c, F3) for c in (1, 0, 1)), root.rep, tower) == tower.zero()

    def test_reducible_input_rejected(self):
        with pytest.raises(UsageError):
            adjoin_root(F3, (2, 0, 1))
        with pytest.raises(UsageError):
            adjoin_root(F3, (1,))


class TestExtendedGcd:
    def test_bezout_identity_random(self):
        rng = random.Random(5)
        for field in (F2, F5, F9, QQ):
            for _ in range(40):
                if field is QQ:
                    f = tuple(Fraction(rng.randrange(-3, 4)) for _ in range(rng.randrange(1, 4)))
                    g = tuple(Fraction(rng.randrange(-3, 4)) for _ in range(rng.randrange(1, 4)))
                else:
                    f = tuple(field.element(rng.randrange(field.order)) for _ in range(rng.randrange(1, 4)))
                    g = tuple(field.element(rng.randrange(field.order)) for _ in range(rng.randrange(1, 4)))
                f, g = unipoly.trim(f, field), unipoly.trim(g, field)
                if not f and not g:
                    continue
                d, u, v = unipoly.xgcd(f, g, field)
                lhs = unipoly.add(unipoly.mul(u, f, field), unipoly.mul(v, g, field), field)
                assert lhs == d
                assert not d or field.is_one(d[-1])
                if f:
                    assert unipoly.divides(d, f, field)
                if g:
                    assert unipoly.divides(d, g, field)

    def test_frozen_small_case(self):
        assert unipoly.xgcd((4, 1), (3, 1), F5) == ((1,), (1,), (4,))


class TestUnivariatePolyDomain:
    dom = UnivariatePolyDomain(F5)

    def test_euclidean_contract(self):
        rng = random.Random(23)
        for _ in range(60):
            a = tuple(rng.randrange(5) for _ in range(rng.randrange(5)))
            b = tuple(rng.randrange(5) for _ in range(rng.randrange(1, 5)))
            a, b = unipoly.trim(a, F5), unipoly.trim(b, F5)
            if not b:
                continue
            q, r = self.dom.euclid_divmod(a, b)
            assert self.dom.add(self.dom.mul(q, b), r) == a
            assert unipoly.deg(r) < unipoly.deg(b)

    def test_units_and_canonical_unit(self):
        assert self.dom.is_unit((3,))
        assert not self.dom.is_unit((0, 1))
        assert self.dom.canonical_unit((1, 3)) == (3,)

    def test_inverse_of_units_only(self):
        assert self.dom.mul(self.dom.inv((3,)), (3,)) == self.dom.one()
        with pytest.raises(UsageError):
            self.dom.inv((0, 1))

    def test_exact_div_rejects_remainders(self):
        with pytest.raises(UsageError):
            self.dom.exact_div((1, 1), (0, 1))
        assert self.dom.exact_div((0, 1, 1), (0, 1)) == (1, 1)

    def test_gcd_lcm_divides(self):
        assert self.dom.gcd((0, 1), (0, 0, 1)) == (0, 1)
        assert self.dom.lcm((0, 1), (1, 1)) == (0, 1, 1)
        assert self.dom.divides((0, 1), (0, 0, 3))
        assert not self.dom.divides((1, 1), (0, 1))
        assert self.dom.divides((), ())

    def test_text_and_sort_key(self):
        assert self.dom.to_text((4, 0, 1)) == "x1^2 + 4"
        assert self.dom.to_text(()) == "0"
        assert self.dom.coeff_text((4, 0, 1)) == (False, "(x1^2 + 4)")
        named = UnivariatePolyDomain(F5, "u")
        assert named.to_text((0, 2)) == "2*u"
        assert self.dom.sort_key(()) < self.dom.sort_key((1,)) < self.dom.sort_key((0, 1))

    def test_lift_coefficientwise(self):
        src = UnivariatePolyDomain(F3)
        dst = UnivariatePolyDomain(F9)
        assert dst.lift((1, 2), src) == (F9.lift(F3.one(), F3), F9.lift(F3.from_int(2), F3))
        with pytest.raises(UsageError):
            dst.lift((1,), F3)


def _zero_invariant_domains():
    f25 = F5.extend(unipoly.first_irreducible(2, F5))
    f625 = f25.extend(unipoly.first_irreducible(2, f25))
    assert f625.order == 625 and not f625._log  # untabled, over a tabled level
    f49 = GF(7).extend((1, 0, 1))
    assert f49._log  # tabled

    def tower(F):
        return lambda rng: F.element(rng.randrange(F.order))

    def rational(rng):
        return Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))

    def poly_over(sample, F):
        return lambda rng: unipoly.trim([sample(rng) for _ in range(rng.randrange(4))], F)

    return [
        (QQ, rational),
        (F5, tower(F5)),
        (GF(32003), tower(GF(32003))),
        (f49, tower(f49)),
        (f625, tower(f625)),
        (UnivariatePolyDomain(F5), poly_over(tower(F5), F5)),
        (UnivariatePolyDomain(QQ), poly_over(rational, QQ)),
    ]


@pytest.mark.parametrize(
    "dom, sample",
    _zero_invariant_domains(),
    ids=["QQ", "GF5", "GF32003", "GF49", "GF625", "GF5[x1]", "QQ[x1]"],
)
def test_an_element_is_falsy_exactly_when_it_is_zero(dom, sample):
    # the kernel tests every coefficient it computes by truthiness alone
    zero = dom.zero()
    assert not zero
    rng = random.Random(29)
    xs = [dom.zero(), dom.one()] + [sample(rng) for _ in range(10)]
    for a in xs:
        for b in xs:
            results = [a, dom.neg(a), dom.add(a, b), dom.sub(a, b), dom.mul(a, b)]
            if b != zero:
                results.extend(dom.euclid_divmod(a, b))
            for r in results:
                assert bool(r) == (r != zero)

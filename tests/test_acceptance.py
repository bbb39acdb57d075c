"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints an ``ACCEPTANCE n: PASS/FAIL`` line through the shared
reporting hook so the verdicts survive output capture.  Everything here runs
on fixed seeds and exact arithmetic; there are no tolerances to tune.
"""

import contextlib
import io
import random
import time

import pytest

from conftest import record_acceptance
from corpus import common_zeros, ideals_equal, random_poly, random_unipoly
from gbsolve import cli, unipoly
from gbsolve.errors import SpecializationError
from gbsolve.euclidean import (
    specialization_locus,
    specialize_basis,
    strong_buchberger,
    to_coeff_view,
)
from gbsolve.fields import GF
from gbsolve.groebner import Ideal, Triviality, certify_basis, is_trivial
from gbsolve.poly import Polynomial, to_text
from gbsolve.solver import (
    Point,
    coprime_split_identity,
    good_specialization_point,
    ideal_intersect,
    radical_member,
    solve,
)

_T0 = time.monotonic()

F3 = GF(3)
F5 = GF(5)

# degree-two extensions used by the exhaustive oracles
_EXT_MINPOLY = {2: (1, 1, 1), 3: (1, 0, 1)}


def _report(number, description, body):
    try:
        body()
    except BaseException:
        record_acceptance(number, description, False)
        raise
    record_acceptance(number, description, True)


def _solver_suite(seed=20260818):
    """The shared random-ideal stream: 200 ideals per prime, fixed seed."""
    rng = random.Random(seed)
    out = []
    for p in (2, 3, 5):
        tower = GF(p)
        for _ in range(200):
            n = rng.randrange(1, 4)
            k = rng.randrange(1, 4)
            gens = [
                random_poly(rng, tower, n, max_total=2, max_terms=3)
                for _ in range(k)
            ]
            out.append((p, tower, n, gens))
    return out


def _const(domain, nvars, n):
    return Polynomial.constant(domain, nvars, domain.from_int(n))


def test_criterion_1_solver_soundness():
    def run():
        for p, tower, n, gens in _solver_suite():
            started = time.monotonic()
            outcome, _ = solve(Ideal(gens, domain=tower, nvars=n))
            assert time.monotonic() - started < 5.0
            if isinstance(outcome, Triviality):
                acc = Polynomial.zero(tower, n)
                for cof, g in zip(outcome.certificate, gens):
                    acc = acc + cof * g
                assert acc.is_one()
            else:
                assert isinstance(outcome, Point)
                reps = outcome.reps()
                for g in gens:
                    assert not g.evaluate(reps, outcome.tower)

    _report(
        1,
        "solve verifies exactly on 200 random ideals per prime 2, 3, 5, "
        "each under 5s",
        run,
    )


def test_criterion_2_triviality_against_exhaustive_search():
    def run():
        done = 0
        for p, tower, n, gens in _solver_suite():
            if p not in (2, 3) or n > 2:
                continue
            if done == 100:
                break
            done += 1
            ideal = Ideal(gens, domain=tower, nvars=n)
            ext = tower.extend(_EXT_MINPOLY[p])
            zeros = common_zeros(gens, tower, n) + common_zeros(gens, ext, n)
            if zeros:
                assert not is_trivial(ideal)
            outcome, _ = solve(Ideal(gens, domain=tower, nvars=n))
            if isinstance(outcome, Triviality):
                assert not zeros
        assert done == 100

    _report(
        2,
        "triviality never contradicts exhaustive zero search over the base "
        "field and its quadratic extension (100 ideals)",
        run,
    )


def test_criterion_3_coprime_splits():
    def run():
        rng = random.Random(5003)
        done = 0
        while done < 100:
            d1 = random_unipoly(rng, F5, max_deg=2)
            d2 = random_unipoly(rng, F5, max_deg=2)
            if unipoly.deg(d1) < 1 or unipoly.deg(d2) < 1:
                continue
            if unipoly.deg(unipoly.gcd(d1, d2, F5)) != 0:
                continue
            f1 = Polynomial.from_dense(F5, 2, 0, d1)
            f2 = Polynomial.from_dense(F5, 2, 0, d2)
            side = [
                random_poly(rng, F5, 2, max_total=2)
                for _ in range(rng.randrange(0, 3))
            ]
            proof = coprime_split_identity(
                f1, f2, Ideal(side, domain=F5, nvars=2)
            )
            assert proof.equal
            assert (proof.q1 * f1 + proof.q2 * f2).is_one()
            for lhs, rhs in proof.identities:
                assert lhs == rhs
            done += 1

    _report(
        3,
        "coprime factor splits certify all four cofactor identities and both "
        "inclusions (100 instances over GF(5))",
        run,
    )


def test_criterion_4_powered_linear_factor_splits():
    def run():
        rng = random.Random(5004)
        x1 = Polynomial.variable(F5, 2, 0)
        for _ in range(50):
            k = rng.randrange(1, 4)
            roots = rng.sample(range(5), k)
            powers = [rng.randrange(1, 3) for _ in range(k)]
            side = [
                random_poly(rng, F5, 2, max_total=2)
                for _ in range(rng.randrange(0, 3))
            ]
            pieces = [(x1 - _const(F5, 2, a)) ** c for a, c in zip(roots, powers)]
            product = pieces[0]
            for piece in pieces[1:]:
                product = product * piece
            whole = Ideal(side + [product], domain=F5, nvars=2)
            acc = Ideal(side + [pieces[0]], domain=F5, nvars=2)
            for piece in pieces[1:]:
                acc = ideal_intersect(
                    acc, Ideal(side + [piece], domain=F5, nvars=2)
                )
            assert ideals_equal(whole, acc)

    _report(
        4,
        "a product of powered linear factors generates the intersection of "
        "the per-factor ideals (50 instances, mutual membership)",
        run,
    )


def test_criterion_5_specialization_recertifies():
    def run():
        rng = random.Random(5005)
        bases = 0
        locus_hits = 0
        while bases < 100:
            carried = rng.randrange(2, 4)
            gens = [
                random_poly(rng, F5, carried + 1, max_total=2)
                for _ in range(rng.randrange(1, 4))
            ]
            views = [to_coeff_view(g) for g in gens if not g.is_zero()]
            if not views:
                continue
            strong = strong_buchberger(views)
            q = specialization_locus(strong)
            a = good_specialization_point(q)
            ev = specialize_basis(strong, a)
            assert certify_basis(ev.elements, ev.order)
            bases += 1
            dense = q.dense_in(0)
            if unipoly.deg(dense) < 1:
                continue
            for g, _mult in unipoly.factor(dense, F5):
                if unipoly.deg(g) == 1:
                    with pytest.raises(SpecializationError):
                        specialize_basis(strong, F5.neg(g[0]))
                    locus_hits += 1
                    break
        # at least one deliberate on-locus failure must have fired; add a
        # crafted one so the negative path never depends on the random draw
        x1 = Polynomial.variable(F5, 2, 0)
        x2 = Polynomial.variable(F5, 2, 1)
        crafted = strong_buchberger([to_coeff_view(x1 * x2)])
        assert to_text(specialization_locus(crafted)) == "x1"
        with pytest.raises(SpecializationError):
            specialize_basis(crafted, 0)
        assert locus_hits >= 1

    _report(
        5,
        "specialized strong bases recertify as Groebner bases off the locus "
        "and refuse points on it (100 bases over GF(5)[x1])",
        run,
    )


def test_criterion_6_substitution_preserves_triviality():
    def run():
        rng = random.Random(5006)
        for _ in range(100):
            n = rng.randrange(2, 4)
            a = F3.element(rng.randrange(3))
            side = [
                random_poly(rng, F3, n, max_total=2)
                for _ in range(rng.randrange(1, 4))
            ]
            x1 = Polynomial.variable(F3, n, 0)
            pinned = Ideal(
                side + [x1 - Polynomial.constant(F3, n, a)],
                domain=F3,
                nvars=n,
            )
            evaluated = Ideal(
                [g.evaluate_x1(a) for g in side], domain=F3, nvars=n - 1
            )
            assert bool(is_trivial(pinned)) == bool(is_trivial(evaluated))

    _report(
        6,
        "pinning x1 to a point is trivial exactly when the evaluated ideal "
        "is (100 checks over GF(3))",
        run,
    )


def test_criterion_7_radical_membership_oracle():
    def run():
        ext = F3.extend(_EXT_MINPOLY[3])
        rng = random.Random(5007)
        field_eq = (0, 2) + (0,) * 7 + (1,)  # x^9 - x, vanishing on all of ext
        for _ in range(50):
            n = rng.randrange(1, 3)
            gens = [Polynomial.from_dense(F3, n, i, field_eq) for i in range(n)]
            gens += [
                random_poly(rng, F3, n, max_total=2)
                for _ in range(rng.randrange(0, 3))
            ]
            ideal = Ideal(gens, domain=F3, nvars=n)
            f = random_poly(rng, F3, n, max_total=2)
            zeros = common_zeros(gens, ext, n)
            vanishes = not any(f.evaluate(list(z), ext) for z in zeros)
            assert bool(radical_member(f, ideal)) == vanishes

    _report(
        7,
        "radical membership equals vanishing on every common zero, checked "
        "exhaustively (50 ideals over GF(3), zeros confined by field "
        "equations)",
        run,
    )


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _battery(tmp_path):
    """Problem files plus every command invocation used for the byte check."""
    files = {}

    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        files[name] = str(path)
        return files[name]

    picks = {}
    for p, tower, n, gens in _solver_suite():
        if p not in picks and n >= 2 and any(not g.is_zero() for g in gens):
            picks[p] = (tower, n, gens)
        if len(picks) == 3:
            break
    for p, (tower, n, gens) in sorted(picks.items()):
        names = tuple(f"x{i + 1}" for i in range(n))
        body = "\n".join(to_text(g, names) for g in gens)
        write(f"p{p}.gb", f"field p {p}\nvars {' '.join(names)}\n{body}\n")

    write("member.gb", "field p 5\nvars x1 x2\nx1^2\nquery x1*x2\n")
    write("left.gb", "field p 5\nvars x1 x2\nx1\n")
    write("right.gb", "field p 5\nvars x1 x2\nx2\n")
    write("rat.gb", "field q\nvars x y\nx^2 - 1/2\nx*y + 3/4\n")
    write("noquery.gb", "field p 5\nvars x1 x2\nx1\n")

    runs = []
    for p, (tower, n, gens) in sorted(picks.items()):
        path = files[f"p{p}.gb"]
        weights = ",".join("1" for _ in range(n))
        runs += [
            ["gb", path],
            ["gb", "--order", f"wlex:{weights}", path],
            ["gb-strong", path],
            ["eliminate", path],
            ["is-trivial", path],
            ["solve", "--trace", path],
            ["solve", path],
        ]
    runs += [
        ["member", files["member.gb"]],
        ["radical-member", files["member.gb"]],
        ["intersect", files["left.gb"], files["right.gb"]],
        ["gb", files["rat.gb"]],
        ["eliminate", files["rat.gb"]],
        ["member", files["noquery.gb"]],
        ["solve", files["rat.gb"]],
    ]
    return runs


def test_criterion_8_byte_identical_transcripts(tmp_path):
    def run():
        runs = _battery(tmp_path)
        first = [_run_cli(argv) for argv in runs]
        second = [_run_cli(argv) for argv in runs]
        assert first == second
        codes = {code for code, _, _ in first}
        assert codes <= {0, 1, 2}
        # the whole acceptance module stays far under the wall-clock budget
        assert time.monotonic() - _T0 < 600.0

    _report(
        8,
        "repeating every command with the same inputs yields "
        "byte-identical transcripts",
        run,
    )

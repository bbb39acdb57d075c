"""Packed runs restart with wider fields instead of wrapping.

Division and completion pack every exponent tuple into one int of
fixed-width fields (``poly.Packing``).  A new term that passes a field's
maximum sets that field's guard bit and the run starts over with fields
twice as wide.  Here runs start at 1-bit fields (3 bits in one test), so
nearly every run restarts, and the output must equal the output at the default width.  A
term formed without a guard check would wrap silently and change a basis, a
verdict or a certificate; the lineage of a tracked run is checked too.
"""

import random
from collections import Counter

import pytest

import test_completion_pin
import test_golden
from corpus import random_poly, random_poly_q
from gbsolve import groebner
from gbsolve.fields import GF, QQ
from gbsolve.groebner import (
    Ideal,
    buchberger,
    certify_basis,
    gpoly,
    is_trivial,
    reduce,
    spoly,
)
from gbsolve.poly import Polynomial, TermOrder

F5 = GF(5)
F49 = GF(7).extend((1, 0, 1))  # t^2 + 1 has no root mod 7
F3 = GF(3)


def _narrow(monkeypatch, bits=1):
    """Start every packed run at ``bits``-bit fields; count runs and packings."""
    counts = Counter()
    real = groebner.Packing

    def packing(order, width):
        counts["packings"] += 1
        return real(order, width)

    def start(top):
        counts["runs"] += 1
        return bits

    monkeypatch.setattr(groebner, "Packing", packing)
    monkeypatch.setattr(groebner, "_start_width", start)
    return counts


def _restarted(counts):
    return counts["runs"] > 0 and counts["packings"] > counts["runs"]


def test_completion_pin_at_one_bit(monkeypatch):
    counts = _narrow(monkeypatch)
    digest = test_completion_pin.DIGEST_FILE.read_text().strip()
    assert test_completion_pin.digest() == digest
    assert _restarted(counts)


def test_golden_transcripts_at_one_bit(monkeypatch):
    counts = _narrow(monkeypatch)
    for name, command, files, code in test_golden.CASES:
        expected = (test_golden.GOLDEN / f"{name}.out").read_text()
        assert test_golden._transcript(command, files) == (code, expected), name
    assert _restarted(counts)


def _outcomes(field, seed, orders):
    """Bases, certificates, remainders, pair polynomials and certification
    verdicts on seeded random systems in 3 variables."""
    rng = random.Random(seed)
    maker = random_poly_q if field is QQ else random_poly
    out = []
    for _ in range(30):
        gens = [maker(rng, field, 3, max_total=2, max_terms=4) for _ in range(3)]
        ideal = Ideal(gens, domain=field, nvars=3)
        verdict = is_trivial(ideal)
        out.append((bool(verdict), verdict.certificate))
        f = maker(rng, field, 3, max_total=4, max_terms=5)
        nonzero = [g for g in gens if not g.is_zero()]
        for order in orders:
            basis = ideal.groebner(order).elements
            out.append(basis)
            if basis:
                out.append(reduce(f, basis, order))
            for g, h in zip(nonzero, nonzero[1:]):
                out.append((spoly(g, h, order), gpoly(g, h, order)))
            out.append(certify_basis(nonzero, order))
    return out


@pytest.mark.parametrize("field", [F5, F49, QQ], ids=["GF5", "GF49", "QQ"])
def test_random_systems_at_one_bit(field, monkeypatch):
    orders = [TermOrder.lex(3), TermOrder.weighted((1, 2, 1), (2, 0, 1))]
    expected = _outcomes(field, 61, orders)
    counts = _narrow(monkeypatch)
    assert _outcomes(field, 61, orders) == expected
    assert _restarted(counts)


def test_huge_weights_at_one_bit(monkeypatch):
    rng = random.Random(67)
    base = 10**200
    orders = [
        TermOrder.weighted((base, base + 1, 3 * base)),
        TermOrder.weighted((base + 7, base, base), (1, 2, 0)),
    ]
    systems = [
        [random_poly(rng, F5, 3, max_total=2, max_terms=4) for _ in range(2)]
        for _ in range(10)
    ]

    def bases():
        return [
            buchberger(gens, order, domain=F5, nvars=3).elements
            for gens in systems
            for order in orders
        ]

    expected = bases()
    counts = _narrow(monkeypatch)
    assert bases() == expected
    assert _restarted(counts)


def _c(n):
    return Polynomial.constant(F3, 2, F3.from_int(n))


def _certificate(gens):
    return buchberger(gens, TermOrder.lex(2), track=True).lineage[0]


def test_lineage_terms_restart_the_run(monkeypatch):
    # the basis of <x1^4, x1*x2^2 - 1> fits 3-bit fields, but its certificate
    # has the term x2^8, whose field value 8 does not
    x, y = (Polynomial.variable(F3, 2, i) for i in range(2))
    gens = [x**4, x * y**2 - _c(1)]
    expected = _certificate(gens)
    assert expected[0] == y**8
    counts = _narrow(monkeypatch, bits=3)
    assert buchberger(gens, TermOrder.lex(2)).elements == (_c(1),)
    assert (counts["runs"], counts["packings"]) == (1, 1)
    assert _certificate(gens) == expected
    assert (counts["runs"], counts["packings"]) == (2, 3)


def test_cofactor_updates_are_guarded(monkeypatch):
    # at 1-bit fields a cofactor times a lineage entry passes the fields here;
    # left unchecked it would wrap and change the certificate
    x, y = (Polynomial.variable(F3, 2, i) for i in range(2))
    gens = [x**3, x * y**3 + _c(2), _c(2) * x * y + _c(2) * x, x**2 + _c(2) * y**3]
    expected = _certificate(gens)
    counts = _narrow(monkeypatch)
    assert _certificate(gens) == expected
    assert _restarted(counts)

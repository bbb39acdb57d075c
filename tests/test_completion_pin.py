"""Pinned output of both completions on a seeded random corpus.

Printed strong bases and triviality certificates depend on which element
survives among equal leading monomials, on the order pairs are reduced in
and on the order of inter-reduction; the golden transcripts cover only a
handful of systems.  This test prints, for 400 seeded systems over GF(3),
GF(5), GF(7) and QQ, the ``gb-strong`` bases under ``lex`` and
``wlex:1,...,1`` and the ``is-trivial`` certificate, and compares one sha256
over all of it with ``completion_pin.sha256``.  After an intended output
change, rewrite that digest together with the golden transcripts with

    PYTHONPATH=src python tests/test_golden.py

and review the golden diff.
"""

import hashlib
import random
from pathlib import Path

from corpus import random_poly, random_poly_q
from gbsolve.euclidean import strong_buchberger, to_coeff_view
from gbsolve.fields import GF, QQ, UnivariatePolyDomain
from gbsolve.groebner import Ideal, is_trivial
from gbsolve.poly import TermOrder, default_names, to_text

DIGEST_FILE = Path(__file__).resolve().parent / "completion_pin.sha256"
SYSTEMS = 400
FIELDS = (GF(3), GF(5), GF(7), QQ)


def _system(seed):
    rng = random.Random(seed)
    field = FIELDS[seed % len(FIELDS)]
    nvars = rng.randrange(2, 4)
    maker = random_poly_q if field is QQ else random_poly
    gens = [
        maker(rng, field, nvars, max_total=2, max_terms=4)
        for _ in range(rng.randrange(2, 4))
    ]
    return field, nvars, gens


def transcript():
    """One line per printed basis element or certificate entry."""
    lines = []
    for seed in range(SYSTEMS):
        field, nvars, gens = _system(seed)
        names = default_names(nvars)
        views = [to_coeff_view(g) for g in gens if not g.is_zero()]
        dom = UnivariatePolyDomain(field)
        for order in (
            TermOrder.lex(nvars - 1),
            TermOrder.weighted((1,) * (nvars - 1)),
        ):
            sb = strong_buchberger(views, order, domain=dom, nvars=nvars - 1)
            lines.append(f"{seed} {field.tag} gb-strong {order.weights}")
            lines.extend(to_text(g, names[1:], order) for g in sb.elements)
        verdict = is_trivial(Ideal(gens, domain=field, nvars=nvars))
        lines.append(f"{seed} is-trivial {bool(verdict)}")
        if verdict:
            lines.extend(to_text(c, names) for c in verdict.certificate)
    return "\n".join(lines) + "\n"


def digest():
    return hashlib.sha256(transcript().encode()).hexdigest()


def rewrite_digest():
    DIGEST_FILE.write_text(digest() + "\n")


def test_completion_output_is_pinned():
    assert digest() == DIGEST_FILE.read_text().strip()

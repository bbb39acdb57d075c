"""Deciding solvability over finite-field towers, constructively.

``solve`` either certifies that an ideal is trivial (1 as an explicit
combination of the generators) or produces a common zero in a finite
extension tower, eliminating one variable per step:

* the ideal meets K[x1] in a nonconstant polynomial p: every root of p
  extends to a zero of the ideal (the Closure Theorem, argued in ``_point``),
  so take the root of p's first irreducible factor (``find_branch_root``);
* the intersection is zero: compute a strong basis over K[x1] and take x1 = a
  off the roots of its leading-coefficient product (``specialization_locus``);
  there the strong basis specializes to a Groebner basis of I(a) with no
  constant member, so I(a) is proper;
* one variable left: the same root step, on the gcd of the generators (the
  trace calls it ``base``); every root works, and the zero ideal takes 0.

A branch only picks the value a.  The step then builds I(a) with
``Ideal.evaluate_x1``, in one place for all three branches, and goes on.

Every level reads the intersection with K[x1] from its reduced basis under
``TermOrder.elimination`` (lex x_n > ... > x1, the same order at every level
once x1 is dropped).  ``is_trivial`` computes the input's for its verdict,
and ``Ideal.evaluate_x1`` carries each level's to the next, where at a root
of a triangular system it is already I(a)'s and nothing is completed.  Only
a trivial ideal gets a second, tracked lex run, for its certificate.  A new
tower level comes from a factor of ``unipoly.factor`` or from
``unipoly.first_irreducible``, both irreducible by construction, so it is
stacked without a second irreducibility check.

A trivial ideal is answered with ``is_trivial``'s ``Triviality`` itself.  Every
produced point is checked against the original generators before it is
returned.  The same machinery powers ideal intersection through a slack
variable, the coprime splitting of an ideal plus a product, and radical
membership via the usual extra-variable trick.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import unipoly
from .errors import InvariantViolation, UsageError
from .euclidean import specialization_locus, strong_buchberger, to_coeff_view
from .fields import FFElement, FieldTower, UnivariatePolyDomain, _adjoin_irreducible
from .groebner import Ideal, eliminate_to_x1, is_trivial, member
from .poly import Polynomial, TermOrder


@dataclass(frozen=True)
class Point:
    """A common zero, with coordinates in a tower over the input field."""

    tower: FieldTower
    coords: tuple

    def reps(self):
        return [c.rep for c in self.coords]


@dataclass(frozen=True)
class BranchStep:
    """One variable eliminated: which branch ran and what it chose.

    ``eliminated`` is the monic generator of the ideal's intersection with
    K[x1] at that level (zero on the locus branch), ``chosen`` the value
    substituted for the variable, ``extension`` the enlarged tower when one
    was needed, and ``locus`` the leading-coefficient product avoided on the
    zero-intersection branch.
    """

    var_index: int
    branch: str
    eliminated: Polynomial
    chosen: FFElement
    extension: FieldTower = None
    locus: Polynomial = None


def good_specialization_point(q):
    """Smallest tower element avoiding the roots of q, extending if needed.

    The tower grows by quadratic steps until it has more elements than q has
    roots, so the canonical enumeration is guaranteed to hit a nonroot.
    """
    if not isinstance(q.domain, FieldTower):
        raise UsageError("specialization points live in finite towers")
    if q.is_zero():
        raise UsageError("the zero polynomial vanishes everywhere")
    tower = q.domain
    dense = q.dense_in(0)
    while tower.order <= unipoly.deg(dense):
        tower, _ = _adjoin_irreducible(tower, unipoly.first_irreducible(2, tower))
    lifted = tuple(tower.lift(c, q.domain) for c in dense)
    for i in range(tower.order):
        a = tower.element(i)
        if unipoly.evaluate(lifted, a, tower):
            return FFElement(tower, a)
    raise InvariantViolation("a polynomial cannot vanish on a larger field")


def find_branch_root(p):
    """A root of the first irreducible factor of p, a nonconstant polynomial
    in x1 over a finite tower.

    Factors come in canonical order; the root lives in p's tower when that
    factor is linear, and generates a new level above it otherwise.
    """
    tower = p.domain
    if not isinstance(tower, FieldTower):
        raise UsageError("root branching needs a finite coefficient field")
    dense = p.dense_in(0)
    if unipoly.deg(dense) < 1:
        raise UsageError("a constant has no roots to branch on")
    g, _mult = unipoly.factor(dense, tower)[0]
    return _adjoin_irreducible(tower, g)[1]


def _point(ideal, trace):
    """A common zero of a proper ideal, one variable eliminated per step.

    Each step picks a value a for x1 and goes on with I(a), built from the
    level's elimination basis.  A root of p = ``eliminate_to_x1`` of I keeps
    I(a) proper: over the algebraic closure, the projection of V(I) onto the
    x1-axis lies in the finite set V(p), so it is Zariski closed; by the
    Closure Theorem (Cox, Little & O'Shea, ch. 3 section 2) its closure is
    the zero set of I's intersection with K[x1], which is V(p), so the
    projection is all of V(p) and any factor of p will do.  The locus q
    depends only on the ideal, not on the generators completed into the
    strong basis: a minimal strong basis leads, at each of its leading
    terms, with a generator of all leading coefficients there.  Each step
    keeps only the value it chose, so the ideal of a level and its cached
    bases are freed once the next level's ideal is built; the chosen values
    are lifted into the final tower at the end.
    """
    chosen = []
    while ideal.nvars:
        tower = ideal.domain
        p = eliminate_to_x1(ideal)
        locus = None
        if not p.is_zero():
            if p.is_constant():
                raise InvariantViolation("a proper ideal met K[x1] in a constant")
            branch = "base" if ideal.nvars == 1 else "root"
            a = find_branch_root(p)
        elif ideal.nvars == 1:
            branch, a = "base", FFElement(tower, tower.zero())
        else:
            views = [to_coeff_view(g) for g in ideal.gens]
            strong = strong_buchberger(
                views, domain=UnivariatePolyDomain(tower), nvars=ideal.nvars - 1
            )
            branch, locus = "locus", specialization_locus(strong)
            a = good_specialization_point(locus)
        ideal = ideal.evaluate_x1(a.rep, a.tower)
        extension = a.tower if a.tower != tower else None
        trace.append(BranchStep(len(chosen), branch, p, a, extension, locus))
        chosen.append(a)
    final = ideal.domain
    coords = (FFElement(final, final.lift(a.rep, a.tower)) for a in chosen)
    return Point(final, tuple(coords))


def solve(ideal):
    """A certified ``Triviality`` or a verified point, plus the branch trace."""
    if not isinstance(ideal.domain, FieldTower):
        raise UsageError("solving needs a finite coefficient field")
    if ideal.nvars < 1:
        raise UsageError("solving needs at least one variable")
    verdict = is_trivial(ideal)
    if verdict:
        return verdict, []
    trace = []
    point = _point(ideal, trace)
    reps = point.reps()
    for g in ideal.gens:
        if g.evaluate(reps, point.tower):
            raise InvariantViolation("the computed point misses a generator")
    return point, trace


# -- ideal operations ---------------------------------------------------------


def ideal_intersect(left, right):
    """Intersection via a slack variable: z*I + (1-z)*J, then eliminate z."""
    if left.domain != right.domain or left.nvars != right.nvars:
        raise UsageError("intersection needs ideals in the same ring")
    domain, n = left.domain, left.nvars
    z = Polynomial.variable(domain, n + 1, 0)
    one = Polynomial.constant(domain, n + 1, domain.one())
    gens = [z * g.with_new_var(0) for g in left.gens]
    gens += [(one - z) * g.with_new_var(0) for g in right.gens]
    mixed = Ideal(gens, domain=domain, nvars=n + 1)
    basis = mixed.groebner(TermOrder.lex(n + 1))
    kept = [
        g.drop_var(0)
        for g in basis.elements
        if all(exps[0] == 0 for exps in g.coeffs)
    ]
    return Ideal(kept, domain=domain, nvars=n)


@dataclass(frozen=True)
class CoprimeSplitProof:
    """Exact witnesses for I + <f1*f2> = (I + <f1>) an (I + <f2>).

    ``q1`` and ``q2`` satisfy q1*f1 + q2*f2 = 1.  ``identities`` are pairs of
    equal polynomials in a slack-extended ring expressing each side's extra
    generators through the other side's; ``intersection`` is the computed
    right-hand side and ``equal`` records that both ideals have the same
    reduced basis.
    """

    f1: Polynomial
    f2: Polynomial
    q1: Polynomial
    q2: Polynomial
    identities: tuple
    intersection: Ideal
    equal: bool


def coprime_split_identity(f1, f2, ideal):
    """Split I + <f1*f2> along coprime univariate f1, f2; verify exactly."""
    domain, n = ideal.domain, ideal.nvars
    if f1.domain != domain or f2.domain != domain:
        raise UsageError("the split factors must match the ideal's field")
    if not (f1.univariate_in(0) and f2.univariate_in(0)):
        raise UsageError("the split factors must be univariate in x1")
    d1, d2 = f1.dense_in(0), f2.dense_in(0)
    d, u, v = unipoly.xgcd(d1, d2, domain)
    if unipoly.deg(d) != 0:
        raise UsageError("the split factors must be coprime")
    q1 = Polynomial.from_dense(domain, n, 0, u)
    q2 = Polynomial.from_dense(domain, n, 0, v)

    # slack-extended ring: z tracks which side of the split a witness uses
    z = Polynomial.variable(domain, n + 1, 0)
    one = Polynomial.constant(domain, n + 1, domain.one())
    F1, F2 = f1.with_new_var(0), f2.with_new_var(0)
    Q1, Q2 = q1.with_new_var(0), q2.with_new_var(0)
    prod = F1 * F2
    mixer = Q2 * F2 - z
    identities = (
        (z * F1, prod * Q2 - mixer * F1),
        ((one - z) * F2, prod * Q1 + mixer * F2),
        (prod, (z * F1) * F2 + ((one - z) * F2) * F1),
        (mixer, ((one - z) * F2) * Q2 - (z * F1) * Q1),
    )
    for lhs, rhs in identities:
        if lhs != rhs:
            raise InvariantViolation("a splitting identity failed to balance")

    with_product = Ideal(list(ideal.gens) + [f1 * f2], domain=domain, nvars=n)
    side1 = Ideal(list(ideal.gens) + [f1], domain=domain, nvars=n)
    side2 = Ideal(list(ideal.gens) + [f2], domain=domain, nvars=n)
    both = ideal_intersect(side1, side2)
    equal = all(member(g, both) for g in with_product.gens) and all(
        member(g, with_product) for g in both.gens
    )
    if not equal:
        raise InvariantViolation("the split ideals disagree")
    return CoprimeSplitProof(f1, f2, q1, q2, identities, both, True)


# -- radical membership -------------------------------------------------------


def radical_member(f, ideal):
    """Does some power of f land in the ideal?  Extra-variable triviality test."""
    if f.domain != ideal.domain or f.nvars != ideal.nvars:
        raise UsageError("query polynomial does not match the ideal's ring")
    n = ideal.nvars
    domain = ideal.domain
    y = Polynomial.variable(domain, n + 1, n)
    one = Polynomial.constant(domain, n + 1, domain.one())
    gens = [g.with_new_var(n) for g in ideal.gens]
    gens.append(one - y * f.with_new_var(n))
    return is_trivial(Ideal(gens, domain=domain, nvars=n + 1))


def radical_witness(f, ideal, bound=10):
    """Smallest e <= bound with f**e in the ideal, or None."""
    if bound < 1:
        raise UsageError("the witness bound must be positive")
    power = f
    for e in range(1, bound + 1):
        if member(power, ideal):
            return e
        power = power * f
    return None

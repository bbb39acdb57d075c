"""Seeded problem-file generators for the benchmark workloads.

Each generator takes a ``random.Random`` and returns one job: the problem
text, the CLI arguments after the file name, and the generators as sparse
dicts ``{exponent tuple: coefficient}`` for the output checks.  Nothing here
imports ``gbsolve``, so every commit under test gets byte-identical inputs for
the same seed.  Zero-exponent factors are never written: the parser rejects
``x^0`` even though the README calls exponents nonnegative.
"""

import itertools
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Job:
    text: str
    args: tuple  # CLI arguments after the problem file
    prime: int
    names: tuple
    gens: tuple  # one {exps: coeff} dict per generator line


def monomials(nvars, max_total):
    """Exponent tuples of total degree <= max_total, in a fixed order."""
    return [
        e
        for e in itertools.product(range(max_total + 1), repeat=nvars)
        if sum(e) <= max_total
    ]


def term_text(c, exps, names):
    factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e]
    if not factors:
        return str(c)
    if c == 1:
        return "*".join(factors)
    return "*".join([str(c)] + factors)


def poly_text(poly, names):
    """Terms in descending exponent order joined by ``+``; coefficients in [1, p)."""
    if not poly:
        return "0"
    return " + ".join(term_text(poly[e], e, names) for e in sorted(poly, reverse=True))


def _job(prime, names, gens, args):
    lines = [f"field p {prime}", "vars " + " ".join(names)]
    lines += [poly_text(g, names) for g in gens]
    return Job("\n".join(lines) + "\n", tuple(args), prime, tuple(names), tuple(gens))


def solve_random(rng):
    """3 generators in 3 variables over GF(5), total degree <= 2, <= 4 terms.

    Terms are drawn with replacement and a zero coefficient removes the term,
    so generators often have fewer than 4 terms and may vanish.  Total degree
    3 (the shape of the ROADMAP's random corpus) is left out: about 1 system
    in 300 of that shape runs longer than 5 s, so a job list's throughput
    would be set by how many such systems the seed happens to draw.
    """
    p, names = 5, ("x1", "x2", "x3")
    pool = monomials(3, 2)
    gens = []
    for _ in range(3):
        g = {}
        for _ in range(rng.randrange(1, 5)):
            e = pool[rng.randrange(len(pool))]
            c = rng.randrange(p)
            if c:
                g[e] = c
            else:
                g.pop(e, None)
        gens.append(g)
    return _job(p, names, gens, ["solve"])


def gb_graded(rng):
    """4 dense quadrics in 4 variables over GF(32003), each monomial kept w.p. 1/2."""
    p, names = 32003, ("x1", "x2", "x3", "x4")
    pool = monomials(4, 2)
    gens = []
    while len(gens) < 4:
        g = {e: rng.randrange(1, p) for e in pool if rng.random() < 0.5}
        if any(sum(e) == 2 for e in g):
            gens.append(g)
    return _job(p, names, gens, ["gb", "--order", "wlex:1,1,1,1"])


def _has_root(a, b, p):
    return any((x * x + a * x + b) % p == 0 for x in range(p))


def solve_tower(rng):
    """Triangular system over GF(5) whose every point needs an extension.

    x1 is a root of a quadratic with no root in GF(5); x2 and x3 are roots of
    monic quadratics whose coefficients are random multilinear polynomials in
    the earlier variables.
    """
    p, names = 5, ("x1", "x2", "x3")
    while True:
        a, b = rng.randrange(p), rng.randrange(p)
        if not _has_root(a, b, p):
            break
    gens = [{e: c for e, c in (((2, 0, 0), 1), ((1, 0, 0), a), ((0, 0, 0), b)) if c}]
    for k in (1, 2):
        g = {tuple(2 if i == k else 0 for i in range(3)): 1}
        for lower in itertools.product((0, 1), repeat=k):
            for top in (1, 0):  # coefficient of x_k^1 and of x_k^0
                c = rng.randrange(p)
                if c:
                    g[lower + (top,) + (0,) * (2 - k)] = c
        gens.append(g)
    return _job(p, names, gens, ["solve"])


# name -> (generator, jobs per list).  Lists of >= 100 jobs keep >= 10 latency
# samples above the 90th percentile.  One round of each list is about 4 s
# (solve-random), 13-19 s (gb-graded) and 27-40 s (solve-tower) of work on the
# 2-vCPU VM of the baseline.  solve-tower's job times differ most between
# seeds (a point needs one, two or three tower levels): resampling 1600 of its
# job times, lists of 250 jobs spread by 0.07 of the median in latency_p50_ms
# and latency_p90_ms between seeds, lists of 400 by 0.04.
WORKLOADS = {
    "solve-random": (solve_random, 1000),
    "gb-graded": (gb_graded, 100),
    "solve-tower": (solve_tower, 400),
}


def make_jobs(workload, seed):
    """The fixed job list of a workload; the same seed gives the same list."""
    gen, count = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    return [gen(rng) for _ in range(count)]

"""A fixed reference kernel that measures the speed of the host.

On a shared host the speed of pure Python moves by up to 1.6 times within
seconds and stays there for seconds to minutes, so a time measured in one run
and a time measured in the next are not comparable on their own.  ``run.py``
times this kernel between jobs and divides each job's time by the kernel time
measured next to it, then multiplies by ``NOMINAL_S``: a job time is reported
as the time it would take on a host where the kernel takes ``NOMINAL_S``.

The kernel is a plain Buchberger completion over GF(32003) on two small fixed
systems: dict polynomials with tuple exponents, modular arithmetic, sorting
by a key and short-lived allocations, the same kind of work ``gbsolve`` does.
It imports nothing from ``gbsolve``, so no change to the program under test
changes its time.  The garbage collector is off while it runs, so the heap
that ``gbsolve`` leaves behind does not change its time either.
"""

import gc
import itertools
import random
import time

P = 32003
# About the kernel's time on the 2-vCPU VM (Python 3.11) where the baseline
# was taken; there it ranged from 4.5 to 6.8 ms as the host's speed changed.
NOMINAL_S = 0.005


def _key(e):
    return (sum(e),) + e


def _lead(f):
    return max(f, key=_key)


def _monic(f):
    inv = pow(f[_lead(f)], P - 2, P)
    return {e: c * inv % P for e, c in f.items()}


def _sub_mul(f, c, m, g):
    """f - c * x^m * g."""
    out = dict(f)
    for e, d in g.items():
        e2 = tuple(a + b for a, b in zip(e, m))
        v = (out.get(e2, 0) - c * d) % P
        if v:
            out[e2] = v
        else:
            out.pop(e2, None)
    return out


def _reduce(f, basis):
    rem, f = {}, dict(f)
    while f:
        lt = _lead(f)
        for g in basis:
            lg = _lead(g)
            if all(a >= b for a, b in zip(lt, lg)):
                f = _sub_mul(f, f[lt], tuple(a - b for a, b in zip(lt, lg)), g)
                break
        else:
            rem[lt] = f.pop(lt)
    return rem


def _buchberger(gens):
    basis = [_monic(f) for f in gens]
    pairs = [(i, j) for j in range(len(basis)) for i in range(j)]
    while pairs:
        i, j = pairs.pop()
        li, lj = _lead(basis[i]), _lead(basis[j])
        lcm = tuple(max(a, b) for a, b in zip(li, lj))
        s = _sub_mul({}, P - 1, tuple(a - b for a, b in zip(lcm, li)), basis[i])
        s = _sub_mul(s, 1, tuple(a - b for a, b in zip(lcm, lj)), basis[j])
        h = _reduce(s, basis)
        if h:
            basis.append(_monic(h))
            pairs += [(k, len(basis) - 1) for k in range(len(basis) - 1)]
    return basis


def _system(nvars, count, seed):
    rng = random.Random(seed)
    pool = [e for e in itertools.product(range(3), repeat=nvars) if sum(e) <= 2]
    return [{e: rng.randrange(1, P) for e in pool if rng.random() < 0.6} for _ in range(count)]


SYSTEMS = (_system(2, 3, 0), _system(3, 2, 0))


def kernel():
    """Complete both systems; returns the total basis size (always 12)."""
    return sum(len(_buchberger(gens)) for gens in SYSTEMS)


def timed():
    """Seconds one run of the kernel takes, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()

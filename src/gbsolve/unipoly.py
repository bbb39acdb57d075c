"""Dense univariate polynomial arithmetic over an abstract coefficient field.

A polynomial is a tuple of field elements in ascending degree order with no
trailing zeros; the zero polynomial is the empty tuple.  Every function takes
the field object last.  The factorization routines additionally require a
finite field exposing ``char``, ``order`` and index-based element access.

Division has one loop, ``divmod_``; ``quo`` and ``rem`` are its halves.  A
product modulo a monic polynomial is ``mul_mod``, which multiplies and
reduces in one pass: the untabled tower levels of ``fields``, the walk that
builds a small level's tables, ``pow_mod`` and ``edf`` all multiply through
it.  Modulo a quadratic, as at every level of a tower of quadratic
extensions, it writes the product of two reduced operands out in closed form.

``factor`` splits f into squarefree parts (``sqf_list``; a quadratic by its
discriminant, with no gcd).  In odd characteristic a part of degree 2 splits
by one square root (``_split_quadratic``, ``_sqrt``); every other part goes
through distinct-degree (``ddf``) and randomized equal-degree (``edf``, Cantor
and Zassenhaus 1981) factorization.  The result is unique and sorted, so the
random source never reaches it.
"""

from __future__ import annotations

import random

from .errors import InvariantViolation, UsageError


def trim(f, F):
    """Drop trailing zero coefficients, returning the canonical tuple."""
    f = tuple(f)
    n = len(f)
    while n and not f[n - 1]:
        n -= 1
    return f[:n]


def deg(f):
    """Degree of f, with deg 0 = -1."""
    return len(f) - 1


def constant(c, F):
    return (c,) if c else ()


def one(F):
    return (F.one(),)


def x(F):
    """The identity polynomial x."""
    return (F.zero(), F.one())


def leading(f):
    if not f:
        raise UsageError("leading coefficient of the zero polynomial")
    return f[-1]


def add(f, g, F):
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] = F.add(out[i], c)
    return trim(out, F)


def neg(f, F):
    return tuple(F.neg(c) for c in f)


def sub(f, g, F):
    return add(f, neg(g, F), F)


def scale(f, c, F):
    if not c:
        return ()
    return trim([F.mul(a, c) for a in f], F)


def mul(f, g, F):
    if not f or not g:
        return ()
    out = [F.zero()] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if not a:
            continue
        for j, b in enumerate(g):
            out[i + j] = F.add(out[i + j], F.mul(a, b))
    return trim(out, F)


def power(a, e, mul, one):
    """a**e by right-to-left square-and-multiply under the product mul.

    e == 0 gives one and computes no product.  Otherwise the lowest set bit
    takes a itself and no square is taken past the top bit, so the cost is
    (e.bit_length() - 1) squarings plus (popcount(e) - 1) multiplications.
    """
    if e < 0:
        raise UsageError("negative powers are not defined")
    result = None  # no set bit taken yet
    while e:
        if e & 1:
            result = a if result is None else mul(result, a)
        e >>= 1
        if e:
            a = mul(a, a)
    return one if result is None else result


def divmod_(f, g, F):
    """Quotient and remainder of f by nonzero g.

    Each step cancels the top coefficient c of the running remainder by
    q * g, q = c/lc(g), without writing the slot it cancels, and stores q in
    that slot instead, so the slots from deg g up end as the quotient, whose
    top is the nonzero lc(f)/lc(g).  A monic g of degree n inverts nothing
    and costs n field multiplications per step, at most (deg f - n + 1) * n.
    """
    if not g:
        raise UsageError("univariate division by zero")
    n = len(g) - 1
    if len(f) <= n:
        return (), tuple(f)
    lead_inv = None if F.is_one(g[-1]) else F.inv(g[-1])  # None: g is monic
    out = list(f)
    for top in range(len(f) - 1, n - 1, -1):
        c = out[top]
        if not c:
            continue
        if lead_inv is not None:
            c = out[top] = F.mul(c, lead_inv)
        base = top - n
        for j in range(n):
            out[base + j] = F.sub(out[base + j], F.mul(c, g[j]))
    return tuple(out[n:]), trim(out[:n], F)


def quo(f, g, F):
    return divmod_(f, g, F)[0]


def rem(f, g, F):
    return divmod_(f, g, F)[1]


def mul_mod(f, g, m, F):
    """f * g modulo the monic m, multiplied and reduced in one pass and
    trimmed once: over a prime field (``F.modulus``) in inline ints reduced
    mod p where read, through F's methods otherwise.

    A product of two nonzero operands of degree <= 1 modulo a quadratic
    m = t^2 + c1*t + c0 is written out: t^2 = -c1*t - c0, so it is
    r0 + r1*t with r0 = a0*b0 - c0*a1*b1 and r1 = a0*b1 + a1*b0 - c1*a1*b1.
    No inverse is taken, so this holds for a reducible m too; through F's
    methods a zero coefficient of f, g or m is skipped, not multiplied."""
    p, n = F.modulus, len(m) - 1
    add, sub, mul = F.add, F.sub, F.mul
    if n == 2 and 0 < len(f) <= 2 and 0 < len(g) <= 2:
        c0, c1, z = m[0], m[1], F.zero()
        a0, a1 = f if len(f) == 2 else (f[0], z)
        b0, b1 = g if len(g) == 2 else (g[0], z)
        if p:
            t = a1 * b1
            r0, r1 = (a0 * b0 - c0 * t) % p, (a0 * b1 + a1 * b0 - c1 * t) % p
        else:
            r0 = mul(a0, b0) if a0 and b0 else z
            r1 = mul(a0, b1) if a0 and b1 else z
            if a1 and b0:
                r1 = add(r1, mul(a1, b0))
            if a1 and b1:
                t = mul(a1, b1)
                if c0:
                    r0 = sub(r0, mul(c0, t))
                if c1:
                    r1 = sub(r1, mul(c1, t))
        return (r0, r1) if r1 else (r0,) if r0 else ()
    out = [F.zero()] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        if x:
            for j, y in enumerate(g):
                out[i + j] = out[i + j] + x * y if p else add(out[i + j], mul(x, y))
    for top in range(len(out) - 1, n - 1, -1):
        c = out[top] % p if p else out[top]
        if c:
            for k, d in zip(range(top - n, top), m):
                out[k] = out[k] - c * d if p else sub(out[k], mul(c, d))
    out = [c % p for c in out[:n]] if p else out[:n]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def divides(g, f, F):
    """True when g divides f exactly (g nonzero)."""
    return not rem(f, g, F)


def monic(f, F):
    if not f:
        return ()
    if F.is_one(f[-1]):
        return tuple(f)
    return scale(f, F.inv(f[-1]), F)


def gcd(f, g, F):
    """Monic greatest common divisor."""
    while g:
        f, g = g, rem(f, g, F)
    return monic(f, F)


def xgcd(f, g, F):
    """Extended gcd: (d, u, v) with d monic and u*f + v*g = d."""
    r0, r1 = tuple(f), tuple(g)
    u0, u1 = one(F), ()
    v0, v1 = (), one(F)
    while r1:
        q, r = divmod_(r0, r1, F)
        r0, r1 = r1, r
        u0, u1 = u1, sub(u0, mul(q, u1, F), F)
        v0, v1 = v1, sub(v0, mul(q, v1, F), F)
    if not r0:
        return (), (), ()
    c = F.inv(r0[-1])
    return scale(r0, c, F), scale(u0, c, F), scale(v0, c, F)


def lcm(f, g, F):
    """Monic least common multiple."""
    if not f or not g:
        return ()
    return monic(quo(mul(f, g, F), gcd(f, g, F), F), F)


def evaluate(f, a, F):
    """Evaluate by Horner's rule."""
    acc = F.zero()
    for c in reversed(f):
        acc = F.add(F.mul(acc, a), c)
    return acc


def derivative(f, F):
    out = []
    for i in range(1, len(f)):
        k = F.from_int(i)
        out.append(F.mul(f[i], k))
    return trim(out, F)


def pow_mod(f, e, m, F):
    """f**e modulo nonzero m by binary exponentiation; m is made monic once,
    which leaves every remainder unchanged."""
    m = monic(m, F)
    return power(
        rem(f, m, F), e, lambda g, h: mul_mod(g, h, m, F), rem(one(F), m, F)
    )


def elem_pow(a, e, F):
    """Field element power by binary exponentiation (e >= 0)."""
    return power(a, e, F.mul, F.one())


# -- factorization over finite fields ---------------------------------------


def _pth_root(f, F):
    # In char p every f with f' = 0 is g(x**p); the coefficient root is c**(q/p).
    p = F.char
    e = F.order // p
    return trim([elem_pow(f[i], e, F) for i in range(0, len(f), p)], F)


def sqf_list(f, F):
    """Squarefree decomposition of monic f: [(g, e)] with prod g**e = f."""
    n, factors = 1, []
    f = monic(f, F)
    if deg(f) < 1:
        return []
    while True:
        if deg(f) == 2 and F.char != 2:  # x^2 + 2hx + c is (x + h)^2 iff h^2 = c
            h = F.mul(f[1], F.from_int((F.char + 1) // 2))  # (p+1)/2 is 1/2
            return factors + [((h, F.one()), 2 * n) if F.mul(h, h) == f[0] else (f, n)]
        df = derivative(f, F)
        if df:
            g = gcd(f, df, F)
            if deg(g) == 0:  # f is squarefree: the loop below would add (f, n)
                return factors + [(f, n)]
            h = quo(f, g, F)
            i = 1
            while deg(h) > 0:
                gh = gcd(g, h, F)
                part = quo(h, gh, F)
                if deg(part) > 0:
                    factors.append((part, i * n))
                g, h = quo(g, gh, F), gh
                i += 1
            if deg(g) == 0:
                return factors
            f = g
        f = _pth_root(f, F)
        n *= F.char


def ddf(f, F):
    """Distinct-degree split of monic f: [(product, degree)].

    For squarefree f each product is that of all irreducible factors of its
    degree.  For any monic f of degree n, squarefree or not, the result is
    [(f, n)] exactly when f is irreducible: a reducible f has an irreducible
    factor of some degree e <= n/2, and the loop reaches d = e with f still
    whole unless it has already split off a factor of lower degree, so the
    first entry is never (f, n).
    """
    q = F.order
    out = []
    h = rem(x(F), f, F)
    d = 0
    while deg(f) > 0 and 2 * (d + 1) <= deg(f):
        d += 1
        h = pow_mod(h, q, f, F)
        g = gcd(sub(h, x(F), F), f, F)
        if deg(g) > 0:
            out.append((g, d))
            f = quo(f, g, F)
            h = rem(h, f, F)
    if deg(f) > 0:
        out.append((f, deg(f)))
    return out


def _random_poly(max_deg, F, rng):
    coeffs = [F.element(rng.randrange(F.order)) for _ in range(max_deg + 1)]
    return trim(coeffs, F)


def edf(f, d, F):
    """Equal-degree split of monic squarefree f into its degree-d factors,
    drawing from a ``random.Random(0)`` made at the first split."""
    out = []
    stack = [f]
    rng = None
    while stack:
        h = stack.pop()
        if deg(h) == d:
            out.append(h)
            continue
        if rng is None:
            rng = random.Random(0)
        g = ()
        while not (0 < deg(g) < deg(h)):
            r = _random_poly(deg(h) - 1, F, rng)
            if deg(r) < 1:
                continue
            if F.char == 2:
                # Trace map over F_2 splits products of degree-d factors.
                k = F.order.bit_length() - 1
                t = r
                cur = r
                for _ in range(d * k - 1):
                    cur = mul_mod(cur, cur, h, F)
                    t = add(t, cur, F)
                g = gcd(t, h, F)
            else:
                t = pow_mod(r, (F.order**d - 1) // 2, h, F)
                g = gcd(sub(t, one(F), F), h, F)
        stack.append(g)
        stack.append(quo(h, g, F))
    return out


def _sqrt(a, F):
    """A square root of a in the finite field F of odd order q, or None.

    Tonelli-Shanks (Shanks 1973; Cohen, GTM 138, Alg. 1.5.1) with
    q - 1 = 2^s * t, t odd.  Euler's criterion, a^((q-1)/2) = 1 exactly for
    a nonzero square a, is b^(2^(s-1)) = 1 for b = a^t: s - 1 squarings.  A
    non-square is needed only when b != 1; the search takes the last one in
    ``element`` order, going down from element(q - 1), which skips the
    sub-level, whose elements are all squares when the top level has even
    degree.
    """
    if not a:
        return a
    q = F.order
    s = ((q - 1) & (1 - q)).bit_length() - 1
    t = (q - 1) >> s
    x = elem_pow(a, (t - 1) // 2, F)
    x, b = F.mul(a, x), F.mul(a, F.mul(x, x))  # x^2 = a*b, b = a^t
    if not F.is_one(elem_pow(b, 1 << (s - 1), F)):
        return None
    if F.is_one(b):
        return x
    for i in range(q - 1, 0, -1):
        y = elem_pow(F.element(i), t, F)  # a non-square's y has order 2^s
        if not F.is_one(elem_pow(y, 1 << (s - 1), F)):
            break
    r = s  # y has order 2^r, b order 2^m with m < r
    for _ in range(s):  # r falls at every step
        if F.is_one(b):
            return x
        m, b2 = 1, F.mul(b, b)
        for _ in range(r):
            if F.is_one(b2):
                break
            m, b2 = m + 1, F.mul(b2, b2)
        z = elem_pow(y, 1 << (r - m - 1), F)
        y, r = F.mul(z, z), m
        x, b = F.mul(x, z), F.mul(b, y)
    raise InvariantViolation(f"{F.tag}: Tonelli-Shanks did not reach a root")


def _split_quadratic(g, F):
    """The monic irreducible factors of a monic squarefree quadratic g over
    a field of odd characteristic: g = (x + h)^2 - (h^2 - g0) with h = g1/2,
    so g splits into x + h - r and x + h + r when r^2 = h^2 - g0 has a root r.
    """
    h = F.mul(g[1], F.from_int((F.char + 1) // 2))  # (p+1)/2 is 1/2 mod p
    r = _sqrt(F.sub(F.mul(h, h), g[0]), F)
    if r is None:
        return [g]
    one = F.one()
    return [(F.sub(h, r), one), (F.add(h, r), one)]


def factor_key(g, F):
    """Canonical sort key: linear factors by root, others by coefficient index."""
    if deg(g) == 1:
        return (1, (F.sort_key(F.neg(g[0])),))
    return (deg(g), tuple(F.sort_key(c) for c in g[:-1]))


def factor(f, F):
    """Factor nonconstant f into [(monic irreducible, multiplicity)], sorted."""
    f = trim(f, F)
    if deg(f) < 1:
        raise UsageError("factorization requires a nonconstant polynomial")
    out = []
    for g, e in sqf_list(f, F):
        if deg(g) == 2 and F.char != 2:
            out.extend((irr, e) for irr in _split_quadratic(g, F))
            continue
        for part, d in ddf(g, F):
            for irr in edf(part, d, F):
                out.append((monic(irr, F), e))
    return sorted(out, key=lambda ge: factor_key(ge[0], F))


def is_irreducible(f, F):
    """True when f is irreducible over the finite field F: ddf leaves it whole."""
    f = monic(trim(f, F), F)
    return deg(f) >= 1 and ddf(f, F) == [(f, deg(f))]


def first_irreducible(degree, F):
    """First monic irreducible of the given degree in coefficient-index order."""
    if degree < 1:
        raise UsageError("irreducible polynomials have degree >= 1")
    q = F.order
    for i in range(q**degree):
        coeffs = []
        k = i
        for _ in range(degree):
            coeffs.append(F.element(k % q))
            k //= q
        coeffs.append(F.one())
        g = tuple(coeffs)
        if is_irreducible(g, F):
            return g
    raise UsageError("no irreducible of requested degree")  # unreachable

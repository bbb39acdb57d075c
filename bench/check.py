"""Output checks that share no code with gbsolve.

Polynomials are dicts ``{exponent tuple: coefficient mod p}``.  The parser
reads what the CLI prints (``+ - * ^``, parentheses, integers, names), so a
certificate, a point in an extension tower or a basis is multiplied out and
checked here, not taken on the program's word.
"""

import re

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([-+*^()]))")


class CheckError(Exception):
    pass


# -- arithmetic ---------------------------------------------------------------


def add_into(acc, f, p, scale=1):
    for e, c in f.items():
        v = (acc.get(e, 0) + scale * c) % p
        if v:
            acc[e] = v
        else:
            acc.pop(e, None)
    return acc


def mul(f, g, p):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            v = (out.get(e, 0) + c1 * c2) % p
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return out


def power(f, k, p, nvars, reduce=None):
    out = {(0,) * nvars: 1}
    for _ in range(k):
        out = mul(out, f, p)
        if reduce is not None:
            out = reduce(out)
    return out


# -- parsing ------------------------------------------------------------------


def parse(text, names, p):
    """Parse one printed polynomial over GF(p) in the given variables."""
    tokens, pos = [], 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            raise CheckError(f"cannot read {text!r}")
        tokens.append(m.group(1) or m.group(2) or m.group(3))
        pos = m.end()
    n = len(names)
    one = (0,) * n
    at = [0]

    def peek():
        return tokens[at[0]] if at[0] < len(tokens) else None

    def take():
        tok = peek()
        if tok is None:
            raise CheckError(f"truncated polynomial {text!r}")
        at[0] += 1
        return tok

    def expr():
        acc = term()
        while peek() in ("+", "-"):
            sign = 1 if take() == "+" else -1
            add_into(acc, term(), p, sign)
        return acc

    def term():
        acc = unary()
        while peek() == "*":
            take()
            acc = mul(acc, unary(), p)
        return acc

    def unary():
        if peek() == "-":
            take()
            return add_into({}, unary(), p, -1)
        base = atom()
        if peek() == "^":
            take()
            k = take()
            if not k.isdigit():
                raise CheckError(f"bad exponent in {text!r}")
            return power(base, int(k), p, n)
        return base

    def atom():
        tok = take()
        if tok.isdigit():
            c = int(tok) % p
            return {one: c} if c else {}
        if tok == "(":
            inner = expr()
            if take() != ")":
                raise CheckError(f"unbalanced parentheses in {text!r}")
            return inner
        if tok in names:
            i = names.index(tok)
            return {tuple(1 if j == i else 0 for j in range(n)): 1}
        raise CheckError(f"unexpected {tok!r} in {text!r}")

    result = expr()
    if peek() is not None:
        raise CheckError(f"trailing input in {text!r}")
    return result


def _field(line, prefix):
    if not line.startswith(prefix):
        raise CheckError(f"expected {prefix!r}, got {line!r}")
    return line[len(prefix) :]


# -- solve --------------------------------------------------------------------


def _check_certificate(job, lines):
    if len(lines) != len(job.gens):
        raise CheckError("one certificate line per generator expected")
    total = {}
    for i, (line, gen) in enumerate(zip(lines, job.gens)):
        cert = parse(_field(line, f"cert[{i}] = "), job.names, job.prime)
        add_into(total, mul(cert, gen, job.prime), job.prime)
    if total != {(0,) * len(job.names): 1}:
        raise CheckError("the certificate does not multiply out to 1")


def _tower_reducer(minpolys, p):
    """Normal form modulo a triangular set of monic minimal polynomials."""
    k = len(minpolys)
    rules = []
    for level, m in enumerate(minpolys):
        d = max((e[level] for e in m), default=0)
        top = {e[:level] + (0,) + e[level + 1 :]: c for e, c in m.items() if e[level] == d}
        if d < 2 or top != {(0,) * k: 1} or any(e[level + 1 :] != (0,) * (k - level - 1) for e in m):
            raise CheckError(f"tower level {level + 1} is not monic of degree >= 2")
        tail = {e: (-c) % p for e, c in m.items() if e[level] < d}
        rules.append((level, d, tail))

    def reduce(f):
        for level, d, tail in reversed(rules):
            while True:
                high = [e for e in f if e[level] >= d]
                if not high:
                    break
                for e in high:
                    c = f.pop(e, 0)
                    if not c:
                        continue
                    shift = e[:level] + (e[level] - d,) + e[level + 1 :]
                    add_into(f, mul({shift: c}, tail, p), p)
        return f

    return reduce


def _check_point(job, lines):
    if not lines or lines[-1] != "VERIFIED":
        raise CheckError("a point must end with VERIFIED")
    body = lines[:-1]
    ext = [line for line in body if line.startswith("ext ")]
    coords = body[len(ext) :]
    tnames = [_field(line, "ext ").split(":", 1)[0] for line in ext]
    minpolys = [parse(line.split(":", 1)[1], tnames, job.prime) for line in ext]
    reduce = _tower_reducer(minpolys, job.prime)
    if len(coords) != len(job.names):
        raise CheckError("one coordinate line per variable expected")
    values = [
        reduce(parse(_field(line, f"{name} = "), tnames, job.prime))
        for line, name in zip(coords, job.names)
    ]
    k = len(tnames)
    for gen in job.gens:
        acc = {}
        for exps, c in gen.items():
            term = {(0,) * k: c}
            for v, e in zip(values, exps):
                if e:
                    term = reduce(mul(term, power(v, e, job.prime, k, reduce), job.prime))
            add_into(acc, term, job.prime)
        if reduce(acc):
            raise CheckError("the point does not vanish on a generator")


def check_solve(job, code, out):
    lines = out.splitlines()
    if code == 1 and lines[:1] == ["TRIVIAL"]:
        _check_certificate(job, lines[1:])
    elif code == 0 and lines[:1] == ["POINT"]:
        _check_point(job, lines[1:])
    else:
        raise CheckError(f"exit {code} with output starting {lines[:1]}")


# -- gb -----------------------------------------------------------------------


def _wlex_key(e):
    return (sum(e), e)


def remainder(f, basis, p, key):
    """Remainder of multivariate division by the basis under the order ``key``."""
    leads = []
    for g in basis:
        if not g:
            raise CheckError("the basis contains zero")
        lm = max(g, key=key)
        leads.append((lm, pow(g[lm], -1, p), g))
    f, rem = dict(f), {}
    while f:
        t = max(f, key=key)
        for lm, inv, g in leads:
            if all(a >= b for a, b in zip(t, lm)):
                shift = tuple(a - b for a, b in zip(t, lm))
                add_into(f, mul({shift: f[t] * inv % p}, g, p), p, -1)
                break
        else:
            rem[t] = f.pop(t)
    return rem


def check_gb(job, code, out):
    if code != 0:
        raise CheckError(f"gb exited {code}")
    basis = [parse(line, job.names, job.prime) for line in out.splitlines()]
    if not basis:
        raise CheckError("empty basis")
    for gen in job.gens:
        if remainder(gen, basis, job.prime, _wlex_key):
            raise CheckError("a generator does not reduce to zero")


CHECKS = {"solve": check_solve, "gb": check_gb}


def check(job, code, out):
    """None when the output is correct, else the reason it is not."""
    try:
        CHECKS[job.args[0]](job, code, out)
    except CheckError as e:
        return str(e)
    return None

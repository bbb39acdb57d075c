"""Command-line frontend.

Every command reads a problem file (see parser), runs one kernel operation
and prints a deterministic, diff-stable transcript.  Exit codes: 0 for a
positive outcome, 1 for a mathematical negative (not a member, not trivial,
no point because the ideal is everything), 2 for usage or parse errors, 3
for internal invariant violations.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from .errors import InvariantViolation, KernelError, UsageError
from .euclidean import strong_buchberger, to_coeff_view
from .fields import FieldTower, UnivariatePolyDomain
from .groebner import Ideal, Triviality, eliminate_to_x1, is_trivial, member
from .parser import parse_problem
from .poly import TermOrder, to_text
from .solver import Point, ideal_intersect, radical_member, solve


def _load(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e.strerror or e}") from None
    except UnicodeDecodeError as e:
        raise UsageError(f"cannot read {path}: not UTF-8 at byte {e.start}") from None
    return parse_problem(text)


def _ideal(problem):
    return Ideal(problem.gens, domain=problem.domain, nvars=problem.nvars)


def _order_flag(text, nvars):
    if text is None or text == "lex":
        return TermOrder.lex(nvars)
    if text.startswith("wlex:"):
        try:
            weights = tuple(int(w) for w in text[len("wlex:") :].split(","))
        except ValueError:
            raise UsageError(f"bad weight list in {text!r}") from None
        if len(weights) != nvars:
            raise UsageError(
                f"{len(weights)} weights given but {nvars} variables are ordered"
            )
        return TermOrder.weighted(weights)
    raise UsageError(f"unknown order {text!r}; use lex or wlex:w1,...,wn")


def _require_query(problem):
    if problem.query is None:
        raise UsageError("this command needs a 'query <polynomial>' line")
    return problem.query


def _print_certificate(certificate, names):
    for i, c in enumerate(certificate):
        print(f"cert[{i}] = {to_text(c, names)}")


def _minpoly_text(tower, i):
    """Level i's minimal polynomial over the tower of the levels below it."""
    level = tower.levels[i]
    return UnivariatePolyDomain(tower.prefix(i), level.name).to_text(level.minpoly)


def _cmd_gb(args):
    problem = _load(args.file)
    order = _order_flag(args.order, problem.nvars)
    basis = _ideal(problem).groebner(order)
    for g in basis.elements:
        print(to_text(g, problem.names, order))
    return 0


def _cmd_gb_strong(args):
    problem = _load(args.file)
    if problem.nvars < 2:
        raise UsageError("the K[x1] view needs at least two variables")
    order = _order_flag(args.order, problem.nvars - 1)
    coeff_dom = UnivariatePolyDomain(problem.domain, problem.names[0])
    views = [to_coeff_view(g, problem.names[0]) for g in problem.gens]
    basis = strong_buchberger(
        views, order, domain=coeff_dom, nvars=problem.nvars - 1
    )
    for g in basis.elements:
        print(to_text(g, problem.names[1:], order))
    return 0


def _cmd_eliminate(args):
    problem = _load(args.file)
    p = eliminate_to_x1(_ideal(problem))
    print(to_text(p, problem.names[:1]))
    return 0


def _cmd_is_trivial(args):
    problem = _load(args.file)
    verdict = is_trivial(_ideal(problem))
    if not verdict:
        print("NOT TRIVIAL")
        return 1
    print("TRIVIAL")
    _print_certificate(verdict.certificate, problem.names)
    return 0


def _cmd_member(args):
    problem = _load(args.file)
    if member(_require_query(problem), _ideal(problem)):
        print("MEMBER")
        return 0
    print("NOT MEMBER")
    return 1


def _cmd_radical_member(args):
    problem = _load(args.file)
    if radical_member(_require_query(problem), _ideal(problem)):
        print("RADICAL MEMBER")
        return 0
    print("NOT RADICAL MEMBER")
    return 1


def _cmd_intersect(args):
    left = _load(args.file)
    right = _load(args.other)
    if left.domain != right.domain:
        raise UsageError("the two problems declare different fields")
    if left.names != right.names:
        raise UsageError("the two problems declare different variables")
    result = ideal_intersect(_ideal(left), _ideal(right))
    for g in result.gens:
        print(to_text(g, left.names))
    return 0


def _print_trace(trace, problem):
    prev = problem.domain
    for step in trace:
        name = problem.names[step.var_index]
        parts = [
            f"branch={step.branch}",
            f"p={to_text(step.eliminated, [name])}",
            f"a={step.chosen}",
        ]
        if step.extension is None:
            parts.append("ext=-")
        else:
            added = [
                _minpoly_text(step.extension, i)
                for i in range(len(prev.levels), len(step.extension.levels))
            ]
            parts.append("ext=" + "; ".join(added))
            prev = step.extension
        if step.locus is not None:
            parts.append(f"q={to_text(step.locus, [name])}")
        print(f"trace {name}: " + " ".join(parts))


def _cmd_solve(args):
    problem = _load(args.file)
    if not isinstance(problem.domain, FieldTower):
        raise UsageError(
            "solve works over finite characteristic only; declare 'field p <prime>'"
        )
    outcome, trace = solve(_ideal(problem))
    if args.trace:
        _print_trace(trace, problem)
    if isinstance(outcome, Triviality):
        print("TRIVIAL")
        _print_certificate(outcome.certificate, problem.names)
        return 1
    if not isinstance(outcome, Point):
        raise InvariantViolation(f"solve returned {type(outcome).__name__}")
    print("POINT")
    tower = outcome.tower
    for i, level in enumerate(tower.levels):
        print(f"ext {level.name}: {_minpoly_text(tower, i)}")
    for name, coord in zip(problem.names, outcome.coords):
        print(f"{name} = {tower.to_text(coord.rep)}")
    print("VERIFIED")
    return 0


@functools.cache
def build_parser():
    """The argument parser, built on the first call and shared after it.

    ``parse_args`` returns a fresh namespace on every call, so nothing one
    ``main`` call parses reaches the next.
    """
    ap = argparse.ArgumentParser(
        prog="gbsolve",
        description=(
            "Exact Groebner-basis kernel: bases, elimination, triviality "
            "certificates, ideal intersection, radical membership, and point "
            "finding over finite-field towers."
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def cmd(name, fn, help_text, order=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="problem file")
        if order:
            p.add_argument("--order", default=None, help="lex or wlex:w1,...,wn")
        p.set_defaults(fn=fn)
        return p

    cmd("gb", _cmd_gb, "reduced Groebner basis of the generators", order=True)
    cmd(
        "gb-strong",
        _cmd_gb_strong,
        "strong basis with x1 moved into the coefficients",
        order=True,
    )
    cmd("eliminate", _cmd_eliminate, "generator of the intersection with K[x1]")
    cmd("is-trivial", _cmd_is_trivial, "decide 1 in I, with a certificate")
    cmd("member", _cmd_member, "decide query in I")
    cmd("radical-member", _cmd_radical_member, "decide query in the radical of I")
    inter = sub.add_parser("intersect", help="intersect the ideals of two problems")
    inter.add_argument("file", help="first problem file")
    inter.add_argument("other", help="second problem file")
    inter.set_defaults(fn=_cmd_intersect)
    solve_p = cmd(
        "solve", _cmd_solve, "triviality certificate or a verified common zero"
    )
    solve_p.add_argument(
        "--trace", action="store_true", help="print one line per eliminated variable"
    )
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout.  Point it at devnull so the flush at exit
        # cannot raise again (the SIGPIPE note in the Python signal docs).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: standard output was closed", file=sys.stderr)
        return 2
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except KernelError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 3
    except Exception as e:  # noqa: BLE001  - the contract is exit 3, not a traceback
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

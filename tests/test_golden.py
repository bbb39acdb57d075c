"""Golden transcripts: fixed problem files whose stdout is checked in.

Certificates and bases depend on the exact order in which pairs are reduced
and terms are divided, so these pin byte-identical output across changes to
the completion and division loops; criterion 8 only checks that a run
repeats itself.  ``test_completion_pin`` pins both completions on a larger
seeded corpus.  After an intended output change, rewrite the expected files
and that test's digest with the one command

    PYTHONPATH=src python tests/test_golden.py

and review the diff.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

import test_completion_pin
from corpus import split_stream
from gbsolve import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

# (case name, command and options, problem files, expected exit code)
CASES = [
    ("gb_lex_dense", ["gb"], ["dense3_gf32003.gb"], 0),
    ("gb_wlex_dense", ["gb", "--order", "wlex:1,2,3"], ["dense3_gf32003.gb"], 0),
    ("gb_wlex_quadrics", ["gb", "--order", "wlex:1,1,1,1"], ["quadrics4_gf32003.gb"], 0),
    # katsura-4 over GF(101): a graded run on every pair lcm of five variables
    ("gb_wlex_katsura4", ["gb", "--order", "wlex:1,1,1,1,1"], ["katsura4_gf101.gb"], 0),
    # katsura-5 over GF(101): a graded run through degrees above katsura-4's
    ("gb_wlex_katsura5", ["gb", "--order", "wlex:1,1,1,1,1,1"], ["katsura5_gf101.gb"], 0),
    # four binomials in six variables over GF(32003): pairs whose lcm degree
    # passes the per-term column limit are built and reduced as polynomials
    ("gb_wlex_binomials6", ["gb", "--order", "wlex:1,1,1,1,1,1"], ["binomials6_gf32003.gb"], 0),
    ("gb_lex_rational", ["gb"], ["rational3.gb"], 0),
    ("gb_wlex_rational", ["gb", "--order", "wlex:2,1,1"], ["rational3.gb"], 0),
    ("gb_strong_gf5", ["gb-strong"], ["strong3_gf5.gb"], 0),
    ("gb_strong_wlex_gf5", ["gb-strong", "--order", "wlex:1,2"], ["strong3_gf5.gb"], 0),
    ("gb_strong_rational", ["gb-strong"], ["strong3_q.gb"], 0),
    ("eliminate_gf7", ["eliminate"], ["elim3_gf7.gb"], 0),
    ("eliminate_random", ["eliminate"], ["random3_gf5.gb"], 0),
    ("is_trivial_gf5", ["is-trivial"], ["unit3_gf5.gb"], 0),
    ("is_trivial_rational", ["is-trivial"], ["unit3_q.gb"], 0),
    ("is_trivial_proper", ["is-trivial"], ["random3_gf5.gb"], 1),
    # equal leading monomials: the earliest element survives over a field
    ("is_trivial_two_constants", ["is-trivial"], ["two_constants_gf5.gb"], 0),
    # ... and the latest over K[x1]
    ("gb_strong_shared_lead", ["gb-strong"], ["shared_lead_gf7.gb"], 0),
    ("member_yes", ["member"], ["member_gf7.gb"], 0),
    ("member_no", ["member"], ["nonmember_gf7.gb"], 1),
    ("radical_member_yes", ["radical-member"], ["radical_yes_gf7.gb"], 0),
    ("radical_member_no", ["radical-member"], ["radical_no_gf7.gb"], 1),
    ("intersect", ["intersect"], ["pair_a_gf5.gb", "pair_b_gf5.gb"], 0),
    ("solve_random", ["solve", "--trace"], ["random3_gf5.gb"], 0),
    ("solve_random_b", ["solve", "--trace"], ["random3b_gf5.gb"], 0),
    ("solve_tower", ["solve", "--trace"], ["tower3_gf5.gb"], 0),
    # tower elements and minimal polynomials over two- and three-level towers
    ("solve_tower3_levels", ["solve", "--trace"], ["tower3_levels_gf5.gb"], 0),
    ("solve_locus", ["solve", "--trace"], ["locus2_gf5.gb"], 0),
    # one locus step that stacks two levels, printed as one ext= list
    ("solve_locus_two_levels", ["solve", "--trace"], ["locus_two_levels_gf2.gb"], 0),
    # root, then locus on generators carried from the root level's basis
    ("solve_root_locus", ["solve", "--trace"], ["root_locus_gf5.gb"], 0),
    # the locus level's basis image is not a basis, so the next level completes
    ("solve_uncarried", ["solve", "--trace"], ["uncarried_gf5.gb"], 0),
    # one variable: the root step on the gcd, extending the field
    ("solve_univariate", ["solve", "--trace"], ["univariate_gf3.gb"], 0),
    # GF(289) is untabled, so its products are taken over the prime field;
    # then GF(17^4) over it
    ("solve_tower2_gf17", ["solve", "--trace"], ["tower2_gf17.gb"], 0),
    # characteristic 2: distinct- and equal-degree splitting up to GF(2^16)
    # over the tabled GF(256)
    ("solve_tower4_gf2", ["solve", "--trace"], ["tower4_gf2.gb"], 0),
    ("solve_trivial", ["solve", "--trace"], ["unit3_gf5.gb"], 1),
    # katsura-4 over GF(101): a lex elimination run whose pairs the chain
    # criterion mostly skips, and a root of degree 16 at the first level
    ("solve_katsura4", ["solve", "--trace"], ["katsura4_gf101.gb"], 0),
]


# the solve goldens whose factoring splits a factor at random
SPLIT_AT_RANDOM = {"solve_random_b", "solve_tower4_gf2", "solve_katsura4"}


def _transcript(command, files):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(
            [command[0], *(str(GOLDEN / f) for f in files), *command[1:]]
        )
    return code, out.getvalue()


@pytest.mark.parametrize(
    "name, command, files, code", CASES, ids=[case[0] for case in CASES]
)
def test_golden_transcript(name, command, files, code):
    got_code, got = _transcript(command, files)
    assert got_code == code
    assert got == (GOLDEN / f"{name}.out").read_text()


@pytest.mark.parametrize("seed", ["0", "7"])
@pytest.mark.parametrize(
    "name, command, files, code",
    [case for case in CASES if case[1][0] == "solve"],
    ids=[case[0] for case in CASES if case[1][0] == "solve"],
)
def test_solve_output_does_not_depend_on_the_seed(name, command, files, code, seed):
    # factors are unique, monic and sorted by an injective key, so the stream
    # the randomized equal-degree split draws from cannot reach stdout
    with split_stream(int(seed)) as streams:
        got_code, got = _transcript(command, files)
    assert got_code == code
    assert got == (GOLDEN / f"{name}.out").read_text()
    assert bool(streams) == (name in SPLIT_AT_RANDOM)


def test_every_golden_file_is_used():
    used = {f for case in CASES for f in case[2]}
    used |= {f"{case[0]}.out" for case in CASES}
    assert {p.name for p in GOLDEN.iterdir()} == used


def _regenerate():
    for name, command, files, code in CASES:
        got_code, got = _transcript(command, files)
        if got_code != code:
            raise SystemExit(f"{name}: exit {got_code}, expected {code}")
        (GOLDEN / f"{name}.out").write_text(got)
        print(f"{name}: {len(got.splitlines())} lines")
    test_completion_pin.rewrite_digest()
    print(f"{test_completion_pin.DIGEST_FILE.name}: rewritten")


if __name__ == "__main__":
    sys.exit(_regenerate())

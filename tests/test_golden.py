"""Golden CLI outputs: exit code plus the JSON report minus `timing_ms`, or
the CSV text, for a fixed set of invocations; golden `parse_poly` outcomes:
the terms, or the error class, message and position, for a fixed set of
polynomial strings; and golden `separate` outcomes: whether a witness was
found and at which trial, or the error message, for every strategy, n, d and
family over a few seeds.

The golden files are written by running this module as a script:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from freeqg.cli import main
from freeqg.reps import SeparationStrategy, evaluate, parse_poly, separate

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"
POLY_GOLDEN = GOLDEN.with_name("poly.json")
SEPARATE_GOLDEN = GOLDEN.with_name("separate.json")

CASES = [
    ["pairings", "--word", "uUuUuU"],
    ["pairings", "--word", "uuUUuU", "--noncrossing"],
    ["rank", "--word", "uUuUuU", "--n", "2"],
    ["dim", "--word", "uUu", "--n", "3"],
    ["fusion", "--left", "uU", "--right", "Uu"],
    ["fullness", "--max-len", "6", "--n", "4", "--dw", "2", "--du", "2"],
    ["fullness", "--max-len", "6", "--n", "5", "--dw", "4", "--du", "1"],
    ["fullness", "--max-len", "6", "--n", "3", "--dw", "2", "--du", "1"],
    ["fullness", "--max-len", "4", "--n", "3", "--dw", "1", "--du", "2", "--format", "csv"],
    # the zero polynomial and a commutator that vanishes on every scalar model
    ["separate", "--poly", "u11 - u11", "--n", "2", "--strategy", "point", "--trials", "3"],
    ["separate", "--poly", "u11 u12 - u12 u11", "--n", "2", "--trials", "0"],
]


def _random_poly_cases(count, seed):
    """Strings over grammar pieces, whitespace variants and near misses: an
    Arabic-Indic digit, an upper-case letter, a stray exponent, a lone dot."""
    pieces = [
        "u11", "u12", "u21'", "v12", "v22'", "u31", "u", "v", "u1", "u١",
        "1", "2", "0", "9", "١", "'", "+", "-", " + ", " - ", "i", "i ",
        ".", "e", "E", "2.5", "1e3", ".5", "2 ",
        " ", " ", " ", "\t", "\n", "\u00a0", "\u2003", "U", "?",
    ]
    rng = random.Random(seed)
    return [
        (
            "".join(rng.choice(pieces) for _ in range(rng.randrange(1, 13))),
            rng.choice([1, 2, 3, 9]),
            rng.choice("AB"),
        )
        for _ in range(count)
    ]


# (text, n, family), at least one per outcome: terms, empty, a term with no
# factors, a coefficient after a generator, the wrong family, an index out of
# range, a malformed generator, an unexpected character, a non-finite
# coefficient and a bad n or family; lexical errors win over syntax errors.
POLY_CASES = [
    ("u11", 2, "A"),
    ("2.5 i u11 u21' - u22 + 3", 2, "A"),
    ("-u12 u21'", 2, "A"),
    ("+ 3", 1, "A"),
    ("i", 1, "A"),
    ("1e-3 u11 - .5e2 u11' + 4. i i", 1, "A"),
    ("v12 v21' - v21 v12'", 2, "B"),
    ("u99 - u19'", 9, "A"),
    ("\tu11\u00a0u11'\n", 1, "A"),
    ("١ u11", 1, "A"),
    ("u١١", 1, "A"),
    ("0 u11 - 1e-400", 1, "A"),
    ("u11 u11 u11 - 2 + i", 1, "A"),
    ("u11 - u11", 2, "A"),
    ("", 2, "A"),
    ("   ", 2, "A"),
    ("\u2003\n", 2, "B"),
    ("-", 2, "A"),
    ("u11 +", 2, "A"),
    ("u11 + - u12", 2, "A"),
    ("++u11", 2, "A"),
    ("u11 2", 2, "A"),
    ("u11 .5 u12", 2, "A"),
    ("u11 i", 2, "A"),
    ("2 u12' i u11", 2, "A"),
    ("v11", 2, "A"),
    ("u11", 2, "B"),
    ("2 v11 - u11", 2, "B"),
    ("u13", 2, "A"),
    ("u01", 2, "A"),
    ("v30'", 2, "B"),
    ("u١٣", 2, "A"),
    ("u1", 2, "A"),
    ("u", 2, "A"),
    ("v1x", 2, "B"),
    ("2 u 11", 2, "A"),
    ("uU", 2, "A"),
    ("U11", 2, "A"),
    ("u11 * u12", 2, "A"),
    ("e5 u11", 2, "A"),
    (".", 2, "A"),
    ("1e u11", 2, "A"),
    ("u11 2 ?", 2, "A"),
    ("u13 u1", 2, "A"),
    ("- ?", 2, "A"),
    ("1e309 u11", 2, "A"),
    ("1e200 1e200", 2, "A"),
    ("-1e200 i 1e200 u11", 2, "A"),
    ("u11", 0, "A"),
    ("u11", 10, "A"),
    ("u11", 2, "C"),
] + _random_poly_cases(400, seed=7)


# (family, polynomial template); {b} is the second index,
# 2 where n >= 2 and 1 at n = 1, where the commutators become zero.  Family
# 'B' is drawn with every kind, so the rejected kinds are recorded too.
SEPARATE_POLYS = [
    ("A", "u11 u1{b} - u1{b} u11"),
    ("A", "u11 u11' - 1"),
    ("B", "v11 v{b}1 - v{b}1 v11"),
    ("B", "v11 v11 - 1"),
]
SEPARATE_CASES = [
    (family, template.format(b=min(n, 2)), kind, n, d, seed)
    for family, template in SEPARATE_POLYS
    for kind in ("point", "freeproduct", "block", "lift")
    for n in range(1, 5)
    for d in (1, 2, 3, 4)
    for seed in (0, 7, 100)
]
SEPARATE_TRIALS = 5
SEPARATE_TOL = 1e-6


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    text = out.getvalue()
    if "csv" in argv:
        return {"argv": argv, "code": code, "csv": text.splitlines()}
    report = json.loads(text)
    del report["timing_ms"]
    return {"argv": argv, "code": code, "report": report}


def parse_case(text, n, family):
    case = {"text": text, "n": n, "family": family}
    try:
        poly = parse_poly(text, n, family)
    except ValueError as exc:
        case["error"] = {
            "class": type(exc).__name__,
            "message": str(exc),
            "position": getattr(exc, "position", None),
        }
    else:
        case["terms"] = [
            [[coeff.real, coeff.imag], [list(gen) for gen in gens]]
            for coeff, gens in poly.terms
        ]
    return case


def search(family, text, kind, n, d, seed):
    poly = parse_poly(text, n, family)
    return separate(
        poly, SeparationStrategy(kind, d), SEPARATE_TRIALS, seed, SEPARATE_TOL
    )


def separate_case(family, text, kind, n, d, seed):
    case = {"family": family, "poly": text, "kind": kind, "n": n, "d": d, "seed": seed}
    try:
        witness = search(family, text, kind, n, d, seed)
    except ValueError as exc:
        case["error"] = str(exc)
    else:
        case["found"] = witness is not None
        case["trial"] = None if witness is None else witness.trial
    return case


def load_golden():
    with open(GOLDEN) as handle:
        return {" ".join(case["argv"]): case for case in json.load(handle)}


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_matches_golden(argv, monkeypatch):
    monkeypatch.delenv("QGI_THREADS", raising=False)
    assert run(argv) == load_golden()[" ".join(argv)]


def test_parse_poly_matches_golden():
    # compared as JSON text, so -0.0 stays distinct from 0.0
    with open(POLY_GOLDEN) as handle:
        golden = json.load(handle)
    assert POLY_CASES == [
        (case["text"], case["n"], case["family"]) for case in golden
    ]
    mismatches = [
        (expected, actual)
        for expected, actual in zip(golden, (parse_case(*case) for case in POLY_CASES))
        if json.dumps(expected, sort_keys=True) != json.dumps(actual, sort_keys=True)
    ]
    assert mismatches == []


def test_separate_matches_golden():
    with open(SEPARATE_GOLDEN) as handle:
        golden = json.load(handle)
    assert [
        (case["family"], case["poly"], case["kind"], case["n"], case["d"], case["seed"])
        for case in golden
    ] == SEPARATE_CASES
    assert [separate_case(*case) for case in SEPARATE_CASES] == golden
    found = [case for case in golden if case.get("found")]
    assert 0 < len(found) < len(golden)


def test_separate_witness_norms_match_unbatched_oracle():
    # every witness norm is the largest singular value of the evaluated
    # polynomial, computed here by numpy's own matrix 2-norm
    with open(SEPARATE_GOLDEN) as handle:
        found = [case for case in json.load(handle) if case.get("found")]
    for case in found:
        key = [case[k] for k in ("family", "poly", "kind", "n", "d", "seed")]
        witness = search(*key)
        poly = parse_poly(case["poly"], case["n"], case["family"])
        assert witness.norm == np.linalg.norm(evaluate(poly, witness.rep), 2)
        assert witness.norm > SEPARATE_TOL


def write(path, cases):
    with open(path, "w") as handle:
        json.dump(cases, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(cases)} cases to {path}", file=sys.stderr)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    write(GOLDEN, [run(argv) for argv in CASES])
    write(POLY_GOLDEN, [parse_case(*case) for case in POLY_CASES])
    write(SEPARATE_GOLDEN, [separate_case(*case) for case in SEPARATE_CASES])

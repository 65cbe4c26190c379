"""Checker self-test: every checker must accept a right answer and reject a
corrupted one, so that a fast wrong answer cannot pass as a speed-up.

Runs at tiny sizes (well under a second) at the start of every benchmark run.
"""

from __future__ import annotations

import contextlib
import io

import checks
from workloads import MODEL_POLY, fullness_expectations


def run(fq, root) -> list[str]:
    """Returns the cases where a checker judged wrongly; empty when all pass."""
    failures: list[str] = []

    def expect(label, problems, should_fail):
        if bool(problems) != should_fail:
            verdict = "accepted" if not problems else f"rejected ({problems[0]})"
            failures.append(f"{label}: checker {verdict}")

    reference, validators = fullness_expectations(root)
    config = (3, 2, 1)
    argv = ["fullness", "--max-len", "4", "--n", "3", "--dw", "2", "--du", "1"]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = fq.cli.main(argv)
    text = buf.getvalue()
    words = checks.balanced_words_upto(4)
    args = (words, config, reference, validators)
    expect("fullness as computed", checks.check_fullness(code, text, *args), False)
    flipped = text.replace('"holds": true', '"holds": false', 1)
    expect("fullness with one verdict flipped", checks.check_fullness(code, flipped, *args), True)
    expect("fullness with exit code 1", checks.check_fullness(1, text, *args), True)

    word = "uUuU"
    rank = fq.coinvariants.nc_rank(fq.words.parse_word(word), fq.coinvariants.AmbientSpec(2))
    expect("nc_rank as computed", checks.check_rank(word, rank), False)
    expect("nc_rank minus one", checks.check_rank(word, rank - 1), True)

    word, n = "uUuU", 3
    w = fq.words.parse_word(word)
    pairings = fq.words.enumerate_pairings(w)
    gram = fq.coinvariants.gram_matrix(pairings, w, fq.coinvariants.AmbientSpec(n))
    arcs = [p.arcs for p in pairings]
    rows = [[int(x) for x in row] for row in gram.row_list()]
    noncrossing = [p.arcs for p in fq.words.enumerate_noncrossing(w)]
    trivial = fq.fusion.trivial_multiplicity(w)
    expect("Gram as computed", checks.check_gram(word, n, arcs, rows, noncrossing, trivial), False)
    expect("trivial multiplicity plus one", checks.check_gram(word, n, arcs, rows, noncrossing, trivial + 1), True)
    rows[0][1] += 1
    expect("Gram with one entry changed", checks.check_gram(word, n, arcs, rows, noncrossing, trivial), True)

    poly = fq.reps.parse_poly(MODEL_POLY, 2, "A")
    witness = fq.reps.separate(poly, fq.reps.SeparationStrategy("freeproduct", 2), trials=5, seed=1)
    images = None if witness is None else witness.rep.images
    norm = None if witness is None else witness.norm
    expect("freeproduct witness as computed", checks.check_model("freeproduct", 2, images, norm, 1e-6), False)
    if images is not None:
        skewed = images.copy()
        skewed[0, 0] *= 1 + 1e-6
        expect("witness with residual above tol", checks.check_model("freeproduct", 2, skewed, norm, 1e-6), True)
        expect("witness for a point model", checks.check_model("point", 2, images, norm, 1e-6), True)
    expect("missing freeproduct witness", checks.check_model("freeproduct", 2, None, None, 1e-6), True)
    return failures

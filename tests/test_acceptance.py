"""End-to-end acceptance checks.

Each check prints one [PASS]/[FAIL] line (run with -s to see them all);
tolerances and runtime budgets are pinned inside the assertions.  The checks
are numbered and ordered; run this module alone via

    pytest tests/test_acceptance.py -v -s
"""

import time
from math import factorial

import numpy as np

from freeqg.coinvariants import (
    AmbientSpec,
    QuotientSpec,
    gram_matrix,
    invariant_dimension_oracle,
    joint_fullness,
    nc_rank,
    realize_functional,
)
from freeqg.fusion import dimension, fuse, trivial_multiplicity
from freeqg.reps import (
    SeparationStrategy,
    check_relations,
    evaluate,
    haar_unitary,
    operator_norm,
    parse_poly,
    point_rep,
    separate,
)
from freeqg.words import (
    balanced_words,
    enumerate_noncrossing,
    enumerate_pairings,
    parse_word,
)

CATALAN = (1, 1, 2, 5, 14, 42, 132, 429, 1430)


def report(number, description, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number:02d}: {description}")
    assert ok, f"criterion {number:02d}: {description}"


def test_01_noncrossing_counts_are_catalan():
    start = time.perf_counter()
    ok = all(
        len(enumerate_noncrossing(parse_word("uU" * k))) == CATALAN[k]
        for k in range(1, 9)
    )
    elapsed = time.perf_counter() - start
    report(
        1,
        f"alternating-word non-crossing counts equal Catalan numbers for k=1..8 "
        f"({elapsed:.2f}s, budget 10s)",
        ok and elapsed < 10.0,
    )


def test_02_pairing_counts_are_factorial():
    ok = True
    for word in balanced_words(8):
        k = len(word) // 2
        if len(enumerate_pairings(word)) != factorial(k):
            ok = False
            break
    report(2, "pairing counts equal k! for every balanced word of length <= 8", ok)


def test_03_gram_matches_dense_realization():
    start = time.perf_counter()
    ok = True
    for n in (1, 2, 3):
        ambient = AmbientSpec(n)
        for word in balanced_words(6):
            pairings = enumerate_pairings(word)
            vectors = [realize_functional(p, word, ambient) for p in pairings]
            gram = gram_matrix(pairings, word, ambient)
            for i, vi in enumerate(vectors):
                for j, vj in enumerate(vectors):
                    if int(np.dot(vi, vj)) != gram.entry(i, j):
                        ok = False
    elapsed = time.perf_counter() - start
    report(
        3,
        f"loop-count Gram entries equal dense-realization dot products exactly, "
        f"words <= 6, n in {{1,2,3}} ({elapsed:.1f}s, budget 120s)",
        ok and elapsed < 120.0,
    )


def test_04_gram_rank_equals_invariant_dimension():
    ok = True
    for n in (2, 3):
        ambient = AmbientSpec(n)
        for word in balanced_words(6):
            rank = gram_matrix(enumerate_pairings(word), word, ambient).rank()
            if rank != invariant_dimension_oracle(word, ambient):
                ok = False
    report(
        4,
        "full-pairing Gram rank equals the Lie-algebra invariant dimension, "
        "words <= 6, n in {2,3}",
        ok,
    )


def test_05_noncrossing_functionals_independent():
    start = time.perf_counter()
    ok = True
    for n in (2, 3, 4, 5):
        ambient = AmbientSpec(n)
        for word in balanced_words(8):
            ncs = enumerate_noncrossing(word)
            if nc_rank(word, ambient) != len(ncs):
                ok = False
    big = parse_word("uU" * 5)
    ncs = enumerate_noncrossing(big)
    big_ok = len(ncs) == 42 and nc_rank(big, AmbientSpec(2)) == 42
    elapsed = time.perf_counter() - start
    report(
        5,
        f"non-crossing Gram matrices have full rank for words <= 8, n in "
        f"{{2,3,4,5}}, and the 42 diagrams of (uU)^5 stay independent at n=2 "
        f"({elapsed:.1f}s, budget 300s)",
        ok and big_ok and elapsed < 300.0,
    )


def _fullness_sweep(n, d_w, d_u, budget, number):
    start = time.perf_counter()
    quotient = QuotientSpec(d_w, d_u)
    ok = True
    for word in balanced_words(8):
        verdict = joint_fullness(word, quotient)
        if not verdict.holds:
            ok = False
    elapsed = time.perf_counter() - start
    report(
        number,
        f"joint fullness holds for every balanced word of length <= 8 at n={n}, "
        f"blocks ({d_w},{d_u}) ({elapsed:.1f}s, budget {budget:.0f}s)",
        ok and elapsed < budget,
    )


def test_06_joint_fullness_n4_even_split():
    _fullness_sweep(4, 2, 2, 600.0, 6)


def test_07_joint_fullness_n5_skew_split():
    _fullness_sweep(5, 4, 1, 600.0, 7)


def test_08_trivial_multiplicity_counts_noncrossing():
    ok = True
    for word in balanced_words(8):
        if trivial_multiplicity(word) != len(enumerate_noncrossing(word)):
            ok = False
    report(
        8,
        "iterated fusion multiplicity of the trivial class equals the "
        "non-crossing count, words <= 8",
        ok,
    )


def test_09_dimension_multiplicativity():
    ok = True
    words = [parse_word("")]
    from itertools import product

    for length in range(1, 5):
        words += [
            parse_word("".join(c)) for c in product("uU", repeat=length)
        ]
    for n in (2, 4, 5):
        if not (
            dimension(parse_word("u"), n) == n
            and dimension(parse_word("uU"), n) == n * n - 1
            and dimension(parse_word("uu"), n) == n * n
        ):
            ok = False
        for x in words:
            dx = dimension(x, n)
            for y in words:
                total = sum(
                    mult * dimension(z, n) for z, mult in fuse(x, y).items()
                )
                if dx * dimension(y, n) != total:
                    ok = False
    report(
        9,
        "dimensions are multiplicative across fusion for all words of length "
        "<= 4 at n in {2,4,5}, with the fundamental values n, n^2-1, n^2",
        ok,
    )


def test_10_sampled_models_satisfy_relations():
    ok = True
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = (2, 3, 4)[seed % 3]
        d = (1, 2, 4, 8)[seed % 4]
        kind = ("point", "freeproduct", "block", "lift", "orthogonal")[seed % 5]
        if kind == "orthogonal":
            rep = SeparationStrategy("point", 1).draw(n, "B", rng)
        else:
            rep = SeparationStrategy(kind, d).draw(n, "A", rng)
        rpt = check_relations(rep, tol=1e-10)
        worst = max(worst, rpt.max_residual)
        if not rpt.passed:
            ok = False
    report(
        10,
        f"100 seeded model draws (all strategies, n in {{2,3,4}}, d <= 8) pass "
        f"the defining relations at 1e-10 (worst residual {worst:.2e})",
        ok,
    )


def test_11_separation_search():
    start = time.perf_counter()
    poly = parse_poly("u11 u12 - u12 u11", 2, "A")
    exact_zero = all(
        operator_norm(evaluate(poly, point_rep(haar_unitary(2, np.random.default_rng(s)))))
        == 0.0
        for s in range(25)
    )
    witness = separate(
        poly, SeparationStrategy("freeproduct", 2), trials=100, seed=42, tol=1e-6
    )
    found = witness is not None and witness.norm > 1e-6
    elapsed = time.perf_counter() - start
    report(
        11,
        f"the generator commutator evaluates to exactly zero on point models "
        f"yet separates at norm {witness.norm if witness else 0.0:.3f} in a "
        f"freeproduct search (d=2, seed 42, 100 trials) ({elapsed:.1f}s, budget 30s)",
        exact_zero and found and elapsed < 30.0,
    )

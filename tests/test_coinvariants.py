import itertools
import math
import random
from fractions import Fraction
from operator import mul

import numpy as np
import pytest
import sympy

from freeqg.coinvariants import (
    AmbientSpec,
    QuotientSpec,
    RealizationTooLarge,
    _cokernel,
    fullness_system,
    gram_matrix,
    gram_matrix_colored,
    in_noncrossing_span,
    invariant_dimension_oracle,
    joint_fullness,
    nc_rank,
    realize_functional,
    verdict_json,
    verify_witness,
)
from freeqg import coinvariants, linalg
from freeqg.linalg import ExactMatrix
from freeqg.words import (
    Pairing,
    balanced_words,
    enumerate_colorings,
    enumerate_noncrossing,
    enumerate_pairings,
    is_block_respecting,
    is_noncrossing,
    loop_decomposition,
    parse_word,
)


def colored_realization(p, word, coloring, quotient):
    """Independent dense route for colored Gram entries: 0/1 vector over all
    multi-indices whose arcs match and whose slots stay inside their blocks.
    W slots take values 0..d_w-1, U slots take d_w..n-1."""
    n = quotient.n
    length = len(word)
    vec = np.zeros(n**length, dtype=np.int64)
    partner = p.partner()
    for idx in itertools.product(range(n), repeat=length):
        good = True
        for pos in range(1, length + 1):
            value = idx[pos - 1]
            in_w = value < quotient.d_w
            wants_w = coloring[pos - 1] == "W"
            if in_w is not wants_w or idx[partner[pos] - 1] != value:
                good = False
                break
        if good:
            flat = 0
            for v in idx:
                flat = flat * n + v
            vec[flat] = 1
    return vec


def test_spec_validation():
    with pytest.raises(ValueError):
        AmbientSpec(0)
    with pytest.raises(ValueError):
        QuotientSpec(0, 2)
    assert QuotientSpec(2, 3).n == 5
    # sizes are plain ints, so every Gram weight built from them is one
    for size in (2.0, Fraction(2), np.int64(2), True):
        with pytest.raises(TypeError):
            AmbientSpec(size)
        with pytest.raises(TypeError):
            QuotientSpec(size, 2)
        with pytest.raises(TypeError):
            QuotientSpec(2, size)


def test_gram_matrix_frozen_examples():
    word = parse_word("uuUU")
    pairings = enumerate_pairings(word)
    gram = gram_matrix(pairings, word, AmbientSpec(2))
    assert gram.row_list() == [[4, 2], [2, 4]]
    word2 = parse_word("uUuU")
    gram2 = gram_matrix(enumerate_pairings(word2), word2, AmbientSpec(3))
    assert gram2.row_list() == [[9, 3], [3, 9]]


def test_gram_matrix_rejects_foreign_pairing():
    for text, arcs in [
        ("uuUU", ((1, 2), (3, 4))),  # u-u and U-U arcs
        ("uUuU", ((1, 3), (2, 4))),
        ("uUuU", ((1, 2),)),  # too short
        ("uuUU", ((1, 3), (2, 4), (5, 6))),  # too long
    ]:
        word = parse_word(text)
        pairings = [*enumerate_pairings(word), Pairing(arcs)]
        with pytest.raises(ValueError, match="is not a color-respecting pairing of " + text):
            gram_matrix(pairings, word, AmbientSpec(2))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("text", ["", "uU", "uuUU", "uUuU"])
def test_gram_matches_dense_realization(text, n):
    word = parse_word(text)
    ambient = AmbientSpec(n)
    pairings = enumerate_pairings(word)
    vectors = [realize_functional(p, word, ambient) for p in pairings]
    gram = gram_matrix(pairings, word, ambient)
    for i, vi in enumerate(vectors):
        for j, vj in enumerate(vectors):
            assert int(np.dot(vi, vj)) == gram.entry(i, j)


def test_realize_functional_cap():
    word = parse_word("uUuUuUuU")
    with pytest.raises(RealizationTooLarge) as err:
        realize_functional(enumerate_pairings(word)[0], word, AmbientSpec(10))
    assert "Gram" in str(err.value)


def test_realize_functional_rejects_foreign_pairing():
    word = parse_word("uuUU")
    with pytest.raises(ValueError):
        realize_functional(Pairing(((1, 2), (3, 4))), word, AmbientSpec(2))


def test_gram_matrix_colored_frozen_examples():
    word = parse_word("uuUU")
    quotient = QuotientSpec(2, 2)
    all_w = "WWWW"
    pairings = enumerate_pairings(word)
    gram = gram_matrix_colored(pairings, word, all_w, quotient)
    assert gram.row_list() == [[4, 2], [2, 4]]
    mixed = "WUUW"
    nested = Pairing(((1, 4), (2, 3)))
    gram_mixed = gram_matrix_colored([nested], word, mixed, quotient)
    assert gram_mixed.row_list() == [[4]]


def test_gram_matrix_colored_rejects_block_violations():
    word = parse_word("uuUU")
    crossing = Pairing(((1, 3), (2, 4)))
    nested = Pairing(((1, 4), (2, 3)))
    with pytest.raises(ValueError):
        gram_matrix_colored([crossing], word, "WUUW", QuotientSpec(2, 2))
    # colorings of the wrong length or over other letters, with or without
    # pairings to check them on
    for bad in ("WW", "WUUWW", "WUXW", "wuuw"):
        for pairings in ([], [nested]):
            with pytest.raises(ValueError):
                gram_matrix_colored(pairings, word, bad, QuotientSpec(2, 2))


@pytest.mark.parametrize("quotient", [QuotientSpec(1, 2), QuotientSpec(2, 1)])
@pytest.mark.parametrize("text", ["uU", "uuUU", "uUuU"])
def test_colored_gram_matches_dense_realization(text, quotient):
    word = parse_word(text)
    for coloring in enumerate_colorings(word):
        selected = [
            p for p in enumerate_pairings(word) if is_block_respecting(p, coloring)
        ]
        if not selected:
            continue
        gram = gram_matrix_colored(selected, word, coloring, quotient)
        vectors = [colored_realization(p, word, coloring, quotient) for p in selected]
        for i, vi in enumerate(vectors):
            for j, vj in enumerate(vectors):
                assert int(np.dot(vi, vj)) == gram.entry(i, j), (str(coloring), i, j)


def respected_colorings(word):
    """The colorings some pairing of the word respects, by brute force over
    all 2^len(word) of them, in enumerate_colorings order."""
    pairings = enumerate_pairings(word)
    return [
        c for c in enumerate_colorings(word) if any(is_block_respecting(p, c) for p in pairings)
    ]


def check_grams_by_loop_decomposition(word, pairings, colorings):
    """Ambient and colored Gram matrices of this pairing list, in its order,
    entry by entry against the loop-count formula; each coloring weighs the
    listed pairings that respect it."""
    grams = {n: gram_matrix(pairings, word, AmbientSpec(n)) for n in (2, 3, 5)}
    for gram in grams.values():
        assert (gram.rows, gram.cols) == (len(pairings), len(pairings))
        assert all(type(x) is int for row in gram.row_list() for x in row)
    for i, p in enumerate(pairings):
        for j, q in enumerate(pairings):
            loops = len(loop_decomposition(p, q))
            for n, gram in grams.items():
                assert gram.entry(i, j) == n**loops, (n, i, j)
    quotients = (QuotientSpec(2, 1), QuotientSpec(4, 1))
    for coloring in colorings:
        selected = [p for p in pairings if is_block_respecting(p, coloring)]
        colored = [gram_matrix_colored(selected, word, coloring, qt) for qt in quotients]
        for gram in colored:
            assert (gram.rows, gram.cols) == (len(selected), len(selected))
            assert all(type(x) is int for row in gram.row_list() for x in row)
        for i, p in enumerate(selected):
            for j, q in enumerate(selected):
                # a loop of block-respecting pairings stays in one block
                blocks = [coloring[loop[0] - 1] for loop in loop_decomposition(p, q)]
                w_loops, u_loops = blocks.count("W"), blocks.count("U")
                for qt, gram in zip(quotients, colored):
                    expected = qt.d_w**w_loops * qt.d_u**u_loops
                    assert gram.entry(i, j) == expected, (str(coloring), i, j)


@pytest.mark.parametrize("text", [str(w) for w in balanced_words(8)])
def test_gram_matrices_match_loop_decomposition(text):
    """Both Gram routines, entry by entry, against the loop-count formula."""
    word = parse_word(text)
    check_grams_by_loop_decomposition(word, enumerate_pairings(word), respected_colorings(word))


@pytest.mark.parametrize(
    "arrange, dense",
    [
        pytest.param(lambda ps: ps[::-1], True, id="reversed"),
        pytest.param(lambda ps: ps[4::-1], False, id="reversed-prefix"),
        pytest.param(lambda ps: [ps[2], ps[0], ps[2], ps[1], ps[0]], False, id="duplicated"),
        pytest.param(lambda ps: ps + ps[::-1], True, id="duplicated-all"),
        pytest.param(lambda ps: ps[3:4], False, id="single"),
        pytest.param(lambda ps: [], None, id="empty"),
    ],
)
@pytest.mark.parametrize("text", ["uuuUUU", "uUuUuU", "uuUuUUuU"])
def test_gram_matrices_of_rearranged_pairing_lists(text, arrange, dense):
    """Gram matrices follow the given list, whatever its order or repeats,
    both where the codes are looked up in the table of all k^k codes
    (k^k <= m^2 for m pairings) and where in np.unique."""
    word = parse_word(text)
    pairings = arrange(enumerate_pairings(word))
    k = len(text) // 2
    assert dense is (k**k <= len(pairings) ** 2 if pairings else None)
    check_grams_by_loop_decomposition(word, pairings, respected_colorings(word))


def test_gram_matrices_of_a_long_alternating_word():
    """The first 14 non-crossing pairings of (uU)^20 in enumeration order are
    the adjacent arcs up to slot 32 followed by a non-crossing pairing of the
    last eight slots, (uU)^4 shifted by 32.  Their codes pass 2^63."""
    word = parse_word("uU" * 20)
    prefix = tuple((2 * i + 1, 2 * i + 2) for i in range(16))
    tail = enumerate_noncrossing(parse_word("uU" * 4))
    pairings = [Pairing(prefix + tuple((a + 32, b + 32) for a, b in p.arcs)) for p in tail]
    assert all(p.is_pairing_of(word) and is_noncrossing(p) for p in pairings)
    colorings = ["W" * 40, "W" * 32 + "U" * 8, "WWUU" * 10]
    check_grams_by_loop_decomposition(word, pairings, colorings)


def test_gram_routine_takes_words_past_256_u_letters():
    """Codes past 2^63 are Python ints, so no count of u letters is too large."""
    for k in (256, 257):
        word = parse_word("uU" * k)
        pairing = Pairing(tuple((2 * i + 1, 2 * i + 2) for i in range(k)))
        assert gram_matrix([pairing], word, AmbientSpec(2)).row_list() == [[2**k]]


def check_sampled_gram_entries(word, pairings, n, samples, seed):
    """A seeded sample of the ambient Gram entries against the loop-count
    formula, for lists too long to check entry by entry."""
    gram = gram_matrix(pairings, word, AmbientSpec(n))
    assert (gram.rows, gram.cols) == (len(pairings), len(pairings))
    rng = random.Random(seed)
    for _ in range(samples):
        i, j = rng.randrange(len(pairings)), rng.randrange(len(pairings))
        loops = len(loop_decomposition(pairings[i], pairings[j]))
        assert gram.entry(i, j) == n**loops, (i, j)
    return gram


def test_gram_of_all_length_12_pairings():
    """720 pairings: 518,400 entries coded in several row blocks through the
    table of all 6^6 codes.  Every row sums the rising factorial."""
    word = parse_word("uuUuUUuUuUuU")
    pairings = enumerate_pairings(word)
    assert 6**6 <= len(pairings) ** 2 and len(pairings) ** 2 > 8 * coinvariants._BLOCK_ENTRIES
    gram = check_sampled_gram_entries(word, pairings, 3, 4000, seed=12)
    assert {sum(row) for row in gram.row_list()} == {math.prod(range(3, 9))}


def test_gram_of_noncrossing_pairings_across_row_blocks():
    """The 429 non-crossing pairings of (uU)^7 have fewer entries than 7^7
    codes, so their ids come from np.unique, block by block."""
    word = parse_word("uU" * 7)
    pairings = enumerate_noncrossing(word)
    assert 7**7 > len(pairings) ** 2 > 4 * coinvariants._BLOCK_ENTRIES
    check_sampled_gram_entries(word, pairings, 2, 4000, seed=7)


def test_gram_of_noncrossing_pairings_takes_the_unique_branch():
    """The first 40 non-crossing pairings of (uU)^8: int64 codes below 8^8,
    more of them than entries, so their ids come from np.unique."""
    word = parse_word("uU" * 8)
    pairings = enumerate_noncrossing(word)[:40]
    assert len(pairings) ** 2 < 8**8 < 2**63
    colorings = ["W" * 16, "WWUU" * 4, "WW" + "U" * 14]
    check_grams_by_loop_decomposition(word, pairings, colorings)


@pytest.mark.parametrize("text", ["", "uU"])
def test_gram_of_one_pairing_on_the_dense_table(text):
    """With at most one V slot there is one code, so a single pairing, alone
    or repeated, is weighed through the table of all codes."""
    word = parse_word(text)
    (pairing,) = enumerate_pairings(word)
    for pairings in ([pairing], [pairing] * 3):
        check_grams_by_loop_decomposition(word, pairings, respected_colorings(word))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_gram_rows_sum_to_rising_factorial(n):
    """The pairings of a word with k V slots are the permutations of S_k, and
    two of them overlay in as many loops as the permutation between them has
    cycles, so each row sums the cycle-count polynomial of S_k at n:
    n(n+1)...(n+k-1)."""
    word = parse_word("uuUuUUuUuU")
    rows = gram_matrix(enumerate_pairings(word), word, AmbientSpec(n)).row_list()
    assert len(rows) == 120
    assert {sum(row) for row in rows} == {math.prod(range(n, n + 5))}


def test_invariant_dimension_frozen_values():
    assert invariant_dimension_oracle(parse_word(""), AmbientSpec(3)) == 1
    assert invariant_dimension_oracle(parse_word("uU"), AmbientSpec(2)) == 1
    assert invariant_dimension_oracle(parse_word("uuUU"), AmbientSpec(2)) == 2
    assert invariant_dimension_oracle(parse_word("uUuUuU"), AmbientSpec(2)) == 5
    assert invariant_dimension_oracle(parse_word("uUuUuU"), AmbientSpec(3)) == 6
    assert invariant_dimension_oracle(parse_word("u"), AmbientSpec(2)) == 0
    assert invariant_dimension_oracle(parse_word("uu"), AmbientSpec(2)) == 0


def test_invariant_dimension_cap():
    with pytest.raises(RealizationTooLarge):
        invariant_dimension_oracle(parse_word("uU" * 4), AmbientSpec(9))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("text", ["", "uU", "uuUU", "uUuU", "uUUu"])
def test_gram_rank_equals_invariant_dimension(text, n):
    word = parse_word(text)
    ambient = AmbientSpec(n)
    gram = gram_matrix(enumerate_pairings(word), word, ambient)
    assert gram.rank() == invariant_dimension_oracle(word, ambient)


def partitions(k, largest):
    """Partitions of k into parts of at most `largest`, as non-increasing tuples."""
    if k == 0:
        yield ()
        return
    for first in range(min(k, largest), 0, -1):
        for rest in partitions(k - first, first):
            yield (first,) + rest


def closed_form_rank(k, n):
    """r(k, n): the sum of (f^shape)^2 over the shapes of k with at most n
    rows, f^shape by the hook length formula; the hook of cell (i, j) is its
    arm and the cell, part - j, plus its leg, the rows below reaching column j."""
    total = 0
    for shape in partitions(k, k):
        if len(shape) > n:
            continue
        hooks = math.prod(
            part - j + sum(row > j for row in shape[i + 1:])
            for i, part in enumerate(shape)
            for j in range(part)
        )
        total += (math.factorial(k) // hooks) ** 2
    return total


def test_closed_form_rank_values():
    assert [closed_form_rank(6, n) for n in range(1, 7)] == [1, 132, 513, 694, 719, 720]
    assert [closed_form_rank(k, 9) for k in range(6)] == [1, 1, 2, 6, 24, 120]


def test_gram_ranks_match_the_closed_form():
    """A second route to every ambient Gram rank, sharing no elimination.
    The pairings of a word with k V slots are the permutations of S_k, and
    the Gram matrix is the trace form of the image of the group algebra in
    End(V^k), so by Schur-Weyl duality its rank is the dimension of that
    image, r(k, n).  The sum of (f^shape)^2 over shapes with at most n rows
    also counts the permutations of S_k with no decreasing subsequence longer
    than n (Schensted, "Longest increasing and decreasing subsequences",
    Canad. J. Math. 13, 1961; Stanley, Enumerative Combinatorics vol. 2,
    ch. 7)."""
    for word in balanced_words(8):
        pairings = enumerate_pairings(word)
        for n in range(1, 6):
            rank = gram_matrix(pairings, word, AmbientSpec(n)).rank()
            assert rank == closed_form_rank(len(word) // 2, n), (word, n)


@pytest.mark.parametrize("d_w,d_u", [(2, 1), (1, 2), (2, 2), (4, 1)])
def test_colored_gram_ranks_match_the_closed_form(d_w, d_u):
    """The pairings that respect a block-balanced coloring are the products
    S_(k_W) x S_(k_U), k_W and k_U the V slots of each block, and every loop
    stays in one block, so the colored Gram matrix is the Kronecker product
    of the two blocks' ambient ones and its rank r(k_W, d_w) * r(k_U, d_u)."""
    quotient = QuotientSpec(d_w, d_u)
    for word in balanced_words(8):
        pairings = enumerate_pairings(word)
        for coloring in respected_colorings(word):
            selected = [p for p in pairings if is_block_respecting(p, coloring)]
            rank = gram_matrix_colored(selected, word, coloring, quotient).rank()
            k_w = sum(x == "u" and c == "W" for x, c in zip(word, coloring))
            expected = closed_form_rank(k_w, d_w) * closed_form_rank(len(word) // 2 - k_w, d_u)
            assert rank == expected, (word, coloring)


def test_nc_rank_values():
    assert nc_rank(parse_word("uUuUuU"), AmbientSpec(2)) == 5
    assert nc_rank(parse_word("uUuUuU"), AmbientSpec(3)) == 5
    assert nc_rank(parse_word(""), AmbientSpec(2)) == 1
    # at n = 1 the functionals collapse
    assert nc_rank(parse_word("uUuU"), AmbientSpec(1)) == 1


def test_gram_of_an_empty_pairing_list():
    """An unbalanced word has no pairings: its Gram matrices are 0 x 0, with
    no row block to code, and its rank is 0."""
    word = parse_word("uu")
    assert nc_rank(word, AmbientSpec(2)) == 0
    gram = gram_matrix([], word, AmbientSpec(2))
    colored = gram_matrix_colored([], word, "WU", QuotientSpec(1, 1))
    assert (gram.rows, gram.cols) == (colored.rows, colored.cols) == (0, 0)


def test_nc_rank_full_from_n_2_and_one_at_n_1(monkeypatch):
    """At n >= 2 the non-crossing Gram matrix is a principal submatrix of the
    meander Gram matrix, which is positive definite (Di Francesco, Comm. Math.
    Phys. 191, 1998): the modular rank is full and certifies it.  At n = 1
    every entry is 1, so the modular rank falls short and Bareiss decides."""
    bareiss = []
    echelon = ExactMatrix._echelon

    def spy(self):
        bareiss.append(self.rows)
        return echelon(self)

    monkeypatch.setattr(ExactMatrix, "_echelon", spy)
    for word in balanced_words(10):
        count = len(enumerate_noncrossing(word))
        for n in (2, 3, 5):
            assert nc_rank(word, AmbientSpec(n)) == count, (str(word), n)
        assert not bareiss
        assert nc_rank(word, AmbientSpec(1)) == 1
        assert bareiss == ([count] if count > 1 else [])
        bareiss.clear()
    # the two length-12 words with a non-crossing pairing on every Catalan
    # diagram: the largest Gram matrices of the rank certificate
    for word in map(parse_word, ("uU" * 6, "Uu" * 6)):
        assert len(enumerate_noncrossing(word)) == 132
        for n in (2, 3, 5):
            assert nc_rank(word, AmbientSpec(n)) == 132, (str(word), n)
    assert not bareiss


@pytest.mark.parametrize("n,d_w,d_u", [(4, 2, 2), (5, 4, 1), (3, 2, 1)])
def test_constraint_kernels_match_all_rows_elimination(n, d_w, d_u, monkeypatch):
    """The kernel found from the modular pivot rows is the all-rows Bareiss
    kernel, vector for vector."""
    quotient = QuotientSpec(d_w, d_u)
    systems = [fullness_system(w, quotient)[3] for w in balanced_words(8)]
    kernels = [c.nullspace_basis() for c in systems]
    monkeypatch.setattr(
        linalg, "_pivots_mod_p", lambda rows, n_cols: [(i, 0) for i in range(len(rows))]
    )
    assert kernels == [c.nullspace_basis() for c in systems]


def check_constraint_rows_by_colorings(word, quotient):
    """Each constraint row appears once.  The rows are y @ G_c for every
    cokernel vector y of the non-crossing columns of every colored Gram matrix
    G_c, scattered to pairing coordinates, nonzero, in first-occurrence order;
    here that route scans every coloring for the ones some pairing respects
    (respected_colorings) and runs on the ExactMatrix cokernel and product."""
    pairings, nc_indices, _, constraints = fullness_system(word, quotient)
    rows = constraints.row_list()
    assert len(set(map(tuple, rows))) == len(rows), str(word)
    expected = {}
    for coloring in respected_colorings(word):
        sel = [i for i, p in enumerate(pairings) if is_block_respecting(p, coloring)]
        colored = gram_matrix_colored([pairings[i] for i in sel], word, coloring, quotient)
        nc_local = [k for k, i in enumerate(sel) if i in nc_indices]
        cokernel = colored.column_submatrix(nc_local).left_nullspace_basis()
        if not cokernel:
            continue
        for row in (ExactMatrix(cokernel, cols=len(sel)) @ colored).row_list():
            full_row = [0] * len(pairings)
            for k, i in enumerate(sel):
                full_row[i] = row[k]
            if any(full_row):
                expected.setdefault(tuple(full_row))
    assert rows == [list(r) for r in expected], str(word)


@pytest.mark.parametrize("n,d_w,d_u", [(4, 2, 2), (5, 4, 1), (3, 2, 1)])
def test_constraint_rows_are_the_distinct_colored_cokernel_rows(n, d_w, d_u):
    quotient = QuotientSpec(d_w, d_u)
    for word in balanced_words(8):
        check_constraint_rows_by_colorings(word, quotient)


def test_constraint_rows_by_colorings_on_a_length_10_word():
    """The same route past length 8, where colorings outnumber the distinct
    colored subproblems most (252 against 27 here)."""
    check_constraint_rows_by_colorings(parse_word("uuUuUUuUuU"), QuotientSpec(2, 2))


@pytest.mark.parametrize("n,d_w,d_u,distinct", [(4, 2, 2, 27), (5, 4, 1, 52)])
def test_fullness_system_solves_each_colored_subproblem_once(n, d_w, d_u, distinct, monkeypatch):
    """One cokernel per distinct (colored Gram rows, non-crossing positions)
    pair, counted here from respected_colorings and gram_matrix_colored."""
    word, quotient = parse_word("uuUuUUuUuU"), QuotientSpec(d_w, d_u)
    pairings = enumerate_pairings(word)
    nc_set = set(enumerate_noncrossing(word))
    colorings = respected_colorings(word)
    subproblems = set()
    for coloring in colorings:
        selected = [p for p in pairings if is_block_respecting(p, coloring)]
        colored = gram_matrix_colored(selected, word, coloring, quotient).row_list()
        nc_local = tuple(k for k, p in enumerate(selected) if p in nc_set)
        subproblems.add((tuple(map(tuple, colored)), nc_local))
    assert (len(colorings), len(subproblems)) == (252, distinct)
    calls = []
    cokernel = coinvariants._cokernel

    def spy(gram_rows, inside):
        calls.append(len(inside))
        return cokernel(gram_rows, inside)

    monkeypatch.setattr(coinvariants, "_cokernel", spy)
    fullness_system(word, quotient)
    assert len(calls) == len(subproblems)


def test_fullness_system_shapes():
    word = parse_word("uuUU")
    pairings, nc_indices, gram, constraints = fullness_system(word, QuotientSpec(1, 1))
    assert len(pairings) == 2
    assert nc_indices == [1]
    assert gram.row_list() == [[4, 2], [2, 4]]
    assert constraints.cols == 2
    # both matrices skip the entry scan of the public constructor
    for text in ("uuUU", "uuUUuU", "uuUuUU"):
        _, _, gram, constraints = fullness_system(parse_word(text), QuotientSpec(2, 1))
        assert constraints.rows
        for matrix in (gram, constraints):
            assert all(type(x) is int for row in matrix.row_list() for x in row)


def test_in_noncrossing_span_both_legs():
    # crossing functional of uuUU is outside the non-crossing span for n >= 2,
    # its non-crossing companion is inside
    word = parse_word("uuUU")
    for n in (2, 3, 5):
        pairings = enumerate_pairings(word)
        ncs = set(enumerate_noncrossing(word))
        nc_indices = [i for i, p in enumerate(pairings) if p in ncs]
        gram = gram_matrix(pairings, word, AmbientSpec(n))
        crossing_coeffs = [1 if i not in nc_indices else 0 for i in range(2)]
        nested_coeffs = [1 - c for c in crossing_coeffs]
        assert not in_noncrossing_span(gram, nc_indices, crossing_coeffs)
        assert in_noncrossing_span(gram, nc_indices, nested_coeffs)


def test_in_noncrossing_span_kernel_vectors_pass():
    # at n = 1 all functionals coincide, so kernel directions are inside
    word = parse_word("uUuU")
    pairings = enumerate_pairings(word)
    gram = gram_matrix(pairings, word, AmbientSpec(1))
    assert gram.row_list() == [[1, 1], [1, 1]]
    assert in_noncrossing_span(gram, [0, 1], [1, -1])
    assert in_noncrossing_span(gram, [0], [1, -1])


def test_in_noncrossing_span_fraction_coefficients():
    # rational coefficients, as read back from a witness's "p/q" strings
    word = parse_word("uuUU")
    pairings = enumerate_pairings(word)
    ncs = set(enumerate_noncrossing(word))
    nc_indices = [i for i, p in enumerate(pairings) if p in ncs]
    gram = gram_matrix(pairings, word, AmbientSpec(3))
    nested = [Fraction(0) if i not in nc_indices else Fraction(-2, 7) for i in range(2)]
    crossing = [Fraction(5, 3) if i not in nc_indices else Fraction(1, 2) for i in range(2)]
    assert in_noncrossing_span(gram, nc_indices, nested)
    assert not in_noncrossing_span(gram, nc_indices, crossing)


def gram_of_columns(columns):
    """V^T V for the integer matrix V with these columns."""
    return [[sum(map(mul, u, v)) for v in columns] for u in columns]


def outside_by_cokernel(gram_rows, inside, index):
    """The rule joint_fullness applies to a kernel vector a: G a lies outside
    the span of the columns `inside` iff some cokernel vector y has
    y . (G a) != 0.  Here a = e_index, so G a is column `index` of G."""
    image = [row[index] for row in gram_rows]
    return any(sum(map(mul, y, image)) for y in _cokernel(gram_rows, inside))


@pytest.mark.parametrize(
    "vectors,first",
    [
        # v1 inside, v2 outside, v3 = v1 + v2 outside too: v2 is the first
        ([[1, 2, 0, 0], [0, 0, 1, 0], [1, 2, 1, 0]], 1),
        # v1 outside, v2 repeats it, v3 inside
        ([[0, 0, 0, 3], [0, 0, 0, 3], [2, 0, 0, 0]], 0),
        # v1 and v2 inside, v3 outside
        ([[1, 0, 0, 0], [3, 5, 0, 0], [0, 1, 1, 1]], 2),
        ([[1, 0, 0, 0], [3, 5, 0, 0], [-2, 7, 0, 0]], None),
    ],
)
def test_cokernel_rule_picks_first_vector_outside_the_block(vectors, first):
    # V = [block | v1 v2 v3] with a block spanning the first two coordinates,
    # G = V^T V, inside = [0, 1] and a_i = e_{2+i}
    block = [[1, 0, 0, 0], [1, 2, 0, 0]]
    gram = gram_of_columns(block + vectors)
    outside = [outside_by_cokernel(gram, [0, 1], 2 + i) for i in range(len(vectors))]
    assert next((i for i, out in enumerate(outside) if out), None) == first
    block_matrix = ExactMatrix(list(map(list, zip(*block))))
    assert outside == [not block_matrix.in_column_space(v)[0] for v in vectors]


def test_cokernel_rule_matches_sympy_on_rank_deficient_columns():
    rng = random.Random(17)
    for _ in range(40):
        # more columns than their rank: dependent columns and a singular G
        dim, rank = rng.randint(1, 6), rng.randint(1, 4)
        count = rng.randint(rank + 1, 7)
        left = [[rng.randint(-4, 4) for _ in range(rank)] for _ in range(dim)]
        coords = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(count)]
        columns = [[sum(map(mul, row, c)) for row in left] for c in coords]
        gram = gram_of_columns(columns)
        inside = sorted(rng.sample(range(count), rng.randint(0, count - 1)))
        block = [columns[k] for k in inside]
        block_rank = sympy.Matrix(block).rank()
        block_matrix = ExactMatrix([[c[r] for c in block] for r in range(dim)], cols=len(block))
        for index in set(range(count)) - set(inside):
            v = columns[index]
            grown = sympy.Matrix(block + [v]).rank()
            outside = outside_by_cokernel(gram, inside, index)
            assert outside == (grown > block_rank)
            assert outside == (not block_matrix.in_column_space(v)[0])


@pytest.mark.parametrize(
    "n,d_w,d_u",
    [(2, 1, 1), (3, 2, 1), (3, 1, 2), (4, 2, 2), (5, 4, 1)],
)
def test_joint_fullness_small_words_hold(n, d_w, d_u):
    quotient = QuotientSpec(d_w, d_u)
    for word in balanced_words(4):
        verdict = joint_fullness(word, quotient)
        assert verdict.holds, (str(word), n, d_w, d_u)
        assert verdict.witness is None


def test_joint_fullness_frozen_solution_dims():
    verdict = joint_fullness(parse_word("uuUU"), QuotientSpec(2, 2))
    assert (verdict.holds, verdict.solution_space_dim) == (True, 1)
    verdict = joint_fullness(parse_word("uUuU"), QuotientSpec(2, 2))
    assert (verdict.holds, verdict.solution_space_dim) == (True, 2)
    verdict = joint_fullness(parse_word(""), QuotientSpec(2, 2))
    assert (verdict.holds, verdict.solution_space_dim) == (True, 1)


@pytest.mark.parametrize("n,d_w,d_u", [(4, 2, 2), (5, 4, 1), (3, 2, 1)])
def test_solution_dim_against_the_noncrossing_span_plus_gram_kernel(n, d_w, d_u):
    """N = span(e_NC) + ker G always lies in the constraint kernel, so the
    verdict holds iff solution_dim equals dim N = m - rank G + rank G[:, NC],
    counted here from two ranks of the ambient Gram matrix alone."""
    quotient = QuotientSpec(d_w, d_u)
    extra = {(4, 2, 2): ["uUuUuUuUuU"], (5, 4, 1): ["uuUuUUuUuU"]}.get((n, d_w, d_u), [])
    for word in balanced_words(8) + [parse_word(text) for text in extra]:
        pairings = enumerate_pairings(word)
        ncs = set(enumerate_noncrossing(word))
        nc = [i for i, p in enumerate(pairings) if p in ncs]
        gram = gram_matrix(pairings, word, AmbientSpec(n))
        dim_n = len(pairings) - gram.rank() + gram.column_submatrix(nc).rank()
        verdict = joint_fullness(word, quotient)
        assert verdict.solution_space_dim >= dim_n, str(word)
        assert (verdict.solution_space_dim == dim_n) == verdict.holds, str(word)


def test_joint_fullness_conjectured_n3_case_holds_on_short_words():
    # the three-dimensional ambient case with blocks (2, 1): not covered by the
    # general argument, but computationally the conclusion persists
    quotient = QuotientSpec(2, 1)
    for word in balanced_words(6):
        assert joint_fullness(word, quotient).holds, str(word)


def test_joint_fullness_rejects_unbalanced():
    with pytest.raises(ValueError):
        joint_fullness(parse_word("uu"), QuotientSpec(1, 1))


def test_verify_witness_rejects_non_witnesses():
    word = parse_word("uuUU")
    quotient = QuotientSpec(1, 1)
    # the crossing direction violates the colored constraints here
    assert not verify_witness(word, quotient, [1, 0])
    # an actual solution-space vector lies in the non-crossing span
    _, _, _, constraints = fullness_system(word, quotient)
    solution = constraints.nullspace_basis()
    assert solution
    assert not verify_witness(word, quotient, solution[0])
    with pytest.raises(ValueError):
        verify_witness(word, quotient, [1, 0, 0])


def test_verdict_json_shape():
    word = parse_word("uuUU")
    quotient = QuotientSpec(2, 2)
    verdict = joint_fullness(word, quotient)
    doc = verdict_json(word, quotient, verdict)
    assert doc == {
        "word": "uuUU",
        "n": 4,
        "quotient": [2, 2],
        "holds": True,
        "solution_dim": 1,
        "witness": None,
    }
    from freeqg.coinvariants import FullnessVerdict

    fake = FullnessVerdict(False, 2, (Fraction(1, 2), Fraction(-3)))
    doc = verdict_json(word, quotient, fake)
    assert doc["witness"] == ["1/2", "-3"]

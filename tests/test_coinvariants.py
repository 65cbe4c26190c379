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
    _cokernel_rows,
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
    orbit_key,
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
        pytest.param(lambda ps: ps[:18], True, id="prefix-18"),
        pytest.param(lambda ps: [], None, id="empty"),
    ],
)
@pytest.mark.parametrize("text", ["uuuUUU", "uUuUuU", "uuUuUUuU"])
def test_gram_matrices_of_rearranged_pairing_lists(text, arrange, dense):
    """Gram matrices follow the given list, whatever its order or repeats,
    both where the codes are looked up in the table of all k^k codes
    (k^k <= m^2 for m pairings) and where in np.unique.  The first 18 of the
    24 pairings of uuUuUUuU take the table, though the list lacks six of the
    slot permutations whose weights it holds."""
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


@pytest.mark.parametrize("k", [13, 14])
def test_gram_codes_on_both_sides_of_the_float64_bound(k):
    """Codes are float64 products below 2^53, so at k = 13 (13^13 < 2^53),
    and Python ints at k = 14.  Each of the 28 pairings is one of the two
    non-crossing pairings of the first four slots, adjacent arcs, and one of
    the 14 of the last eight slots, so that codes near k^k are odd: at k = 14
    a float64 product would round them."""
    assert (k**k < 2**53) == (k == 13)
    word = parse_word("uU" * k)
    shift = 2 * k - 8
    middle = tuple((2 * i + 1, 2 * i + 2) for i in range(2, k - 4))
    tail = enumerate_noncrossing(parse_word("uU" * 4))
    pairings = [
        Pairing(head.arcs + middle + tuple((a + shift, b + shift) for a, b in p.arcs))
        for head in enumerate_noncrossing(parse_word("uUuU"))
        for p in tail
    ]
    assert all(p.is_pairing_of(word) and is_noncrossing(p) for p in pairings)
    colorings = ["W" * 2 * k, "W" * shift + "U" * 8]
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
    codes, so their ids come from np.unique, block by block.  All 184,041
    entries against the loop count."""
    word = parse_word("uU" * 7)
    pairings = enumerate_noncrossing(word)
    assert 7**7 > len(pairings) ** 2 > 4 * coinvariants._BLOCK_ENTRIES
    gram = gram_matrix(pairings, word, AmbientSpec(2)).row_list()
    for i, p in enumerate(pairings):
        for j, q in enumerate(pairings):
            assert gram[i][j] == 2 ** len(loop_decomposition(p, q)), (i, j)


@pytest.mark.parametrize(
    "text, enumerate_",
    [
        ("uU" * 7, enumerate_noncrossing),
        ("uuUuUUuUuUuU", enumerate_pairings),
        pytest.param(
            "uuUuUUuU", lambda word: enumerate_pairings(word)[:18], id="uuUuUUuU-first-18"
        ),
    ],
)
def test_loop_gram_weighs_each_code_once_across_row_blocks(text, enumerate_):
    """The 429 non-crossing pairings of (uU)^7 fill six row blocks of the
    np.unique path, the 720 pairings of a length-12 word 16 blocks of the
    table path, and the pairs of each code all k! slot permutations; each
    code is weighed once per call, not once in every block that meets it.
    The table path weighs every slot permutation before its first block, so
    18 of the 24 pairings of a length-8 word, in one block, weigh 4! = 24."""
    word = parse_word(text)
    pairings = enumerate_(word)
    k = len(word) // 2
    # several row blocks, or a list on the table path that lacks some pairings
    assert len(pairings) ** 2 > 4 * coinvariants._BLOCK_ENTRIES or (
        k**k <= len(pairings) ** 2 < math.factorial(k) ** 2
    )
    masks = []
    coinvariants._loop_gram(pairings, word, lambda mask: masks.append(mask) or 0)
    assert len(masks) == math.factorial(k)


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


def test_invariant_dimension_oracle_matches_the_closed_form():
    """The Lie-algebra oracle against r(k, n), which shares no computation
    with it: every word up to length 6, balanced or not, at n = 1, 2, 3 (an
    unbalanced word has no invariants), and the balanced length-8 words at
    n = 1, 2."""
    short = ["".join(w) for length in range(7) for w in itertools.product("uU", repeat=length)]
    cases = [(word, n) for word in short for n in (1, 2, 3)]
    cases += [(word, n) for word in balanced_words(8) if len(word) == 8 for n in (1, 2)]
    for word, n in cases:
        k = word.count("u")
        expected = closed_form_rank(k, n) if 2 * k == len(word) else 0
        assert invariant_dimension_oracle(word, AmbientSpec(n)) == expected, (word, n)


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
    """Each constraint row appears once.  The rows, in any order, are y @ G_c
    for every cokernel vector y of the non-crossing columns of every colored
    Gram matrix G_c, scattered to pairing coordinates, nonzero; here that
    route scans every coloring for the ones some pairing respects
    (respected_colorings) and runs on the ExactMatrix cokernel and product."""
    pairings, nc_indices, _, constraints = fullness_system(word, quotient)
    rows = constraints.row_list()
    assert len(set(map(tuple, rows))) == len(rows), str(word)
    expected = set()
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
                expected.add(tuple(full_row))
    assert sorted(map(tuple, rows)) == sorted(expected), str(word)


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

    def spy(gram_rows, inside):
        calls.append(len(inside))
        return _cokernel_rows(gram_rows, inside)

    monkeypatch.setattr(coinvariants, "_cokernel_rows", spy)
    fullness_system(word, quotient)
    assert len(calls) == len(subproblems)


def sympy_kernel(rows, cols):
    """sympy's nullspace of the rows, each vector scaled to a primitive
    integer vector with a positive leading entry."""
    basis = []
    flat = [x for row in rows for x in row]
    for vec in sympy.Matrix(len(rows), cols, flat).nullspace():
        scale = math.lcm(*(int(sympy.fraction(x)[1]) for x in vec))
        ints = [int(x * scale) for x in vec]
        g = math.gcd(*ints) * (1 if next(x for x in ints if x) > 0 else -1)
        basis.append([x // g for x in ints])
    return basis


@pytest.mark.parametrize("n,d_w,d_u", [(4, 2, 2), (5, 4, 1), (3, 2, 1)])
def test_constraint_kernels_match_sympy(n, d_w, d_u):
    """The kernel step of joint_fullness, vector for vector against sympy."""
    quotient = QuotientSpec(d_w, d_u)
    firsts = {}  # the first word of each symmetry orbit
    for word in balanced_words(8):
        firsts.setdefault(orbit_key(word), word)
    words = balanced_words(6) + [w for w in firsts.values() if len(w) == 8]
    assert len(words) == 29 + 7
    for word in words:
        constraints = fullness_system(word, quotient)[3]
        expected = sympy_kernel(constraints.row_list(), constraints.cols)
        assert constraints.nullspace_basis() == expected, str(word)


@pytest.mark.parametrize("n,d_w,d_u", [(4, 2, 2), (5, 4, 1), (3, 2, 1)])
def test_noncrossing_constraint_columns_are_zero(n, d_w, d_u):
    """Each cokernel vector y annihilates the non-crossing columns of the
    symmetric G_c, so every constraint row G_c @ y is zero there, and each
    e_j at a non-crossing position j is a kernel basis vector."""
    quotient = QuotientSpec(d_w, d_u)
    for word in balanced_words(8):
        pairings, nc_indices, _, constraints = fullness_system(word, quotient)
        rows = constraints.row_list()
        assert all(row[j] == 0 for row in rows for j in nc_indices), str(word)
        kernel = constraints.nullspace_basis()
        for j in nc_indices:
            assert [int(i == j) for i in range(len(pairings))] in kernel, (str(word), j)


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
    # int coefficients, as read back from a witness's JSON strings; a
    # Fraction, integral or not, is rejected
    word = parse_word("uuUU")
    pairings = enumerate_pairings(word)
    ncs = set(enumerate_noncrossing(word))
    nc_indices = [i for i, p in enumerate(pairings) if p in ncs]
    gram = gram_matrix(pairings, word, AmbientSpec(3))
    nested = [int(s) for s in ("0" if i not in nc_indices else "-2" for i in range(2))]
    crossing = [int(s) for s in ("10" if i not in nc_indices else "3" for i in range(2))]
    assert in_noncrossing_span(gram, nc_indices, nested)
    assert not in_noncrossing_span(gram, nc_indices, crossing)
    for rational in (Fraction(1, 2), Fraction(2)):
        with pytest.raises(TypeError):
            in_noncrossing_span(gram, nc_indices, [rational, 0])


def gram_of_columns(columns):
    """V^T V for the integer matrix V with these columns."""
    return [[sum(map(mul, u, v)) for v in columns] for u in columns]


def outside_by_cokernel(gram_rows, inside, index):
    """The rule joint_fullness applies to a kernel vector a: G a lies outside
    the span of the columns `inside` iff some row G y of _cokernel_rows has
    (G y) . a != 0.  Here a = e_index, so that is entry `index` of the row."""
    return any(row[index] for row in _cokernel_rows(gram_rows, inside))


def check_cokernel_rows(gram_rows, inside):
    """_cokernel_rows against the dense products G @ y over the whole of each
    row, y over nullspace_basis of the rows `inside`: the nonzero ones, in
    order.  Returns the dense products."""
    block = ExactMatrix([gram_rows[k] for k in inside], cols=len(gram_rows))
    dense = [[sum(map(mul, row, y)) for row in gram_rows] for y in block.nullspace_basis()]
    assert _cokernel_rows(gram_rows, inside) == [row for row in dense if any(row)]
    return dense


@pytest.mark.parametrize(
    "n,d_w,d_u,longer", [(4, 2, 2, ["uuUuUUuUuU"]), (5, 4, 1, []), (3, 2, 1, [])]
)
def test_cokernel_rows_are_the_nonzero_dense_products(n, d_w, d_u, longer, monkeypatch):
    """On every distinct colored subproblem that fullness_system solves and
    on every ambient Gram matrix with its non-crossing columns."""
    quotient = QuotientSpec(d_w, d_u)
    subproblems = set()

    def spy(gram_rows, inside):
        subproblems.add((gram_rows, inside))
        return _cokernel_rows(gram_rows, inside)

    monkeypatch.setattr(coinvariants, "_cokernel_rows", spy)
    for word in balanced_words(8) + list(map(parse_word, longer)):
        _, nc_indices, gram, _ = fullness_system(word, quotient)
        subproblems.add((tuple(map(tuple, gram.row_list())), tuple(nc_indices)))
    for gram_rows, inside in subproblems:
        check_cokernel_rows(gram_rows, inside)
    if (n, d_w) == (4, 2):
        # the all-W coloring of uUuUuUuU: G_c is the ambient Gram at n = 2,
        # whose rank 14 is |NC|, so every dense product is zero
        word = parse_word("uUuUuUuU")
        pairings, nc_set = enumerate_pairings(word), set(enumerate_noncrossing(word))
        nc_indices = tuple(i for i, p in enumerate(pairings) if p in nc_set)
        gram_rows = tuple(map(tuple, gram_matrix(pairings, word, AmbientSpec(2)).row_list()))
        assert (gram_rows, nc_indices) in subproblems
        dense = check_cokernel_rows(gram_rows, nc_indices)
        assert (len(nc_indices), len(dense)) == (14, 10)
        assert not any(map(any, dense))


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


def dense_joint_fullness(word, quotient):
    """(holds, solution_dim) by a second route on the dense functionals of
    realize_functional.  For each coloring, restrict every functional to the
    summand's coordinates (W slots take values below d_w), and take the rows
    z with z @ N = 0 for the restricted non-crossing columns N, as the kernel
    of N's transpose, whose rows are the restricted non-crossing functionals.
    The solution space is the kernel of all rows z @ D for the restricted
    functionals D; it holds when each of its dense functionals lies in the
    span of the non-crossing ones."""
    ambient = AmbientSpec(quotient.n)
    pairings = enumerate_pairings(word)
    ncs = set(enumerate_noncrossing(word))
    dense = np.array([realize_functional(p, word, ambient) for p in pairings])
    n, d_w = quotient.n, quotient.d_w
    stack = []
    for coloring in enumerate_colorings(word):
        ranges = [range(d_w) if block == "W" else range(d_w, n) for block in coloring]
        coords = [
            sum(v * n ** (len(word) - s - 1) for s, v in enumerate(idx))
            for idx in itertools.product(*ranges)
        ]
        restricted = dense[:, coords].tolist()
        nc_rows = [row for row, p in zip(restricted, pairings) if p in ncs]
        for z in ExactMatrix(nc_rows, cols=len(coords)).nullspace_basis():
            row = [sum(map(mul, z, column)) for column in restricted]
            if any(row):
                stack.append(row)
    solution = ExactMatrix(stack, cols=len(pairings)).nullspace_basis()
    columns = list(zip(*dense.tolist()))
    nc_columns = ExactMatrix([[x for x, p in zip(c, pairings) if p in ncs] for c in columns])
    holds = all(
        nc_columns.in_column_space([sum(map(mul, a, c)) for c in columns])[0] for a in solution
    )
    return holds, len(solution)


@pytest.mark.parametrize("n,d_w,d_u", [(2, 1, 1), (3, 2, 1), (3, 1, 2)])
def test_joint_fullness_matches_the_dense_route(n, d_w, d_u):
    quotient = QuotientSpec(d_w, d_u)
    for word in balanced_words(6):
        verdict = joint_fullness(word, quotient)
        expected = dense_joint_fullness(word, quotient)
        assert (verdict.holds, verdict.solution_space_dim) == expected, str(word)


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
    # coefficients are ints, as [int(s) for s in witness] reads them back
    with pytest.raises(TypeError):
        verify_witness(word, quotient, [Fraction(1), 0])


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

    fake = FullnessVerdict(False, 2, (10**20, -3))
    doc = verdict_json(word, quotient, fake)
    assert doc["witness"] == ["100000000000000000000", "-3"]
    assert tuple(int(s) for s in doc["witness"]) == fake.witness

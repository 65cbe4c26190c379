"""Invariance under the three symmetries of a word that orbit sweeps rely on:
cyclic rotation, reversal and the u<->U swap.

Each map sends position i of a word w to position sigma(i) of its image, so a
pairing of w maps arc by arc to a pairing of the image.  The properties below
check, on random balanced words, that the counts, the ranks and the fullness
verdict are unchanged, and that the ambient Gram matrix of the image is that
of w with rows and columns permuted by sigma.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from freeqg.coinvariants import AmbientSpec, QuotientSpec, gram_matrix, joint_fullness, nc_rank
from freeqg.words import (
    Pairing,
    enumerate_noncrossing,
    enumerate_pairings,
    orbit_key,
    parse_word,
)

words = st.integers(0, 4).flatmap(lambda k: st.permutations("u" * k + "U" * k)).map("".join)
maps = st.tuples(st.sampled_from(["rotate", "reflect", "swap"]), st.integers(0, 7))


def apply(text, move):
    """The image word and sigma, as a dict of 1-based positions."""
    kind, shift = move
    length = len(text)
    if kind == "rotate":
        r = shift % max(length, 1)
        return text[r:] + text[:r], {i: (i - 1 - r) % length + 1 for i in range(1, length + 1)}
    if kind == "reflect":
        return text[::-1], {i: length + 1 - i for i in range(1, length + 1)}
    return text.swapcase(), {i: i for i in range(1, length + 1)}


def moved(pairing, sigma):
    return Pairing(tuple((sigma[a], sigma[b]) for a, b in pairing.arcs))


@settings(deadline=None)
@given(words, maps)
def test_pairings_and_noncrossing_ones_map_onto_those_of_the_image(text, move):
    image_text, sigma = apply(text, move)
    word, image = parse_word(text), parse_word(image_text)
    pairings = enumerate_pairings(word)
    assert len(pairings) == len(enumerate_pairings(image))
    assert {moved(p, sigma) for p in pairings} == set(enumerate_pairings(image))
    noncrossing = enumerate_noncrossing(word)
    assert len(noncrossing) == len(enumerate_noncrossing(image))
    assert {moved(p, sigma) for p in noncrossing} == set(enumerate_noncrossing(image))
    assert nc_rank(word, AmbientSpec(2)) == nc_rank(image, AmbientSpec(2))
    assert orbit_key(word) == orbit_key(image)


@settings(deadline=None)
@given(words, maps)
def test_gram_matrix_of_image_is_permuted(text, move):
    image_text, sigma = apply(text, move)
    word, image = parse_word(text), parse_word(image_text)
    ambient = AmbientSpec(3)
    pairings = enumerate_pairings(word)
    image_pairings = enumerate_pairings(image)
    index = {p: i for i, p in enumerate(image_pairings)}
    perm = [index[moved(p, sigma)] for p in pairings]
    gram = gram_matrix(pairings, word, ambient)
    image_gram = gram_matrix(image_pairings, image, ambient)
    for i, pi in enumerate(perm):
        for j, pj in enumerate(perm):
            assert image_gram.entry(pi, pj) == gram.entry(i, j)


@settings(max_examples=40, deadline=None)
@given(words, maps)
def test_fullness_verdict_is_invariant(text, move):
    image_text, _ = apply(text, move)
    ambient, quotient = AmbientSpec(3), QuotientSpec(2, 1)
    before = joint_fullness(parse_word(text), ambient, quotient)
    after = joint_fullness(parse_word(image_text), ambient, quotient)
    assert (after.holds, after.solution_space_dim) == (before.holds, before.solution_space_dim)

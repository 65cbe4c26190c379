import itertools

import pytest

from freeqg.fusion import (
    dimension,
    fuse,
    fuse_vectors,
    star_reverse,
    trivial_multiplicity,
)
from freeqg.words import enumerate_noncrossing, parse_word


def words_up_to(max_len):
    out = [""]
    for length in range(1, max_len + 1):
        out += map("".join, itertools.product("uU", repeat=length))
    return out


def test_star_reverse_examples_and_involution():
    assert str(star_reverse(parse_word("uuU"))) == "uUU"
    assert str(star_reverse(parse_word(""))) == ""
    for word in words_up_to(4):
        assert star_reverse(star_reverse(word)) == word


def test_fuse_vectors_validation():
    unit = {"": 1}
    with pytest.raises(ValueError):
        fuse_vectors({"": -1}, unit)
    with pytest.raises(ValueError):
        fuse_vectors(unit, {parse_word("u"): -2})
    with pytest.raises(TypeError):
        fuse_vectors({("u", "U"): 1}, unit)
    with pytest.raises(TypeError):
        fuse_vectors(unit, {("u", "U"): 1})
    assert fuse_vectors({"": 0}, unit) == {}
    assert fuse_vectors({parse_word("u"): 0, parse_word("U"): 1}, unit) == {parse_word("U"): 1}
    assert fuse_vectors({parse_word("u"): 2}, unit) == {parse_word("u"): 2}


def test_fuse_frozen_examples():
    assert fuse(parse_word("u"), parse_word("U")) == {"": 1, parse_word("uU"): 1}
    assert fuse(parse_word("u"), parse_word("u")) == {parse_word("uu"): 1}
    assert fuse(parse_word("uU"), parse_word("uU")) == {
        "": 1,
        parse_word("uU"): 1,
        parse_word("uUuU"): 1,
    }


def test_fuse_unit_element():
    empty = ""
    for word in words_up_to(3):
        assert fuse(word, empty) == {word: 1}
        assert fuse(empty, word) == {word: 1}


def test_fuse_associative():
    words = words_up_to(2)
    for x in words:
        for y in words:
            xy = fuse(x, y)
            for z in words:
                left = fuse_vectors(xy, {z: 1})
                right = fuse_vectors({x: 1}, fuse(y, z))
                assert left == right, (str(x), str(y), str(z))


def test_fuse_respects_star_reverse_antihomomorphism():
    # reversing both factors and swapping them star-reverses every summand
    for x in words_up_to(3):
        for y in words_up_to(2):
            forward = fuse(x, y)
            backward = fuse(star_reverse(y), star_reverse(x))
            assert {star_reverse(w): m for w, m in forward.items()} == dict(
                backward.items()
            )


@pytest.mark.parametrize(
    "text", ["", "uU", "Uu", "uuUU", "uUuU", "uUuUuU", "uuUuUU", "UuUu"]
)
def test_trivial_multiplicity_counts_noncrossing(text):
    word = parse_word(text)
    assert trivial_multiplicity(word) == len(enumerate_noncrossing(word))


def test_trivial_multiplicity_unbalanced_is_zero():
    assert trivial_multiplicity(parse_word("u")) == 0
    assert trivial_multiplicity(parse_word("uuU")) == 0


def test_dimension_frozen_values():
    assert dimension("", 2) == 1
    assert dimension(parse_word("u"), 2) == 2
    assert dimension(parse_word("uU"), 2) == 3
    assert dimension(parse_word("uu"), 2) == 4
    assert dimension(parse_word("uU"), 5) == 24
    assert dimension(parse_word("uUu"), 2) == 4


def test_dimension_needs_n_at_least_two():
    with pytest.raises(ValueError):
        dimension(parse_word("u"), 1)


@pytest.mark.parametrize("n", [2, 3])
def test_dimension_multiplicative_over_fusion(n):
    words = words_up_to(3)
    for x in words:
        for y in words:
            product = fuse(x, y)
            total = sum(mult * dimension(w, n) for w, mult in product.items())
            assert dimension(x, n) * dimension(y, n) == total, (str(x), str(y))

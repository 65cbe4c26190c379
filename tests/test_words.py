import itertools
from math import factorial

import pytest

from freeqg import words
from freeqg.coinvariants import (
    AmbientSpec,
    FullnessVerdict,
    QuotientSpec,
    fullness_system,
    gram_matrix,
    gram_matrix_colored,
    invariant_dimension_oracle,
    joint_fullness,
    nc_rank,
    realize_functional,
    verdict_json,
    verify_witness,
)
from freeqg.fusion import dimension, fuse, fuse_vectors, star_reverse, trivial_multiplicity
from freeqg.words import (
    Pairing,
    WordParseError,
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

CATALAN = (1, 1, 2, 5, 14, 42, 132, 429, 1430)


def all_matchings(positions):
    """Brute-force perfect matchings of a position list, color-blind."""
    positions = list(positions)
    if not positions:
        return [()]
    first = positions[0]
    out = []
    for k in range(1, len(positions)):
        rest = positions[1:k] + positions[k + 1:]
        for sub in all_matchings(rest):
            out.append(((first, positions[k]),) + sub)
    return out


def test_parse_word_roundtrip():
    text = "uUUu"
    assert parse_word(text) is text
    assert parse_word("") == ""


def test_parse_word_rejects_bad_characters():
    with pytest.raises(WordParseError) as err:
        parse_word("uUxU")
    assert err.value.position == 3
    with pytest.raises(WordParseError):
        parse_word("uv")


WORD_TAKERS = {
    "enumerate_pairings": enumerate_pairings,
    "enumerate_noncrossing": enumerate_noncrossing,
    "enumerate_colorings": enumerate_colorings,
    "orbit_key": orbit_key,
    "is_pairing_of": Pairing(((1, 2),)).is_pairing_of,
    "gram_matrix": lambda w: gram_matrix([], w, AmbientSpec(2)),
    "gram_matrix_colored": lambda w: gram_matrix_colored([], w, "WU", QuotientSpec(1, 1)),
    "realize_functional": lambda w: realize_functional(Pairing(((1, 2),)), w, AmbientSpec(2)),
    "invariant_dimension_oracle": lambda w: invariant_dimension_oracle(w, AmbientSpec(2)),
    "nc_rank": lambda w: nc_rank(w, AmbientSpec(2)),
    "fullness_system": lambda w: fullness_system(w, QuotientSpec(1, 1)),
    "joint_fullness": lambda w: joint_fullness(w, QuotientSpec(1, 1)),
    "verify_witness": lambda w: verify_witness(w, QuotientSpec(1, 1), [1]),
    "verdict_json": lambda w: verdict_json(w, QuotientSpec(1, 1), FullnessVerdict(True, 1)),
    "star_reverse": star_reverse,
    "fuse_left": lambda w: fuse(w, "u"),
    "fuse_right": lambda w: fuse("u", w),
    "fuse_vectors": lambda w: fuse_vectors({"": 1}, {w: 0}),
    "trivial_multiplicity": trivial_multiplicity,
    "dimension": lambda w: dimension(w, 2),
}


@pytest.mark.parametrize("name", WORD_TAKERS)
def test_word_takers_reject_bad_words(name):
    """Every public function that takes a word checks it by parse_word before
    any work: a bad string raises instead of giving a result."""
    with pytest.raises(WordParseError) as err:
        WORD_TAKERS[name]("uX")
    assert err.value.position == 2
    with pytest.raises(TypeError):
        WORD_TAKERS[name](("u", "U"))


def test_word_positions_and_balance():
    # arcs join the u positions 1, 2 to the U positions 3, 4
    assert Pairing(((1, 3), (2, 4))).is_pairing_of("uuUU")
    assert not Pairing(((1, 2), (3, 4))).is_pairing_of("uuUU")
    assert not Pairing(((1, 2),)).is_pairing_of("uUuU")
    assert "uuU" not in balanced_words(4)
    assert "" in balanced_words(0)


def test_pairing_normalizes_and_validates():
    p = Pairing(((3, 4), (2, 1)))
    assert p.arcs == ((1, 2), (3, 4))
    assert p.partner() == {1: 2, 2: 1, 3: 4, 4: 3}
    assert p.to_json() == {"arcs": [[1, 2], [3, 4]]}
    with pytest.raises(ValueError):
        Pairing(((1, 2), (2, 3)))
    with pytest.raises(ValueError):
        Pairing(((1, 3),))


def test_enumerate_pairings_frozen_small_case():
    word = parse_word("uUuU")
    pairings = enumerate_pairings(word)
    assert [p.arcs for p in pairings] == [
        ((1, 2), (3, 4)),
        ((1, 4), (2, 3)),
    ]


def test_enumerate_pairings_unbalanced_is_empty():
    assert enumerate_pairings(parse_word("uuU")) == []
    assert enumerate_pairings(parse_word("uuuU")) == []


@pytest.mark.parametrize("text", ["", "uU", "uUuU", "uuUU", "uUuUuU", "uuUuUU"])
def test_pairing_count_is_factorial(text):
    word = parse_word(text)
    k = len(word) // 2
    pairings = enumerate_pairings(word)
    assert len(pairings) == factorial(k)
    assert len(set(pairings)) == len(pairings)
    for p in pairings:
        assert p.is_pairing_of(word)


@pytest.mark.parametrize("length", [2, 4, 6])
def test_pairings_match_bruteforce_matchings(length):
    # independent route: color-blind matchings filtered down to color-mixed arcs
    for word in map("".join, itertools.product("uU", repeat=length)):
        expected = set()
        for arcs in all_matchings(range(1, length + 1)):
            if all(word[a - 1] != word[b - 1] for a, b in arcs):
                expected.add(tuple(sorted(tuple(sorted(arc)) for arc in arcs)))
        assert {p.arcs for p in enumerate_pairings(word)} == expected


# every balanced word up to length 10: enumerate_pairings builds its
# pairings from canonical arcs without the constructor's check
@pytest.mark.parametrize("text", balanced_words(10))
def test_enumerated_pairings_equal_checked_pairings(text):
    pairings = enumerate_pairings(parse_word(text))
    checked = [Pairing(p.arcs) for p in pairings]
    assert pairings == checked
    assert list(map(hash, pairings)) == list(map(hash, checked))
    assert [p.arcs for p in pairings] == sorted(p.arcs for p in checked)
    for p, q in zip(pairings, checked):
        assert type(p.arcs) is tuple and p.arcs == q.arcs
        assert all(type(arc) is tuple and arc[0] < arc[1] for arc in p.arcs)


def test_enumerate_pairings_checks_every_permutation(monkeypatch):
    """The images of the U slots must be a permutation of them, checked for
    every pairing: a repeated slot raises."""
    monkeypatch.setattr(
        words.itertools, "permutations", lambda star: iter([tuple(star), (star[0],) * len(star)])
    )
    with pytest.raises(ValueError, match="not a permutation of the U slots"):
        enumerate_pairings(parse_word("uUuU"))


def test_noncrossing_frozen_small_cases():
    assert [p.arcs for p in enumerate_noncrossing(parse_word("uuUU"))] == [
        ((1, 4), (2, 3))
    ]
    assert len(enumerate_noncrossing(parse_word("uUuUuU"))) == 5


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_noncrossing_alternating_counts_are_catalan(k):
    word = parse_word("uU" * k)
    assert len(enumerate_noncrossing(word)) == CATALAN[k]


# every balanced word up to length 10: this pins the arc order in which the
# nesting recursion emits its pairings
@pytest.mark.parametrize("text", balanced_words(10))
def test_noncrossing_agrees_with_filter(text):
    word = parse_word(text)
    by_filter = [p for p in enumerate_pairings(word) if is_noncrossing(p)]
    assert enumerate_noncrossing(word) == by_filter


def test_is_noncrossing_detects_crossing():
    assert not is_noncrossing(Pairing(((1, 3), (2, 4))))
    assert is_noncrossing(Pairing(((1, 4), (2, 3))))
    assert is_noncrossing(Pairing(((1, 2), (3, 4))))
    assert is_noncrossing(Pairing(()))


def test_enumerate_colorings_order_and_count():
    word = parse_word("uU")
    colorings = enumerate_colorings(word)
    assert [str(c) for c in colorings] == ["WW", "WU", "UW", "UU"]
    assert len(enumerate_colorings(parse_word("uUuU"))) == 16


def test_is_block_respecting():
    p = Pairing(((1, 4), (2, 3)))
    assert is_block_respecting(p, "WUUW")
    assert not is_block_respecting(p, "WUUU")
    for bad in ("WW", "WUUWW", "WUXW", "wuuw"):
        with pytest.raises(ValueError):
            is_block_respecting(p, bad)


def test_loop_decomposition_frozen_example():
    p = Pairing(((1, 2), (3, 4)))
    q = Pairing(((1, 4), (2, 3)))
    assert loop_decomposition(p, q) == ((1, 2, 3, 4),)
    assert loop_decomposition(p, p) == ((1, 2), (3, 4))


@pytest.mark.parametrize("text", ["uUuU", "uuUU", "uUuUuU"])
def test_loop_counts_symmetric_and_bounded(text):
    word = parse_word(text)
    pairings = enumerate_pairings(word)
    k = len(word) // 2
    for p in pairings:
        assert len(loop_decomposition(p, p)) == k
        for q in pairings:
            forward = loop_decomposition(p, q)
            backward = loop_decomposition(q, p)
            assert len(forward) == len(backward)
            assert 1 <= len(forward) <= k
            covered = sorted(pos for loop in forward for pos in loop)
            assert covered == list(range(1, len(word) + 1))


def test_loop_decomposition_length_mismatch():
    with pytest.raises(ValueError):
        loop_decomposition(Pairing(((1, 2),)), Pairing(((1, 2), (3, 4))))


def test_balanced_words_order():
    words = [str(w) for w in balanced_words(4)]
    assert words == ["", "uU", "Uu", "uuUU", "uUuU", "uUUu", "UuuU", "UuUu", "UUuu"]


def test_balanced_words_counts():
    by_len = {}
    for w in balanced_words(8):
        by_len[len(w)] = by_len.get(len(w), 0) + 1
    assert by_len == {0: 1, 2: 2, 4: 6, 6: 20, 8: 70}


def orbit_by_group(text):
    """The orbit of a word under rotations, reversal and u<->U swap, generated
    by closing {text} under the three maps one step at a time."""
    swap = {"u": "U", "U": "u"}
    orbit, frontier = {text}, [text]
    while frontier:
        w = frontier.pop()
        for image in (w[1:] + w[:1], w[::-1], "".join(swap[c] for c in w)):
            if image not in orbit:
                orbit.add(image)
                frontier.append(image)
    return orbit


def test_orbit_counts_by_length():
    words = balanced_words(10)
    counts = {}
    for length in range(0, 11, 2):
        counts[length] = len({orbit_key(w) for w in words if len(w) == length})
    assert counts == {0: 1, 2: 1, 4: 2, 6: 3, 8: 7, 10: 13}


def test_orbit_sizes_at_length_six():
    sizes = {}
    for word in (w for w in balanced_words(6) if len(w) == 6):
        key = orbit_key(word)
        sizes[key] = sizes.get(key, 0) + 1
    assert sorted(sizes.values()) == [2, 6, 12]


def test_orbit_key_is_the_least_member_of_its_orbit():
    for word in balanced_words(8):
        orbit = orbit_by_group(str(word))
        assert orbit_key(word) == min(orbit)
        assert all(orbit_key(parse_word(member)) == orbit_key(word) for member in orbit)

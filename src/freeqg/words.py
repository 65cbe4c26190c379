"""Colored words, pairings, block colorings and loop counting.

A word indexes a mixed tensor power of the fundamental comodule: it is a
plain string in which letter 'u' stands for a V factor and letter 'U' for a
dual V* factor.  parse_word checks a word, and every function taking one
runs that check before any work.  A pairing matches
every V slot with a V* slot; drawn as arcs over the word, it is non-crossing
when no two arcs intersect.  Overlaying two pairings cuts the positions into
closed loops, and loop counts are the exponents in every Gram matrix entry
downstream.  For a splitting V = W + U, a coloring is a plain string over
'W'/'U' naming the block of each slot, in memory as in JSON.
require_ints checks the plain-int sizes that every module takes.

Positions are 1-based throughout, matching the diagrams and the JSON
serialization ``{"arcs": [[1, 2], ...]}``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


class WordParseError(ValueError):
    """Invalid character in a word string; position is 1-based."""

    def __init__(self, char: str, position: int):
        self.position = position
        super().__init__(
            f"invalid character {char!r} at position {position}; expected 'u' or 'U'"
        )


def parse_word(text: str) -> str:
    """Check a word over {'u', 'U'} and return it unchanged.  A non-str raises
    TypeError and the first other character WordParseError."""
    if not isinstance(text, str):
        raise TypeError(f"a word is a str, got {type(text).__name__}")
    rest = text.lstrip("uU")
    if rest:
        raise WordParseError(rest[0], len(text) - len(rest) + 1)
    return text


def require_ints(**sizes) -> None:
    """Sizes and multiplicities are plain ints: any other type, bool, float
    and str included, raises TypeError naming the argument."""
    for name, value in sizes.items():
        if type(value) is not int:
            raise TypeError(f"{name} must be an int, got {value!r}")


@dataclass(frozen=True)
class Pairing:
    """A perfect matching of positions 1..2k, stored as sorted arcs (i, j), i < j."""

    arcs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        arcs = tuple(sorted([(a, b) if a < b else (b, a) for a, b in self.arcs]))
        object.__setattr__(self, "arcs", arcs)
        if sorted(itertools.chain.from_iterable(arcs)) != list(range(1, 2 * len(arcs) + 1)):
            raise ValueError(f"arcs {arcs} do not partition 1..{2 * len(arcs)}")

    @classmethod
    def _of_sorted_arcs(cls, arcs) -> "Pairing":
        """Pairing of arcs that are canonical by construction, unchecked."""
        self = object.__new__(cls)
        object.__setattr__(self, "arcs", arcs)
        return self

    def __len__(self) -> int:
        """Number of arcs (k for a word of length 2k)."""
        return len(self.arcs)

    def partner(self) -> dict[int, int]:
        """Position -> matched position."""
        out: dict[int, int] = {}
        for a, b in self.arcs:
            out[a] = b
            out[b] = a
        return out

    def is_pairing_of(self, word: str) -> bool:
        """True when the arcs cover the word's positions and every arc joins a V with a V*."""
        if 2 * len(self) != len(parse_word(word)):
            return False
        return all(word[a - 1] != word[b - 1] for a, b in self.arcs)

    def to_json(self) -> dict:
        return {"arcs": [list(arc) for arc in self.arcs]}


def enumerate_pairings(word: str) -> list[Pairing]:
    """All color-respecting perfect matchings of the word.

    A balanced word with k V slots has exactly k! of them; an unbalanced word
    has none.  Emitted in lexicographic order of the sorted arc lists.
    """
    plain = [i for i, letter in enumerate(parse_word(word), start=1) if letter == "u"]
    star = [i for i, letter in enumerate(word, start=1) if letter == "U"]
    if len(plain) != len(star):
        return []
    arcs = []
    for images in itertools.permutations(star):
        if sorted(images) != star:  # so that the arcs partition 1..2k
            raise ValueError(f"{images} is not a permutation of the U slots")
        arcs.append(tuple(sorted([(a, b) if a < b else (b, a) for a, b in zip(plain, images)])))
    return list(map(Pairing._of_sorted_arcs, sorted(arcs)))


def is_noncrossing(p: Pairing) -> bool:
    """True when no two arcs (a, b), (c, d) interleave as a < c < b < d."""
    arcs = p.arcs
    for x in range(len(arcs)):
        a, b = arcs[x]
        for y in range(x + 1, len(arcs)):
            c, d = arcs[y]
            # arcs are sorted by left endpoint, so a < c always; the pair
            # crosses exactly when c falls inside (a, b) and d outside
            if c < b < d:
                return False
    return True


def enumerate_noncrossing(word: str) -> list[Pairing]:
    """The non-crossing pairings of the word, by nesting recursion.

    For the alternating word (uU)^k the count is the k-th Catalan number.
    Same ordering contract as enumerate_pairings.
    """
    parse_word(word)

    def rec(segment: tuple[int, ...]) -> list[tuple[tuple[int, int], ...]]:
        if not segment:
            return [()]
        first = segment[0]
        out = []
        # the partner of the leftmost slot must leave an even gap on each side
        for t in range(1, len(segment), 2):
            j = segment[t]
            if word[j - 1] == word[first - 1]:
                continue
            arc = (first, j)
            for inner in rec(segment[1:t]):
                for outer in rec(segment[t + 1:]):
                    out.append((arc,) + inner + outer)
        return out

    # in arc order already: the leftmost slot's partner increases, inner arcs precede outer
    return [Pairing(arcs) for arcs in rec(tuple(range(1, len(word) + 1)))]


def enumerate_colorings(word: str) -> list[str]:
    """All 2^len(word) block assignments, in W-before-U lexicographic order."""
    return ["".join(c) for c in itertools.product("WU", repeat=len(parse_word(word)))]


def is_block_respecting(p: Pairing, coloring: str) -> bool:
    """True when every arc stays inside a single block of the coloring."""
    if 2 * len(p) != len(coloring) or not set(coloring) <= {"W", "U"}:
        raise ValueError(f"{coloring!r} is not a W/U coloring of the slots of {p}")
    return all(coloring[a - 1] == coloring[b - 1] for a, b in p.arcs)


def loop_decomposition(p: Pairing, q: Pairing) -> tuple[tuple[int, ...], ...]:
    """Closed loops of the multigraph drawn by the arcs of p and q together,
    each as the positions of a walk from its least position, p-arc first, in
    order of those least positions.

    Every position lies on one p-arc and one q-arc, so walks alternating
    between the two pairings close up into loops; the loop count is the
    exponent in Gram matrix entries.  When both pairings respect a coloring,
    every loop stays in one block, the block of any of its positions.
    """
    if len(p) != len(q):
        raise ValueError("pairings live on different position sets")
    pmap = p.partner()
    qmap = q.partner()
    loops = []
    seen: set[int] = set()
    for start in range(1, 2 * len(p) + 1):
        if start in seen:
            continue
        cycle = [start, pmap[start]]
        while (pos := qmap[cycle[-1]]) != start:  # a q-arc, then a p-arc
            cycle += (pos, pmap[pos])
        seen.update(cycle)
        loops.append(tuple(cycle))
    return tuple(loops)


def balanced_words(max_len: int) -> list[str]:
    """Balanced words of length <= max_len, by length then lexicographically
    with 'u' before 'U'.  Includes the empty word."""
    words = []
    for length in range(0, max_len + 1, 2):
        for word in map("".join, itertools.product("uU", repeat=length)):
            if 2 * word.count("u") == length:
                words.append(word)
    return words


def orbit_key(word: str) -> str:
    """Least string among the word's rotations, reversal and u<->U swap, in
    any combination.  These maps preserve pairings, non-crossingness and loop
    counts, so fullness verdicts are constant on an orbit."""
    word = parse_word(word)
    images = (word, word[::-1], word.swapcase(), word[::-1].swapcase())
    return min(w[r:] + w[:r] for w in images for r in range(len(w) or 1))

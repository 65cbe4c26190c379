"""Colored words, pairings, block colorings and loop counting.

A word indexes a mixed tensor power of the fundamental comodule: letter 'u'
stands for a V factor, letter 'U' for a dual V* factor.  A pairing matches
every V slot with a V* slot; drawn as arcs over the word, it is non-crossing
when no two arcs intersect.  Overlaying two pairings cuts the positions into
closed loops, and loop counts are the exponents in every Gram matrix entry
downstream.

Positions are 1-based throughout, matching the diagrams and the JSON
serialization ``{"arcs": [[1, 2], ...]}``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "Letter",
    "Block",
    "Word",
    "Pairing",
    "Coloring",
    "Loop",
    "LoopDecomposition",
    "WordParseError",
    "parse_word",
    "parse_coloring",
    "enumerate_pairings",
    "is_noncrossing",
    "enumerate_noncrossing",
    "enumerate_colorings",
    "block_balanced_colorings",
    "is_block_respecting",
    "loop_decomposition",
    "balanced_words",
    "orbit_key",
]


class Letter(Enum):
    """Tensor slot kind: PLAIN is a V factor, STAR is a V* factor."""

    PLAIN = "u"
    STAR = "U"

    def flipped(self) -> "Letter":
        return Letter.STAR if self is Letter.PLAIN else Letter.PLAIN


class Block(Enum):
    """Summand label for a slot once V is split as W + U."""

    W = "W"
    U = "U"


class WordParseError(ValueError):
    """Invalid character in a word string; position is 1-based."""

    def __init__(self, char: str, position: int):
        self.position = position
        super().__init__(
            f"invalid character {char!r} at position {position}; expected 'u' or 'U'"
        )


@dataclass(frozen=True)
class Word:
    """An ordered tuple of letters; the empty word is the trivial comodule."""

    letters: tuple[Letter, ...] = ()

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return "".join(letter.value for letter in self.letters)

    def __iter__(self):
        return iter(self.letters)

    @property
    def balanced(self) -> bool:
        """True when V and V* slots come in equal numbers."""
        return 2 * sum(letter is Letter.PLAIN for letter in self.letters) == len(self)

    def positions(self, letter: Letter) -> tuple[int, ...]:
        """1-based positions carrying the given letter."""
        return tuple(i for i, cur in enumerate(self.letters, start=1) if cur is letter)


def parse_word(text: str) -> Word:
    """Parse a word over {'u', 'U'}; anything else raises WordParseError."""
    letters = []
    for i, ch in enumerate(text, start=1):
        if ch == "u":
            letters.append(Letter.PLAIN)
        elif ch == "U":
            letters.append(Letter.STAR)
        else:
            raise WordParseError(ch, i)
    return Word(tuple(letters))


@dataclass(frozen=True)
class Pairing:
    """A perfect matching of positions 1..2k, stored as sorted arcs (i, j), i < j."""

    arcs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        arcs = tuple(sorted([(a, b) if a < b else (b, a) for a, b in self.arcs]))
        object.__setattr__(self, "arcs", arcs)
        if sorted(itertools.chain.from_iterable(arcs)) != list(range(1, 2 * len(arcs) + 1)):
            raise ValueError(f"arcs {arcs} do not partition 1..{2 * len(arcs)}")

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

    def is_pairing_of(self, word: Word) -> bool:
        """True when the arcs cover the word's positions and every arc joins a V with a V*."""
        if 2 * len(self) != len(word):
            return False
        return all(word.letters[a - 1] is not word.letters[b - 1] for a, b in self.arcs)

    def to_json(self) -> dict:
        return {"arcs": [list(arc) for arc in self.arcs]}


@dataclass(frozen=True)
class Coloring:
    """Assignment of each slot to the W or the U block of a splitting V = W + U."""

    blocks: tuple[Block, ...] = ()

    def __len__(self) -> int:
        return len(self.blocks)

    def __str__(self) -> str:
        return "".join(block.value for block in self.blocks)


def parse_coloring(text: str) -> Coloring:
    try:
        return Coloring(tuple(Block(ch) for ch in text))
    except ValueError:
        raise ValueError(f"coloring must be a string over 'W'/'U', got {text!r}") from None


@dataclass(frozen=True)
class Loop:
    """One closed cycle in the overlay of two pairings; block is set in the colored case."""

    positions: tuple[int, ...]
    block: Block | None = None


@dataclass(frozen=True)
class LoopDecomposition:
    loops: tuple[Loop, ...]

    @property
    def count(self) -> int:
        return len(self.loops)

    def count_in(self, block: Block) -> int:
        return sum(loop.block is block for loop in self.loops)


def enumerate_pairings(word: Word) -> list[Pairing]:
    """All color-respecting perfect matchings of the word.

    A balanced word with k V slots has exactly k! of them; an unbalanced word
    has none.  Emitted in lexicographic order of the sorted arc lists.
    """
    plain = word.positions(Letter.PLAIN)
    star = word.positions(Letter.STAR)
    if len(plain) != len(star):
        return []
    pairings = []
    for images in itertools.permutations(star):
        arcs = tuple((a, b) if a < b else (b, a) for a, b in zip(plain, images))
        pairings.append(Pairing(arcs))
    pairings.sort(key=lambda p: p.arcs)
    return pairings


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


def enumerate_noncrossing(word: Word) -> list[Pairing]:
    """The non-crossing pairings of the word, by nesting recursion.

    For the alternating word (uU)^k the count is the k-th Catalan number.
    Same ordering contract as enumerate_pairings.
    """
    letters = word.letters

    def rec(segment: tuple[int, ...]) -> list[tuple[tuple[int, int], ...]]:
        if not segment:
            return [()]
        first = segment[0]
        out = []
        # the partner of the leftmost slot must leave an even gap on each side
        for t in range(1, len(segment), 2):
            j = segment[t]
            if letters[j - 1] is letters[first - 1]:
                continue
            arc = (first, j)
            for inner in rec(segment[1:t]):
                for outer in rec(segment[t + 1:]):
                    out.append((arc,) + inner + outer)
        return out

    pairings = [Pairing(arcs) for arcs in rec(tuple(range(1, len(word) + 1)))]
    pairings.sort(key=lambda p: p.arcs)
    return pairings


def enumerate_colorings(word: Word) -> list[Coloring]:
    """All 2^len(word) block assignments, in W-before-U lexicographic order."""
    return [
        Coloring(blocks)
        for blocks in itertools.product((Block.W, Block.U), repeat=len(word))
    ]


def block_balanced_colorings(word: Word) -> list[Coloring]:
    """The colorings in which each block holds as many V as V* slots, in the
    order of enumerate_colorings: exactly those admitting a block-respecting
    pairing."""
    signs = [1 if letter is Letter.PLAIN else -1 for letter in word.letters]
    return [
        coloring
        for coloring in enumerate_colorings(word)
        if all(
            sum(s for s, b in zip(signs, coloring.blocks) if b is block) == 0
            for block in Block
        )
    ]


def is_block_respecting(p: Pairing, coloring: Coloring) -> bool:
    """True when every arc stays inside a single block of the coloring."""
    if 2 * len(p) != len(coloring):
        raise ValueError("pairing and coloring lengths differ")
    blocks = coloring.blocks
    return all(blocks[a - 1] is blocks[b - 1] for a, b in p.arcs)


def loop_decomposition(
    p: Pairing, q: Pairing, coloring: Coloring | None = None
) -> LoopDecomposition:
    """Closed loops of the multigraph drawn by the arcs of p and q together.

    Every position lies on one p-arc and one q-arc, so walks alternating
    between the two pairings close up into loops; the loop count is the
    exponent in Gram matrix entries.  With a coloring given, both pairings
    must respect it, and each loop is tagged by the block it stays in.
    """
    if len(p) != len(q):
        raise ValueError("pairings live on different position sets")
    if coloring is not None:
        if not is_block_respecting(p, coloring) or not is_block_respecting(q, coloring):
            raise ValueError("colored loop decomposition needs block-respecting pairings")
    pmap = p.partner()
    qmap = q.partner()
    loops = []
    seen: set[int] = set()
    for start in range(1, 2 * len(p) + 1):
        if start in seen:
            continue
        cycle = [start]
        pos = start
        take_p = True
        while True:
            pos = (pmap if take_p else qmap)[pos]
            take_p = not take_p
            if pos == start:
                break
            cycle.append(pos)
        seen.update(cycle)
        block = coloring.blocks[start - 1] if coloring is not None else None
        loops.append(Loop(tuple(cycle), block))
    return LoopDecomposition(tuple(loops))


def balanced_words(max_len: int) -> list[Word]:
    """Balanced words of length <= max_len, by length then lexicographically
    with 'u' before 'U'.  Includes the empty word."""
    words = []
    for length in range(0, max_len + 1, 2):
        for letters in itertools.product((Letter.PLAIN, Letter.STAR), repeat=length):
            if 2 * sum(letter is Letter.PLAIN for letter in letters) == length:
                words.append(Word(letters))
    return words


def orbit_key(word: Word) -> str:
    """Least string among the word's rotations, reversal and u<->U swap, in
    any combination.  These maps preserve pairings, non-crossingness and loop
    counts, so fullness verdicts are constant on an orbit."""
    text = str(word)
    images = (text, text[::-1], text.swapcase(), text[::-1].swapcase())
    return min(w[r:] + w[:r] for w in images for r in range(len(w) or 1))

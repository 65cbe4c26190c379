"""The free fusion semiring on the two-letter alphabet {u, u*}.

Irreducible classes are indexed by arbitrary words; two classes multiply by
splitting off a suffix of the left word that cancels, as a star-reversed
mirror, against a prefix of the right word.  Dimensions follow a two-term
recursion in the ambient size n and grow like Chebyshev polynomials.  Words
are plain strings over 'u'/'U', checked by words.parse_word, and a fusion
vector is a plain dict from word to a positive multiplicity.
"""

from __future__ import annotations

from .words import parse_word

__all__ = [
    "star_reverse",
    "fuse",
    "fuse_vectors",
    "trivial_multiplicity",
    "dimension",
]


def star_reverse(word: str) -> str:
    """Reverse the word and flip each letter; an involution."""
    return parse_word(word)[::-1].swapcase()


def fuse(x: str, y: str) -> dict[str, int]:
    """Product of the classes of x and y.

    One summand for every splitting x = v.g, y = g*.w where g* is the
    star-reversal of g; the summand is the concatenation v.w and distinct
    splittings may collide on the same word.
    """
    x, y = parse_word(x), parse_word(y)
    terms: dict[str, int] = {}
    for cut in range(min(len(x), len(y)) + 1):
        if star_reverse(x[len(x) - cut:]) != y[:cut]:
            continue
        fused = x[: len(x) - cut] + y[cut:]
        terms[fused] = terms.get(fused, 0) + 1
    return terms


def fuse_vectors(left: dict[str, int], right: dict[str, int]) -> dict[str, int]:
    """Bilinear extension of fuse to fusion vectors.

    Keys must be words and multiplicities nonnegative; a zero multiplicity
    adds nothing, and the result holds no zero entry.
    """
    for word, mult in [*left.items(), *right.items()]:
        parse_word(word)
        if mult < 0:
            raise ValueError(f"negative multiplicity {mult} for {word!r}")
    terms: dict[str, int] = {}
    for xw, xm in left.items():
        for yw, ym in right.items():
            for word, mult in fuse(xw, yw).items():
                terms[word] = terms.get(word, 0) + xm * ym * mult
    return {word: mult for word, mult in terms.items() if mult}


def trivial_multiplicity(word: str) -> int:
    """Multiplicity of the empty class in the left-to-right product of the
    word's single letters.

    Equals the number of non-crossing pairings of the word.
    """
    acc = {"": 1}
    for letter in parse_word(word):
        acc = fuse_vectors(acc, {letter: 1})
    return acc.get("", 0)


def dimension(word: str, n: int) -> int:
    """Dimension of the class of the word at ambient size n.

    Appending a letter multiplies the dimension by n, minus the dimension of
    the shorter word whenever the new letter cancels against the previous one.
    The recursion produces positive values only for n >= 2.
    """
    if n < 2:
        raise ValueError("dimension recursion needs n >= 2")
    prev, cur = 0, 1
    for i, letter in enumerate(parse_word(word)):
        if i > 0 and word[i - 1] != letter:
            nxt = n * cur - prev
        else:
            nxt = n * cur
        prev, cur = cur, nxt
    return cur

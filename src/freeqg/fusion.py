"""The free fusion semiring on the two-letter alphabet {u, u*}.

Irreducible classes are indexed by arbitrary words; two classes multiply by
splitting off a suffix of the left word that cancels, as a star-reversed
mirror, against a prefix of the right word.  Dimensions follow a two-term
recursion in the ambient size n and grow like Chebyshev polynomials.  A
fusion vector is a plain dict from Word to a positive multiplicity.
"""

from __future__ import annotations

from .words import Letter, Word

__all__ = [
    "star_reverse",
    "fuse",
    "fuse_vectors",
    "trivial_multiplicity",
    "dimension",
]


def star_reverse(word: Word) -> Word:
    """Reverse the word and flip each letter; an involution."""
    return Word(tuple(letter.flipped() for letter in reversed(word.letters)))


def fuse(x: Word, y: Word) -> dict[Word, int]:
    """Product of the classes of x and y.

    One summand for every splitting x = v.g, y = g*.w where g* is the
    star-reversal of g; the summand is the concatenation v.w and distinct
    splittings may collide on the same word.
    """
    terms: dict[Word, int] = {}
    for cut in range(min(len(x), len(y)) + 1):
        suffix = Word(x.letters[len(x) - cut:])
        if star_reverse(suffix).letters != y.letters[:cut]:
            continue
        fused = Word(x.letters[: len(x) - cut] + y.letters[cut:])
        terms[fused] = terms.get(fused, 0) + 1
    return terms


def fuse_vectors(left: dict[Word, int], right: dict[Word, int]) -> dict[Word, int]:
    """Bilinear extension of fuse to fusion vectors.

    Keys must be Words and multiplicities nonnegative; a zero multiplicity
    adds nothing, and the result holds no zero entry.
    """
    for word, mult in [*left.items(), *right.items()]:
        if not isinstance(word, Word):
            raise TypeError(f"keys must be Word, got {type(word).__name__}")
        if mult < 0:
            raise ValueError(f"negative multiplicity {mult} for {word!s}")
    terms: dict[Word, int] = {}
    for xw, xm in left.items():
        for yw, ym in right.items():
            for word, mult in fuse(xw, yw).items():
                terms[word] = terms.get(word, 0) + xm * ym * mult
    return {word: mult for word, mult in terms.items() if mult}


def trivial_multiplicity(word: Word) -> int:
    """Multiplicity of the empty class in the left-to-right product of the
    word's single letters.

    Equals the number of non-crossing pairings of the word.
    """
    acc = {Word(()): 1}
    for letter in word.letters:
        acc = fuse_vectors(acc, {Word((letter,)): 1})
    return acc.get(Word(()), 0)


def dimension(word: Word, n: int) -> int:
    """Dimension of the class of the word at ambient size n.

    Appending a letter multiplies the dimension by n, minus the dimension of
    the shorter word whenever the new letter cancels against the previous one.
    The recursion produces positive values only for n >= 2.
    """
    if n < 2:
        raise ValueError("dimension recursion needs n >= 2")
    prev, cur = 0, 1
    for i, letter in enumerate(word.letters):
        if i > 0 and word.letters[i - 1] is letter.flipped():
            nxt = n * cur - prev
        else:
            nxt = n * cur
        prev, cur = cur, nxt
    return cur

"""Coinvariant functionals of colored words: Gram matrices, exact ranks and
the joint-fullness decision.

A pairing p of a word defines a functional T_p on the word's tensor space by
a product of Kronecker deltas along the arcs.  Inner products of these
functionals count closed loops: <T_p, T_q> equals n to the number of loops of
p overlaid with q, and in the colored refinement each loop contributes the
size of the block it stays in.  Every Gram entry is a product of powers of
n, d_w and d_u, so all span and rank questions are settled exactly by integer
elimination; floats never enter.

Two independent routes to the same geometry are kept side by side on purpose:
loop counting produces Gram entries combinatorially, while realize_functional
writes T_p out as a dense 0/1 vector so that small cases can be cross-checked
by literal dot products.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .linalg import ExactMatrix, VerificationError
from .words import (
    Block,
    Coloring,
    Letter,
    Pairing,
    Word,
    block_balanced_colorings,
    enumerate_noncrossing,
    enumerate_pairings,
    is_block_respecting,
    loop_decomposition,
)

__all__ = [
    "DEFAULT_REALIZATION_CAP",
    "RealizationTooLarge",
    "AmbientSpec",
    "QuotientSpec",
    "FullnessVerdict",
    "gram_matrix",
    "gram_matrix_colored",
    "realize_functional",
    "invariant_dimension_oracle",
    "nc_rank",
    "fullness_system",
    "in_noncrossing_span",
    "joint_fullness",
    "verify_witness",
    "verdict_json",
]

DEFAULT_REALIZATION_CAP = 10**7


class RealizationTooLarge(ValueError):
    """Dense realization would exceed the entry cap; use the loop-count Gram route."""


@dataclass(frozen=True)
class AmbientSpec:
    """Ambient size n of the fundamental comodule V."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("ambient size must be >= 1")


@dataclass(frozen=True)
class QuotientSpec:
    """Block sizes of a splitting V = W + U; both blocks must be nonempty."""

    d_w: int
    d_u: int

    def __post_init__(self):
        if self.d_w < 1 or self.d_u < 1:
            raise ValueError("both block sizes must be >= 1")

    @property
    def n(self) -> int:
        return self.d_w + self.d_u


@dataclass(frozen=True)
class FullnessVerdict:
    """Outcome of the joint-fullness check.

    holds              every jointly coinvariant functional lies in the
                       non-crossing span
    solution_space_dim dimension of the jointly coinvariant coefficient space
    witness            integer coefficients (over all pairings) of a
                       violating functional, or None
    """

    holds: bool
    solution_space_dim: int
    witness: tuple[int, ...] | None = None


def gram_matrix(pairings, word: Word, ambient: AmbientSpec) -> ExactMatrix:
    """Gram matrix of pairing functionals: entry (i, j) is n^loops(p_i, p_j)."""
    pairings = list(pairings)
    for p in pairings:
        if not p.is_pairing_of(word):
            raise ValueError(f"{p} is not a color-respecting pairing of {word!s}")
    n = ambient.n
    size = len(pairings)
    entries = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            value = n ** loop_decomposition(pairings[i], pairings[j]).count
            entries[i][j] = value
            entries[j][i] = value
    return ExactMatrix(entries, cols=size)


def gram_matrix_colored(
    pairings, word: Word, coloring: Coloring, quotient: QuotientSpec
) -> ExactMatrix:
    """Colored Gram matrix: every loop contributes the size of its block.

    All pairings must respect the coloring; entry (i, j) is
    d_w^(W loops) * d_u^(U loops) of the overlay of p_i and p_j.
    """
    pairings = list(pairings)
    if len(coloring) != len(word):
        raise ValueError("coloring length does not match word length")
    for p in pairings:
        if not p.is_pairing_of(word):
            raise ValueError(f"{p} is not a color-respecting pairing of {word!s}")
        if not is_block_respecting(p, coloring):
            raise ValueError(f"{p} does not respect the coloring {coloring!s}")
    size = len(pairings)
    entries = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            dec = loop_decomposition(pairings[i], pairings[j], coloring)
            value = quotient.d_w ** dec.count_in(Block.W) * quotient.d_u ** dec.count_in(
                Block.U
            )
            entries[i][j] = value
            entries[j][i] = value
    return ExactMatrix(entries, cols=size)


def realize_functional(
    p: Pairing, word: Word, ambient: AmbientSpec, cap: int = DEFAULT_REALIZATION_CAP
) -> np.ndarray:
    """Dense 0/1 vector of the functional T_p in the n^len(word) coordinate space.

    Coordinates are multi-indices in row-major order (first slot varies
    slowest); the entry is 1 exactly when both ends of every arc carry equal
    values.  Dot products of these vectors reproduce the loop-count Gram
    entries, which is what the exact tests exploit.
    """
    n = ambient.n
    length = len(word)
    size = n**length
    if size > cap:
        raise RealizationTooLarge(
            f"dense realization needs {size} entries (cap {cap}); "
            "use the loop-count Gram route instead"
        )
    if not p.is_pairing_of(word):
        raise ValueError(f"{p} is not a color-respecting pairing of {word!s}")
    vec = np.zeros(size, dtype=np.int64)
    strides = [n ** (length - s - 1) for s in range(length)]
    for values in itertools.product(range(n), repeat=len(p.arcs)):
        flat = 0
        for (a, b), v in zip(p.arcs, values):
            flat += (strides[a - 1] + strides[b - 1]) * v
        vec[flat] = 1
    return vec


def invariant_dimension_oracle(
    word: Word, ambient: AmbientSpec, cap: int = DEFAULT_REALIZATION_CAP
) -> int:
    """Dimension of the unitary-group invariants in the word's tensor space.

    Computed straight from the Lie algebra action, independently of any
    pairing combinatorics: V slots carry the fundamental action of the matrix
    units, V* slots the negated transpose.  The diagonal units act diagonally,
    so their joint kernel is the coordinate subspace of multi-indices whose V
    and V* slots carry every symbol equally often.  On that subspace the
    off-diagonal units are stacked into a single positive semidefinite integer
    matrix; x is annihilated by all of them iff x^T M x = 0 iff M x = 0, so
    the answer is the nullity of M, computed exactly.
    """
    n = ambient.n
    length = len(word)
    if n**length > cap:
        raise RealizationTooLarge(
            f"the invariant computation scans {n**length} multi-indices (cap {cap})"
        )
    letters = word.letters
    balanced_idx = []
    for idx in itertools.product(range(n), repeat=length):
        counts = [0] * n
        for letter, v in zip(letters, idx):
            counts[v] += 1 if letter is Letter.PLAIN else -1
        if not any(counts):
            balanced_idx.append(idx)
    if not balanced_idx:
        return 0
    m = len(balanced_idx)
    psd = [[0] * m for _ in range(m)]
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            # sparse columns of the unit E_ab acting slot by slot, indexed by
            # output multi-index in the full coordinate space
            columns: dict[tuple[int, ...], dict[int, int]] = {}
            for j, idx in enumerate(balanced_idx):
                for s, (letter, v) in enumerate(zip(letters, idx)):
                    if letter is Letter.PLAIN and v == b:
                        out = idx[:s] + (a,) + idx[s + 1:]
                        coeff = 1
                    elif letter is Letter.STAR and v == a:
                        out = idx[:s] + (b,) + idx[s + 1:]
                        coeff = -1
                    else:
                        continue
                    col = columns.setdefault(out, {})
                    col[j] = col.get(j, 0) + coeff
            for col in columns.values():
                items = list(col.items())
                for j1, c1 in items:
                    row = psd[j1]
                    for j2, c2 in items:
                        row[j2] += c1 * c2
    return m - ExactMatrix(psd, cols=m).rank()


def nc_rank(word: Word, ambient: AmbientSpec) -> int:
    """Rank of the Gram matrix of the word's non-crossing pairing functionals."""
    ncs = enumerate_noncrossing(word)
    return gram_matrix(ncs, word, ambient).rank()


def fullness_system(word: Word, ambient: AmbientSpec, quotient: QuotientSpec):
    """Constraint system for joint coinvariance of a balanced word.

    Returns (pairings, nc_indices, gram, constraints):

    pairings     all pairings of the word, in enumeration order
    nc_indices   positions of the non-crossing ones inside that list
    gram         ambient Gram matrix of all pairings
    constraints  integer matrix whose right kernel, in pairing coordinates, is
                 exactly the space of functionals whose restriction to every
                 colored summand lies in that summand's block-respecting
                 non-crossing span

    Span membership is linearized through Gram matrices: a functional lies in
    the span of a subset iff its inner-product vector against the summand's
    pairings lies in the column space of the corresponding Gram columns, iff
    the cokernel of those columns annihilates it.  This is exact because the
    inner product comes from genuine real vectors, hence is positive
    semidefinite on the span.  Colorings without a block-respecting pairing
    constrain nothing, so only block-balanced ones are scanned.
    """
    if ambient.n != quotient.n:
        raise ValueError(
            f"quotient blocks sum to {quotient.n}, ambient size is {ambient.n}"
        )
    pairings = enumerate_pairings(word)
    nc_set = set(enumerate_noncrossing(word))
    nc_indices = [i for i, p in enumerate(pairings) if p in nc_set]
    nc_index_set = set(nc_indices)
    gram = gram_matrix(pairings, word, ambient)
    constraint_rows = []
    for coloring in block_balanced_colorings(word):
        sel = [i for i, p in enumerate(pairings) if is_block_respecting(p, coloring)]
        colored = [pairings[i] for i in sel]
        colored_gram = gram_matrix_colored(colored, word, coloring, quotient)
        nc_local = [k for k, i in enumerate(sel) if i in nc_index_set]
        cokernel = colored_gram.column_submatrix(nc_local).left_nullspace_basis()
        if not cokernel:
            continue
        reduced = ExactMatrix(cokernel, cols=len(sel)) @ colored_gram
        for row in reduced.row_list():
            if not any(row):
                continue
            full_row = [0] * len(pairings)
            for k, i in enumerate(sel):
                full_row[i] = row[k]
            constraint_rows.append(full_row)
    constraints = ExactMatrix(constraint_rows, cols=len(pairings))
    return pairings, nc_indices, gram, constraints


def in_noncrossing_span(gram: ExactMatrix, nc_indices, coeffs) -> bool:
    """Does the functional with these pairing coefficients (ints or Fractions)
    lie in the span of the non-crossing ones?  Decided exactly through the
    Gram matrix."""
    image = gram.matvec(coeffs)
    ok, _ = gram.column_submatrix(nc_indices).in_column_space(image)
    return ok


def _first_outside_span(block: ExactMatrix, vectors) -> int | None:
    """Index of the first vector outside the column space of block, or None.

    One elimination of [block | vectors] decides it: a vector whose column
    takes a pivot lies outside the span of the block and the vectors before
    it, while every earlier vector, taking none, lies in the block's span.
    """
    augmented = ExactMatrix(
        [list(row) + [v[i] for v in vectors] for i, row in enumerate(block.row_list())],
        cols=block.cols + len(vectors),
    )
    pivots = augmented.pivot_columns()
    return next((c - block.cols for c in pivots if c >= block.cols), None)


def joint_fullness(
    word: Word, ambient: AmbientSpec, quotient: QuotientSpec
) -> FullnessVerdict:
    """Decide whether every functional coinvariant for all colored summands of
    the block quotient already lies in the global non-crossing span.

    The jointly coinvariant coefficient space is the right kernel of the
    constraint system from fullness_system; the verdict holds when the Gram
    image of each kernel basis vector lies in the column space of the
    non-crossing Gram columns, which one elimination of the non-crossing
    columns next to all images decides.  A failing verdict carries the first
    violating basis vector as a witness, re-checked from scratch before
    returning.
    """
    if not word.balanced:
        raise ValueError("joint fullness is a question about balanced words only")
    pairings, nc_indices, gram, constraints = fullness_system(word, ambient, quotient)
    solution = constraints.nullspace_basis()
    images = [gram.matvec(a) for a in solution]
    first = _first_outside_span(gram.column_submatrix(nc_indices), images)
    if first is None:
        return FullnessVerdict(True, len(solution), None)
    witness = tuple(solution[first])
    if not verify_witness(word, ambient, quotient, witness):
        raise VerificationError("witness fails re-verification")
    return FullnessVerdict(False, len(solution), witness)


def verify_witness(
    word: Word, ambient: AmbientSpec, quotient: QuotientSpec, coeffs
) -> bool:
    """Re-check a claimed violation from scratch.

    True iff the coefficients satisfy every colored summand constraint yet
    the functional falls outside the global non-crossing span.  The
    coefficients may be ints or Fractions, such as a witness read back from
    its JSON strings.
    """
    pairings, nc_indices, gram, constraints = fullness_system(word, ambient, quotient)
    coeffs = list(coeffs)
    if len(coeffs) != len(pairings):
        raise ValueError("coefficient vector length does not match the pairing count")
    if any(constraints.matvec(coeffs)):
        return False
    return not in_noncrossing_span(gram, nc_indices, coeffs)


def verdict_json(
    word: Word, ambient: AmbientSpec, quotient: QuotientSpec, verdict: FullnessVerdict
) -> dict:
    """JSON form of a verdict; witness coefficients serialize as exact strings."""
    return {
        "word": str(word),
        "n": ambient.n,
        "quotient": [quotient.d_w, quotient.d_u],
        "holds": verdict.holds,
        "solution_dim": verdict.solution_space_dim,
        "witness": None
        if verdict.witness is None
        else [str(x) for x in verdict.witness],
    }

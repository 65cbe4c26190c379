"""Coinvariant functionals of colored words: Gram matrices, exact ranks and
the joint-fullness decision.

A pairing p of a word defines a functional T_p on the word's tensor space by
a product of Kronecker deltas along the arcs.  Inner products of these
functionals count closed loops: <T_p, T_q> equals n to the number of loops of
p overlaid with q, and in the colored refinement each loop contributes the
size of the block it stays in.  One routine builds every Gram matrix: it
codes the slot permutation of every pair as an integer, by one BLAS matmul
per block of rows, and walks each permutation for its loops once per call;
ambient and colored matrices differ only in how they weigh those loops, so
fullness_system weighs one walk of all pairs for the ambient matrix and
every coloring.  Every Gram entry is a product of powers of n, d_w and d_u,
so all span and rank questions are settled by integer elimination.  The
specs take only int sizes, so the entries are ints by construction and the
matrices enter linalg through ExactMatrix._of_int_rows, without its scan.

Span membership has one rule, _cokernel_rows: the rows G @ y, y over the
cokernel of some Gram columns, annihilate exactly the span of those columns.
fullness_system reads them as each colored subproblem's constraint rows,
joint_fullness as the membership test of the constraint kernel;
verify_witness re-checks a witness by another route, in_column_space.

Two independent routes to the same geometry are kept side by side on purpose:
loop counting produces Gram entries combinatorially, while realize_functional
writes T_p out as a dense 0/1 vector so that small cases can be cross-checked
by literal dot products.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from operator import mul

import numpy as np

from .linalg import ExactMatrix, VerificationError
from .words import (
    Pairing,
    enumerate_noncrossing,
    enumerate_pairings,
    is_block_respecting,
    parse_word,
    require_ints,
)

DEFAULT_REALIZATION_CAP = 10**7


class RealizationTooLarge(ValueError):
    """Dense realization would exceed the entry cap; use the loop-count Gram route."""


@dataclass(frozen=True)
class AmbientSpec:
    """Ambient size n of the fundamental comodule V, a plain int, so that
    every Gram entry n^loops is an int."""

    n: int

    def __post_init__(self):
        require_ints(n=self.n)
        if self.n < 1:
            raise ValueError("ambient size must be >= 1")


@dataclass(frozen=True)
class QuotientSpec:
    """Block sizes of a splitting V = W + U: plain ints, so that every
    colored Gram entry d_w^a * d_u^b is an int; both blocks must be nonempty."""

    d_w: int
    d_u: int

    def __post_init__(self):
        require_ints(d_w=self.d_w, d_u=self.d_u)
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


_BLOCK_ENTRIES = 1 << 15  # Gram entries per matmul in _loop_gram


def _loop_gram(pairings, word: str, weight) -> list[tuple]:
    """Rows, as tuples, of the symmetric matrix of weight(mask) over all
    pairs of pairings, ambient or colored by the choice of weight; mask has
    one bit per loop of the overlay of p_i and p_j, at the 0-based position
    of the loop's least V slot.  With V* slot t joined to V slot back[t],
    the loops follow the cycles of sigma = back_q o back_p^-1 on the k V
    slots, coded as sum_s sigma(s) k^s = sum_t k^back_p[t] back_q[t], so the
    matmul (k ** B) @ B.T codes every pair, in float64 cast to int64 below
    k^k = 2^53, as every partial sum is an exact int, and in object arrays of
    Python ints above.  With no more codes than entries, a table of all k^k
    codes gets the walks of the k! slot permutations before the first block;
    otherwise a dict across blocks holds the walk of each code np.unique finds."""
    plain = [i for i, letter in enumerate(word, start=1) if letter == "u"]
    star = [i for i, letter in enumerate(word, start=1) if letter == "U"]
    # V slot s as s and V* slot t as ~t < 0; every arc joins one of each
    slot = {pos: s for s, pos in enumerate(plain)}
    slot.update((pos, ~t) for t, pos in enumerate(star))
    back = []
    for p in pairings:
        row = [0] * len(star)
        if 2 * len(p.arcs) != len(word):
            raise ValueError(f"{p} is not a color-respecting pairing of {word}")
        for a, b in p.arcs:
            s, t = slot[a], slot[b]
            if s < 0 <= t:
                row[~s] = t
            elif t < 0 <= s:
                row[~t] = s
            else:
                raise ValueError(f"{p} is not a color-respecting pairing of {word}")
        back.append(row)
    m, k = len(back), len(plain)
    if not m:
        return []
    bits = [1 << pos - 1 for pos in plain]

    def walk(sigma: list):  # weight of the loops of sigma; consumes sigma
        mask = 0
        for start, bit in enumerate(bits):
            if sigma[start] >= 0:  # a new loop; -1 marks walked slots
                mask |= bit
                s = start
                while sigma[s] >= 0:
                    sigma[s], s = -1, sigma[s]
        return weight(mask)

    size = k**k
    # every partial sum of a code is an int below size
    dtype, cast = (np.float64, np.int64) if size < 1 << 53 else (object, object)
    b = np.array(back, dtype=np.intp)
    place = [k**s for s in range(k)]
    powers, bt = np.array(place, dtype=dtype)[b], b.T.astype(dtype)
    step = max(1, _BLOCK_ENTRIES // m)
    dense = size <= m * m
    if dense:  # every code is the code of one of the k! slot permutations
        table = np.empty(size, dtype=object)
        for sigma in itertools.permutations(range(k)):
            table[sum(map(mul, sigma, place))] = walk(list(sigma))
    weights = {}  # code -> weight, across row blocks
    rows = []
    for lo in range(0, m, step):
        codes = (powers[lo:lo + step] @ bt).astype(cast, copy=False)
        if not dense:
            distinct, ids = np.unique(codes, return_inverse=True)
            codes = ids.reshape(codes.shape)  # numpy 1.x returns it flat
            table = np.array(list(map(weights.get, distinct.tolist())), dtype=object)
            new = np.equal(table, None)  # codes new to this call
            sigmas = (distinct[new][:, None] // np.array(place, dtype=cast) % k).tolist()
            table[new] = walked = list(map(walk, sigmas))
            weights.update(zip(distinct[new].tolist(), walked))
        rows += map(tuple, table[codes].tolist())
    return rows


def _colored_weight(wmask: int, quotient: QuotientSpec):
    """Loop weight d_w or d_u by block, for the coloring whose W slots are the
    bits of wmask (bit pos - 1).  Exact for block-respecting pairings: each of
    their loops stays in one block, the block of its least V slot."""
    d_w, d_u = quotient.d_w, quotient.d_u
    return lambda mask: d_w ** (mask & wmask).bit_count() * d_u ** (mask & ~wmask).bit_count()


def gram_matrix(pairings, word: str, ambient: AmbientSpec) -> ExactMatrix:
    """Gram matrix of pairing functionals: entry (i, j) is n^loops(p_i, p_j)."""
    n = ambient.n
    rows = _loop_gram(pairings, parse_word(word), lambda mask: n ** mask.bit_count())
    return ExactMatrix._of_int_rows(rows, len(rows))


def gram_matrix_colored(
    pairings, word: str, coloring: str, quotient: QuotientSpec
) -> ExactMatrix:
    """Colored Gram matrix: every loop contributes the size of its block.

    All pairings must respect the coloring, a string over 'W'/'U' with one
    letter per slot of the word; entry (i, j) is d_w^(W loops) * d_u^(U loops)
    of the overlay of p_i and p_j.
    """
    if len(coloring) != len(parse_word(word)) or not set(coloring) <= {"W", "U"}:
        raise ValueError(f"{coloring!r} is not a W/U coloring of {word}")
    for p in pairings:
        if not is_block_respecting(p, coloring):
            raise ValueError(f"{p} does not respect the coloring {coloring}")
    wmask = sum(1 << i for i, block in enumerate(coloring) if block == "W")
    rows = _loop_gram(pairings, word, _colored_weight(wmask, quotient))
    return ExactMatrix._of_int_rows(rows, len(rows))


def realize_functional(p: Pairing, word: str, ambient: AmbientSpec) -> np.ndarray:
    """Dense 0/1 vector of the functional T_p in the n^len(word) coordinate space.

    Coordinates are multi-indices in row-major order (first slot varies
    slowest); the entry is 1 exactly when both ends of every arc carry equal
    values.  Dot products of these vectors reproduce the loop-count Gram
    entries, which is what the exact tests exploit.
    """
    n = ambient.n
    length = len(parse_word(word))
    size = n**length
    if size > DEFAULT_REALIZATION_CAP:
        raise RealizationTooLarge(
            f"dense realization needs {size} entries (cap {DEFAULT_REALIZATION_CAP}); "
            "use the loop-count Gram route instead"
        )
    if not p.is_pairing_of(word):
        raise ValueError(f"{p} is not a color-respecting pairing of {word}")
    vec = np.zeros(size, dtype=np.int64)
    strides = [n ** (length - s - 1) for s in range(length)]
    for values in itertools.product(range(n), repeat=len(p.arcs)):
        flat = 0
        for (a, b), v in zip(p.arcs, values):
            flat += (strides[a - 1] + strides[b - 1]) * v
        vec[flat] = 1
    return vec


def invariant_dimension_oracle(word: str, ambient: AmbientSpec) -> int:
    """Dimension of the unitary-group invariants in the word's tensor space.

    Computed straight from the Lie algebra action, independently of any
    pairing combinatorics: V slots carry the fundamental action of the matrix
    units, V* slots the negated transpose.  The diagonal units act diagonally,
    so their joint kernel is the coordinate subspace of multi-indices whose V
    and V* slots carry every symbol equally often.  On that subspace the
    raising units E_ab, a < b, are stacked into one integer matrix A, one row
    per unit and output multi-index, and the answer is the nullity of A: a
    weight-zero vector that they all kill is a highest-weight vector of
    weight 0, so it lies in the trivial isotypic part, as rational
    gl_n-modules are completely reducible.
    """
    n = ambient.n
    length = len(parse_word(word))
    if n**length > DEFAULT_REALIZATION_CAP:
        raise RealizationTooLarge(
            f"the invariant computation scans {n**length} multi-indices "
            f"(cap {DEFAULT_REALIZATION_CAP})"
        )
    balanced_idx = []
    for idx in itertools.product(range(n), repeat=length):
        counts = [0] * n
        for letter, v in zip(word, idx):
            counts[v] += 1 if letter == "u" else -1
        if not any(counts):
            balanced_idx.append(idx)
    m = len(balanced_idx)
    rows = []
    for a, b in itertools.combinations(range(n), 2):
        # rows of the unit E_ab acting slot by slot, one per output
        # multi-index in the full coordinate space
        unit_rows = defaultdict(lambda: [0] * m)
        for j, idx in enumerate(balanced_idx):
            for s, (letter, v) in enumerate(zip(word, idx)):
                if letter == "u" and v == b:
                    out = idx[:s] + (a,) + idx[s + 1:]
                    coeff = 1
                elif letter == "U" and v == a:
                    out = idx[:s] + (b,) + idx[s + 1:]
                    coeff = -1
                else:
                    continue
                unit_rows[out][j] += coeff
        rows += unit_rows.values()
    return len(ExactMatrix._of_int_rows(rows, m).nullspace_basis())


def nc_rank(word: str, ambient: AmbientSpec) -> int:
    """Rank of the Gram matrix of the word's non-crossing pairing functionals."""
    ncs = enumerate_noncrossing(word)
    return gram_matrix(ncs, word, ambient).rank()


def _cokernel_rows(gram_rows, inside) -> list[list[int]]:
    """The nonzero rows G @ y, y over the cokernel basis of the columns
    `inside` of the symmetric matrix G with these rows.  As y @ G == G @ y,
    that cokernel is the kernel of the rows `inside`, and G @ y sums the
    rows of G at y's nonzeros, its pivot columns and its free column."""
    rows = [gram_rows[k] for k in inside]
    products = []
    for y in ExactMatrix._of_int_rows(rows, len(gram_rows)).nullspace_basis():
        product = [0] * len(gram_rows)
        for v, row in zip(y, gram_rows):
            if v:
                product = [p + v * x for p, x in zip(product, row)]
        if any(product):
            products.append(product)
    return products


def fullness_system(word: str, quotient: QuotientSpec):
    """Constraint system for joint coinvariance of a balanced word.

    Returns (pairings, nc_indices, gram, constraints):

    pairings     all pairings of the word, in enumeration order
    nc_indices   positions of the non-crossing ones inside that list
    gram         ambient Gram matrix of all pairings
    constraints  integer matrix whose right kernel, in pairing coordinates, is
                 exactly the space of functionals whose restriction to every
                 colored summand lies in that summand's block-respecting
                 non-crossing span; its rows are nonzero and pairwise distinct

    The rows are the _cokernel_rows of each colored Gram matrix G_c and its
    non-crossing columns, scattered to pairing coordinates, so they vanish at
    nc_indices; Gram matrices decide span membership exactly, as the inner
    product comes from genuine real vectors.  Colorings without a
    block-respecting pairing constrain nothing, so only block-balanced ones
    are visited, and each distinct colored subproblem (G_c and its
    non-crossing positions) is solved once per call.  Only the kernel of the
    constraints is read, so the order of their rows is free.
    """
    pairings = enumerate_pairings(word)
    nc_set = set(enumerate_noncrossing(word))
    nc_indices = [i for i, p in enumerate(pairings) if p in nc_set]
    nc_index_set = set(nc_indices)
    # the loops of every pair, walked once and reused by every coloring
    masks = _loop_gram(pairings, word, lambda mask: mask)
    n = quotient.n
    gram = ExactMatrix._of_int_rows(
        [[n ** m.bit_count() for m in row] for row in masks], len(pairings)
    )
    # a pairing respects exactly the colorings whose W slots (bit pos - 1) are
    # a union of its arcs
    selections: dict[int, list[int]] = {}
    for i, p in enumerate(pairings):
        unions = [0]
        for a, b in p.arcs:
            unions += [u | 1 << a - 1 | 1 << b - 1 for u in unions]
        for wmask in unions:
            selections.setdefault(wmask, []).append(i)
    loop_masks = set(itertools.chain.from_iterable(masks))
    solved = {}  # (colored rows, nc_local) -> their _cokernel_rows
    constraint_rows = {}  # each distinct row once
    for wmask, sel in selections.items():
        weight = dict(zip(loop_masks, map(_colored_weight(wmask, quotient), loop_masks)))
        colored = tuple(tuple([weight[masks[a][b]] for b in sel]) for a in sel)
        key = colored, tuple(k for k, i in enumerate(sel) if i in nc_index_set)
        if key not in solved:
            solved[key] = _cokernel_rows(*key)
        for values in solved[key]:
            full_row = [0] * len(pairings)
            for i, value in zip(sel, values):
                full_row[i] = value
            constraint_rows.setdefault(tuple(full_row))
    constraints = ExactMatrix._of_int_rows(constraint_rows, len(pairings))
    return pairings, nc_indices, gram, constraints


def in_noncrossing_span(gram: ExactMatrix, nc_indices, coeffs) -> bool:
    """Does the functional with these int pairing coefficients lie in the
    span of the non-crossing ones?  Decided exactly through the Gram matrix."""
    return gram.column_submatrix(nc_indices).in_column_space(gram.matvec(coeffs))[0]


def joint_fullness(word: str, quotient: QuotientSpec) -> FullnessVerdict:
    """Decide whether every functional coinvariant for all colored summands of
    the block quotient already lies in the global non-crossing span.

    The jointly coinvariant coefficient space is the right kernel of the
    constraint system from fullness_system; the verdict holds when the
    _cokernel_rows of the ambient Gram matrix and its non-crossing columns
    annihilate each kernel basis vector.  A failing verdict carries the first
    basis vector that one of them does not as its witness, re-checked from
    scratch by an in_column_space certificate before returning.  The kernel
    always contains span(e_NC) + ker G, as each G_c is positive semidefinite
    with G the sum of the scattered G_c, so the verdict holds iff
    solution_dim equals that subspace's dimension m - rank G + rank G[:, NC]
    (m pairings, NC the non-crossing ones).
    """
    if 2 * parse_word(word).count("u") != len(word):
        raise ValueError("joint fullness is a question about balanced words only")
    pairings, nc_indices, gram, constraints = fullness_system(word, quotient)
    solution = constraints.nullspace_basis()
    outside = _cokernel_rows(gram.row_list(), nc_indices)
    for a in solution:
        support = [(j, v) for j, v in enumerate(a) if v]
        if any(sum([row[j] * v for j, v in support]) for row in outside):
            witness = tuple(a)
            if not verify_witness(word, quotient, witness):
                raise VerificationError("witness fails re-verification")
            return FullnessVerdict(False, len(solution), witness)
    return FullnessVerdict(True, len(solution), None)


def verify_witness(word: str, quotient: QuotientSpec, coeffs) -> bool:
    """Re-check a claimed violation from scratch.

    True iff the coefficients satisfy every colored summand constraint yet
    the functional falls outside the global non-crossing span.  The
    coefficients are ints; a witness read back from its JSON strings is
    [int(s) for s in witness].
    """
    pairings, nc_indices, gram, constraints = fullness_system(word, quotient)
    coeffs = list(coeffs)
    if len(coeffs) != len(pairings):
        raise ValueError("coefficient vector length does not match the pairing count")
    if any(constraints.matvec(coeffs)):
        return False
    return not in_noncrossing_span(gram, nc_indices, coeffs)


def verdict_json(word: str, quotient: QuotientSpec, verdict: FullnessVerdict) -> dict:
    """JSON form of a verdict; witness coefficients serialize as exact strings."""
    return {
        "word": parse_word(word),
        "n": quotient.n,
        "quotient": [quotient.d_w, quotient.d_u],
        "holds": verdict.holds,
        "solution_dim": verdict.solution_space_dim,
        "witness": None
        if verdict.witness is None
        else [str(x) for x in verdict.witness],
    }

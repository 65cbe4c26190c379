"""Finite-dimensional matrix models and noncommutative polynomial evaluation.

Polynomials in the generators u_ij (family 'A') or v_ij (the self-adjoint
family 'B') are evaluated against concrete matrix representations, and random
draws of such representations separate a nonzero polynomial from zero
numerically.  This module is deliberately floating point: exactness lives in
the combinatorial layers, here defining relations are checked up to explicit
operator-norm tolerances.  Every operator norm comes from one stacked SVD per
stack of matrices, which a pass-or-fail check skips when the stack's
Frobenius norm, an upper bound, is at most half the tolerance.  Same-size
Haar draws share one Gaussian block and one stacked QR, bit for bit the
matrices of one-at-a-time draws.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .words import require_ints

_UNITARY_INPUT_TOL = 1e-12
_RELATION_TOL = 1e-10  # check_relations' default, and the lift's one tolerance

# the lexical layer of the polynomial grammar: one token after optional
# whitespace; no match at a non-space character is a lexical error
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<sign>[+-])|(?P<gen>[uv]\d\d'?)|(?P<imag>i)"
    r"|(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?))"
)


class PolyParseError(ValueError):
    """Syntax or index error in a polynomial string; position is 1-based."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (position {position})")


class Gen(NamedTuple):
    """One generator occurrence in a monomial; indices are 1-based."""

    row: int
    col: int
    adjoint: bool


@dataclass(frozen=True)
class NCPoly:
    """Noncommutative polynomial in the n^2 generators of one family.

    family 'A' writes its generators u_ij, family 'B' writes v_ij and their
    images are additionally self-adjoint.  Terms keep the order written; the
    zero polynomial has no terms or only zero coefficients.
    """

    family: str
    n: int
    terms: tuple[tuple[complex, tuple[Gen, ...]], ...]

    def __post_init__(self):
        if self.family not in ("A", "B"):
            raise ValueError(f"family must be 'A' or 'B', got {self.family!r}")
        require_ints(n=self.n)
        if self.n < 1:
            raise ValueError("n must be >= 1")


def parse_poly(text: str, n: int, family: str) -> NCPoly:
    """Parse a polynomial in the generators of one family.

    Grammar: terms joined by '+'/'-', each term an optional product of
    numeric factors and the imaginary unit 'i' followed by juxtaposed
    generators like u12 or v21', where the apostrophe marks the adjoint.
    Indices are single digits, so this covers n <= 9.  Coefficient factors
    must precede all generators in a term, and their product must stay
    finite.  The whole string is scanned before it is parsed, so an
    unexpected character or a malformed generator is reported ahead of any
    syntax error.
    """
    if family not in ("A", "B"):
        raise ValueError(f"family must be 'A' or 'B', got {family!r}")
    require_ints(n=n)
    if not 1 <= n <= 9:
        raise ValueError(f"n must be between 1 and 9, got {n}")
    letter = "u" if family == "A" else "v"
    tokens = []
    pos = 0
    while match := _TOKEN_RE.match(text, pos):
        kind = match.lastgroup
        tokens.append((kind, match.group(kind), match.start(kind) + 1))
        pos = match.end()
    rest = text[pos:].lstrip()
    if rest:
        at = len(text) - len(rest) + 1
        if rest[0] in "uv":
            raise PolyParseError(
                f"malformed generator: expected {rest[0]!r} followed by two digit indices",
                at,
            )
        raise PolyParseError(f"unexpected character {rest[0]!r}", at)
    if not tokens:
        raise PolyParseError("empty polynomial", 1)
    coeffs: list[complex] = []
    monomials: list[list[Gen]] = []
    for index, (kind, value, pos) in enumerate(tokens):
        # a sign opens a term, and so does a first token that is not a sign
        if kind == "sign":
            if index + 1 == len(tokens) or tokens[index + 1][0] == "sign":
                raise PolyParseError("term has no factors", pos)
            coeffs.append(complex(-1.0 if value == "-" else 1.0))
            monomials.append([])
            continue
        if index == 0:
            coeffs.append(complex(1.0))
            monomials.append([])
        gens = monomials[-1]
        if kind == "gen":
            if value[0] != letter:
                raise PolyParseError(
                    f"generator {value[0]!r} does not belong to family {family}"
                    f" (expected {letter!r})",
                    pos,
                )
            row, col = int(value[1]), int(value[2])
            if not (1 <= row <= n and 1 <= col <= n):
                raise PolyParseError(
                    f"index out of range in {value!r}: indices must lie in 1..{n}", pos
                )
            gens.append(Gen(row, col, value.endswith("'")))
        elif gens:
            factor = "numeric factor" if kind == "num" else "imaginary unit"
            raise PolyParseError(
                f"{factor} after a generator; coefficients come first", pos
            )
        elif kind == "num":
            coeffs[-1] *= float(value)
            if not cmath.isfinite(coeffs[-1]):
                raise PolyParseError(
                    f"coefficient is not finite after the factor {value!r}", pos
                )
        else:
            coeffs[-1] *= 1j
    return NCPoly(family, n, tuple(zip(coeffs, map(tuple, monomials))))


def _complex_array(mat, wanted: str) -> np.ndarray:
    """mat as a complex array; ragged or non-numeric input fails with wanted."""
    try:
        return np.asarray(mat, dtype=complex)
    except ValueError as exc:  # nested sequences of unequal lengths, or bad strings
        raise ValueError(wanted.format("ragged or non-numeric entries")) from exc


@dataclass(frozen=True)
class MatrixRep:
    """Images of one generator family as d x d blocks.

    images[i, j] is the block representing the (i+1, j+1) generator, and the
    sizes n and d are read off the shape (n, n, d, d) of images.  The
    n*d x n*d matrix assembled from the blocks must be unitary along with its
    entrywise adjoint; family 'B' blocks must additionally be self-adjoint.
    The constructor checks the family and that the shape is (n, n, d, d)
    with n, d >= 1; the relations are checked by check_relations.
    """

    family: str
    images: np.ndarray

    def __post_init__(self):
        if self.family not in ("A", "B"):
            raise ValueError(f"family must be 'A' or 'B', got {self.family!r}")
        wanted = "images must have shape (n, n, d, d) with n, d >= 1, got {}"
        images = _complex_array(self.images, wanted)
        object.__setattr__(self, "images", images)
        if images.ndim != 4 or images.shape != (self.n, self.n, self.d, self.d) or not images.size:
            raise ValueError(wanted.format(images.shape))

    @property
    def n(self) -> int:
        return self.images.shape[0]

    @property
    def d(self) -> int:
        return self.images.shape[2]

    def big_matrix(self, entrywise_adjoint: bool = False) -> np.ndarray:
        """The n*d x n*d block matrix; with entrywise_adjoint, each block is
        replaced by its own adjoint first."""
        imgs = self.images
        if entrywise_adjoint:
            imgs = np.transpose(imgs.conj(), (0, 1, 3, 2))
        size = self.n * self.d
        return np.transpose(imgs, (0, 2, 1, 3)).reshape(size, size)

    def to_json(self) -> dict:
        """JSON form; complex entries serialize as [re, im] pairs."""
        return {
            "family": self.family,
            "n": self.n,
            "d": self.d,
            "images": np.stack((self.images.real, self.images.imag), axis=-1).tolist(),
        }


def _largest_singular_values(stack: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in a stack, from one SVD call;
    NaN for a matrix with an inf or NaN entry, which the SVD cannot take."""
    finite = np.isfinite(stack).all(axis=(-2, -1))
    norms = np.full(finite.shape, np.nan)
    if finite.any():
        norms[finite] = np.linalg.svd(stack[finite], compute_uv=False).max(axis=-1)
    return norms


def operator_norm(mat) -> float:
    """Largest singular value; NaN for a matrix with an inf or NaN entry."""
    mat = np.asarray(mat, dtype=complex)
    if mat.size == 0:
        return 0.0
    return float(_largest_singular_values(mat))


@dataclass(frozen=True)
class RelationReport:
    """Operator-norm residuals of the defining relations at one representation.

    residuals holds, in order, |u*u - 1|, |uu* - 1|, |ubar*ubar - 1|,
    |ubar ubar* - 1| for the big matrix u and its entrywise adjoint ubar.
    A residual of a matrix with an inf or NaN entry is NaN, and then so is
    max_residual, and the check fails.
    """

    residuals: tuple[float, float, float, float]
    selfadjoint_residual: float | None
    tol: float

    @property
    def max_residual(self) -> float:
        extra = () if self.selfadjoint_residual is None else (self.selfadjoint_residual,)
        return float(np.max(self.residuals + extra))

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tol


def _relation_gaps(rep: MatrixRep) -> list[np.ndarray]:
    """Stacks of the matrices whose operator norms the relations bound: the
    four unitarity gaps, then for family 'B' the skew parts of the blocks.
    An inf entry gives NaN gaps, which fail every check, so numpy need not warn."""
    bigs = (rep.big_matrix(), rep.big_matrix(entrywise_adjoint=True))
    with np.errstate(invalid="ignore"):
        products = [x for big in bigs for x in (big.conj().T @ big, big @ big.conj().T)]
        stacks = [np.stack(products) - np.eye(rep.n * rep.d)]
        if rep.family == "B":
            stacks.append(rep.images - np.swapaxes(rep.images.conj(), -1, -2))
    return stacks


def check_relations(rep: MatrixRep, tol: float = _RELATION_TOL) -> RelationReport:
    """Residuals of unitarity for the big matrix and its entrywise adjoint,
    plus block self-adjointness for family 'B'."""
    gaps, *skew = _relation_gaps(rep)
    selfadjoint = float(_largest_singular_values(skew[0]).max()) if skew else None
    return RelationReport(tuple(_largest_singular_values(gaps).tolist()), selfadjoint, tol)


def _unsettled_norms(stack: np.ndarray, tol: float) -> list[float]:
    """Operator norms of the matrices in a stack, or of one matrix, by one
    SVD call, unless the stack's Frobenius norm, which bounds them all, is at
    most tol/2: then none.  NaN stands for a matrix with an inf or NaN entry."""
    # below 1e-150 the squares that make up a Frobenius norm may underflow
    if tol >= 1e-150 and np.vdot(stack, stack).real <= tol * tol / 4:
        return []
    return _largest_singular_values(stack.reshape(-1, *stack.shape[-2:])).tolist()


def _require_relations(rep: MatrixRep, what: str) -> None:
    """Raise unless check_relations(rep) passes, quoting its worst residual."""
    norms = [x for s in _relation_gaps(rep) for x in _unsettled_norms(s, _RELATION_TOL)]
    worst = float(np.max(norms, initial=0.0))
    if not worst <= _RELATION_TOL:
        raise ValueError(
            f"{what} fails family {rep.family!r} relations: worst residual {worst:.3e}"
        )


def _require_unitary(mat, what: str, ndim: int = 2) -> np.ndarray:
    """mat as a complex unitary matrix, or with ndim = 3 a stack of them;
    what.format("stack") names a stack and what.format(k) its matrix k."""
    shape = "(n, n)" if ndim == 2 else "(m, n, n)"
    wanted = what.format("stack") + f" must have shape {shape}, got {{}}"
    mat = _complex_array(mat, wanted)
    if mat.ndim != ndim or mat.shape[-1] != mat.shape[-2]:
        raise ValueError(wanted.format(mat.shape))
    with np.errstate(invalid="ignore"):  # an inf entry gives a NaN gap, which fails
        gap = np.swapaxes(mat.conj(), -1, -2) @ mat - np.eye(mat.shape[-1])
    for k, residual in enumerate(_unsettled_norms(gap, _UNITARY_INPUT_TOL)):
        if not residual <= _UNITARY_INPUT_TOL:
            raise ValueError(
                f"{what.format(k)} is not unitary: residual {residual:.3e}"
                f" exceeds {_UNITARY_INPUT_TOL}"
            )
    return mat


def point_rep(w) -> MatrixRep:
    """One-dimensional model sending each generator to the matching scalar
    entry of a fixed unitary matrix."""
    w = _require_unitary(w, "point matrix")
    return MatrixRep("A", w[:, :, None, None])


def orthogonal_point_rep(o) -> MatrixRep:
    """One-dimensional self-adjoint model from a real orthogonal matrix."""
    o = _require_unitary(o, "orthogonal point matrix")
    if np.abs(o.imag).max(initial=0.0) > 0:
        raise ValueError("orthogonal point matrix must be real")
    return MatrixRep("B", o.real[:, :, None, None])


def free_product_rep(unitary, points) -> MatrixRep:
    """Model u_ij -> T . D_ij with D_ij diagonal over a family of point matrices.

    points is a list or stack of m unitaries, all of the model's size n; T
    has size d, a multiple of m; D_ij repeats each point's (i, j) entry on
    a contiguous run of d/m diagonal slots, one point per slot when m = d.
    """
    twist = _require_unitary(unitary, "twisting unitary")
    d = twist.shape[0]
    if not len(points):
        raise ValueError("need at least one point matrix")
    points = _require_unitary(points, "point matrix {}", ndim=3)
    m, n = points.shape[:2]
    if d % m:
        raise ValueError(f"dimension {d} is not a multiple of the {m} point matrices")
    slots = np.arange(d)
    diagonals = np.zeros((n, n, d, d), dtype=complex)
    diagonals[:, :, slots, slots] = np.repeat(np.moveaxis(points, 0, -1), d // m, axis=-1)
    return MatrixRep("A", twist @ diagonals)


def block_rep(first: MatrixRep, second: MatrixRep) -> MatrixRep:
    """Block-diagonal join on the disjoint union of the two index ranges.

    Generators across the two ranges go to zero blocks; both inputs must
    share the family and the block dimension d.
    """
    if first.family != second.family:
        raise ValueError("cannot join representations of different families")
    if first.d != second.d:
        raise ValueError(f"block dimensions differ: {first.d} vs {second.d}")
    n, d = first.n + second.n, first.d
    images = np.zeros((n, n, d, d), dtype=complex)
    images[: first.n, : first.n] = first.images
    images[first.n :, first.n :] = second.images
    return MatrixRep(first.family, images)


def lift_b_to_a(unitary, brep: MatrixRep) -> MatrixRep:
    """Compose a self-adjoint family with one extra unitary: u_ij -> T . v_ij.

    brep must pass the family 'B' relations at check_relations' default
    tolerance.  The block sizes of T and brep must agree, except that either
    side may be scalar (d = 1) and is then broadcast.  The result is checked
    against the family 'A' relations at the same tolerance; failures raise.
    """
    twist = _require_unitary(unitary, "twisting unitary")
    if brep.family != "B":
        raise ValueError("lift needs a family 'B' representation")
    _require_relations(brep, "input")
    dt = twist.shape[0]
    if brep.d == dt:
        images = twist @ brep.images
    elif 1 in (brep.d, dt):
        images = brep.images * twist
    else:
        raise ValueError(f"dimension mismatch: unitary is {dt}, representation is {brep.d}")
    lifted = MatrixRep("A", images)
    _require_relations(lifted, "lifted representation")
    return lifted


def evaluate(poly: NCPoly, rep: MatrixRep) -> np.ndarray:
    """Value of the polynomial at the representation, a d x d complex matrix."""
    if rep.family != poly.family:
        raise ValueError(
            f"polynomial family {poly.family!r} does not match representation"
            f" family {rep.family!r}"
        )
    if rep.n != poly.n:
        raise ValueError(f"polynomial has n={poly.n}, representation has n={rep.n}")
    total = np.zeros((rep.d, rep.d), dtype=complex)
    for coeff, gens in poly.terms:
        acc = np.eye(rep.d, dtype=complex)
        for g in gens:
            mat = rep.images[g.row - 1, g.col - 1]
            if g.adjoint:
                mat = mat.conj().T
            acc = acc @ mat
        total += coeff * acc
    return total


def _haar_unitaries(count: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """count Haar unitaries of size dim, bit for bit those of count successive
    haar_unitary calls: each real Gaussian block precedes its imaginary one."""
    require_ints(dim=dim)
    gauss = rng.standard_normal((count, 2, dim, dim))
    q, r = np.linalg.qr((gauss[:, 0] + 1j * gauss[:, 1]) / np.sqrt(2.0))
    diag = np.diagonal(r, axis1=-2, axis2=-1).copy()
    diag[diag == 0] = 1.0
    return q * (diag / np.abs(diag))[:, None, :]


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Gaussian with phase fixing."""
    return _haar_unitaries(1, dim, rng)[0]


def haar_orthogonal(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed real orthogonal matrix: QR with sign fixing."""
    require_ints(dim=dim)
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    signs = np.sign(np.diagonal(r))
    return q * np.where(signs == 0, 1.0, signs)


@dataclass(frozen=True)
class SeparationStrategy:
    """Recipe for drawing random representations in a separation search.

    kind 'point'        one Haar point model (orthogonal for family 'B')
    kind 'freeproduct'  twisting unitary of size d composed with d Haar points
    kind 'block'        two freeproduct draws on a split of the index range,
                        joined block-diagonally (family 'A', n >= 2)
    kind 'lift'         orthogonal Haar point model composed with one size-d
                        unitary
    """

    kind: str = "freeproduct"
    d: int = 2

    def __post_init__(self):
        if self.kind not in ("point", "freeproduct", "block", "lift"):
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        require_ints(d=self.d)
        if self.d < 1:
            raise ValueError("strategy dimension must be >= 1")

    def draw(self, n: int, family: str, rng: np.random.Generator) -> MatrixRep:
        if family == "B":
            if self.kind != "point":
                raise ValueError("family 'B' draws support only the point strategy")
            return orthogonal_point_rep(haar_orthogonal(n, rng))
        if self.kind == "point":
            return point_rep(haar_unitary(n, rng))
        if self.kind == "freeproduct":
            return self._free_product(n, rng)
        if self.kind == "lift":
            twist = haar_unitary(self.d, rng)
            return lift_b_to_a(twist, orthogonal_point_rep(haar_orthogonal(n, rng)))
        if n < 2:
            raise ValueError("block strategy needs n >= 2")
        first = self._free_product(n // 2, rng)
        return block_rep(first, self._free_product(n - n // 2, rng))

    def _free_product(self, n: int, rng: np.random.Generator) -> MatrixRep:
        twist = haar_unitary(self.d, rng)
        return free_product_rep(twist, _haar_unitaries(self.d, n, rng))


@dataclass(frozen=True)
class SeparationWitness:
    """A representation at which the polynomial is numerically nonzero."""

    trial: int
    norm: float
    rep: MatrixRep


def separate(
    poly: NCPoly,
    strategy: SeparationStrategy = SeparationStrategy(),
    trials: int = 100,
    seed: int = 0,
    tol: float = 1e-6,
) -> SeparationWitness | None:
    """Search for a representation separating the polynomial from zero.

    Trial t draws from its own generator seeded with seed + t, so any single
    trial replays in isolation.  The first trial whose evaluated polynomial
    has operator norm above tol wins; None means every trial stayed at or
    below the tolerance; only a value with Frobenius norm above tol/2 takes
    an SVD.  A trial count or seed that is not an int raises TypeError; a
    negative or non-finite tol, a negative trial count or a negative seed
    raises ValueError, and so does a trial whose value overflows.
    """
    if not math.isfinite(tol) or tol < 0:
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    require_ints(trials=trials, seed=seed)
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    for trial in range(trials):
        rng = np.random.default_rng(seed + trial)
        rep = strategy.draw(poly.n, poly.family, rng)
        norm = max(_unsettled_norms(evaluate(poly, rep), tol), default=0.0)
        if not math.isfinite(norm):
            raise ValueError(f"the polynomial's value at trial {trial} overflows: norm {norm}")
        if norm > tol:
            return SeparationWitness(trial, norm, rep)
    return None

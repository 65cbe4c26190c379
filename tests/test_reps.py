import re

import numpy as np
import pytest

from freeqg import reps
from freeqg.reps import (
    Gen,
    MatrixRep,
    PolyParseError,
    SeparationStrategy,
    block_rep,
    check_relations,
    evaluate,
    free_product_rep,
    haar_orthogonal,
    haar_unitary,
    lift_b_to_a,
    operator_norm,
    orthogonal_point_rep,
    parse_poly,
    point_rep,
    separate,
)


def test_parse_poly_structure():
    poly = parse_poly("2.5 i u11 u21' - u22 + 3", 2, "A")
    assert poly.family == "A" and poly.n == 2
    assert len(poly.terms) == 3
    coeff, gens = poly.terms[0]
    assert coeff == pytest.approx(2.5j)
    assert gens == (Gen(1, 1, False), Gen(2, 1, True))
    assert poly.terms[1] == (-1 + 0j, (Gen(2, 2, False),))
    assert poly.terms[2] == (3 + 0j, ())


def test_parse_poly_b_family_letters():
    poly = parse_poly("v12 v21", 2, "B")
    assert poly.terms[0][1] == (Gen(1, 2, False), Gen(2, 1, False))
    with pytest.raises(PolyParseError):
        parse_poly("u11", 2, "B")
    with pytest.raises(PolyParseError):
        parse_poly("v11", 2, "A")


def test_parse_poly_errors_carry_positions():
    with pytest.raises(PolyParseError) as err:
        parse_poly("u11 ?", 2, "A")
    assert err.value.position == 5
    with pytest.raises(PolyParseError) as err:
        parse_poly("u13", 2, "A")
    assert err.value.position == 1
    with pytest.raises(PolyParseError):
        parse_poly("", 2, "A")
    with pytest.raises(PolyParseError):
        parse_poly("u11 + ", 2, "A")
    with pytest.raises(PolyParseError):
        parse_poly("u11 2 u12", 2, "A")
    with pytest.raises(PolyParseError):
        parse_poly("u1", 2, "A")


def test_point_rep_and_evaluate_constants():
    rep = point_rep(np.eye(2))
    poly = parse_poly("u11 - 1", 2, "A")
    assert operator_norm(evaluate(poly, rep)) == 0.0
    poly = parse_poly("u12", 2, "A")
    assert operator_norm(evaluate(poly, rep)) == 0.0
    report = check_relations(rep)
    assert report.passed and report.selfadjoint_residual is None


def test_point_rep_rejects_non_unitary():
    with pytest.raises(ValueError):
        point_rep(np.eye(2) * 0.5)
    with pytest.raises(ValueError):
        point_rep(np.ones((2, 3)))


# diag(1 + delta) of size k against the 1e-12 input tolerance: the decision
# and the message the SVD route gave before the Frobenius pre-check existed
@pytest.mark.parametrize(
    "k, delta, message",
    [
        (1, 0.495e-12, None),
        (1, 0.499e-12, None),
        (1, 0.501e-12, "point matrix is not unitary: residual 1.002e-12 exceeds 1e-12"),
        (1, 0.505e-12, "point matrix is not unitary: residual 1.010e-12 exceeds 1e-12"),
        (3, 0.495e-12, None),
        (3, 0.499e-12, None),
        (3, 0.501e-12, "point matrix is not unitary: residual 1.002e-12 exceeds 1e-12"),
        (3, 0.505e-12, "point matrix is not unitary: residual 1.010e-12 exceeds 1e-12"),
    ],
)
def test_unitary_input_check_at_tolerance(k, delta, message):
    w = np.diag([1 + delta] * k)
    if message is None:
        assert point_rep(w).n == k
    else:
        with pytest.raises(ValueError) as err:
            point_rep(w)
        assert str(err.value) == message


def test_unitary_input_check_falls_back_to_svd(monkeypatch):
    calls = _count_svds(monkeypatch)
    tol = reps._UNITARY_INPUT_TOL
    # Frobenius residual 6.9e-13 > tol/2, operator norm 4.0e-13 <= tol
    w = np.diag([1 + 0.2e-12] * 3)
    gap = w.T @ w - np.eye(3)
    assert np.linalg.norm(gap) > tol / 2 and np.linalg.norm(gap, 2) <= tol
    assert point_rep(w).n == 3
    assert calls == [(1, 3, 3)]
    # one diagonal slot: the Frobenius residual 4.0e-13 settles it
    point_rep(np.diag([1 + 0.2e-12]))
    point_rep(haar_unitary(4, np.random.default_rng(0)))
    assert len(calls) == 1


def _count_svds(monkeypatch):
    """Record the shape of every stack handed to the SVD helper."""
    calls = []
    largest = reps._largest_singular_values

    def counting(stack):
        calls.append(stack.shape)
        return largest(stack)

    monkeypatch.setattr(reps, "_largest_singular_values", counting)
    return calls


def test_valid_inputs_and_settled_trials_run_no_svd(monkeypatch):
    calls = _count_svds(monkeypatch)
    rng = np.random.default_rng(21)
    brep = orthogonal_point_rep(haar_orthogonal(3, rng))
    assert lift_b_to_a(haar_unitary(4, rng), brep).d == 4
    free_product_rep(haar_unitary(4, rng), [haar_unitary(3, rng) for _ in range(4)])
    for kind in ("point", "freeproduct", "block", "lift"):
        SeparationStrategy(kind, 4).draw(4, "A", rng)
    # the commutator vanishes exactly on point models
    poly = parse_poly("u11 u12 - u12 u11", 3, "A")
    assert separate(poly, SeparationStrategy("point", 1), trials=10, seed=0) is None
    assert calls == []
    # a separating trial takes one SVD, for the witness norm
    witness = separate(poly, SeparationStrategy("freeproduct", 2), trials=10, seed=42)
    assert witness is not None and len(calls) == 1
    assert witness.norm == np.linalg.norm(evaluate(poly, witness.rep), 2)


def test_frobenius_above_half_tol_falls_back_to_svd(monkeypatch):
    poly = parse_poly("u11 u12 - u12 u11", 2, "A")
    strategy = SeparationStrategy("freeproduct", 2)
    value = evaluate(poly, strategy.draw(2, "A", np.random.default_rng(42)))
    norm = np.linalg.norm(value, 2)
    # at tol = norm the Frobenius norm exceeds tol/2, yet the trial fails
    assert np.linalg.norm(value) > norm / 2
    calls = _count_svds(monkeypatch)
    assert separate(poly, strategy, trials=1, seed=42, tol=norm) is None
    assert len(calls) == 1
    witness = separate(poly, strategy, trials=1, seed=42, tol=np.nextafter(norm, 0))
    assert witness.norm == norm and len(calls) == 2
    # four relation gaps of about 2e-11 * I: their joint Frobenius norm, about
    # 9e-11, exceeds tol/2 = 5e-11, and each operator norm stays below 1e-10
    o = haar_orthogonal(5, np.random.default_rng(8))
    brep = MatrixRep("B", (o * np.sqrt(1 + 2e-11)).reshape(5, 5, 1, 1))
    assert 0 < check_relations(brep).max_residual <= 1e-10
    calls.clear()
    assert lift_b_to_a(np.eye(2), brep).d == 2
    assert calls
    # gaps of about 2e-10 * I exceed the lift's tolerance 1e-10
    brep = MatrixRep("B", (o * np.sqrt(1 + 2e-10)).reshape(5, 5, 1, 1))
    with pytest.raises(ValueError) as err:
        lift_b_to_a(np.eye(2), brep)
    worst = check_relations(brep).max_residual
    assert str(err.value) == f"input fails family 'B' relations: worst residual {worst:.3e}"
    assert str(err.value) == "input fails family 'B' relations: worst residual 2.000e-10"


def test_tiny_tolerances_skip_the_frobenius_bound():
    # the squares of entries near 1e-170 underflow to zero, so a Frobenius
    # norm would call this value zero; the SVD sees it
    poly = parse_poly("1e-170 u11", 2, "A")
    for tol in (0.0, 1e-200):
        witness = separate(poly, SeparationStrategy("point", 1), trials=1, tol=tol)
        assert witness is not None
        assert witness.norm == np.linalg.norm(evaluate(poly, witness.rep), 2) > 0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_inputs_fail_with_documented_messages(bad):
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError, match=r"^point matrix is not unitary: residual nan"):
        point_rep(np.full((2, 2), bad))
    points = [haar_unitary(2, rng), np.full((2, 2), bad)]
    with pytest.raises(ValueError, match=r"^point matrix 1 is not unitary: residual nan"):
        free_product_rep(np.eye(2), points)
    brep = orthogonal_point_rep(haar_orthogonal(2, rng))
    twist = np.array([[bad, 0], [0, 1]])
    with pytest.raises(ValueError, match=r"^twisting unitary is not unitary: residual nan"):
        lift_b_to_a(twist, brep)
    broken = MatrixRep("B", np.full((2, 2, 1, 1), bad))
    with pytest.raises(ValueError, match=r"^input fails family 'B' relations: worst residual nan"):
        lift_b_to_a(np.eye(1), broken)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("family", ["A", "B"])
def test_check_relations_fails_a_non_finite_rep(family, bad):
    """A non-finite entry makes its residuals NaN and fails the check,
    where the SVD used to raise LinAlgError."""
    images = np.stack([np.eye(2, dtype=complex)] * 4).reshape(2, 2, 2, 2) / np.sqrt(2)
    images[1, 0, 0, 1] = bad
    report = check_relations(MatrixRep(family, images))
    assert np.isnan(report.max_residual)
    assert any(np.isnan(report.residuals))
    assert not report.passed
    assert np.isnan(operator_norm(images[1, 0]))
    finite = check_relations(MatrixRep(family, np.where(np.isfinite(images), images, 0)))
    assert not np.isnan(finite.max_residual)


def test_separate_refuses_an_overflowing_norm():
    # every entry is finite, but the norm of the value overflows to inf
    poly = parse_poly("1.7e308 u11 + 1.7e308 u11", 2, "A")
    with pytest.raises(ValueError, match="value at trial 0 overflows: norm inf"):
        separate(poly, SeparationStrategy("freeproduct", 2), trials=6, seed=3)


def test_stacked_point_check_names_the_first_failing_point():
    rng = np.random.default_rng(6)
    points = [haar_unitary(3, rng) for _ in range(4)]
    points[2] = points[2] * (1 + 1e-9)
    points[3] = points[3] * 2
    residual = operator_norm(points[2].conj().T @ points[2] - np.eye(3))
    with pytest.raises(ValueError) as err:
        free_product_rep(np.eye(4), points)
    assert str(err.value) == (
        f"point matrix 2 is not unitary: residual {residual:.3e} exceeds 1e-12"
    )


def _haar_unitary_oracle(dim, rng):
    """haar_unitary as it was written before draws were stacked."""
    z = (
        rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    ) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r).copy()
    diag[diag == 0] = 1.0
    return q * (diag / np.abs(diag))


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 8])
def test_stacked_haar_draws_match_successive_draws(dim):
    for seed in range(6):
        for count in (1, 2, 3, 8):
            stacked = reps._haar_unitaries(count, dim, np.random.default_rng(seed))
            rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            assert stacked.shape == (count, dim, dim)
            for k in range(count):
                single = haar_unitary(dim, rng)
                assert np.array_equal(stacked[k], single)
                assert np.array_equal(single, _haar_unitary_oracle(dim, oracle_rng))


def _unbatched_draw(kind, d, n, rng):
    """freeproduct and block draws assembled from one haar_unitary call per
    matrix, in the order the draws consume the stream."""

    def free_product(size):
        twist = haar_unitary(d, rng)
        return free_product_rep(twist, [haar_unitary(size, rng) for _ in range(d)])

    if kind == "freeproduct":
        return free_product(n)
    first = free_product(n // 2)
    return block_rep(first, free_product(n - n // 2))


@pytest.mark.parametrize("kind", ["freeproduct", "block"])
def test_draws_match_unbatched_oracle(kind):
    for n in range(2 if kind == "block" else 1, 5):
        for d in (1, 2, 4, 8):
            for seed in (0, 1, 17):
                rep = SeparationStrategy(kind, d).draw(n, "A", np.random.default_rng(seed))
                oracle = _unbatched_draw(kind, d, n, np.random.default_rng(seed))
                assert np.array_equal(rep.images, oracle.images)


def _oracle_residuals(rep):
    """Per-matrix numpy 2-norms of the relations check_relations reports."""
    eye = np.eye(rep.n * rep.d)
    residuals = []
    for big in (rep.big_matrix(), rep.big_matrix(entrywise_adjoint=True)):
        residuals.append(np.linalg.norm(big.conj().T @ big - eye, 2))
        residuals.append(np.linalg.norm(big @ big.conj().T - eye, 2))
    skew = [
        np.linalg.norm(rep.images[i, j] - rep.images[i, j].conj().T, 2)
        for i in range(rep.n)
        for j in range(rep.n)
    ]
    return tuple(residuals), max(skew)


def test_stacked_norms_match_per_matrix_oracle():
    rng = np.random.default_rng(29)
    drawn = [
        SeparationStrategy(kind, d).draw(n, "A", rng)
        for kind in ("point", "freeproduct", "block", "lift")
        for n in (2, 3, 5)
        for d in (1, 2, 3)
    ]
    drawn += [SeparationStrategy("point").draw(n, "B", rng) for n in (1, 2, 4)]
    garbage = rng.standard_normal((3, 3, 2, 2)) + 1j * rng.standard_normal((3, 3, 2, 2))
    drawn += [MatrixRep(family, garbage) for family in "AB"]
    for rep in drawn:
        report = check_relations(rep)
        residuals, selfadjoint = _oracle_residuals(rep)
        assert report.residuals == residuals
        assert all(type(r) is float for r in report.residuals)
        if rep.family == "B":
            assert report.selfadjoint_residual == selfadjoint
            assert type(report.selfadjoint_residual) is float
        else:
            assert report.selfadjoint_residual is None
    assert not check_relations(drawn[-1]).passed
    assert check_relations(drawn[-1]).selfadjoint_residual > 0.1
    for shape in ((1, 1), (3, 3), (2, 5), (6, 4)):
        mat = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert operator_norm(mat) == np.linalg.norm(mat, 2)
    for shape in ((0, 0), (0, 3), (3, 0)):
        assert operator_norm(np.zeros(shape)) == 0.0


def test_evaluate_checks_compatibility():
    rep = point_rep(np.eye(2))
    with pytest.raises(ValueError):
        evaluate(parse_poly("u11", 3, "A"), rep)
    with pytest.raises(ValueError):
        evaluate(parse_poly("v11", 2, "B"), rep)


def test_evaluate_adjoint_and_products():
    rng = np.random.default_rng(3)
    w = haar_unitary(2, rng)
    rep = point_rep(w)
    # u11' u11 + u21' u21 - 1 vanishes by unitarity of w
    poly = parse_poly("u11' u11 + u21' u21 - 1", 2, "A")
    assert operator_norm(evaluate(poly, rep)) < 1e-14
    poly = parse_poly("2 u11 u12", 2, "A")
    expected = 2 * w[0, 0] * w[0, 1]
    assert evaluate(poly, rep)[0, 0] == pytest.approx(expected)


def test_orthogonal_point_rep():
    rng = np.random.default_rng(11)
    rep = orthogonal_point_rep(haar_orthogonal(3, rng))
    report = check_relations(rep)
    assert report.passed
    assert report.selfadjoint_residual == 0.0
    with pytest.raises(ValueError):
        orthogonal_point_rep(haar_unitary(3, rng))


def test_free_product_rep_relations_and_validation():
    rng = np.random.default_rng(5)
    twist = haar_unitary(4, rng)
    points = [haar_unitary(3, rng) for _ in range(4)]
    rep = free_product_rep(twist, points)
    assert rep.d == 4 and rep.n == 3
    assert check_relations(rep).passed
    with pytest.raises(ValueError):
        free_product_rep(twist, points[:3])
    with pytest.raises(ValueError):
        free_product_rep(twist, [])
    # n is the size of the points, so they must share one
    with pytest.raises(ValueError):
        free_product_rep(twist, [haar_unitary(3, rng), haar_unitary(2, rng)])
    with pytest.raises(ValueError) as err:
        free_product_rep(np.eye(2), [np.ones((2, 3))])
    assert str(err.value) == "point matrix stack must have shape (m, n, n), got (1, 2, 3)"
    with pytest.raises(ValueError, match=r"^point matrix stack must have shape \(m, n, n\)"):
        free_product_rep(np.eye(2), np.eye(2))


def test_free_product_rep_repeats_points_along_runs():
    rng = np.random.default_rng(9)
    twist = np.eye(4)
    points = [haar_unitary(2, rng), haar_unitary(2, rng)]
    rep = free_product_rep(twist, points)
    diag = np.diagonal(rep.images[0, 1])
    assert diag[0] == diag[1] == points[0][0, 1]
    assert diag[2] == diag[3] == points[1][0, 1]


def test_block_rep():
    rng = np.random.default_rng(13)
    left = point_rep(haar_unitary(2, rng))
    right = point_rep(haar_unitary(3, rng))
    rep = block_rep(left, right)
    assert rep.n == 5 and rep.d == 1
    assert check_relations(rep).passed
    assert operator_norm(rep.images[0, 3]) == 0.0
    with pytest.raises(ValueError):
        block_rep(left, orthogonal_point_rep(haar_orthogonal(2, rng)))
    deeper = free_product_rep(haar_unitary(2, rng), [haar_unitary(3, rng)] * 2)
    with pytest.raises(ValueError):
        block_rep(left, deeper)


def test_lift_b_to_a_broadcasts_and_checks():
    rng = np.random.default_rng(17)
    brep = orthogonal_point_rep(haar_orthogonal(3, rng))
    lifted = lift_b_to_a(haar_unitary(4, rng), brep)
    assert lifted.family == "A" and lifted.d == 4
    assert check_relations(lifted).passed
    scalar_lift = lift_b_to_a(haar_unitary(1, rng), brep)
    assert scalar_lift.d == 1
    with pytest.raises(ValueError):
        lift_b_to_a(haar_unitary(2, rng), point_rep(haar_unitary(3, rng)))
    broken = MatrixRep("B", np.zeros((2, 2, 1, 1)))
    with pytest.raises(ValueError):
        lift_b_to_a(haar_unitary(1, rng), broken)
    blocks = MatrixRep("B", np.eye(2)[:, :, None, None] * np.eye(2))
    with pytest.raises(ValueError, match="^dimension mismatch: unitary is 3, representation is 2$"):
        lift_b_to_a(np.eye(3), blocks)


def test_check_relations_fails_on_garbage():
    rep = MatrixRep("A", np.full((2, 2, 1, 1), 0.5))
    report = check_relations(rep)
    assert not report.passed
    assert report.max_residual > 0.1


def test_haar_draws_are_deterministic_and_unitary():
    a = haar_unitary(4, np.random.default_rng(123))
    b = haar_unitary(4, np.random.default_rng(123))
    assert np.array_equal(a, b)
    assert operator_norm(a.conj().T @ a - np.eye(4)) < 1e-12
    o = haar_orthogonal(4, np.random.default_rng(123))
    assert operator_norm(o.T @ o - np.eye(4)) < 1e-12
    assert not np.iscomplexobj(o)


def test_strategy_validation():
    with pytest.raises(ValueError):
        SeparationStrategy("nope")
    with pytest.raises(ValueError):
        SeparationStrategy("point", 0)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        SeparationStrategy("freeproduct").draw(2, "B", rng)
    with pytest.raises(ValueError):
        SeparationStrategy("block").draw(1, "A", rng)


def test_commutator_vanishes_exactly_on_point_reps():
    poly = parse_poly("u11 u12 - u12 u11", 2, "A")
    for seed in range(10):
        rep = point_rep(haar_unitary(2, np.random.default_rng(seed)))
        assert operator_norm(evaluate(poly, rep)) == 0.0


def test_separate_finds_commutator_witness():
    poly = parse_poly("u11 u12 - u12 u11", 2, "A")
    witness = separate(
        poly, SeparationStrategy("freeproduct", 2), trials=10, seed=42, tol=1e-6
    )
    assert witness is not None
    assert witness.trial == 0
    assert witness.norm > 1e-6
    assert check_relations(witness.rep).passed
    # replaying the winning trial reproduces the representation exactly
    replay = SeparationStrategy("freeproduct", 2).draw(
        2, "A", np.random.default_rng(42 + witness.trial)
    )
    assert np.array_equal(replay.images, witness.rep.images)


def test_separate_gives_up_on_zero_polynomial():
    poly = parse_poly("u11 u12 - u11 u12", 2, "A")
    assert separate(poly, SeparationStrategy("point", 1), trials=5, seed=0) is None


def test_matrix_rep_json_roundtrip_shape():
    rep = point_rep(np.eye(2))
    doc = rep.to_json()
    assert doc["family"] == "A" and doc["n"] == 2 and doc["d"] == 1
    assert doc["images"][0][0] == [[[1.0, 0.0]]]
    assert doc["images"][0][1] == [[[0.0, 0.0]]]


_SHAPE_MESSAGE = r"^images must have shape \(n, n, d, d\) with n, d >= 1, got "


@pytest.mark.parametrize(
    "n,d,shape",
    [(2, 0, (2, 2, 0, 0)), (0, 1, (0, 0, 1, 1)), (0, 0, (0, 0, 0, 0)), (-1, 1, (0, 0, 1, 1))],
)
def test_matrix_rep_rejects_empty_sizes(n, d, shape):
    """A model with n < 1 or d < 1 used to build, and check_relations then
    failed inside numpy on a zero-size reduction.  The sizes are read off
    the images now, so empty images are what is rejected, and n and d can
    no longer be stated beside them."""
    for family in "AB":
        with pytest.raises(ValueError, match=_SHAPE_MESSAGE):
            MatrixRep(family, np.zeros(shape))
        with pytest.raises(TypeError):
            MatrixRep(family, n, d, np.zeros(shape))


@pytest.mark.parametrize(
    "shape", [(), (2, 2), (2, 2, 1), (2, 2, 1, 1, 1), (2, 3, 1, 1), (2, 2, 1, 2)]
)
def test_matrix_rep_rejects_images_of_other_shapes(shape):
    for family in "AB":
        with pytest.raises(ValueError, match=_SHAPE_MESSAGE + re.escape(str(shape))):
            MatrixRep(family, np.zeros(shape))


def test_ragged_matrix_input_gets_a_shape_message():
    """numpy's own "inhomogeneous shape" and "malformed string" messages
    used to surface here, in MatrixRep as in the point constructors."""
    ragged = "must have shape {}, got ragged or non-numeric entries$"
    for images in ([[np.eye(2), np.eye(3)]], "abc"):
        with pytest.raises(ValueError, match=_SHAPE_MESSAGE + "ragged or non-numeric entries$"):
            MatrixRep("A", images)
    with pytest.raises(ValueError, match="^point matrix stack " + ragged.format(r"\(m, n, n\)")):
        free_product_rep(np.eye(2), [np.eye(3), np.eye(2)])
    with pytest.raises(ValueError, match="^point matrix " + ragged.format(r"\(n, n\)")):
        point_rep([[1, 0], [0]])
    with pytest.raises(ValueError, match="^orthogonal point matrix " + ragged.format(r"\(n, n\)")):
        orthogonal_point_rep([[1, 0], [0]])


def test_unknown_families_and_empty_sizes_are_rejected():
    with pytest.raises(ValueError, match="^family must be 'A' or 'B', got 'C'$"):
        MatrixRep("C", np.ones((1, 1, 1, 1)))
    with pytest.raises(ValueError, match="^family must be 'A' or 'B', got 'C'$"):
        reps.NCPoly("C", 2, ())
    with pytest.raises(ValueError, match="^n must be >= 1$"):
        reps.NCPoly("A", 0, ())


def test_point_rep_rejects_an_empty_matrix():
    for build in (point_rep, orthogonal_point_rep):
        with pytest.raises(ValueError, match=_SHAPE_MESSAGE + r"\(0, 0, 1, 1\)$"):
            build(np.zeros((0, 0)))
    with pytest.raises(ValueError, match=_SHAPE_MESSAGE + r"\(0, 0, 2, 2\)$"):
        free_product_rep(np.eye(2), np.zeros((2, 0, 0)))


@pytest.mark.parametrize("n,d", [(2.0, 1), (2, True), (np.int64(2), 1), ("2", 1)])
def test_matrix_rep_rejects_sizes_that_are_not_ints(n, d):
    """A float n used to build, and check_relations then failed inside numpy;
    a bool d built as d = 1.  The sizes are now the ints of the images'
    shape, and the form that stated them beside the images is gone."""
    images = np.eye(2).reshape(2, 2, 1, 1)
    with pytest.raises(TypeError):
        MatrixRep("A", n, d, images)
    rep = MatrixRep("A", images)
    assert type(rep.n) is int and type(rep.d) is int
    assert (rep.n, rep.d) == (2, 1)
    rep = MatrixRep("B", np.zeros((3, 3, 2, 2)))
    assert (rep.n, rep.d) == (3, 2)
    assert rep.to_json()["n"] == 3 and rep.to_json()["d"] == 2


@pytest.mark.parametrize("d", [2.0, "2", True])
def test_strategy_rejects_a_dimension_that_is_not_an_int(d):
    """A float d used to fail inside numpy at the first draw, and a string d
    on a comparison with 1."""
    with pytest.raises(TypeError, match="d must be an int"):
        SeparationStrategy("freeproduct", d)


@pytest.mark.parametrize("n", [2.0, "2", True])
def test_polynomials_reject_a_size_that_is_not_an_int(n):
    """A float n used to parse, and separate then failed inside numpy."""
    with pytest.raises(TypeError, match="n must be an int"):
        parse_poly("u11 u12 - u12 u11", n, "A")
    with pytest.raises(TypeError, match="n must be an int"):
        reps.NCPoly("A", n, ())


@pytest.mark.parametrize("dim", [2.0, True, "2", np.int64(2)])
def test_haar_draws_reject_a_size_that_is_not_an_int(dim):
    """A float or bool size used to fail inside numpy."""
    rng = np.random.default_rng(0)
    for draw in (haar_unitary, haar_orthogonal):
        with pytest.raises(TypeError, match="dim must be an int"):
            draw(dim, rng)


@pytest.mark.parametrize(
    "extra, name",
    [({"trials": 2.0}, "trials"), ({"trials": True}, "trials"), ({"seed": 1.5}, "seed"),
     ({"seed": True}, "seed"), ({"trials": "2"}, "trials")],
)
def test_separate_rejects_counts_that_are_not_ints(extra, name):
    """A float trial count used to fail inside range, a float seed inside
    numpy's SeedSequence, and trials=True ran one trial."""
    poly = parse_poly("u11 u12 - u12 u11", 2, "A")
    with pytest.raises(TypeError, match=f"^{name} must be an int"):
        separate(poly, SeparationStrategy("freeproduct", 2), **extra)

import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
import sympy

from freeqg.linalg import ExactMatrix


def random_int_matrix(rng, rows, cols, lo=-6, hi=6):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def test_constructor_shapes():
    m = ExactMatrix([[1, 2], [3, 4]])
    assert (m.rows, m.cols) == (2, 2)
    assert m.entry(1, 0) == 3
    empty = ExactMatrix([], cols=3)
    assert (empty.rows, empty.cols) == (0, 3)
    with pytest.raises(ValueError):
        ExactMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        ExactMatrix([])


def test_floats_rejected():
    with pytest.raises(TypeError):
        ExactMatrix([[1.5]])
    with pytest.raises(TypeError):
        ExactMatrix([[1, 2]]).matvec([0.5, 1])
    # matrices hold integers only; a rational entry is rejected like a float
    with pytest.raises(TypeError):
        ExactMatrix([[Fraction(1, 3), 1]])
    m = ExactMatrix([[Fraction(6, 2), 1]])
    assert type(m.entry(0, 0)) is int and m.entry(0, 0) == 3
    assert m.matvec([Fraction(1, 3), 1]) == [Fraction(2)]


def test_identity_and_zeros():
    identity = ExactMatrix([[int(i == j) for j in range(4)] for i in range(4)])
    assert identity.rank() == 4
    assert identity.nullspace_basis() == []
    zeros = ExactMatrix([[0] * 5 for _ in range(3)])
    assert zeros.rank() == 0
    assert zeros.nullspace_basis() == [
        [1, 0, 0, 0, 0],
        [0, 1, 0, 0, 0],
        [0, 0, 1, 0, 0],
        [0, 0, 0, 1, 0],
        [0, 0, 0, 0, 1],
    ]


def test_matmul_and_transpose():
    a = ExactMatrix([[1, 2], [3, 4]])
    b = ExactMatrix([[0, 1], [1, 0]])
    assert (a @ b).row_list() == [[2, 1], [4, 3]]
    assert a.transpose().row_list() == [[1, 3], [2, 4]]
    with pytest.raises(ValueError):
        a @ ExactMatrix([[1, 2, 3]])


def test_rank_frozen_cases():
    assert ExactMatrix([[4, 2], [2, 4]]).rank() == 2
    assert ExactMatrix([[1, 1], [1, 1]]).rank() == 1
    assert ExactMatrix([[1, 2, 3], [2, 4, 6], [1, 1, 1]]).rank() == 2


def test_rank_matches_sympy_on_random_matrices():
    rng = random.Random(20240817)
    for _ in range(40):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        entries = random_int_matrix(rng, rows, cols)
        ours = ExactMatrix(entries).rank()
        theirs = sympy.Matrix(entries).rank()
        assert ours == theirs, entries


def test_nullspace_matches_sympy_dimension_and_is_integral():
    rng = random.Random(77)
    for _ in range(30):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 6)
        entries = random_int_matrix(rng, rows, cols, -4, 4)
        m = ExactMatrix(entries)
        basis = m.nullspace_basis()
        assert len(basis) == cols - m.rank()
        assert len(basis) == len(sympy.Matrix(entries).nullspace())
        check_kernel_basis(m, basis)


def check_kernel_basis(m, basis):
    """Primitive int vectors with a positive lead, in the kernel, independent."""
    for vec in basis:
        assert all(type(v) is int for v in vec)
        assert gcd(*vec) == 1
        assert next(v for v in vec if v) > 0
        assert not any(m.matvec(vec))
    # basis vectors are independent: stacking them keeps full rank
    if basis:
        assert ExactMatrix(basis, cols=m.cols).rank() == len(basis)


def test_large_entries_match_sympy():
    rng = random.Random(1968)
    big = 10**20
    for _ in range(12):
        rows = rng.randint(1, 7)
        cols = rng.randint(1, 7)
        entries = random_int_matrix(rng, rows, cols, -big, big)
        # copy a combination of rows so that some kernels are not forced
        if rows > 2:
            entries[-1] = [a * 3 - b * 7 for a, b in zip(entries[0], entries[1])]
        m = ExactMatrix(entries)
        theirs = sympy.Matrix(entries)
        assert m.rank() == theirs.rank()
        basis = m.nullspace_basis()
        assert len(basis) == len(theirs.nullspace())
        check_kernel_basis(m, basis)


@pytest.mark.parametrize("rows,inner,cols", [(12, 5, 9), (9, 5, 12), (8, 3, 8), (6, 1, 7)])
def test_rank_deficient_products_match_sympy(rows, inner, cols):
    rng = random.Random(rows * 100 + inner * 10 + cols)
    left = ExactMatrix(random_int_matrix(rng, rows, inner, -10**6, 10**6))
    right = ExactMatrix(random_int_matrix(rng, inner, cols, -10**6, 10**6))
    m = left @ right
    theirs = sympy.Matrix(m.row_list())
    assert m.rank() == theirs.rank() == inner
    basis = m.nullspace_basis()
    assert len(basis) == cols - inner == len(theirs.nullspace())
    check_kernel_basis(m, basis)
    left_basis = m.left_nullspace_basis()
    assert len(left_basis) == rows - inner
    check_kernel_basis(m.transpose(), left_basis)


def test_left_nullspace():
    m = ExactMatrix([[1, 2], [2, 4], [0, 1]])
    left = m.left_nullspace_basis()
    assert len(left) == 1
    row = ExactMatrix([left[0]], cols=3)
    assert (row @ m).row_list() == [[0, 0]]


def test_in_column_space_certificate():
    m = ExactMatrix([[1, 0], [0, 1], [1, 1]])
    ok, cert = m.in_column_space([2, 3, 5])
    assert ok
    assert m.matvec(cert) == [2, 3, 5]
    ok, cert = m.in_column_space([1, 0, 0])
    assert not ok and cert is None


def test_in_column_space_fractional_certificate():
    m = ExactMatrix([[2, 0], [0, 3]])
    ok, cert = m.in_column_space([1, 1])
    assert ok
    assert cert == [Fraction(1, 2), Fraction(1, 3)]


def test_in_column_space_random_consistency():
    rng = random.Random(5)
    for _ in range(25):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = ExactMatrix(random_int_matrix(rng, rows, cols, -3, 3))
        coeffs = [rng.randint(-3, 3) for _ in range(cols)]
        image = m.matvec(coeffs)
        ok, cert = m.in_column_space(image)
        assert ok
        assert m.matvec(cert) == image
        outside = [v + (1 if i == 0 else 0) for i, v in enumerate(image)]
        expected = sympy.Matrix(
            [list(r) for r in m.row_list()]
        ).rank() == sympy.Matrix([list(r) + [o] for r, o in zip(m.row_list(), outside)]).rank()
        assert m.in_column_space(outside)[0] == expected


def test_zero_row_and_zero_column_edges():
    no_rows = ExactMatrix([], cols=2)
    assert no_rows.rank() == 0
    assert no_rows.in_column_space([]) == (True, [0, 0])
    no_cols = ExactMatrix([[], []])
    assert no_cols.cols == 0
    assert no_cols.rank() == 0
    ok, cert = no_cols.in_column_space([0, 0])
    assert ok and cert == []
    assert no_cols.in_column_space([1, 0]) == (False, None)


SELF_CHECKS_UNDER_O = """
import sys
from freeqg.coinvariants import AmbientSpec, QuotientSpec, joint_fullness
from freeqg.linalg import ExactMatrix, VerificationError
from freeqg.words import parse_word

if __debug__:
    sys.exit("not running under python -O")


def expect_raise(label, call):
    try:
        call()
    except VerificationError as exc:
        print(label, exc)
    else:
        print(label, "did not raise")


echelon = ExactMatrix._echelon


def corrupted(self):
    data, pivots = echelon(self)
    data[0][-1] += 1
    return data, pivots


ExactMatrix._echelon = corrupted
expect_raise("kernel", lambda: ExactMatrix([[1, 2]]).nullspace_basis())
expect_raise("certificate", lambda: ExactMatrix([[2, 0], [0, 3]]).in_column_space([1, 1]))
ExactMatrix._echelon = echelon
# a pivot claimed in every column makes the first image look outside the span
ExactMatrix.pivot_columns = lambda self: list(range(self.cols))
expect_raise(
    "witness",
    lambda: joint_fullness(parse_word("uuUU"), AmbientSpec(2), QuotientSpec(1, 1)),
)
"""


def test_self_checks_survive_python_O():
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-O", "-c", SELF_CHECKS_UNDER_O],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "kernel kernel vector fails verification",
        "certificate column space certificate fails verification",
        "witness witness fails re-verification",
    ]

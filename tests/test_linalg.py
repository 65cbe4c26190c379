import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

from freeqg import linalg
from freeqg.linalg import ExactMatrix

P = linalg._P  # the prime of the modular pivot search


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


def test_constructor_rejects_bad_column_counts():
    with pytest.raises(ValueError):
        ExactMatrix([], cols=-1)
    with pytest.raises(TypeError):
        ExactMatrix([], cols=2.5)
    with pytest.raises(TypeError):
        ExactMatrix([[1, 2]], cols=2.0)
    with pytest.raises(ValueError, match=r"^cols=3 but rows have 2 entries$"):
        ExactMatrix([[1, 2]], cols=3)
    assert ExactMatrix([], cols=0).nullspace_basis() == []


def test_operands_of_the_wrong_size_or_type_are_rejected():
    m = ExactMatrix([[1, 2]])
    with pytest.raises(ValueError, match=r"^vector length 1 does not match 2 columns$"):
        m.matvec([1])
    with pytest.raises(ValueError, match=r"^vector length 2 does not match 1 rows$"):
        m.in_column_space([1, 2])
    with pytest.raises(TypeError):
        ExactMatrix([[1]]) @ 3


def test_floats_rejected():
    with pytest.raises(TypeError):
        ExactMatrix([[1.5]])
    with pytest.raises(TypeError):
        ExactMatrix([[1, 2]]).matvec([0.5, 1])
    with pytest.raises(TypeError):
        ExactMatrix([[1], [2]]).in_column_space([0.5, 1])


@pytest.mark.parametrize("rational", [Fraction(1, 3), Fraction(6, 2), Fraction(0)])
def test_fractions_rejected_like_floats(rational):
    """Matrices and vectors hold ints only: a Fraction entry raises
    TypeError whether or not it is integral."""
    with pytest.raises(TypeError):
        ExactMatrix([[rational, 1]])
    with pytest.raises(TypeError):
        ExactMatrix([[1, 2]]).matvec([rational, 1])
    with pytest.raises(TypeError):
        ExactMatrix([[1], [2]]).in_column_space([rational, 1])


def test_bool_entries_are_stored_as_ints():
    m = ExactMatrix([[True, 2], [0, False]])
    rows = m.row_list()
    assert rows == [[1, 2], [0, 0]]
    assert all(type(x) is int for row in rows for x in row)
    # vectors follow the same rule
    image = m.matvec([True, False])
    assert image == [1, 0] and all(type(x) is int for x in image)
    assert m.in_column_space([True, False]) == (True, ([1, 0], -1))


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


def every_row(rows, n_cols):
    """A stand-in for the modular pivot search that keeps every row."""
    return [(i, 0) for i in range(len(rows))]


def all_rows_kernel(m, monkeypatch):
    """The kernel basis from one Bareiss elimination of every row."""
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "_pivots_mod_p", every_row)
        return m.nullspace_basis()


def eliminated_rows(call, monkeypatch):
    """call(), and the row count of every matrix it eliminated exactly."""
    eliminated = []
    echelon = ExactMatrix._echelon

    def spy(self):
        eliminated.append(self.rows)
        return echelon(self)

    with monkeypatch.context() as patch:
        patch.setattr(ExactMatrix, "_echelon", spy)
        return call(), eliminated


# matrices with a minor that P divides, and the row counts their kernels
# eliminate
PRIME_DIVIDES_A_MINOR = [
    ([[P, 1], [0, 0], [0, 0]], [1]),  # the modular pivot row suffices
    ([[P], [0]], [0, 2]),  # no modular pivot, so every row is needed
    ([[1, 0, 0], [0, P, 0], [0, 0, 0], [0, 0, 0]], [1, 4]),
    ([[2 * P, P], [P, 3 * P], [P, P]], [0, 3]),
    ([[P, 0], [0, 1]], [2]),  # not tall: all rows at once
]


@pytest.mark.parametrize("entries,eliminated", PRIME_DIVIDES_A_MINOR)
def test_prime_dividing_a_minor_falls_back_to_all_rows(entries, eliminated, monkeypatch):
    m = ExactMatrix(entries)
    theirs = sympy.Matrix(entries)
    assert m.rank() == theirs.rank()
    basis, seen = eliminated_rows(m.nullspace_basis, monkeypatch)
    assert seen == eliminated
    assert basis == all_rows_kernel(m, monkeypatch)
    assert len(basis) == len(theirs.nullspace())
    check_kernel_basis(m, basis)


@pytest.mark.parametrize(
    "rows,inner,cols,bound",
    [(60, 4, 9, 10**6), (120, 7, 12, 10**6), (40, 1, 5, 10**20), (90, 9, 10, 3), (200, 2, 6, 1)],
)
def test_tall_rank_deficient_kernels_match_all_rows(rows, inner, cols, bound, monkeypatch):
    rng = random.Random(rows * 1000 + inner * 100 + cols)
    left = ExactMatrix(random_int_matrix(rng, rows, inner, -bound, bound))
    right = ExactMatrix(random_int_matrix(rng, inner, cols, -bound, bound))
    m = left @ right
    rank = sympy.Matrix(m.row_list()).rank()
    assert m.rank() == rank
    basis, seen = eliminated_rows(m.nullspace_basis, monkeypatch)
    assert seen == [rank]
    assert basis == all_rows_kernel(m, monkeypatch)
    assert len(basis) == cols - rank
    check_kernel_basis(m, basis)


def rank_mod_p(entries, cols):
    """Rank over GF(P) by sympy's own elimination."""
    field = sympy.GF(P)
    return DomainMatrix([[field(x) for x in row] for row in entries], (len(entries), cols), field).rank()


def check_pivots_mod_p(entries, cols):
    """The pivot count is the rank mod P, and the rows named, sorted and
    distinct with distinct columns, are independent mod P."""
    pivots = linalg._pivots_mod_p(entries, cols)
    assert pivots == sorted(pivots)
    assert len({r for r, _ in pivots}) == len({c for _, c in pivots}) == len(pivots)
    assert len(pivots) == rank_mod_p(entries, cols)
    assert rank_mod_p([entries[r] for r, _ in pivots], cols) == len(pivots)
    return pivots


def pivot_test_entry(rng):
    """Small ints, the residue P - 1 in both signs, multiples of P plus a
    small offset, and entries of 10^40."""
    return rng.choice(
        [
            lambda: rng.randint(-3, 3),
            lambda: P - 1,
            lambda: -1,
            lambda: rng.randint(-5, 5) * P + rng.randint(-2, 2),
            lambda: rng.choice((-1, 1)) * 10**40 + rng.randint(-2, 2),
        ]
    )()


@pytest.mark.parametrize(
    "rows,inner,cols",
    [(1, 1, 1), (5, 5, 5), (17, 17, 17), (60, 40, 60), (132, 90, 132),
     (400, 24, 24), (400, 9, 24), (24, 24, 400), (10, 4, 60)],
)
def test_pivot_search_matches_rank_over_gf_p(rows, inner, cols):
    """Random products of a rows x inner and an inner x cols matrix, so
    that some are rank-deficient, with entries chosen to exercise the
    reduction into [0, P) and the largest residues."""
    rng = random.Random(rows * 10**6 + inner * 1000 + cols)
    left = [[pivot_test_entry(rng) for _ in range(inner)] for _ in range(rows)]
    right = [[pivot_test_entry(rng) for _ in range(cols)] for _ in range(inner)]
    check_pivots_mod_p(left, inner)
    check_pivots_mod_p(right, cols)
    check_pivots_mod_p((ExactMatrix(left) @ ExactMatrix(right)).row_list(), cols)


def test_pivot_search_edge_cases():
    assert check_pivots_mod_p([], 4) == []
    assert check_pivots_mod_p([[], [], []], 0) == []
    assert check_pivots_mod_p([[0] * 7] * 5, 7) == []
    assert check_pivots_mod_p([[P, 2 * P], [-P, 0]], 2) == []
    # every entry P - 1: rank 1, with products as large as the search makes
    assert check_pivots_mod_p([[P - 1] * 132] * 132, 132) == [(0, 0)]
    assert check_pivots_mod_p([[0, P - 1], [P - 1, 0], [1, 1]], 2) == [(0, 1), (1, 0)]


def test_pivot_search_reduces_entries_past_int64():
    """Entries at the int64 bounds are reduced in numpy; one past them sends
    the matrix through the Python-int reduction.  Both give the pivots of
    the same entries reduced mod P beforehand."""
    for big in (2**63 - 1, -(2**63), 2**63, -(2**63) - 1, 2**64 + 5):
        entries = [[big, 1, 0], [1, big, 2], [big - 1, big + 1, 2], [3, 0, big]]
        reduced = [[x % P for x in row] for row in entries]
        assert check_pivots_mod_p(entries, 3) == linalg._pivots_mod_p(reduced, 3)
        assert ExactMatrix(entries).rank() == sympy.Matrix(entries).rank()


def test_left_nullspace():
    m = ExactMatrix([[1, 2], [2, 4], [0, 1]])
    left = m.left_nullspace_basis()
    assert len(left) == 1
    row = ExactMatrix([left[0]], cols=3)
    assert (row @ m).row_list() == [[0, 0]]


def check_solves(m, vec, cert):
    """cert is the integer certificate (y, t): m @ y == -t * vec, t != 0."""
    y, t = cert
    assert all(type(v) is int for v in [*y, t])
    assert t != 0
    assert m.matvec(y) == [-t * v for v in vec]


def test_in_column_space_certificate():
    m = ExactMatrix([[1, 0], [0, 1], [1, 1]])
    ok, cert = m.in_column_space([2, 3, 5])
    assert ok
    check_solves(m, [2, 3, 5], cert)
    assert cert == ([2, 3], -1)
    ok, cert = m.in_column_space([1, 0, 0])
    assert not ok and cert is None


def test_in_column_space_fractional_certificate():
    # the solution (1/2, 1/3) comes as y = (3, 2) over t = -6
    m = ExactMatrix([[2, 0], [0, 3]])
    ok, cert = m.in_column_space([1, 1])
    assert ok
    check_solves(m, [1, 1], cert)
    assert cert == ([3, 2], -6)


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
        check_solves(m, image, cert)
        outside = [v + (1 if i == 0 else 0) for i, v in enumerate(image)]
        expected = sympy.Matrix(
            [list(r) for r in m.row_list()]
        ).rank() == sympy.Matrix([list(r) + [o] for r, o in zip(m.row_list(), outside)]).rank()
        assert m.in_column_space(outside)[0] == expected


def check_certificate(entries, vec):
    """in_column_space agrees with sympy on membership, and its certificate
    (y, t) solves m @ y == -t * vec and has y zero at every non-pivot column
    of the rref."""
    m = ExactMatrix(entries)
    theirs = sympy.Matrix(entries)
    ok, cert = m.in_column_space(vec)
    assert ok == (theirs.rank() == theirs.row_join(sympy.Matrix(vec)).rank())
    if ok:
        check_solves(m, vec, cert)
        pivots = set(theirs.rref()[1])
        assert all(v == 0 for j, v in enumerate(cert[0]) if j not in pivots)
    else:
        assert cert is None


def test_tall_in_column_space_eliminates_the_modular_pivot_rows(monkeypatch):
    m = ExactMatrix([[1, 0], [0, 1], [1, 1], [2, 3]])
    result, seen = eliminated_rows(lambda: m.in_column_space([2, 3, 5, 13]), monkeypatch)
    assert result == (True, ([2, 3], -1))
    assert seen == [2]
    # augmented, this is [[P, 1], [0, 0], [0, 0]]: its modular pivot row
    # suffices, and the solution 1/P comes as y = 1 over t = -P
    m = ExactMatrix([[P], [0], [0]])
    result, seen = eliminated_rows(lambda: m.in_column_space([1, 0, 0]), monkeypatch)
    assert result == (True, ([1], -P))
    assert seen == [1]


@pytest.mark.parametrize("entries", [entries for entries, _ in PRIME_DIVIDES_A_MINOR])
def test_in_column_space_where_the_prime_divides_a_minor(entries):
    m = ExactMatrix(entries)
    columns = [list(col) for col in zip(*entries)]
    units = [[int(i == j) for i in range(m.rows)] for j in range(m.rows)]
    # each column over the gcd of its entries; where P divides that gcd,
    # the solution has P in its denominator
    reduced = [[v // (gcd(*col) or 1) for v in col] for col in columns]
    for vec in columns + units + reduced:
        check_certificate(entries, vec)


def test_certificates_vanish_off_the_pivot_columns():
    rng = random.Random(11)
    for _ in range(40):
        rows, inner, cols = rng.randint(1, 9), rng.randint(1, 4), rng.randint(1, 5)
        m = ExactMatrix(random_int_matrix(rng, rows, inner, -3, 3)) @ ExactMatrix(
            random_int_matrix(rng, inner, cols, -3, 3)
        )
        # an image over the gcd of its entries may need a rational solution
        image = m.matvec([rng.randint(-4, 4) for _ in range(cols)])
        check_certificate(m.row_list(), [v // (gcd(*image) or 1) for v in image])


def test_zero_row_and_zero_column_edges():
    no_rows = ExactMatrix([], cols=2)
    assert no_rows.rank() == 0
    assert no_rows.in_column_space([]) == (True, ([0, 0], 1))
    no_cols = ExactMatrix([[], []])
    assert no_cols.cols == 0
    assert no_cols.rank() == 0
    assert no_cols.in_column_space([0, 0]) == (True, ([], 1))
    assert no_cols.in_column_space([1, 0]) == (False, None)


SELF_CHECKS_UNDER_O = """
import sys
from freeqg import coinvariants
from freeqg.coinvariants import QuotientSpec, joint_fullness
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


eliminated = []


def corrupted(self):
    eliminated.append(self.rows)
    data, pivots = echelon(self)
    data[0][-1] += 1
    return data, pivots


ExactMatrix._echelon = corrupted
expect_raise("kernel", lambda: ExactMatrix([[1, 2]]).nullspace_basis())
# a tall matrix is eliminated on its modular pivot row, then on all rows
eliminated.clear()
expect_raise("tall", lambda: ExactMatrix([[1, 2], [2, 4], [3, 6]]).nullspace_basis())
print("tall eliminated rows", eliminated)
expect_raise("certificate", lambda: ExactMatrix([[2, 0], [0, 3]]).in_column_space([1, 1]))
ExactMatrix._echelon = echelon
# the rank certificate: a closed form lowered by one puts the rank of the
# first constraint row of uuUU above the bound 0, and a span rule with rows
# nonzero everywhere puts a row on a non-crossing column
closed_form_rank = coinvariants.closed_form_rank
coinvariants.closed_form_rank = lambda k, n: closed_form_rank(k, n) - 1
expect_raise("bound", lambda: joint_fullness(parse_word("uuUU"), QuotientSpec(2, 2)))
coinvariants.closed_form_rank = closed_form_rank
cokernel_rows = coinvariants._cokernel_rows
coinvariants._cokernel_rows = lambda rows, inside: [[1] * len(rows)]
expect_raise("noncrossing", lambda: joint_fullness(parse_word("uuUU"), QuotientSpec(2, 2)))
coinvariants._cokernel_rows = cokernel_rows
# on the exact route, forced by a certificate that declines, an empty
# non-crossing set on the first call makes the first kernel vector look
# outside the span; the re-check then builds the true system
coinvariants._rank_certificate = lambda word, quotient: None
system = coinvariants.fullness_system
calls = []


def first_call_without_noncrossing(*args):
    pairings, nc_indices, gram, constraints = system(*args)
    calls.append(args)
    return pairings, [] if len(calls) == 1 else nc_indices, gram, constraints


coinvariants.fullness_system = first_call_without_noncrossing
expect_raise(
    "witness",
    lambda: joint_fullness(parse_word("uuUU"), QuotientSpec(1, 1)),
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
        "tall kernel vector fails verification",
        "tall eliminated rows [1, 3]",
        "certificate kernel vector fails verification",
        "bound constraint rank 1 exceeds its bound 0",
        "noncrossing a constraint row is nonzero on a non-crossing column",
        "witness witness fails re-verification",
    ]

"""Dense exact linear algebra on plain Python ints, with one exact solver.

A pivot search modulo the prime p = 2^31 - 1 runs first, as a dense
elimination in numpy int64: entries lie in [0, p), so every product of two
is below 2^62 and no step overflows.  A minor that is nonzero mod p is a
nonzero integer, so the modular rank is a proven lower bound on the exact
rank: when it is full, `rank` skips exact elimination.

Exact elimination serves only `nullspace_basis` and the fallback of `rank`;
`in_column_space` reads its integer certificate off the kernel of an
augmented matrix, whose check against every row verifies it.  A tall kernel
(a length-10 constraint system has 1750 distinct rows over 120 columns) is
eliminated on the modular pivot rows only; kernel vectors that pass the
check against all rows prove the two kernels equal, and otherwise all rows
are eliminated.  The elimination is fraction-free (Bareiss, Math. Comp. 22,
1968) with first-nonzero pivoting, so each `//` is exact.

Ints go in and ints come out.  Entry types are checked where data enters:
the public constructor and the vector methods apply one rule, which stores
an int subclass such as bool as an int and rejects everything else
(rationals and floats included) with TypeError.  ExactMatrix._of_int_rows
takes rows of ints by construction (Gram matrices, submatrices, augmented
matrices) without that scan.
"""

from __future__ import annotations

from itertools import chain
from math import gcd
from operator import mul

import numpy as np

_P = (1 << 31) - 1


class VerificationError(AssertionError):
    """An exact result failed its re-check: an internal fault, not bad input."""


def _ints(values) -> list[int]:
    """values as a list of plain ints: int subclasses such as bool become
    ints, and any other entry raises TypeError."""
    values = list(values)
    if set(map(type, values)) - {int}:
        for x in values:
            if not isinstance(x, int):
                raise TypeError(f"exact matrices and vectors take int entries, got {x!r}")
        values = list(map(int, values))
    return values


def _primitive(vec: list[int]) -> list[int]:
    """Divide a nonzero integer vector by the gcd of its entries, with the
    sign chosen to make its leading nonzero positive."""
    g = gcd(*vec)
    if next(v for v in vec if v) < 0:
        g = -g
    return [v // g for v in vec]


def _pivots_mod_p(rows, n_cols: int) -> list[tuple[int, int]]:
    """Pivots (original row index, column) of elimination modulo the prime _P,
    sorted by row.

    Dense column-order elimination in numpy int64, rows never swapped: the
    first row with a nonzero in a column is its pivot, and every row with a
    nonzero f there, the pivot row included, becomes piv * row - f * pivot
    row, which clears that column and turns the pivot row itself to zero.
    A row changes only by a unit multiple of itself plus earlier rows, so
    the pivot rows are the rows independent of the rows before them.
    Entries lie in [0, p) with p < 2^31, so both products are below 2^62
    and their difference stays in int64.  Entries are reduced in numpy,
    unless one does not fit in int64.
    """
    try:
        a = np.array(rows, dtype=np.int64) % _P
    except OverflowError:
        a = np.array([[x % _P for x in row] for row in rows], dtype=np.int64)
    a = a.reshape(len(rows), n_cols)
    pivots = []
    for c in range(n_cols):
        hit = a[:, c].nonzero()[0]
        if not len(hit):
            continue
        sub = a[hit, c:]
        d = sub[0, 0] * sub - sub[:, :1] * sub[0]
        # d % _P, spelled with numpy's int64 division by a scalar, which
        # runs about five times faster than its remainder
        a[hit, c:] = d - d // _P * _P
        pivots.append((int(hit[0]), c))
    return sorted(pivots)


class ExactMatrix:
    """Immutable dense matrix of ints.  The constructor checks every entry:
    it rejects all but ints, and stores an int subclass as an int."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, entries, cols: int | None = None):
        if cols is not None and type(cols) is not int:
            raise TypeError(f"cols must be an int, got {cols!r}")
        data = tuple(map(tuple, entries))
        if set(map(type, chain.from_iterable(data))) - {int}:
            data = tuple(tuple(_ints(row)) for row in data)
        if data:
            widths = {len(row) for row in data}
            if len(widths) != 1:
                raise ValueError("rows have unequal lengths")
            inferred = widths.pop()
            if cols is not None and cols != inferred:
                raise ValueError(f"cols={cols} but rows have {inferred} entries")
            cols = inferred
        elif cols is None or cols < 0:
            raise ValueError(f"a matrix with no rows needs a column count >= 0, got {cols}")
        self.rows = len(data)
        self.cols = cols
        self._data = data

    @classmethod
    def _of_int_rows(cls, rows, cols: int) -> "ExactMatrix":
        """Matrix of rows of cols plain ints each, unchecked: only for rows
        that are ints by construction.  Tuple rows are kept, not copied."""
        self = object.__new__(cls)
        self._data = tuple(map(tuple, rows))
        self.rows = len(self._data)
        self.cols = cols
        return self

    def entry(self, i: int, j: int) -> int:
        return self._data[i][j]

    def row_list(self) -> list[list[int]]:
        return [list(row) for row in self._data]

    def __repr__(self) -> str:
        return f"ExactMatrix({self.rows}x{self.cols})"

    # transpose, __matmul__ and left_nullspace_basis have no caller in src/ but
    # each other: perfbench/spans.py METHODS pins them by name, and
    # check_constraint_rows_by_colorings in tests/test_coinvariants.py takes
    # its oracle route through them
    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(
            [[self._data[i][j] for i in range(self.rows)] for j in range(self.cols)],
            cols=self.rows,
        )

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self!r} by {other!r}")
        columns = other.transpose()._data
        return ExactMatrix(
            [[sum(map(mul, row, col)) for col in columns] for row in self._data],
            cols=other.cols,
        )

    def left_nullspace_basis(self) -> list[list[int]]:
        """Row vectors y with y @ self == 0 (basis of the cokernel)."""
        return self.transpose().nullspace_basis()

    def matvec(self, vec) -> list[int]:
        """self @ vec for an int vector."""
        vec = _ints(vec)
        if len(vec) != self.cols:
            raise ValueError(f"vector length {len(vec)} does not match {self.cols} columns")
        return [sum(map(mul, row, vec)) for row in self._data]

    def column_submatrix(self, indices) -> "ExactMatrix":
        indices = list(indices)
        return ExactMatrix._of_int_rows(
            [[row[j] for j in indices] for row in self._data], len(indices)
        )

    def _echelon(self):
        """Bareiss forward elimination on a copy.

        Returns (data, pivots); pivots is the list of (row, col) positions,
        searched in column order with the first nonzero entry as pivot.  Rows
        without a pivot end up identically zero.  Each pivot is the
        determinant of the square block of pivot rows and pivot columns up to
        it, which is what makes the division by the previous pivot exact.
        """
        data = [list(row) for row in self._data]
        n_rows, n_cols = self.rows, self.cols
        pivots: list[tuple[int, int]] = []
        prev = 1
        r = 0
        for c in range(n_cols):
            if r == n_rows:
                break
            hit = next((i for i in range(r, n_rows) if data[i][c]), None)
            if hit is None:
                continue
            if hit != r:
                data[r], data[hit] = data[hit], data[r]
            tail = data[r][c:]
            piv = tail[0]
            for i in range(r + 1, n_rows):
                row_i = data[i]
                f = row_i[c]
                row_i[c:] = [(a * piv - f * b) // prev for a, b in zip(row_i[c:], tail)]
            prev = piv
            pivots.append((r, c))
            r += 1
        return data, pivots

    def rank(self) -> int:
        modular = len(_pivots_mod_p(self._data, self.cols))
        if modular == min(self.rows, self.cols):
            return modular
        return len(self._echelon()[1])

    def nullspace_basis(self) -> list[list[int]]:
        """Basis of the right kernel, one primitive integer vector per free column.

        Such a basis depends only on the kernel.  A tall matrix is first
        eliminated on its modular pivot rows alone; vectors that pass the
        check against every row prove that kernel the same, and otherwise
        all rows are eliminated.  Every returned vector is re-checked by
        multiplication.
        """
        candidates = [self]
        if self.rows > self.cols:
            keep = [self._data[r] for r, _ in _pivots_mod_p(self._data, self.cols)]
            candidates.insert(0, ExactMatrix._of_int_rows(keep, self.cols))
        for m in candidates:
            data, pivots = m._echelon()
            basis = []
            t = 0  # pivots left of the current column
            for free in range(self.cols):
                if t < len(pivots) and pivots[t][1] == free:
                    t += 1
                    continue
                # back-substitute the pivots left of free, last first; the
                # entries right of free are zero
                x = [0] * self.cols
                x[free] = data[t - 1][pivots[t - 1][1]] if t else 1
                for r, c in reversed(pivots[:t]):
                    row = data[r]
                    x[c] = -sum(map(mul, row[c + 1:free + 1], x[c + 1:free + 1])) // row[c]
                basis.append(_primitive(x))
            if not any(any(self.matvec(x)) for x in basis):
                return basis
        raise VerificationError("kernel vector fails verification")

    def in_column_space(self, vec) -> tuple[bool, tuple[list[int], int] | None]:
        """Decide exactly whether the int vector vec lies in the column space.

        Returns (True, (y, t)), the integer certificate with
        self @ y == -t * vec and t != 0, or (False, None).  vec lies in the
        span iff the last column of [self | vec] is free, that is, iff its
        last kernel basis vector (y, t) has t != 0; y is then zero at every
        non-pivot column.  The kernel check, [self | vec] @ (y, t) == 0, verifies it.
        """
        vec = _ints(vec)
        if len(vec) != self.rows:
            raise ValueError(f"vector length {len(vec)} does not match {self.rows} rows")
        aug = ExactMatrix._of_int_rows(
            [row + (v,) for row, v in zip(self._data, vec)], self.cols + 1
        )
        basis = aug.nullspace_basis()
        if not basis or not basis[-1][-1]:
            return False, None
        *y, t = basis[-1]
        return True, (y, t)

"""Dense exact linear algebra on plain Python ints.

Forward elimination is fraction-free (Bareiss, Math. Comp. 22, 1968) with
first-nonzero pivoting: each division by the previous pivot is exact, so `//`
never rounds.  Back-substitution scales the unknowns by the last pivot, which
by Cramer's rule keeps them integral.  Fractions appear only where a rational
is the answer: the column-space certificate, and vectors handed to `matvec`
or `in_column_space`.  Matrices here are small (a few hundred rows at most),
so dense storage is fine.  Floats are rejected outright.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

__all__ = ["ExactMatrix", "VerificationError"]


class VerificationError(AssertionError):
    """An exact result failed its re-check: an internal fault, not bad input."""


def _as_int(x) -> int:
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    raise TypeError(f"exact matrices take integer entries, got {x!r}")


def _as_exact(vec) -> list:
    vec = list(vec)
    for x in vec:
        if not isinstance(x, (int, Fraction)):
            raise TypeError(f"exact vectors take int or Fraction entries, got {x!r}")
    return vec


def _primitive(vec: list[int]) -> list[int]:
    """Divide a nonzero integer vector by the gcd of its entries, with the
    sign chosen to make its leading nonzero positive."""
    g = gcd(*vec)
    if next(v for v in vec if v) < 0:
        g = -g
    return [v // g for v in vec]


def _back_substitute(data, pivots, x: list[int], rhs: list[int]) -> list[int]:
    """Fill x at each pivot (r, c), last pivot first, so that row r of the
    echelon form `data` dotted with x equals rhs[r].  The divisions are exact
    when the true solution is integral; callers re-check x by multiplication."""
    n = len(x)
    for r, c in reversed(pivots):
        row = data[r]
        x[c] = (rhs[r] - sum(map(mul, row[c + 1:n], x[c + 1:]))) // row[c]
    return x


class ExactMatrix:
    """Immutable dense matrix of ints."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, entries, cols: int | None = None):
        data = tuple(tuple(map(_as_int, row)) for row in entries)
        if data:
            widths = {len(row) for row in data}
            if len(widths) != 1:
                raise ValueError("rows have unequal lengths")
            inferred = widths.pop()
            if cols is not None and cols != inferred:
                raise ValueError(f"cols={cols} but rows have {inferred} entries")
            cols = inferred
        elif cols is None:
            raise ValueError("a matrix with no rows needs an explicit column count")
        self.rows = len(data)
        self.cols = cols
        self._data = data

    def entry(self, i: int, j: int) -> int:
        return self._data[i][j]

    def row_list(self) -> list[list[int]]:
        return [list(row) for row in self._data]

    def __repr__(self) -> str:
        return f"ExactMatrix({self.rows}x{self.cols})"

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

    def matvec(self, vec) -> list:
        """self @ vec; the entries are ints for an int vector, else Fractions."""
        vec = _as_exact(vec)
        if len(vec) != self.cols:
            raise ValueError(f"vector length {len(vec)} does not match {self.cols} columns")
        return [sum(map(mul, row, vec)) for row in self._data]

    def column_submatrix(self, indices) -> "ExactMatrix":
        indices = list(indices)
        return ExactMatrix(
            [[row[j] for j in indices] for row in self._data], cols=len(indices)
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

    def pivot_columns(self) -> list[int]:
        """Indices of the columns outside the span of the columns before them;
        their count is the rank."""
        return [c for _, c in self._echelon()[1]]

    def rank(self) -> int:
        return len(self.pivot_columns())

    def nullspace_basis(self) -> list[list[int]]:
        """Basis of the right kernel, one primitive integer vector per free column.

        Every returned vector is re-checked by multiplication.
        """
        data, pivots = self._echelon()
        basis = []
        t = 0  # pivots left of the current column
        for free in range(self.cols):
            if t < len(pivots) and pivots[t][1] == free:
                t += 1
                continue
            x = [0] * self.cols
            x[free] = data[t - 1][pivots[t - 1][1]] if t else 1
            basis.append(_primitive(_back_substitute(data, pivots[:t], x, [0] * t)))
        for x in basis:
            if any(self.matvec(x)):
                raise VerificationError("kernel vector fails verification")
        return basis

    def left_nullspace_basis(self) -> list[list[int]]:
        """Row vectors y with y @ self == 0 (basis of the cokernel)."""
        return self.transpose().nullspace_basis()

    def in_column_space(self, vec) -> tuple[bool, list[Fraction] | None]:
        """Decide exactly whether vec (ints or Fractions) lies in the column space.

        Returns (True, x) with self @ x == vec and x a list of Fractions, or
        (False, None).  The certificate x is re-checked by multiplication
        before returning.
        """
        vec = _as_exact(vec)
        if len(vec) != self.rows:
            raise ValueError(f"vector length {len(vec)} does not match {self.rows} rows")
        scale = lcm(*(v.denominator for v in vec))
        aug = ExactMatrix(
            [row + (v.numerator * (scale // v.denominator),) for row, v in zip(self._data, vec)],
            cols=self.cols + 1,
        )
        data, pivots = aug._echelon()
        if pivots and pivots[-1][1] == self.cols:
            return False, None
        last = data[pivots[-1][0]][pivots[-1][1]] if pivots else 1
        rhs = [last * data[r][self.cols] for r, _ in pivots]
        x = _back_substitute(data, pivots, [0] * self.cols, rhs)
        x = [Fraction(v, last * scale) for v in x]
        if self.matvec(x) != vec:
            raise VerificationError("column space certificate fails verification")
        return True, x

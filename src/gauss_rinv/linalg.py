"""Exact linear algebra over the rationals: Fraction row reduction.

``solve_exact`` and ``nullspace_exact`` read their results off one reduced
row echelon form.  No report path calls them: the tests use the solvers as
exact references, and the exact core imports without this module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Union

Rational = Union[Fraction, int]


class SingularMatrixError(ArithmeticError):
    """The exact system has no unique solution."""


def _row_reduce(
    matrix: Sequence[Sequence[Rational]], n_cols: int
) -> tuple[list[list[Fraction]], list[int]]:
    """The reduced row echelon form of ``matrix`` over Fractions and its pivot
    columns, in order.  Each pivot is the first nonzero entry of its column
    at or below the current row (rows swap only on a zero), its row is
    scaled to 1 there, and the column is cleared in every other row."""
    rows = [[Fraction(v) for v in row] for row in matrix]
    pivots: list[int] = []
    for col in range(n_cols):
        r = len(pivots)
        if r == len(rows):
            break
        pivot_row = next((rr for rr in range(r, len(rows)) if rows[rr][col]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot = rows[r][col]
        rows[r] = [v / pivot for v in rows[r]]
        for rr, row in enumerate(rows):
            factor = row[col]
            if rr != r and factor:
                rows[rr] = [a - factor * b for a, b in zip(row, rows[r])]
        pivots.append(col)
    return rows, pivots


def solve_exact(matrix: Sequence[Sequence[Rational]], rhs: Sequence[Rational]) -> list[Fraction]:
    """Solve A x = b exactly for square A with Fraction or int entries.

    [A | b] is row reduced: A is nonsingular exactly when its n columns are
    the pivots, and then the last column is x.  Raises SingularMatrixError
    when A is singular.
    """
    n = len(matrix)
    rows, pivots = _row_reduce([[*row, v] for row, v in zip(matrix, rhs)], n + 1)
    if pivots != list(range(n)):
        raise SingularMatrixError(f"singular at column {min(set(range(n)) - set(pivots))}")
    return [row[n] for row in rows]


def nullspace_exact(matrix: Sequence[Sequence[Rational]], n_cols: int) -> list[list[Fraction]]:
    """Exact basis for the nullspace of a (possibly rectangular) matrix.

    Returns one coefficient vector per free column after row reduction,
    with 1 in that column and 0 in the other free ones; the basis is
    deterministic given the input ordering.
    """
    rows, pivots = _row_reduce(matrix, n_cols)
    basis = []
    for free in (c for c in range(n_cols) if c not in pivots):
        vec = [Fraction(0)] * n_cols
        vec[free] = Fraction(1)
        for row, col in zip(rows, pivots):
            vec[col] = -row[free]
        basis.append(vec)
    return basis

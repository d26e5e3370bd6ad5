"""Exact linear algebra over the rationals.

``solve_exact`` is Bareiss fraction-free elimination (Bareiss, Math.
Comp. 22, 1968) on Python ints: each row is scaled to integers once, every
elimination step divides exactly by the previous pivot, and one Fraction
per unknown is made at the end.  Intermediate entries are minors of the
scaled matrix, so they stay as short as its determinant instead of
growing the way Fraction denominators do.  ``nullspace_exact``, used only
for the small harmonic bases, is Fraction row reduction.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence, Union

Rational = Union[Fraction, int]


class SingularMatrixError(ArithmeticError):
    """The exact system has no unique solution."""


def solve_exact(matrix: Sequence[Sequence[Rational]], rhs: Sequence[Rational]) -> list[Fraction]:
    """Solve A x = b exactly for square A with Fraction or int entries.

    Each row of [A | b] is scaled to ints and eliminated by ``_eliminate``.
    Its last pivot D is +-det of the scaled A, so D x is an integer vector
    (Cramer's rule): back-substitution runs on it with exact ``//``, and
    x_i = Fraction(D x_i, D).  Raises SingularMatrixError when A is singular.
    """
    n = len(matrix)
    aug = []
    for row, b in zip(matrix, rhs):
        entries = [*row, b]
        den = math.lcm(*(v.denominator for v in entries))
        aug.append([v.numerator * (den // v.denominator) for v in entries])
    det = _eliminate(aug)
    y = [0] * n
    for row in range(n - 1, -1, -1):
        acc = det * aug[row][n]
        for c in range(row + 1, n):
            acc -= aug[row][c] * y[c]
        y[row] = acc // aug[row][row]
    return [Fraction(v, det) for v in y]


def _eliminate(aug: list[list[int]]) -> int:
    """Bareiss elimination of an n x (n + 1) int matrix to upper
    triangular form, in place.

    Step k sets each entry right of column k in a lower row to
    (pivot * entry - factor * pivot-row entry) // the previous pivot, an
    exact division: every entry is then a minor of the row-permuted input,
    no longer than Hadamard's bound.  Rows are swapped only on a zero
    pivot.  Returns the last pivot, +-det of the left n x n part; raises
    SingularMatrixError when that part is singular.
    """
    n = len(aug)
    prev = 1
    for col in range(n):
        if not aug[col][col]:
            swap = next((r for r in range(col + 1, n) if aug[r][col]), None)
            if swap is None:
                raise SingularMatrixError(f"singular at column {col}")
            aug[col], aug[swap] = aug[swap], aug[col]
        row_c = aug[col]
        pivot = row_c[col]
        tail_c = row_c[col + 1 :]
        for r in range(col + 1, n):
            row_r = aug[r]
            factor = row_r[col]
            row_r[col:] = [0] + [
                (pivot * v - factor * w) // prev for v, w in zip(row_r[col + 1 :], tail_c)
            ]
        prev = pivot
    return prev


def nullspace_exact(matrix: Sequence[Sequence[Fraction]], n_cols: int) -> list[list[Fraction]]:
    """Exact basis for the nullspace of a (possibly rectangular) matrix.

    Returns one coefficient vector per free column after row reduction;
    the basis is deterministic given the input ordering.
    """
    rows = [list(r) for r in matrix]
    n_rows = len(rows)
    pivots: list[int] = []
    r = 0
    for col in range(n_cols):
        pivot_row = None
        for rr in range(r, n_rows):
            if rows[rr][col] != 0:
                pivot_row = rr
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot = rows[r][col]
        rows[r] = [v / pivot for v in rows[r]]
        for rr in range(n_rows):
            if rr != r and rows[rr][col] != 0:
                factor = rows[rr][col]
                rows[rr] = [a - factor * b for a, b in zip(rows[rr], rows[r])]
        pivots.append(col)
        r += 1
        if r == n_rows:
            break
    free = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * n_cols
        vec[fc] = Fraction(1)
        for prow, pcol in enumerate(pivots):
            vec[pcol] = -rows[prow][fc]
        basis.append(vec)
    return basis

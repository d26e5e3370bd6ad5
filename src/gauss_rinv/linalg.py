"""Exact linear algebra over the rationals.

``factor_exact`` is Bareiss elimination (Math. Comp. 22, 1968) of an int
matrix, kept as a fraction-free LU (Nakos, Turner & Williams, SIGSAM Bull.
31(3), 1997) whose entries are minors, O(rows^3); ``solve_factored`` replays
it on an int right-hand side, O(rows^2), and ``solve_exact`` on a Fraction
system scaled to ints.  No other module calls them since the min-norm solve
went matrix-free.  ``nullspace_exact`` is Fraction row reduction.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import NamedTuple, Sequence, Union

Rational = Union[Fraction, int]


class SingularMatrixError(ArithmeticError):
    """The exact system has no unique solution."""


class Factor(NamedTuple):
    """A fraction-free LU: swaps[k], the row swapped into row k at step k;
    lu, the eliminated rows of the swapped A, with row r's multiplier at
    step c in place of its entry (r, c < r); the last pivot is det."""

    swaps: tuple[int, ...]
    lu: tuple[tuple[int, ...], ...]

    @property
    def det(self) -> int:
        return self.lu[-1][-1] if self.lu else 1


def factor_exact(matrix: Sequence[Sequence[int]]) -> Factor:
    """Bareiss elimination of a square int matrix: step k sets each entry
    right of column k in a lower row to (pivot * entry - multiplier *
    pivot-row entry) // the previous pivot, an exact division, so every
    entry is a minor of the swapped input.  Whole rows are swapped only on
    a zero pivot.  Raises SingularMatrixError when the matrix is singular."""
    n = len(matrix)
    rows = [list(row) for row in matrix]
    swaps = []
    prev = 1
    for col in range(n):
        swap = col
        if not rows[col][col]:
            swap = next((r for r in range(col + 1, n) if rows[r][col]), None)
            if swap is None:
                raise SingularMatrixError(f"singular at column {col}")
            rows[col], rows[swap] = rows[swap], rows[col]
        swaps.append(swap)
        pivot, tail_c = rows[col][col], rows[col][col + 1 :]
        for row_r in rows[col + 1 :]:
            m = row_r[col]
            row_r[col + 1 :] = [(pivot * v - m * w) // prev for v, w in zip(row_r[col + 1 :], tail_c)]
        prev = pivot
    return Factor(tuple(swaps), tuple(map(tuple, rows)))


def replay(factor: Factor, rhs: Sequence[int]) -> list[int]:
    """rhs eliminated as the columns of A were (a swap commutes with the
    earlier steps): entry k is a minor of the swapped [A | rhs]."""
    b = list(rhs)
    for col, swap in enumerate(factor.swaps):
        b[col], b[swap] = b[swap], b[col]
    prev = 1
    for col, row_c in enumerate(factor.lu):
        pivot, b_c, lower = row_c[col], b[col], factor.lu[col + 1 :]
        b[col + 1 :] = [(pivot * v - row_r[col] * b_c) // prev for v, row_r in zip(b[col + 1 :], lower)]
        prev = pivot
    return b


def solve_factored(factor: Factor, rhs: Sequence[int]) -> tuple[int, list[int]]:
    """(D, y) with A y / D = rhs for the int matrix A of ``factor``,
    D = factor.det: since D x is an int vector (Cramer's rule),
    back-substitution on the replayed rhs finds y = D x with exact ``//``."""
    b = replay(factor, rhs)
    det, y = factor.det, [0] * len(b)
    for row, u in reversed(list(enumerate(factor.lu))):
        y[row] = (det * b[row] - sum(map(mul, u[row + 1 :], y[row + 1 :]))) // u[row]
    return det, y


def solve_exact(matrix: Sequence[Sequence[Rational]], rhs: Sequence[Rational]) -> list[Fraction]:
    """Solve A x = b exactly for square A with Fraction or int entries.

    Each row of [A | b] is scaled to ints, then factored and solved:
    x_i = Fraction(D x_i, D).  Raises SingularMatrixError when A is
    singular.
    """
    aug = []
    for row, v in zip(matrix, rhs):
        den = math.lcm(*(e.denominator for e in (*row, v)))
        aug.append([e.numerator * (den // e.denominator) for e in (*row, v)])
    det, y = solve_factored(factor_exact([r[:-1] for r in aug]), [r[-1] for r in aug])
    return [Fraction(v, det) for v in y]


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

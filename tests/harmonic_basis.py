"""Exact bases of harmonic polynomials, the reference kernel of lap.

The package never needs ker(lap) itself: the min-norm solve is orthogonal
to it by construction.  The tests use these bases to check that claim.
"""

import math
from fractions import Fraction

from gauss_rinv.linalg import nullspace_exact
from gauss_rinv.polynomials import Polynomial
from gauss_rinv.rightinverse import multi_indices_up_to


def _indices_of_degree(dim: int, degree: int) -> list[tuple[int, ...]]:
    return [alpha for alpha in multi_indices_up_to(dim, degree) if sum(alpha) == degree]


def harmonic_dimension(dim: int, m: int) -> int:
    """dim H_m, the harmonic polynomials of degree m: C(m + dim - 1, dim - 1)
    - C(m + dim - 3, dim - 1), lap being onto degree m - 2 (0 in 1-D from
    m = 2 on)."""
    return math.comb(m + dim - 1, dim - 1) - (math.comb(m + dim - 3, dim - 1) if m >= 2 else 0)


def harmonic_polynomial_basis(dim: int, max_degree: int) -> list[Polynomial]:
    """Exact basis of polynomials annihilated by the Laplacian, by degree."""
    basis: list[Polynomial] = []
    for d in range(max_degree + 1):
        if d == 0:
            basis.append(Polynomial.constant(dim, 1))
            continue
        if d == 1:
            basis.extend(Polynomial.variable(dim, j) for j in range(dim))
            continue
        cols = _indices_of_degree(dim, d)
        rows = _indices_of_degree(dim, d - 2)
        row_pos = {r: i for i, r in enumerate(rows)}
        matrix = [[Fraction(0)] * len(cols) for _ in rows]
        for ci, exps in enumerate(cols):
            mono = Polynomial.monomial(exps)
            for r_exps, coef in mono.laplacian().terms.items():
                matrix[row_pos[r_exps]][ci] = coef
        for vec in nullspace_exact(matrix, len(cols)):
            # clear denominators for tidy integer coefficients
            den = 1
            for v in vec:
                den = den * v.denominator // math.gcd(den, v.denominator)
            basis.append(
                Polynomial(dim, {cols[i]: v * den for i, v in enumerate(vec) if v != 0})
            )
    return basis

"""Reference kernels of the exact core, one per layer, for the tests.

Every kernel takes and returns a tuple-keyed map ``{exponent tuple:
Fraction}`` and does one ``Fraction`` operation per step: the ring
(``add``, ``scale``, ``mul``), calculus (``partial``, ``laplacian``),
``shift``, monomial -> Hermite and back, Parseval, the formal adjoint, lap
on Hermite coefficients and the a = 0 min-norm solve.  Keys are inserted
in the order of the package's loops and zero values dropped last, so a
test compares values and key order alike (``same``).  The 1-D conversion
rows are this module's own, from the three-term recurrences; no kernel
reads a table, row or key of the package.  The min-norm solve assembles
the class-block normal equations and solves them with ``linalg``'s
Fraction row reduction, which its own tests check; so does the weak
solution at a != 0 (``normal_equations``).  Two kernels are float:
``float_blocks``, the blocks whose singular values ``operator_norm`` must
give, and ``gauss_hermite``, the tensor Gauss-Hermite quadrature that
every float integral over R^n in the tests goes through.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from gauss_rinv.linalg import nullspace_exact, solve_exact
from gauss_rinv.polynomials import Polynomial

Terms = dict  # {exponent tuple: Fraction}


def same(got, expected: Terms) -> None:
    """A map, a Polynomial's terms or a HermiteExpansion's coeffs equal
    ``expected``, key order included: over reduced numerators, the same
    (den, nums) in the same order."""
    terms = got if isinstance(got, dict) else got.terms if isinstance(got, Polynomial) else got.coeffs
    assert list(terms.items()) == list(expected.items())


def _nonzero(x: Terms) -> Terms:
    return {key: v for key, v in x.items() if v}


def _plus(a: tuple, b: tuple) -> tuple:
    return tuple(i + j for i, j in zip(a, b))


def _minus(exps: tuple, j: int, by: int) -> tuple:
    return exps[:j] + (exps[j] - by,) + exps[j + 1:]


# ----------------------------------------------------------------------
# ring and calculus
# ----------------------------------------------------------------------


def add(x: Terms, y: Terms, sign: int = 1) -> Terms:
    out = dict(x)
    for key, c in y.items():
        out[key] = out.get(key, 0) + sign * c
    return _nonzero(out)


def scale(x: Terms, factor) -> Terms:
    return {key: v * factor for key, v in x.items()} if factor else {}


def mul(x: Terms, y: Terms) -> Terms:
    out: dict = {}
    for ea, ca in x.items():
        for eb, cb in y.items():
            key = _plus(ea, eb)
            out[key] = out.get(key, 0) + ca * cb
    return _nonzero(out)


def partial(x: Terms, j: int) -> Terms:
    return {_minus(exps, j, 1): c * exps[j] for exps, c in x.items() if exps[j]}


def _laplacian(x: Terms) -> Terms:
    """lap x with the keys whose sums cancel still in place."""
    out: dict = {}
    for exps, c in x.items():
        for j, k in enumerate(exps):
            if k >= 2:
                key = _minus(exps, j, 2)
                out[key] = out.get(key, 0) + c * k * (k - 1)
    return out


def laplacian(x: Terms) -> Terms:
    return _nonzero(_laplacian(x))


def weight_polynomial(dim: int, lam, center) -> Terms:
    """lam |x - c|^2 by the ring: lam sum_j (x_j - c_j)^2."""
    out: Terms = {}
    for j in range(dim):
        axis = add({tuple(int(i == j) for i in range(dim)): Fraction(1)}, _nonzero({(0,) * dim: center[j]}), -1)
        out = add(out, mul(axis, axis))
    return scale(out, lam)


def random_polynomial(rng, dim, max_degree, max_terms=10, coeff_bound=16, nonzero=False) -> Terms:
    """The draws of ``polynomials.random_polynomial``, in its order, summed
    one Fraction at a time."""
    terms: dict = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * dim
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(dim)] += 1
        num, den = rng.randint(-coeff_bound, coeff_bound), rng.randint(1, coeff_bound)
        terms[tuple(exps)] = terms.get(tuple(exps), 0) + Fraction(num, den)
    terms = _nonzero(terms)
    if nonzero and not terms:
        return {(0,) * dim: Fraction(1, rng.randint(1, coeff_bound))}
    return terms


# ----------------------------------------------------------------------
# shift and the Hermite conversions: per-axis rows, tensor expansion
# ----------------------------------------------------------------------


def tensor_expand(x: Terms, row) -> Terms:
    """sum of c prod_j row(j, e_j) over the terms, axis 0 outermost;
    ``row(j, e)`` gives (index, value) pairs."""
    out: dict = {}
    for exps, c in x.items():
        partial_keys = [((), c)]
        for j, e in enumerate(exps):
            partial_keys = [(prefix + (i,), pc * v) for prefix, pc in partial_keys for i, v in row(j, e)]
        for key, v in partial_keys:
            out[key] = out.get(key, 0) + v
    return _nonzero(out)


def binomial_row(e: int, c) -> list:
    """(x + c)^e over x^i, i ascending."""
    return [(e, Fraction(1))] if c == 0 else [(i, math.comb(e, i) * Fraction(c) ** (e - i)) for i in range(e + 1)]


def shift(x: Terms, offset) -> Terms:
    """x(t + offset)."""
    return tensor_expand(x, lambda j, e: binomial_row(e, offset[j]))


def monomial_row(m: int, lam) -> list:
    """u^m over G_k(u) = H_k(sqrt(lam) u), k ascending: t^m over H_k by
    t H_k = H_(k+1) / 2 + k H_(k-1), times lam^((k - m) / 2)."""
    row = [Fraction(1)]
    for _ in range(m):
        nxt = [Fraction(0)] * (len(row) + 1)
        for k, c in enumerate(row):
            nxt[k + 1] += c / 2
            if k:
                nxt[k - 1] += c * k
        row = nxt
    return [(k, row[k] * Fraction(lam) ** ((k - m) // 2)) for k in range(m % 2, m + 1, 2)]


def hermite_row(k: int, lam) -> list:
    """G_k(u) over u^i, i ascending: H_k by H_(j+1) = 2t H_j - 2j H_(j-1),
    times lam^((i - k) / 2)."""
    prev, cur = [Fraction(0)], [Fraction(1)]
    for j in range(k):
        nxt = [Fraction(0)] * (j + 2)
        for i, c in enumerate(cur):
            nxt[i + 1] += 2 * c
        for i, c in enumerate(prev):
            nxt[i] -= 2 * j * c
        prev, cur = cur, nxt
    return [(i, c * Fraction(lam) ** ((i - k) // 2)) for i, c in enumerate(cur) if c]


def composed_row(outer: list, inner) -> list:
    """sum_i c_i inner(i) over the pairs (i, c_i) of ``outer``: nonzero
    pairs, index ascending."""
    out: dict = {}
    for i, c in outer:
        for k, v in inner(i):
            out[k] = out.get(k, 0) + c * v
    return sorted((k, v) for k, v in out.items() if v)


def to_hermite(x: Terms, lam, center) -> Terms:
    """Monomials of x -> G_alpha(x - center) in one pass: each axis row of
    x^m = (u + c)^m composed with the rows of u^i."""
    return tensor_expand(x, lambda j, m: composed_row(binomial_row(m, center[j]), lambda i: monomial_row(i, lam)))


def to_monomials(h: Terms, lam, center) -> Terms:
    """G_alpha(x - center) -> monomials of x in one pass: each axis row of
    G_k(u) composed with the rows of u^i = (x - c)^i."""
    return tensor_expand(h, lambda j, k: composed_row(hermite_row(k, lam), lambda i: binomial_row(i, -center[j])))


# ----------------------------------------------------------------------
# Parseval, the formal adjoint, lap on Hermite coefficients
# ----------------------------------------------------------------------


def basis_norm_sq(alpha: tuple, lam) -> Fraction:
    """||G_alpha||^2 in units (pi/lam)^(n/2): prod_j 2^a_j a_j! lam^-|alpha|."""
    return math.prod(2**a * math.factorial(a) for a in alpha) / Fraction(lam) ** sum(alpha)


def inner(x: Terms, y: Terms, lam) -> Fraction:
    """The Parseval sum of two Hermite maps over one weight scale."""
    return sum((c * y[alpha] * basis_norm_sq(alpha, lam) for alpha, c in x.items() if alpha in y), Fraction(0))


def formal_adjoint(dim: int, psi: Terms, w: Terms, a=0) -> Terms:
    """lap psi + V psi - 2 sum_j (d_j w)(d_j psi) + a psi, V = |grad w|^2 -
    lap w, in the term order of the package's one-pass stencil: per term of
    psi its lap, V psi, the gradient pairs and a psi."""
    grads = [partial(w, j) for j in range(dim)]
    v = {key: -c for key, c in _laplacian(w).items()}
    for g in grads:
        for ka, ca in g.items():
            for kb, cb in g.items():
                key = _plus(ka, kb)
                v[key] = v.get(key, 0) + ca * cb
    out: dict = {}
    for exps, c in psi.items():
        terms = [*_laplacian({exps: c}).items(), *((_plus(exps, off), c * vc) for off, vc in v.items() if vc)]
        for j, g in enumerate(grads):
            if exps[j]:
                terms.extend((_minus(_plus(exps, off), j, 1), -2 * c * exps[j] * gc) for off, gc in g.items())
        if a:
            terms.append((exps, a * c))
        for key, value in terms:
            out[key] = out.get(key, 0) + value
    return _nonzero(out)


def lowered(gamma: tuple) -> tuple:
    """lap G_gamma as pairs (gamma - 2 e_j, 4 gamma_j (gamma_j - 1)), gamma_j >= 2."""
    return tuple((_minus(gamma, j, 2), 4 * g * (g - 1)) for j, g in enumerate(gamma) if g >= 2)


def shifted_laplacian(h: Terms, a) -> Terms:
    """(lap + a) on Hermite coefficients: a h, then each lowered term."""
    out = {gamma: a * c for gamma, c in h.items()} if a else {}
    for gamma, c in h.items():
        for beta, b in lowered(gamma):
            out[beta] = out.get(beta, 0) + b * c
    return _nonzero(out)


# ----------------------------------------------------------------------
# the a = 0 min-norm solve and the kernel of lap
# ----------------------------------------------------------------------


def class_members(dim: int, degree: int, parity: tuple) -> list:
    """Multi-indices of the given total degree and per-axis parity, sorted."""
    half, rem = divmod(degree - sum(parity), 2)
    if half < 0 or rem:
        return []
    return sorted(
        tuple(p + 2 * q for p, q in zip(parity, quot))
        for quot in itertools.product(range(half + 1), repeat=dim)
        if sum(quot) == half
    )


def _block_solve(rows: list, cols: list, rhs: Terms, lam, a) -> Terms:
    """The least-norm u over ``cols`` with (lap + a) u = rhs on ``rows``:
    the normal equations B R^-1 B^T w = rhs, B the ``lowered`` entries (a
    on the diagonal), R the basis norms at ``lam``, solved by
    ``solve_exact``; u = R^-1 B^T w."""
    pos = {alpha: i for i, alpha in enumerate(rows)}
    columns = [
        (
            gamma,
            basis_norm_sq(gamma, lam),
            [(pos[beta], b) for beta, b in lowered(gamma)] + ([(pos[gamma], a)] if a and gamma in pos else []),
        )
        for gamma in cols
    ]
    matrix = [[Fraction(0)] * len(rows) for _ in rows]
    for _, norm, column in columns:
        for i, b_i in column:
            for j, b_j in column:
                matrix[i][j] += b_i * b_j / norm
    w = solve_exact(matrix, [rhs.get(alpha, 0) for alpha in rows])
    return {gamma: sum((b * w[i] for i, b in column), Fraction(0)) / norm for gamma, norm, column in columns}


def min_norm(f: Terms, dim: int, lam) -> Terms:
    """The u of least weighted norm with lap u = f, per (degree, parity)
    block of f: ``_block_solve`` from the members of degree + 2 onto those
    of the block's degree."""
    blocks: dict = {}
    for alpha, c in f.items():
        blocks.setdefault((sum(alpha), tuple(e % 2 for e in alpha)), {})[alpha] = c
    u: dict = {}
    for (degree, parity), rhs in sorted(blocks.items()):
        u.update(_block_solve(class_members(dim, degree, parity), class_members(dim, degree + 2, parity), rhs, lam, 0))
    return _nonzero(u)


def normal_equations(f: Terms, dim: int, lam, a, top: int) -> Terms:
    """The weak solution of (lap + a) u = f at truncation ``top``, the
    class-block normal equations the sweep solves: per parity class of f,
    ``_block_solve`` from the class's part of V_(top + 2) onto its part of
    V_top."""
    u: dict = {}
    for parity in sorted({tuple(e % 2 for e in alpha) for alpha in f}):
        rows, cols = (
            [m for k in range(sum(parity), last + 1, 2) for m in class_members(dim, k, parity)]
            for last in (top, top + 2)
        )
        u.update(_block_solve(rows, cols, f, lam, Fraction(a)))
    return _nonzero(u)


def float_blocks(dim: int, degree: int, shift: float) -> list:
    """lap + shift from V_(degree + 2) onto V_degree in orthonormal
    coordinates, one float block per parity class: sqrt(b) for each
    ``lowered`` entry b, shift on the diagonal."""
    out = []
    for parity in itertools.product((0, 1), repeat=dim):
        rows, cols = (
            [m for k in range(sum(parity), top + 1, 2) for m in class_members(dim, k, parity)]
            for top in (degree, degree + 2)
        )
        if rows:
            pos = {beta: i for i, beta in enumerate(rows)}
            block = np.zeros((len(rows), len(cols)))
            for ci, gamma in enumerate(cols):
                if gamma in pos:
                    block[pos[gamma], ci] = shift
                for beta, b in lowered(gamma):
                    block[pos[beta], ci] = math.sqrt(b)
            out.append(block)
    return out


def harmonic_dimension(dim: int, m: int) -> int:
    """dim H_m, the harmonic polynomials of degree m: C(m + dim - 1, dim - 1)
    - C(m + dim - 3, dim - 1), lap being onto degree m - 2 (0 in 1-D from
    m = 2 on)."""
    return math.comb(m + dim - 1, dim - 1) - (math.comb(m + dim - 3, dim - 1) if m >= 2 else 0)


def harmonic_basis(dim: int, max_degree: int) -> list[Polynomial]:
    """A basis of the polynomials of degree <= max_degree that lap
    annihilates: per degree, ``nullspace_exact`` of lap on its monomials."""
    basis = []
    for d in range(max_degree + 1):
        cols = sorted(e for e in itertools.product(range(d + 1), repeat=dim) if sum(e) == d)
        images = [laplacian({e: 1}) for e in cols]
        rows = {key: i for i, key in enumerate(sorted({key for image in images for key in image}))}
        matrix = [[0] * len(cols) for _ in rows]
        for ci, image in enumerate(images):
            for key, c in image.items():
                matrix[rows[key]][ci] = c
        basis.extend(Polynomial(dim, dict(zip(cols, vec))) for vec in nullspace_exact(matrix, len(cols)))
    return basis


# ----------------------------------------------------------------------
# float quadrature over R^n
# ----------------------------------------------------------------------


def gauss_hermite(fn, weight, order: int):
    """Tensor Gauss-Hermite approximation of the integral of fn(x)
    e^(-lam |x - center|^2) over R^n, from numpy's ``hermgauss``: exact for
    degree <= 2 order - 1 in each variable.  ``fn`` maps the (m, n) nodes,
    the last axis fastest, to m values (the result is a float) or to (m, k)
    values (k integrals); x = y / sqrt(lam) + center maps the rule of
    e^(-|y|^2) onto the weight, with the Jacobian lam^(-n/2)."""
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    lam, center = float(weight.lam), np.array([float(c) for c in weight.center])
    points = np.array(list(itertools.product(nodes, repeat=weight.dim)))
    tensor = np.prod(list(itertools.product(weights, repeat=weight.dim)), axis=1)
    values = np.asarray(fn(points / math.sqrt(lam) + center), dtype=float)
    total = tensor @ values * lam ** (-weight.dim / 2.0)
    return float(total) if values.ndim == 1 else total

"""Tuple-keyed reference kernels of the exact core, for the tests.

The package keys every multi-index by one packed int (see the
``polynomials`` module docstring).  These are the same kernels on tuple
keys, the representation the package used before: each takes and returns
an int map ``(den, {exponent tuple: num})``, reduced, its keys inserted in
the order of the package's loops, so a test can compare both the values
and the key order with the packed kernels.  Only the 1-D conversion rows
(``hermite._centered_monomial_row`` and ``_centered_hermite_row``), which
carry no multi-index, are shared with the package.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from gauss_rinv import hermite
from gauss_rinv.polynomials import unpack

IntMap = tuple[int, dict]


def tuple_map(x) -> IntMap:
    """A Polynomial's or HermiteExpansion's (den, nums) on tuple keys, in
    the key order of ``nums``."""
    dim = x.dim if hasattr(x, "dim") else x.weight.dim
    return x.den, {unpack(key, dim): num for key, num in x.nums.items()}


def reduced(den: int, nums: dict) -> IntMap:
    nums = {key: num for key, num in nums.items() if num}
    g = math.gcd(den, *nums.values())
    return den // g, {key: num // g for key, num in nums.items()}


def add(a: IntMap, b: IntMap, sign: int = 1) -> IntMap:
    den = math.lcm(a[0], b[0])
    out = {key: num * (den // a[0]) for key, num in a[1].items()}
    for key, num in b[1].items():
        out[key] = out.get(key, 0) + sign * num * (den // b[0])
    return reduced(den, out)


def mul(a: IntMap, b: IntMap) -> IntMap:
    out: dict = {}
    for ea, na in a[1].items():
        for eb, nb in b[1].items():
            key = tuple(map(operator.add, ea, eb))
            out[key] = out.get(key, 0) + na * nb
    return reduced(a[0] * b[0], out)


def partial(a: IntMap, index: int) -> IntMap:
    out = {}
    for exps, num in a[1].items():
        k = exps[index]
        if k:
            out[exps[:index] + (k - 1,) + exps[index + 1:]] = num * k
    return reduced(a[0], out)


def laplacian(a: IntMap) -> IntMap:
    out: dict = {}
    for exps, num in a[1].items():
        for j, k in enumerate(exps):
            if k >= 2:
                key = exps[:j] + (k - 2,) + exps[j + 1:]
                out[key] = out.get(key, 0) + num * k * (k - 1)
    return reduced(a[0], out)


def lowered(gamma: tuple) -> tuple:
    """lap G_gamma as pairs (gamma - 2 e_j, 4 gamma_j (gamma_j - 1)), gamma_j >= 2."""
    return tuple(
        (gamma[:j] + (g - 2,) + gamma[j + 1:], 4 * g * (g - 1)) for j, g in enumerate(gamma) if g >= 2
    )


def formal_adjoint(dim: int, psi: IntMap, w: IntMap, a: Fraction = Fraction(0)) -> IntMap:
    """lap psi + V psi - 2 sum_j (d_j w)(d_j psi) + a psi, V = |grad w|^2 - lap w,
    in the term order of the package's one-pass stencil."""
    d = w[0]
    grads: list[dict] = [{} for _ in range(dim)]
    lap: dict = {}
    for exps, num in w[1].items():
        for j, k in enumerate(exps):
            if k:
                grads[j][exps[:j] + (k - 1,) + exps[j + 1:]] = num * k
            if k >= 2:
                key = exps[:j] + (k - 2,) + exps[j + 1:]
                lap[key] = lap.get(key, 0) + num * k * (k - 1)
    v = {key: -d * num for key, num in lap.items()}
    for g in grads:
        for ka, na in g.items():
            for kb, nb in g.items():
                key = tuple(map(operator.add, ka, kb))
                v[key] = v.get(key, 0) + na * nb
    g_pairs = [(key, j, num * d) for j, g in enumerate(grads) for key, num in g.items()]
    p, q = a.numerator, a.denominator
    out: dict = {}
    for exps, num in psi[1].items():
        for j, k in enumerate(exps):
            if k >= 2:
                key = exps[:j] + (k - 2,) + exps[j + 1:]
                out[key] = out.get(key, 0) + num * k * (k - 1) * d * d * q
        for off, c in v.items():
            if c:
                key = tuple(map(operator.add, exps, off))
                out[key] = out.get(key, 0) + num * c * q
        for off, j, c in g_pairs:
            k = exps[j]
            if k:
                key = tuple(e + o - (i == j) for i, (e, o) in enumerate(zip(exps, off)))
                out[key] = out.get(key, 0) - 2 * q * num * k * c
        if p:
            out[exps] = out.get(exps, 0) + num * d * d * p
    return reduced(psi[0] * d * d * q, out)


def _expand(x: IntMap, row_of) -> IntMap:
    """Every term through the tensor product of its per-axis rows
    ``row_of(j, e)``, axis 0 outermost, over one common denominator."""
    images = []
    for exps, num in x[1].items():
        den, partial_keys = 1, [((), 1)]
        for j, e in enumerate(exps):
            row_den, pairs = row_of(j, e)
            den *= row_den
            partial_keys = [(prefix + (i,), pc * c) for prefix, pc in partial_keys for i, c in pairs]
        images.append((num, den, partial_keys))
    common = math.lcm(*(den for _, den, _ in images))
    out: dict = {}
    for num, den, pairs in images:
        for key, v in pairs:
            out[key] = out.get(key, 0) + num * (common // den) * v
    return reduced(x[0] * common, out)


def to_hermite(p: IntMap, weight) -> IntMap:
    """Monomials -> the scaled Hermite basis of ``weight``."""
    lam_p, lam_q = weight.lam.numerator, weight.lam.denominator
    center = [(c.numerator, c.denominator) for c in weight.center]
    return _expand(p, lambda j, e: hermite._centered_monomial_row(e, lam_p, lam_q, *center[j]))


def to_monomials(h: IntMap, weight) -> IntMap:
    """The scaled Hermite basis of ``weight`` -> monomials."""
    lam_p, lam_q = weight.lam.numerator, weight.lam.denominator
    center = [(c.numerator, c.denominator) for c in weight.center]
    return _expand(h, lambda j, e: hermite._centered_hermite_row(e, lam_p, lam_q, *center[j]))


def basis_norm_sq(alpha: tuple, lam: Fraction) -> Fraction:
    """||G_alpha||^2 in units (pi/lam)^{n/2}: prod_j 2^a_j a_j! lam^-|alpha|."""
    return math.prod(2**a * math.factorial(a) for a in alpha) / lam ** sum(alpha)


def inner(x: IntMap, y: IntMap, lam: Fraction) -> Fraction:
    """The Parseval sum of two Hermite maps over one weight scale."""
    terms = [(alpha, num * y[1][alpha]) for alpha, num in x[1].items() if alpha in y[1]]
    return sum((Fraction(num, x[0] * y[0]) * basis_norm_sq(alpha, lam) for alpha, num in terms), Fraction(0))

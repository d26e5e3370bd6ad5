"""Gaussian-weighted L2 machinery over scaled tensor Hermite bases.

The ambient space is L2(R^n, e^{-lam*|x-x0|^2}).  Its natural orthogonal
basis is built from physicists' Hermite polynomials H_k (orthogonal under
e^{-t^2}, ||H_k||^2 = 2^k k! sqrt(pi)).  To keep every coefficient an
exact rational even when sqrt(lam) is irrational, expansions are stored
over the rescaled basis

    G_alpha(x) = prod_j lam^{-alpha_j/2} * H_{alpha_j}(sqrt(lam) (x_j - x0_j)),

which is a rational-coefficient polynomial in x for rational lam and x0,
and coincides with the plain tensor Hermite basis when lam = 1.  Squared
basis norms are rational multiples of the global unit (pi/lam)^{n/2}:

    ||G_alpha||^2 = lam^{-|alpha|} * prod_j 2^{alpha_j} alpha_j!  *  (pi/lam)^{n/2}.

Exact weighted integrals of polynomials are GaussianScalar values: a
rational part tagged with that symbolic unit.  Non-polynomial integrands
go through tensor Gauss-Hermite quadrature (numpy's ``hermgauss`` rule).
Over an interval, the orthonormal basis has closed-form float integrals:
its Gaussian moments (``gaussian_moments``, from erf and Rodrigues'
formula) and its Gram matrix (``hermite_gram``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Mapping

import numpy as np

from .polynomials import (
    DimensionMismatchError,
    IntRow,
    MultiIndex,
    Polynomial,
    RationalLike,
    TermImage,
    _as_fraction,
    format_rational,
    over_common_denominator,
    reduced,
    tensor_expand,
    term_image,
    validated_terms,
)


class UnitMismatchError(ValueError):
    """Exact scalars with different symbolic units were combined."""


# ----------------------------------------------------------------------
# weight specification
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class WeightSpec:
    """The weight lam*|x - center|^2 defining e^{-weight} on R^n."""

    dim: int
    lam: Fraction = Fraction(1)
    center: tuple[Fraction, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "lam", _as_fraction(self.lam))
        center = tuple(_as_fraction(c) for c in (self.center or (0,) * self.dim))
        object.__setattr__(self, "center", center)
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")
        if self.lam <= 0:
            raise ValueError(f"lambda must be positive, got {self.lam}")
        if len(center) != self.dim:
            raise DimensionMismatchError(
                f"center length {len(center)} != dimension {self.dim}"
            )

    @classmethod
    def unit(cls, dim: int) -> "WeightSpec":
        return cls(dim=dim)

    @property
    def is_unit(self) -> bool:
        return self.lam == 1 and all(c == 0 for c in self.center)

    def polynomial(self) -> Polynomial:
        """The weight as an exact polynomial lam*|x - center|^2.

        With lam = p/q and L the lcm of the center's denominators, the
        numerators over q L^2 are p L^2 at x_j^2, -2 p (c_j L) L at x_j
        and p sum_j (c_j L)^2 at 1, in the key order of the sum of the
        squares (x_j - c_j)^2.
        """
        n, p = self.dim, self.lam.numerator
        scale = math.lcm(*(c.denominator for c in self.center))
        zero = (0,) * n
        nums: dict[MultiIndex, int] = {}
        constant = 0
        for j, c in enumerate(self.center):
            nums[zero[:j] + (2,) + zero[j + 1:]] = p * scale * scale
            if c:
                cl = c.numerator * (scale // c.denominator)
                nums[zero[:j] + (1,) + zero[j + 1:]] = -2 * p * cl * scale
                nums.setdefault(zero, 0)  # the constant's key follows the first x_j
                constant += cl * cl
        if constant:
            nums[zero] = p * constant
        return Polynomial._trusted(n, *reduced(self.lam.denominator * scale * scale, nums))

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "lambda": format_rational(self.lam),
            "center": [format_rational(c) for c in self.center],
        }


# ----------------------------------------------------------------------
# exact weighted scalars
# ----------------------------------------------------------------------


class GaussianScalar:
    """Exact weighted-integral value: rational * (pi/lam)^{pi_pow}.

    Scalars only combine when their units agree; cross-unit arithmetic or
    comparison raises UnitMismatchError rather than coercing.  Products of
    same-lam scalars add the pi powers (|<f,g>|^2 carries (pi/lam)^n).
    """

    __slots__ = ("value", "pi_pow", "lam")

    def __init__(self, value: RationalLike, pi_pow: RationalLike, lam: RationalLike = 1):
        self.value = _as_fraction(value)
        self.pi_pow = _as_fraction(pi_pow)
        self.lam = _as_fraction(lam)
        if self.lam <= 0:
            raise ValueError("lambda must be positive")

    @classmethod
    def for_weight(cls, value: RationalLike, weight: WeightSpec) -> "GaussianScalar":
        return cls(value, Fraction(weight.dim, 2), weight.lam)

    def _check_unit(self, other: "GaussianScalar") -> None:
        if self.pi_pow != other.pi_pow or self.lam != other.lam:
            raise UnitMismatchError(
                f"unit (pi/{self.lam})^{self.pi_pow} vs (pi/{other.lam})^{other.pi_pow}"
            )

    def __add__(self, other: "GaussianScalar") -> "GaussianScalar":
        self._check_unit(other)
        return GaussianScalar(self.value + other.value, self.pi_pow, self.lam)

    def __mul__(self, other: "GaussianScalar") -> "GaussianScalar":
        if self.lam != other.lam:
            raise UnitMismatchError(
                f"cannot multiply scalars with lambda {self.lam} and {other.lam}"
            )
        return GaussianScalar(self.value * other.value, self.pi_pow + other.pi_pow, self.lam)

    def scale(self, factor: RationalLike) -> "GaussianScalar":
        return GaussianScalar(self.value * _as_fraction(factor), self.pi_pow, self.lam)

    def ratio(self, other: "GaussianScalar") -> Fraction:
        """Exact ratio of two same-unit scalars."""
        self._check_unit(other)
        if other.value == 0:
            raise ZeroDivisionError("ratio against zero scalar")
        return self.value / other.value

    def __eq__(self, other) -> bool:
        if not isinstance(other, GaussianScalar):
            return NotImplemented
        if self.value == 0 and other.value == 0:
            return True
        self._check_unit(other)
        return self.value == other.value

    def __le__(self, other: "GaussianScalar") -> bool:
        self._check_unit(other)
        return self.value <= other.value

    def __ge__(self, other: "GaussianScalar") -> bool:
        return other.__le__(self)

    def is_zero(self) -> bool:
        return self.value == 0

    def to_float(self) -> float:
        return float(self.value) * (math.pi / float(self.lam)) ** float(self.pi_pow)

    def to_json_dict(self) -> dict:
        return {
            "rational": format_rational(self.value),
            "pi_pow": float(self.pi_pow),
            "lambda": format_rational(self.lam),
        }

    def __str__(self) -> str:
        """The identity corpus signature: value*(pi/lam)^pi_pow, the power as a float."""
        return f"{format_rational(self.value)}*(pi/{format_rational(self.lam)})^{float(self.pi_pow)}"

    def __repr__(self) -> str:
        return f"GaussianScalar({self})"


# ----------------------------------------------------------------------
# Hermite conversion tables (exact, cached): per-axis rows and the
# whole-term images tensor_expand reads
# ----------------------------------------------------------------------

# A cold row is built from the rows below it; each ROW_STRIDE-th row first
# builds the one ROW_STRIDE below it, so a cold row of degree m recurses
# about m / ROW_STRIDE + 2 ROW_STRIDE calls deep, not m.
ROW_STRIDE = 64


def _reduced_row(den: int, nums: list[int]) -> IntRow:
    """den and the numerator nums[i] of each index i, reduced, as the
    nonzero pairs by ascending index."""
    g = math.gcd(den, *nums)
    return den // g, tuple((i, v // g) for i, v in enumerate(nums) if v)


@lru_cache(maxsize=4096)
def _centered_monomial_row(m: int, p: int, q: int, cn: int, cd: int) -> IntRow:
    """x^m over G_k(u), u = x - c, c = cn/cd, lam = p/q: row m - 1 times
    x G_k = G_(k+1) / 2 + c G_k + (k / lam) G_(k-1), over 2 cd p."""
    if m == 0:
        return 1, ((0, 1),)
    if m % ROW_STRIDE == 0:
        _centered_monomial_row(m - ROW_STRIDE, p, q, cn, cd)
    den, pairs = _centered_monomial_row(m - 1, p, q, cn, cd)
    out = [0] * (m + 1)
    for k, num in pairs:
        out[k + 1] += cd * p * num
        out[k] += 2 * cn * p * num
        if k:
            out[k - 1] += 2 * k * q * cd * num
    return _reduced_row(2 * cd * p * den, out)


@lru_cache(maxsize=4096)
def _centered_hermite_row(k: int, p: int, q: int, cn: int, cd: int) -> IntRow:
    """G_k(u) over x^i, u = x - c, c = cn/cd, lam = p/q, from rows k - 1
    and k - 2 by G_k = 2 u G_(k-1) - (2 (k - 1) / lam) G_(k-2)."""
    if k == 0:
        return 1, ((0, 1),)
    if k % ROW_STRIDE == 0:
        _centered_hermite_row(k - ROW_STRIDE, p, q, cn, cd)
    den_1, pairs = _centered_hermite_row(k - 1, p, q, cn, cd)
    den, out = cd * den_1, [0] * (k + 1)
    for i, num in pairs:
        out[i + 1] += 2 * cd * num
        out[i] -= 2 * cn * num
    if k > 1:
        den_2, pairs = _centered_hermite_row(k - 2, p, q, cn, cd)
        den = math.lcm(cd * den_1, p * den_2)
        out = [v * (den // (cd * den_1)) for v in out]
        scale = 2 * (k - 1) * q * (den // (p * den_2))
        for i, num in pairs:
            out[i] -= scale * num
    return _reduced_row(den, out)


# Distinct (exponents, p, q) of the whole-term images kept per direction.
# A seed's identity battery meets about 280 monomials at zero center (and
# 370 centered rows off center); a degree-12 3-D solve reads 455 indices.
IMAGE_CACHE_SIZE = 4096


@lru_cache(maxsize=IMAGE_CACHE_SIZE)
def _monomial_image(exps: MultiIndex, p: int, q: int) -> TermImage:
    """prod_j u_j^(e_j) over the scaled basis G_alpha, lam = p/q."""
    return term_image(_centered_monomial_row(m, p, q, 0, 1) for m in exps)


@lru_cache(maxsize=IMAGE_CACHE_SIZE)
def _hermite_image(alpha: MultiIndex, p: int, q: int) -> TermImage:
    """G_alpha(u) over the monomials of u, lam = p/q."""
    return term_image(_centered_hermite_row(k, p, q, 0, 1) for k in alpha)


def _term_images(weight: WeightSpec, cached, row) -> Callable[[MultiIndex], TermImage]:
    """One direction's whole-term images over ``weight``: the ``cached`` ones at
    zero center, else the product of centered ``row``s, built per call."""
    p, q = weight.lam.numerator, weight.lam.denominator
    if not any(weight.center):
        return lambda key: cached(key, p, q)
    center = [(c.numerator, c.denominator) for c in weight.center]
    return lambda key: term_image([row(e, p, q, cn, cd) for e, (cn, cd) in zip(key, center)])


@lru_cache(maxsize=None)
def _axis_norm_sq(a: int) -> int:
    """||H_a||^2 / sqrt(pi) = 2^a a!."""
    return 2**a * math.factorial(a)


def _parseval(products: list[tuple[MultiIndex, int]], den: int, lam: Fraction) -> Fraction:
    """sum of num * ||G_alpha||^2 / den over (alpha, num), in units (pi/lam)^{n/2}.

    With lam = p/q, ||G_alpha||^2 = prod_j 2^a_j a_j! * q^|alpha| / p^|alpha|;
    the sum runs on ints over p^top, top the largest |alpha|, and is
    reduced once.
    """
    p, q = lam.numerator, lam.denominator
    top = max((sum(alpha) for alpha, _ in products), default=0)
    total = 0
    for alpha, num in products:
        s = sum(alpha)
        total += num * q**s * p ** (top - s) * math.prod(map(_axis_norm_sq, alpha))
    return Fraction(total, den * p**top)


def hermite_polynomial_1d(k: int) -> Polynomial:
    """H_k as an exact one-dimensional Polynomial (physicists' convention)."""
    den, pairs = _centered_hermite_row(k, 1, 1, 0, 1)
    return Polynomial._trusted(1, den, {(i,): c for i, c in pairs})


# ----------------------------------------------------------------------
# expansions
# ----------------------------------------------------------------------


class HermiteExpansion:
    """Rational coefficients over the scaled tensor Hermite basis G_alpha.

    Stored as Polynomial stores its terms (see the ``polynomials`` module
    docstring): one positive int denominator ``den`` and the nonzero int
    numerators ``nums``, with ``gcd(den, *nums.values()) == 1``.
    ``coeffs``, the map of reduced Fractions in the key order of
    ``nums``, is built on first read and cached.
    """

    __slots__ = ("weight", "den", "nums", "_coeffs")

    def __init__(self, weight: WeightSpec, coeffs: Mapping[MultiIndex, RationalLike]):
        self.weight = weight
        self._coeffs = validated_terms(weight.dim, coeffs)
        self.den, self.nums = over_common_denominator(self._coeffs)

    @classmethod
    def _trusted(
        cls, weight: WeightSpec, den: int, nums: dict[MultiIndex, int]
    ) -> "HermiteExpansion":
        """Wrap a (den, nums) pair that already meets the Polynomial
        invariant for ``weight.dim``; the map is not copied."""
        self = object.__new__(cls)
        self.weight = weight
        self.den = den
        self.nums = nums
        self._coeffs = None
        return self

    @property
    def coeffs(self) -> dict[MultiIndex, Fraction]:
        """Each multi-index and its reduced nonzero coefficient, in the key
        order of ``nums``; built on first read."""
        if self._coeffs is None:
            den = self.den
            self._coeffs = {key: Fraction(num, den) for key, num in self.nums.items()}
        return self._coeffs

    @staticmethod
    def basis_norm_sq(alpha: MultiIndex, lam: Fraction) -> Fraction:
        """Rational part of ||G_alpha||^2 in units (pi/lam)^{n/2}."""
        r = 1
        for a in alpha:
            r *= _axis_norm_sq(a)
        return r * lam ** (-sum(alpha))

    def degree(self) -> int:
        return max(map(sum, self.nums), default=-1)

    def is_zero(self) -> bool:
        return not self.nums

    def __eq__(self, other) -> bool:
        if not isinstance(other, HermiteExpansion):
            return NotImplemented
        return self.weight == other.weight and self.den == other.den and self.nums == other.nums

    def inner(self, other: "HermiteExpansion") -> GaussianScalar:
        """Exact weighted inner product via basis orthogonality (Parseval)."""
        if self.weight != other.weight:
            raise UnitMismatchError("expansions over different weights")
        small, large = self.nums, other.nums
        if len(large) < len(small):
            small, large = large, small
        products = []
        for alpha, num in small.items():
            d = large.get(alpha)
            if d is not None:
                products.append((alpha, num * d))
        total = _parseval(products, self.den * other.den, self.weight.lam)
        return GaussianScalar.for_weight(total, self.weight)

    def norm_sq(self) -> GaussianScalar:
        products = [(alpha, n * n) for alpha, n in self.nums.items()]
        total = _parseval(products, self.den * self.den, self.weight.lam)
        return GaussianScalar.for_weight(total, self.weight)

    def to_polynomial(self) -> Polynomial:
        """Exact inverse of monomial_to_hermite: one tensor_expand through
        the images of G_alpha(x - center) over the monomials of x."""
        images = _term_images(self.weight, _hermite_image, _centered_hermite_row)
        return Polynomial._trusted(self.weight.dim, *tensor_expand(self.den, self.nums, images))

    def to_json_dict(self) -> dict:
        return {
            "weight": self.weight.to_json_dict(),
            "coeffs": [
                {"index": list(k), "coef": format_rational(v)}
                for k, v in sorted(self.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0]))
            ],
        }


def monomial_to_hermite(p: Polynomial, weight: WeightSpec) -> HermiteExpansion:
    """Exact change of basis from monomials to the scaled Hermite basis:
    one tensor_expand through the images of x^e over G_alpha(x - center)."""
    if p.dim != weight.dim:
        raise DimensionMismatchError(
            f"polynomial dimension {p.dim} != weight dimension {weight.dim}"
        )
    images = _term_images(weight, _monomial_image, _centered_monomial_row)
    return HermiteExpansion._trusted(weight, *tensor_expand(p.den, p.nums, images))


def inner_product(p: Polynomial, q: Polynomial, weight: WeightSpec) -> GaussianScalar:
    """Exact <p, q>_weight = integral of p*q*e^{-weight} over R^n."""
    if p.dim != q.dim:
        raise DimensionMismatchError(f"dimension mismatch: {p.dim} vs {q.dim}")
    return monomial_to_hermite(p, weight).inner(monomial_to_hermite(q, weight))


def norm_sq(p: Polynomial, weight: WeightSpec) -> GaussianScalar:
    """Exact squared weighted norm ||p||^2_weight."""
    return monomial_to_hermite(p, weight).norm_sq()


# ----------------------------------------------------------------------
# Gauss-Hermite quadrature
# ----------------------------------------------------------------------


def normalized_hermite_values(max_k: int, t, first=math.pi**-0.25):
    """Orthonormal H_k(t)/sqrt(2^k k! sqrt(pi)) values, k = 0..max_k.

    ``t`` is a float or a numpy array (then every entry from k = 1 on is
    an array of t's shape; the k = 0 entry is ``first``, by default the
    scalar pi^{-1/4}).  High-degree Hermite polynomials have astronomically
    large monomial coefficients; the normalized three-term recurrence keeps
    every value O(1) near the physical region, so pointwise evaluation
    stays precise.  The recurrence is linear, so ``first`` =
    pi^{-1/4} e^{-t^2/2} gives the Hermite functions h_k(t) e^{-t^2/2},
    which stay below 1 where h_k(t) itself would overflow.
    """
    vals = [first]
    prev = 0.0
    for k in range(max_k):
        vals.append(t * math.sqrt(2.0 / (k + 1)) * vals[k] - math.sqrt(k / (k + 1.0)) * prev)
        prev = vals[k]
    return vals


def tensor_rule(nodes: np.ndarray, weights: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-fold tensor product of a 1-D rule: (m, n) points, the last
    axis fastest, and their (m,) weights, m = len(nodes)^n."""
    grids = np.meshgrid(*[nodes] * n, indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=1)
    return points, np.prod(np.meshgrid(*[weights] * n, indexing="ij"), axis=0).ravel()


def integrate_gaussian(
    fn: Callable[[np.ndarray], np.ndarray], weight: WeightSpec, order: int
) -> float | np.ndarray:
    """Tensor Gauss-Hermite approximation of integral fn(x) e^{-weight} dx.

    ``fn`` maps an (m, n) array of nodes to m values (the result is a
    float) or to an (m, k) array (the result is k integrals).  With
    ``order`` points per axis the rule is exact for polynomials of degree
    at most 2 * order - 1 in each variable.  Change of variables
    x = y/sqrt(lam) + center maps the scaled weight to the reference
    e^{-|y|^2} rule and contributes the lam^{-n/2} Jacobian.
    ``numpy.polynomial`` is looked up at call time, so importing the
    package does not load it.
    """
    lam = float(weight.lam)
    points, weights = tensor_rule(*np.polynomial.hermite.hermgauss(order), weight.dim)
    center = np.array([float(c) for c in weight.center])
    values = np.asarray(fn(points * lam**-0.5 + center), dtype=float)
    total = (weights @ values) * lam ** (-weight.dim / 2.0)
    return float(total) if total.ndim == 0 else total


# ----------------------------------------------------------------------
# closed-form 1-D integrals of the orthonormal basis
# ----------------------------------------------------------------------


def _gauss_mass(a: float, b: float) -> float:
    """integral_a^b e^{-t^2} dt, by erfc when both ends lie on one side of
    0, where the difference of erfs would cancel."""
    if a >= 0.0 or b <= 0.0:
        near, far = sorted((abs(a), abs(b)))
        return math.sqrt(math.pi) / 2.0 * (math.erfc(near) - math.erfc(far))
    return math.sqrt(math.pi) / 2.0 * (math.erf(b) - math.erf(a))


@lru_cache(maxsize=None)
def _rodrigues_factors(cols: int) -> np.ndarray:
    """1/sqrt(2k), k = 1..cols-1, read-only: d/dt [h_(k-1)(t) e^{-t^2}] = -sqrt(2k) h_k(t) e^{-t^2}."""
    factors = 1.0 / np.sqrt(2.0 * np.arange(1, cols))
    factors.setflags(write=False)
    return factors


def gaussian_moments(
    lo: np.ndarray, hi: np.ndarray, origins: np.ndarray, x0: float, rows: int, cols: int
) -> np.ndarray:
    """The (C, rows, cols) table M[c, m, k] of the integrals over [lo_c, hi_c]
    of s^m h_k(t) e^{-t^2} dx, s = x - origins_c, t = x - x0; cols >= 2.

    M[0, 0] is erf.  For k >= 1, Rodrigues' formula integrated by parts
    gives M[m, k] = (m M[m-1, k-1] - [s^m h_(k-1) e^{-t^2}]) / sqrt(2k);
    for m >= 1, s = t + x0 - origin and t h_0 = h_1 / sqrt(2) give M[m, 0].
    That last step loses about |x0 - origin| / (hi - lo) per row when the
    origin is far from x0 next to the cell width; domains.SampledFunction
    asks for m <= 2 on grid cells and puts a polynomial's origin at 0.
    h_(k-1) e^{-t^2} is the Hermite function h_(k-1) e^{-t^2/2} times
    e^{-t^2/2}: a far end underflows to 0, not inf * 0.
    """
    cells = len(lo)
    t = np.concatenate([lo, hi]) - x0
    half = np.exp(-t * t / 2.0)
    ends = (np.array(normalized_hermite_values(cols - 2, t, math.pi**-0.25 * half)) * half).T
    factors = _rodrigues_factors(cols)
    table = np.empty((cells, rows, cols))
    table[:, 0, 0] = [math.pi**-0.25 * _gauss_mass(a, b) for a, b in zip(t[:cells], t[cells:])]
    table[:, 0, 1:] = (ends[:cells] - ends[cells:]) * factors
    s_lo, s_hi = (lo - origins)[:, None], (hi - origins)[:, None]
    for m in range(1, rows):
        edge = s_hi**m * ends[cells:] - s_lo**m * ends[:cells]
        table[:, m, 1:] = (m * table[:, m - 1, :-1] - edge) * factors
        table[:, m, 0] = table[:, m - 1, 1] * math.sqrt(0.5) + (x0 - origins) * table[:, m - 1, 0]
    return table


@lru_cache(maxsize=None)
def _legendre_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """The order-point Gauss-Legendre rule on [-1, 1], exact to degree
    2 order - 1, read-only."""
    rule = np.polynomial.legendre.leggauss(order)
    for arr in rule:
        arr.setflags(write=False)
    return rule


def hermite_gram(lo: float, hi: float, x0: float, size: int) -> np.ndarray:
    """G[a, b] = integral_lo^hi h_a(x - x0) h_b(x - x0) dx, a, b < size: a
    polynomial of degree 2 size - 2, which the size-point rule integrates
    exactly."""
    nodes, weights = _legendre_rule(size)
    t = (hi + lo) / 2.0 - x0 + (hi - lo) / 2.0 * nodes
    values = np.array(normalized_hermite_values(size - 1, t, np.full(size, math.pi**-0.25)))
    return (values * (weights * (hi - lo) / 2.0)) @ values.T

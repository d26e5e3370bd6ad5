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
    _as_fraction,
    format_rational,
    over_common_denominator,
    tensor_expand,
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
        """The weight as an exact polynomial lam*|x - center|^2."""
        x = [Polynomial.variable(self.dim, j) for j in range(self.dim)]
        out = Polynomial.zero(self.dim)
        for j in range(self.dim):
            shifted = x[j] - Polynomial.constant(self.dim, self.center[j])
            out = out + shifted * shifted
        return out.scale(self.lam)

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
# per-axis Hermite conversion tables (exact, cached)
# ----------------------------------------------------------------------

@lru_cache(maxsize=4096)
def _scaled_monomial_row(m: int, p: int, q: int) -> IntRow:
    """u^m = sum_k c_k G_k(u) on one axis, lam = p/q, as ints over one denominator.

    t^m = m!/2^m sum_s H_{m-2s}(t) / (s! (m-2s)!), and G_k scales by
    lam^(-k/2), so c_{m-2s} = m! / (s! (m-2s)!) * q^s / (2^m p^s).  Pairs
    run over k = m - 2s ascending.
    """
    top = m // 2
    return 2**m * p**top, tuple(
        (m - 2 * s, math.factorial(m) // (math.factorial(s) * math.factorial(m - 2 * s))
         * q**s * p ** (top - s))
        for s in range(top, -1, -1)
    )


@lru_cache(maxsize=4096)
def _hermite_coeffs(k: int) -> tuple[tuple[int, int], ...]:
    """Nonzero (i, [H_k]_i) pairs, i ascending:
    H_k(t) = k! sum_s (-1)^s (2t)^(k-2s) / (s! (k-2s)!)."""
    return tuple(
        (k - 2 * s, (-1) ** s * 2 ** (k - 2 * s) * math.factorial(k)
         // (math.factorial(s) * math.factorial(k - 2 * s)))
        for s in range(k // 2, -1, -1)
    )


@lru_cache(maxsize=4096)
def _scaled_hermite_row(k: int, p: int, q: int) -> IntRow:
    """G_k(u) = sum_i [H_k]_i lam^((i-k)/2) u^i on one axis, lam = p/q, as
    ints over the denominator p^(k // 2)."""
    top = k // 2
    return p**top, tuple(
        (i, c * q ** ((k - i) // 2) * p ** (top - (k - i) // 2)) for i, c in _hermite_coeffs(k)
    )


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
    return Polynomial._trusted(1, 1, {(i,): c for i, c in _hermite_coeffs(k)})


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
        """Exact inverse of monomial_to_hermite."""
        w = self.weight
        p, q = w.lam.numerator, w.lam.denominator
        den, nums = tensor_expand(self.den, self.nums, lambda j, k: _scaled_hermite_row(k, p, q))
        result = Polynomial._trusted(w.dim, den, nums)
        if any(c != 0 for c in w.center):
            result = result.shift([-c for c in w.center])
        return result

    def to_json_dict(self) -> dict:
        return {
            "weight": self.weight.to_json_dict(),
            "coeffs": [
                {"index": list(k), "coef": format_rational(v)}
                for k, v in sorted(self.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0]))
            ],
        }


def monomial_to_hermite(p: Polynomial, weight: WeightSpec) -> HermiteExpansion:
    """Exact change of basis from monomials to the scaled Hermite basis."""
    if p.dim != weight.dim:
        raise DimensionMismatchError(
            f"polynomial dimension {p.dim} != weight dimension {weight.dim}"
        )
    q = p.shift(weight.center) if any(c != 0 for c in weight.center) else p
    num, den = weight.lam.numerator, weight.lam.denominator
    return HermiteExpansion._trusted(
        weight, *tensor_expand(q.den, q.nums, lambda j, m: _scaled_monomial_row(m, num, den))
    )


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


def normalized_hermite_values(max_k: int, t):
    """Orthonormal H_k(t)/sqrt(2^k k! sqrt(pi)) values, k = 0..max_k.

    ``t`` is a float or a numpy array (then every entry from k = 1 on is
    an array of t's shape; the k = 0 entry stays the scalar pi^{-1/4}).
    High-degree Hermite polynomials have astronomically large monomial
    coefficients; the normalized three-term recurrence keeps every value
    O(1) near the physical region, so pointwise evaluation stays precise.
    """
    vals = [math.pi**-0.25]
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

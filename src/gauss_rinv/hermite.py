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

A HermiteExpansion keys its coefficients as a Polynomial keys its terms:
by packed multi-indices, the total degree |alpha| in the leading field
and alpha_j in field n - 1 - j (see the ``polynomials`` module
docstring), so int order is graded-lex order, ``alpha >> W*n`` is
|alpha| and ``alpha & PAR`` its parity class.  A conversion row's index
i lands at the key offset i * step_j of its axis (``term_image``), and
``_parseval`` reads |alpha| and prod_j 2^alpha_j alpha_j! off each key.
Every tuple multi-index of the public surface (``HermiteExpansion(weight,
coeffs)``, ``coeffs``, ``to_json_dict``) is packed on the way in and
unpacked on the way out.

Exact weighted integrals are GaussianScalar values: a rational part
tagged with that symbolic unit.  Expansions pair by Parseval
(``HermiteExpansion.inner`` and ``norm_sq``).  Polynomials pair through
the per-axis Gaussian moments, converting neither factor:
``inner_product`` and ``norm_sq`` sum p_a q_b prod_j m_j(a_j + b_j) over
pairs of terms, m_j the moments of the axis-j Gaussian of mean x0_j and
variance 1/(2 lam), held as ints over one denominator per row
(``_moment_row``).  The module is exact-only: the float integrals over
intervals, with the package's one Gauss rule, live in ``domains``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Mapping, NamedTuple, Sequence

from .polynomials import (
    MAX_DEGREE,
    DimensionMismatchError,
    IntRow,
    MultiIndex,
    Polynomial,
    RationalLike,
    TermImage,
    _as_fraction,
    check_degree,
    format_rational,
    key_layout,
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


class _WeightFields(NamedTuple):
    dim: int
    lam: Fraction
    center: tuple[Fraction, ...]


class WeightSpec(_WeightFields):
    """The weight lam*|x - center|^2 defining e^{-weight} on R^n: an
    immutable record whose constructor makes lam and the center exact
    (an empty center is the origin) and checks them against dim."""

    __slots__ = ()

    def __new__(cls, dim: int, lam: RationalLike = 1, center: Sequence[RationalLike] = ()):
        lam = _as_fraction(lam)
        center = tuple(_as_fraction(c) for c in (center or (0,) * dim))
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        if lam <= 0:
            raise ValueError(f"lambda must be positive, got {lam}")
        if len(center) != dim:
            raise DimensionMismatchError(f"center length {len(center)} != dimension {dim}")
        return super().__new__(cls, dim, lam, center)

    @classmethod
    @lru_cache(maxsize=64)
    def unit(cls, dim: int) -> "WeightSpec":
        """The weight |x|^2 on R^dim, one shared instance per dim."""
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
        nums: dict[int, int] = {}
        constant = 0
        for (_, step), c in zip(key_layout(n).axes, self.center):
            nums[2 * step] = p * scale * scale
            if c:
                cl = c.numerator * (scale // c.denominator)
                nums[step] = -2 * p * cl * scale
                nums.setdefault(0, 0)  # the constant's key follows the first x_j
                constant += cl * cl
        if constant:
            nums[0] = p * constant
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


@lru_cache(maxsize=64)
def _half(dim: int) -> Fraction:
    """dim / 2, the pi power of an integral over R^dim."""
    return Fraction(dim, 2)


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
    def _trusted(cls, value: Fraction, pi_pow: Fraction, lam: Fraction) -> "GaussianScalar":
        """Wrap three Fractions that already make a valid scalar (lam > 0),
        as the results of arithmetic on valid scalars do; nothing is checked."""
        self = object.__new__(cls)
        self.value, self.pi_pow, self.lam = value, pi_pow, lam
        return self

    @classmethod
    def for_weight(cls, value: RationalLike, weight: WeightSpec) -> "GaussianScalar":
        """value * (pi/lam)^(n/2), the unit of an integral over ``weight``."""
        return cls._trusted(_as_fraction(value), _half(weight.dim), weight.lam)

    def _check_unit(self, other: "GaussianScalar") -> None:
        # scalars of one weight share its unit objects: skip Fraction.__eq__
        if self.pi_pow is other.pi_pow and self.lam is other.lam:
            return
        if self.pi_pow != other.pi_pow or self.lam != other.lam:
            raise UnitMismatchError(
                f"unit (pi/{self.lam})^{self.pi_pow} vs (pi/{other.lam})^{other.pi_pow}"
            )

    def __add__(self, other: "GaussianScalar") -> "GaussianScalar":
        self._check_unit(other)
        return GaussianScalar._trusted(self.value + other.value, self.pi_pow, self.lam)

    def __mul__(self, other: "GaussianScalar") -> "GaussianScalar":
        if self.lam != other.lam:
            raise UnitMismatchError(
                f"cannot multiply scalars with lambda {self.lam} and {other.lam}"
            )
        return GaussianScalar._trusted(self.value * other.value, self.pi_pow + other.pi_pow, self.lam)

    def scale(self, factor: RationalLike) -> "GaussianScalar":
        return GaussianScalar._trusted(self.value * _as_fraction(factor), self.pi_pow, self.lam)

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
# Hermite conversion tables (exact, cached): the per-axis rows both
# directions convert through
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


def _term_images(weight: WeightSpec, row) -> Callable[[int], TermImage]:
    """The whole-term images over ``weight`` of one direction: the product of
    the centered ``row``s of the axes, built per call."""
    p, q = weight.lam.numerator, weight.lam.denominator
    axes = [
        (shift, step, c.numerator, c.denominator)
        for (shift, step), c in zip(key_layout(weight.dim).axes, weight.center)
    ]
    # a zero exponent's row is the identity (1, ((0, 1),)), so its axis is skipped
    return lambda key: term_image([
        (row(e, p, q, cn, cd), step) for shift, step, cn, cd in axes if (e := key >> shift & MAX_DEGREE)
    ])


# 2^a a! = ||H_a||^2 / sqrt(pi) at index a, the one table of the axis norms.
# _axis_norms replaces it by a longer copy, so a reader never sees a partly
# extended table.
_AXIS_NORMS = [1]


def _axis_norms(top: int) -> list[int]:
    """The table of 2^a a!, extended first to index ``top`` if it is shorter."""
    global _AXIS_NORMS
    norms = _AXIS_NORMS
    if len(norms) <= top:
        norms = norms[:]
        for a in range(len(norms), top + 1):
            norms.append(norms[-1] * 2 * a)
        _AXIS_NORMS = norms
    return norms


def _parseval(products: list[tuple[int, int]], den: int, lam: Fraction, dim: int) -> Fraction:
    """sum of num * ||G_alpha||^2 / den over (alpha, num), alpha a packed key
    of ``dim`` fields, in units (pi/lam)^{n/2}.

    With lam = p/q, ||G_alpha||^2 = prod_j 2^a_j a_j! * q^|alpha| / p^|alpha|,
    the product over the key's fields and |alpha| its degree field.  At
    lam = 1 the sum is one int sum; otherwise the terms are summed per
    degree s = |alpha|, each degree's sum times q^s p^(top - s), top the
    largest |alpha|, over p^top.  Either is reduced once.
    """
    norms, layout = _AXIS_NORMS, key_layout(dim)
    shift, shifts = layout.degree_shift, [axis_shift for axis_shift, _ in layout.axes]
    try:
        if lam == 1:
            total = 0
            for alpha, num in products:
                for axis_shift in shifts:
                    num *= norms[alpha >> axis_shift & MAX_DEGREE]
                total += num
            return Fraction(total, den)
        by_degree: dict[int, int] = {}
        for alpha, num in products:
            for axis_shift in shifts:
                num *= norms[alpha >> axis_shift & MAX_DEGREE]
            s = alpha >> shift
            by_degree[s] = by_degree.get(s, 0) + num
    except IndexError:  # no exponent is above the largest degree
        _axis_norms(max(alpha for alpha, _ in products) >> shift)
        return _parseval(products, den, lam, dim)
    p, q = lam.numerator, lam.denominator
    top = max(by_degree, default=0)
    total = sum(w * q**s * p ** (top - s) for s, w in by_degree.items())
    return Fraction(total, den * p**top)


# ----------------------------------------------------------------------
# expansions
# ----------------------------------------------------------------------


class HermiteExpansion:
    """Rational coefficients over the scaled tensor Hermite basis G_alpha.

    Stored as Polynomial stores its terms (see the ``polynomials`` module
    docstring): one positive int denominator ``den`` and the nonzero int
    numerators ``nums`` on packed multi-index keys, with ``gcd(den,
    *nums.values()) == 1``.  ``coeffs``, the map of reduced Fractions on
    tuple keys in the key order of ``nums``, is built on first read and
    cached.
    """

    __slots__ = ("weight", "den", "nums", "_coeffs")

    def __init__(self, weight: WeightSpec, coeffs: Mapping[MultiIndex, RationalLike]):
        self.weight = weight
        self._coeffs = validated_terms(weight.dim, coeffs)
        self.den, self.nums = over_common_denominator(self._coeffs)

    @classmethod
    def _trusted(
        cls, weight: WeightSpec, den: int, nums: dict[int, int]
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
            den, fields = self.den, key_layout(self.weight.dim).fields
            read, size = fields.unpack, fields.size
            self._coeffs = {read(key.to_bytes(size, "big")): Fraction(num, den) for key, num in self.nums.items()}
        return self._coeffs

    def degree(self) -> int:
        """Total degree, read off the largest key; -1 for no terms."""
        return max(self.nums) >> key_layout(self.weight.dim).degree_shift if self.nums else -1

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
        total = _parseval(products, self.den * other.den, self.weight.lam, self.weight.dim)
        return GaussianScalar.for_weight(total, self.weight)

    def norm_sq(self) -> GaussianScalar:
        products = [(alpha, n * n) for alpha, n in self.nums.items()]
        total = _parseval(products, self.den * self.den, self.weight.lam, self.weight.dim)
        return GaussianScalar.for_weight(total, self.weight)

    def to_polynomial(self) -> Polynomial:
        """Exact inverse of monomial_to_hermite: one tensor_expand through
        the images of G_alpha(x - center) over the monomials of x."""
        images = _term_images(self.weight, _centered_hermite_row)
        return Polynomial._trusted(self.weight.dim, *tensor_expand(self.den, self.nums, images))

    def to_json_dict(self) -> dict:
        """The weight and the coefficients in graded-lex order, the int order of the keys."""
        return {
            "weight": self.weight.to_json_dict(),
            "coeffs": [
                {"index": list(k), "coef": format_rational(v)}
                for _, (k, v) in sorted(zip(self.nums, self.coeffs.items()))
            ],
        }


def monomial_to_hermite(p: Polynomial, weight: WeightSpec) -> HermiteExpansion:
    """Exact change of basis from monomials to the scaled Hermite basis:
    one tensor_expand through the images of x^e over G_alpha(x - center)."""
    if p.dim != weight.dim:
        raise DimensionMismatchError(
            f"polynomial dimension {p.dim} != weight dimension {weight.dim}"
        )
    images = _term_images(weight, _centered_monomial_row)
    return HermiteExpansion._trusted(weight, *tensor_expand(p.den, p.nums, images))


# ----------------------------------------------------------------------
# weighted integrals of polynomials, from per-axis Gaussian moments
# ----------------------------------------------------------------------


@lru_cache(maxsize=1024)
def _moment_row(top: int, p: int, q: int, cn: int, cd: int) -> tuple[int, tuple[int, ...]]:
    """The moments m_k, k = 0..top, of the Gaussian of mean c = cn/cd and
    variance q/(2p) = 1/(2 lam), as (den, (num_0, ..., num_top)) with
    m_k = num_k / den, reduced: m_k = c m_(k-1) + (k-1) q/(2p) m_(k-2),
    m_0 = 1.

    The denominator of m_k divides cd^k (2p)^(k//2), so over D = cd^top
    (2p)^(top//2) both terms of the recurrence are ints and each division
    below is exact.
    """
    two_p = 2 * p
    den = cd**top * two_p ** (top // 2)
    nums = [den, cn * den // cd][: top + 1]
    for k in range(2, top + 1):
        nums.append(cn * nums[-1] // cd + (k - 1) * q * nums[-2] // two_p)
    g = math.gcd(den, *nums)
    return den // g, tuple(n // g for n in nums)


def _pairing(p: Polynomial, q: Polynomial, weight: WeightSpec) -> GaussianScalar:
    """<p, q>_weight = (pi/lam)^(n/2) sum_(a,b) p_a q_b prod_j m_j(a_j + b_j),
    m_j the moments of the axis-j Gaussian (``_moment_row``).

    An odd moment about a zero center is 0, so terms pair only within the
    class ``key & mask``, mask the parity bits of the zero-center axes.  The
    products are summed per key a + b, each then weighted by its moments;
    for p is q, each unordered pair of terms once, doubled off the diagonal.
    """
    if p.dim != weight.dim:
        raise DimensionMismatchError(f"polynomial dimension {p.dim} != weight dimension {weight.dim}")
    if not (p.nums and q.nums):
        return GaussianScalar.for_weight(Fraction(0), weight)
    top = p.total_degree() + q.total_degree()
    check_degree(top, "the weighted product")
    lam_p, lam_q = weight.lam.numerator, weight.lam.denominator
    den, rows, mask = p.den * q.den, [], 0
    for (shift, _), c in zip(key_layout(weight.dim).axes, weight.center):
        cn = c.numerator
        row_den, row = _moment_row(top, lam_p, lam_q, cn, c.denominator)
        den *= row_den
        rows.append((shift, row))
        if not cn:
            mask |= 1 << shift
    classes: dict[int, list[tuple[int, int]]] = {}
    for kb, nb in q.nums.items():
        classes.setdefault(kb & mask, []).append((kb, nb))
    sums: dict[int, int] = {}
    get = sums.get
    if p is q:
        for terms in classes.values():
            for i, (ka, na) in enumerate(terms):
                sums[2 * ka] = get(2 * ka, 0) + na * na
                na *= 2
                for kb, nb in terms[i + 1:]:
                    key = ka + kb
                    sums[key] = get(key, 0) + na * nb
    else:
        for ka, na in p.nums.items():
            for kb, nb in classes.get(ka & mask, ()):
                key = ka + kb
                sums[key] = get(key, 0) + na * nb
    total = 0
    for key, v in sums.items():
        for shift, row in rows:
            v *= row[key >> shift & MAX_DEGREE]
        total += v
    return GaussianScalar.for_weight(Fraction(total, den), weight)


def inner_product(p: Polynomial, q: Polynomial, weight: WeightSpec) -> GaussianScalar:
    """Exact <p, q>_weight = integral of p*q*e^{-weight} over R^n."""
    if p.dim != q.dim:
        raise DimensionMismatchError(f"dimension mismatch: {p.dim} vs {q.dim}")
    return _pairing(p, q, weight)


def norm_sq(p: Polynomial, weight: WeightSpec) -> GaussianScalar:
    """Exact squared weighted norm ||p||^2_weight."""
    return _pairing(p, p, weight)

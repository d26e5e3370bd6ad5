"""Exact multivariate polynomial arithmetic and differential calculus.

A polynomial in n variables is a finite map from exponent multi-indices
(tuples of n non-negative ints) to rational coefficients.  The zero
polynomial stores no terms.  All operations are exact: no floating point
enters at this layer, so polynomial identities can be tested by literal
equality.

Coefficients are stored on the layout of FLINT's ``fmpq_poly`` (Hart,
ICMS 2010): one positive int denominator ``den`` and a dict ``nums`` of
nonzero int numerators, the coefficient of ``key`` being
``nums[key] / den``.  Sums, products, calculus and the tensor expansions
(``shift`` and the Hermite conversions) run on these ints and divide out
one ``gcd(den, *nums.values())`` at the end.  ``terms``, the map of
reduced ``Fraction`` coefficients in the key order of ``nums``, is built
on first read and cached.

Canonical term order is graded lexicographic (total degree first, then
lexicographic on the exponent tuple), used for serialization and repr.

Invariant of every instance: ``den > 0``; ``nums`` has tuple-of-int keys
of length ``dim`` with no negative entry and nonzero int values; and
``gcd(den, *nums.values()) == 1``, so ``den`` is the lcm of the reduced
coefficient denominators and equal polynomials have equal ``(den,
nums)``.  Outside input goes through the validating
``Polynomial.__init__``, which coerces and checks each entry and puts
the coefficients over their lcm (``over_common_denominator``).  Ring and
calculus operations build their results from operands that already meet
the invariant: ``reduced`` drops their zero numerators and divides out
the gcd, and the trusted ``Polynomial._trusted`` wraps the pair as it is.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Sequence, Union

# One entry per variable: entry j is the exponent of x_j.
MultiIndex = tuple[int, ...]

RationalLike = Union[int, Fraction, str]

# Int numerators over one denominator: (den, {key: num}) stands for the
# map key -> num / den.
IntMap = tuple[int, dict]


class DimensionMismatchError(ValueError):
    """Operands live in spaces of different ambient dimension."""


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational from a 'p/q' or integer string.

    Rejects zero denominators and anything that is not a plain integer
    ratio (no decimals: decimal literals are a lossy format).
    """
    s = text.strip()
    if "/" in s:
        num_s, den_s = s.split("/", 1)
        num, den = int(num_s), int(den_s)
        if den == 0:
            raise ValueError(f"zero denominator in rational {text!r}")
        return Fraction(num, den)
    return Fraction(int(s))


def format_rational(value: Fraction) -> str:
    """Render a Fraction as 'p/q' (or 'p' when the denominator is 1)."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        return parse_rational(value)
    return Fraction(value)


def check_multi_index(exps: Iterable, dim: int) -> MultiIndex:
    """Validate an outside multi-index: ``dim`` ints (numpy ints too), none
    negative.  Floats are rejected rather than truncated."""
    key = tuple(operator.index(e) for e in exps)
    if len(key) != dim:
        raise DimensionMismatchError(
            f"multi-index {key} has length {len(key)}, expected {dim}"
        )
    if any(e < 0 for e in key):
        raise ValueError(f"negative entry in multi-index {key}")
    return key


def validated_terms(dim: int, terms: Mapping) -> dict[MultiIndex, Fraction]:
    """An outside term map as nonzero Fractions: each key checked by
    ``check_multi_index``, each value coerced, repeated keys summed."""
    clean: dict[MultiIndex, Fraction] = {}
    for exps, coef in terms.items():
        key = check_multi_index(exps, dim)
        c = _as_fraction(coef)
        if c != 0:
            clean[key] = clean.get(key, Fraction(0)) + c
    return {k: v for k, v in clean.items() if v != 0}


def over_common_denominator(terms: Mapping[MultiIndex, Fraction]) -> IntMap:
    """(den, {key: num}) with ``terms[key] == num / den`` for every key,
    ``den`` the lcm of the denominators (1 for no terms).  For reduced,
    nonzero Fractions the pair meets the Polynomial invariant."""
    den = math.lcm(*(c.denominator for c in terms.values()))
    return den, {key: c.numerator * (den // c.denominator) for key, c in terms.items()}


def reduced(den: int, nums: dict) -> IntMap:
    """(den, nums) with the zero numerators dropped and the gcd of den and
    the numerators divided out."""
    if 0 in nums.values():
        nums = {key: num for key, num in nums.items() if num}
    g = math.gcd(den, *nums.values())
    if g == 1:
        return den, nums
    return den // g, {key: num // g for key, num in nums.items()}


def add_over(a: IntMap, b: IntMap, sign: int = 1) -> IntMap:
    """a + sign * b over the lcm of the two denominators, reduced."""
    den_a, nums_a = a
    den_b, nums_b = b
    den = math.lcm(den_a, den_b)
    scale_a, scale_b = den // den_a, sign * (den // den_b)
    out = {key: num * scale_a for key, num in nums_a.items()}
    for key, num in nums_b.items():
        out[key] = out.get(key, 0) + num * scale_b
    return reduced(den, out)


def scale_over(a: IntMap, factor: Fraction) -> IntMap:
    """factor * a: numerators times factor's numerator over den times its
    denominator, reduced."""
    p, q = factor.numerator, factor.denominator
    den, nums = a
    return reduced(den * q, {key: num * p for key, num in nums.items()})


# A sparse 1-D image as ints over one denominator: (den, ((index, num), ...))
# stands for sum num / den * basis_index.
IntRow = tuple[int, tuple[tuple[int, int], ...]]


def tensor_expand(den: int, nums: Mapping[MultiIndex, int], row: Callable[[int, int], IntRow]) -> IntMap:
    """Expand every term num / den * prod_j basis_{e_j} one axis at a time,
    as the sum of num / den * prod_j row(j, e_j).

    ``row(j, e)`` is the sparse 1-D image of the e-th basis element on axis
    j, looked up once per (j, e) and call.  Each term's numerators are
    multiplied as ints over the product of its rows' denominators,
    rescaled to the lcm of those products and summed; the result, over
    den times that lcm, is reduced once.
    """
    table: dict[tuple[int, int], IntRow] = {}
    expanded = []
    common = 1
    for exps, num in nums.items():
        term_den = 1
        axes = []
        for j, e in enumerate(exps):
            r = table.get((j, e))
            if r is None:
                r = table[j, e] = row(j, e)
            term_den *= r[0]
            axes.append(r[1])
        expanded.append((num, term_den, axes))
        common = math.lcm(common, term_den)
    out: dict[MultiIndex, int] = {}
    for num, term_den, axes in expanded:
        partial: list[tuple[MultiIndex, int]] = [((), num * (common // term_den))]
        for pairs in axes:
            partial = [(prefix + (i,), pc * c) for prefix, pc in partial for i, c in pairs]
        for key, c in partial:
            out[key] = out.get(key, 0) + c
    return reduced(den * common, out)


@lru_cache(maxsize=4096)
def _binomial_row(e: int, p: int, q: int) -> IntRow:
    """(x + p/q)^e = sum_i C(e, i) p^(e-i) q^i / q^e x^i, nonzero terms only."""
    if p == 0:
        return 1, ((e, 1),)
    return q**e, tuple((i, math.comb(e, i) * p ** (e - i) * q**i) for i in range(e + 1))


class Polynomial:
    """Sparse polynomial over the rationals, used as an immutable value.

    ``nums`` maps each multi-index to its nonzero int numerator over the
    shared ``den``; every key has length ``dim``.  ``terms`` gives the
    same map as reduced Fractions.  No method changes ``dim``, ``den`` or
    ``nums`` after construction, so sharing across threads is safe.
    """

    __slots__ = ("dim", "den", "nums", "_terms")

    def __init__(self, dim: int, terms: Mapping[MultiIndex, RationalLike]):
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        self.dim = dim
        self._terms = validated_terms(dim, terms)
        self.den, self.nums = over_common_denominator(self._terms)

    @classmethod
    def _trusted(cls, dim: int, den: int, nums: dict[MultiIndex, int]) -> "Polynomial":
        """Wrap a (den, nums) pair that already meets the invariant (see
        module docstring); the map is not copied."""
        self = object.__new__(cls)
        self.dim = dim
        self.den = den
        self.nums = nums
        self._terms = None
        return self

    @property
    def terms(self) -> dict[MultiIndex, Fraction]:
        """Each multi-index and its reduced nonzero coefficient, in the key
        order of ``nums``; built on first read."""
        if self._terms is None:
            den = self.den
            self._terms = {key: Fraction(num, den) for key, num in self.nums.items()}
        return self._terms

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "Polynomial":
        return cls(dim, {})

    @classmethod
    def constant(cls, dim: int, value: RationalLike) -> "Polynomial":
        return cls(dim, {(0,) * dim: _as_fraction(value)})

    @classmethod
    def variable(cls, dim: int, index: int) -> "Polynomial":
        """The coordinate function x_index (0-based)."""
        if not 0 <= index < dim:
            raise IndexError(f"variable index {index} out of range for dim {dim}")
        exps = [0] * dim
        exps[index] = 1
        return cls(dim, {tuple(exps): Fraction(1)})

    @classmethod
    def monomial(cls, exps: Sequence[int], coef: RationalLike = 1) -> "Polynomial":
        return cls(len(exps), {tuple(exps): _as_fraction(coef)})

    @classmethod
    def norm_squared(cls, dim: int) -> "Polynomial":
        """The radial polynomial x_1^2 + ... + x_n^2."""
        terms = {}
        for j in range(dim):
            exps = [0] * dim
            exps[j] = 2
            terms[tuple(exps)] = Fraction(1)
        return cls(dim, terms)

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.nums

    def total_degree(self) -> int:
        """Total degree; the zero polynomial reports -1."""
        return max(map(sum, self.nums), default=-1)

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def sorted_terms(self) -> list[tuple[MultiIndex, Fraction]]:
        """Terms in graded lexicographic order."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.dim == other.dim and self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        return hash((self.dim, self.den, frozenset(self.nums.items())))

    def __str__(self) -> str:
        """The identity corpus signature: graded-lex terms c*x^[e], or 0."""
        if not self.nums:
            return "0"
        return " + ".join(f"{format_rational(c)}*x^{list(e)}" for e, c in self.sorted_terms())

    def __repr__(self) -> str:
        return f"Polynomial({self.dim}, {self})"

    # ------------------------------------------------------------------
    # ring operations
    # ------------------------------------------------------------------

    def _check_dim(self, other: "Polynomial") -> None:
        if self.dim != other.dim:
            raise DimensionMismatchError(
                f"dimension mismatch: {self.dim} vs {other.dim}"
            )

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_dim(other)
        return Polynomial._trusted(self.dim, *add_over((self.den, self.nums), (other.den, other.nums)))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check_dim(other)
        return Polynomial._trusted(
            self.dim, *add_over((self.den, self.nums), (other.den, other.nums), -1)
        )

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted(self.dim, self.den, {e: -n for e, n in self.nums.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_dim(other)
        nums_b = list(other.nums.items())
        out: dict[MultiIndex, int] = {}
        for ea, na in self.nums.items():
            for eb, nb in nums_b:
                key = tuple(map(operator.add, ea, eb))
                out[key] = out.get(key, 0) + na * nb
        return Polynomial._trusted(self.dim, *reduced(self.den * other.den, out))

    def scale(self, factor: RationalLike) -> "Polynomial":
        return Polynomial._trusted(self.dim, *scale_over((self.den, self.nums), _as_fraction(factor)))

    def __rmul__(self, factor: RationalLike) -> "Polynomial":
        return self.scale(factor)

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative powers are not polynomials")
        result = Polynomial.constant(self.dim, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    # ------------------------------------------------------------------
    # calculus
    # ------------------------------------------------------------------

    def partial(self, index: int) -> "Polynomial":
        """Exact partial derivative with respect to x_index (0-based)."""
        if not 0 <= index < self.dim:
            raise IndexError(f"variable index {index} out of range for dim {self.dim}")
        out: dict[MultiIndex, int] = {}
        for exps, num in self.nums.items():
            k = exps[index]
            if k:
                out[exps[:index] + (k - 1,) + exps[index + 1:]] = num * k
        return Polynomial._trusted(self.dim, *reduced(self.den, out))

    def gradient(self) -> tuple["Polynomial", ...]:
        return tuple(self.partial(j) for j in range(self.dim))

    def laplacian(self) -> "Polynomial":
        out: dict[MultiIndex, int] = {}
        for exps, num in self.nums.items():
            for j, k in enumerate(exps):
                if k < 2:
                    continue
                key = exps[:j] + (k - 2,) + exps[j + 1:]
                out[key] = out.get(key, 0) + num * (k * (k - 1))
        return Polynomial._trusted(self.dim, *reduced(self.den, out))

    # ------------------------------------------------------------------
    # evaluation and substitution
    # ------------------------------------------------------------------

    def evaluate(self, point: Sequence):
        """Evaluate at a point; exact Fraction when all inputs are rational,
        ordinary float/complex arithmetic otherwise."""
        if len(point) != self.dim:
            raise DimensionMismatchError(
                f"point length {len(point)} != dimension {self.dim}"
            )
        exact = all(isinstance(v, (int, Fraction)) for v in point)
        total = Fraction(0) if exact else 0.0
        for exps, coef in self.sorted_terms():
            term = coef if exact else float(coef)
            for e, v in zip(exps, point):
                if e:
                    term = term * v**e
            total = total + term
        return total

    def shift(self, offset: Sequence) -> "Polynomial":
        """Return p(x + offset) for a rational offset vector (exact)."""
        if len(offset) != self.dim:
            raise DimensionMismatchError(
                f"offset length {len(offset)} != dimension {self.dim}"
            )
        off = [_as_fraction(v) for v in offset]
        return Polynomial._trusted(self.dim, *tensor_expand(
            self.den, self.nums, lambda j, e: _binomial_row(e, off[j].numerator, off[j].denominator)
        ))

    # ------------------------------------------------------------------
    # JSON wire format
    # ------------------------------------------------------------------

    def to_json_dict(self) -> dict:
        """{"dim": n, "terms": [{"exp": [...], "coef": "p/q"}]} wire form."""
        return {
            "dim": self.dim,
            "terms": [
                {"exp": list(exps), "coef": format_rational(coef)}
                for exps, coef in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json_dict(cls, data) -> "Polynomial":
        """Parse the wire form ``{"dim": n, "terms": [{"exp": [...], "coef": "p/q"}]}``.

        ``dim`` must be an int >= 1, ``terms`` a list and every exponent an
        int; bools count as neither.  A wrong type raises TypeError, a wrong
        value ValueError.
        """
        if not isinstance(data, Mapping) or "dim" not in data or "terms" not in data:
            raise TypeError("polynomial must be an object with 'dim' and 'terms'")
        dim, entries = data["dim"], data["terms"]
        if not isinstance(dim, int) or isinstance(dim, bool):
            raise TypeError(f"dim: expected an integer, got {dim!r}")
        if dim < 1:
            raise ValueError(f"dim: must be >= 1, got {dim}")
        if not isinstance(entries, list):
            raise TypeError(f"terms: expected a list, got {entries!r}")
        terms: dict[MultiIndex, Fraction] = {}
        for i, entry in enumerate(entries):
            if not isinstance(entry, Mapping) or "exp" not in entry or "coef" not in entry:
                raise TypeError(f"terms[{i}]: term needs 'exp' and 'coef'")
            exp = entry["exp"]
            if not isinstance(exp, list) or any(isinstance(e, bool) for e in exp):
                raise TypeError(f"terms[{i}].exp: expected a list of integers, got {exp!r}")
            key = check_multi_index(exp, dim)
            terms[key] = terms.get(key, Fraction(0)) + parse_rational(str(entry["coef"]))
        return cls(dim, terms)


def dot(a: Iterable[Polynomial], b: Iterable[Polynomial]) -> Polynomial:
    """Dot product of two equal-length vectors of polynomials."""
    parts = [pa * pb for pa, pb in zip(a, b, strict=True)]
    if not parts:
        raise ValueError("empty dot product")
    out = parts[0]
    for p in parts[1:]:
        out = out + p
    return out


def coordinate_vector(dim: int) -> tuple[Polynomial, ...]:
    """The vector (x_1, ..., x_n) as polynomials."""
    return tuple(Polynomial.variable(dim, j) for j in range(dim))


def random_polynomial(
    rng,
    dim: int,
    max_degree: int,
    max_terms: int = 10,
    coeff_bound: int = 16,
    nonzero: bool = False,
) -> Polynomial:
    """Seeded random sparse polynomial for verification corpora.

    Coefficients are uniform rationals p/q with |p| <= coeff_bound and
    1 <= q <= coeff_bound, summed as int numerators over
    lcm(1..coeff_bound); exponents are uniform subject to the total
    degree cap.  ``rng`` is a random.Random so corpora reproduce exactly
    from a recorded seed.
    """
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    common = math.lcm(*range(1, coeff_bound + 1))
    n_terms = rng.randint(1, max_terms)
    nums: dict[MultiIndex, int] = {}
    for _ in range(n_terms):
        degree = rng.randint(0, max_degree)
        exps = [0] * dim
        for _ in range(degree):
            exps[rng.randrange(dim)] += 1
        num = rng.randint(-coeff_bound, coeff_bound)
        den = rng.randint(1, coeff_bound)
        key = tuple(exps)
        nums[key] = nums.get(key, 0) + num * (common // den)
    p = Polynomial._trusted(dim, *reduced(common, nums))
    if nonzero and p.is_zero():
        return Polynomial.constant(dim, Fraction(1, rng.randint(1, coeff_bound)))
    return p

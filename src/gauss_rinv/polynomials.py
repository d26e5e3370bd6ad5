"""Exact multivariate polynomial arithmetic and differential calculus.

A polynomial in n variables is a finite map from exponent multi-indices
(tuples of n non-negative ints) to rational coefficients (Fraction).  The
zero polynomial stores no terms.  All operations are exact: no floating
point enters at this layer, so polynomial identities can be tested by
literal equality.  Products and the tensor expansions (``shift`` and the
Hermite conversions) multiply and sum int numerators over one common
denominator and reduce each result coefficient once.

Canonical term order is graded lexicographic (total degree first, then
lexicographic on the exponent tuple), used for serialization and repr.

Invariant of every instance: ``terms`` has tuple-of-int keys of length
``dim`` with no negative entry, and nonzero ``Fraction`` values.  Outside
input goes through the validating ``Polynomial.__init__``, which coerces
and checks each entry.  Ring and calculus operations build their results
from operands that already meet the invariant, so they use the trusted
``Polynomial._trusted``, which wraps the term map as it is.  Only sums
(``+``, ``-``, ``laplacian``) and scaling by zero can produce zero
coefficients; those operations drop them themselves.
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


def over_common_denominator(
    terms: Mapping[MultiIndex, Fraction],
) -> tuple[int, list[tuple[MultiIndex, int]]]:
    """(den, [(key, num), ...]) with ``terms[key] == num / den`` for every
    key, ``den`` the lcm of the denominators (1 for no terms)."""
    den = 1
    for c in terms.values():
        den = math.lcm(den, c.denominator)
    return den, [(key, c.numerator * (den // c.denominator)) for key, c in terms.items()]


def reduce_over(nums: Mapping[MultiIndex, int], den: int) -> dict[MultiIndex, Fraction]:
    """The nonzero ``num / den`` of an int numerator map, each reduced once."""
    return {key: Fraction(num, den) for key, num in nums.items() if num}


# A sparse 1-D image as ints over one denominator: (den, ((index, num), ...))
# stands for sum num / den * basis_index.
IntRow = tuple[int, tuple[tuple[int, int], ...]]


def tensor_expand(
    terms: Mapping[MultiIndex, Fraction],
    row: Callable[[int, int], IntRow],
) -> dict[MultiIndex, Fraction]:
    """Expand every term one axis at a time: sum of coef * prod_j row(j, e_j).

    ``row(j, e)`` is the sparse 1-D image of the e-th basis element on axis
    j, looked up once per (j, e) and call.  Each term's numerators are
    multiplied as ints over the term's own denominator, rescaled to the
    lcm of all of them and summed; each result coefficient is reduced
    once.  The result meets the Polynomial invariant.
    """
    table: dict[tuple[int, int], IntRow] = {}
    expanded = []
    common = 1
    for exps, coef in terms.items():
        den = coef.denominator
        axes = []
        for j, e in enumerate(exps):
            r = table.get((j, e))
            if r is None:
                r = table[j, e] = row(j, e)
            den *= r[0]
            axes.append(r[1])
        expanded.append((coef.numerator, den, axes))
        common = math.lcm(common, den)
    out: dict[MultiIndex, int] = {}
    for num, den, axes in expanded:
        partial: list[tuple[MultiIndex, int]] = [((), num * (common // den))]
        for pairs in axes:
            partial = [(prefix + (i,), pc * c) for prefix, pc in partial for i, c in pairs]
        for key, c in partial:
            out[key] = out.get(key, 0) + c
    return reduce_over(out, common)


@lru_cache(maxsize=4096)
def _binomial_row(e: int, p: int, q: int) -> IntRow:
    """(x + p/q)^e = sum_i C(e, i) p^(e-i) q^i / q^e x^i, nonzero terms only."""
    if p == 0:
        return 1, ((e, 1),)
    return q**e, tuple((i, math.comb(e, i) * p ** (e - i) * q**i) for i in range(e + 1))


class Polynomial:
    """Immutable sparse polynomial over the rationals.

    ``terms`` maps each multi-index to its nonzero coefficient; every key
    has length ``dim``.  Instances are treated as values: no method mutates
    the term map after construction, so sharing across threads is safe.
    """

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: Mapping[MultiIndex, RationalLike]):
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        clean: dict[MultiIndex, Fraction] = {}
        for exps, coef in terms.items():
            key = check_multi_index(exps, dim)
            c = _as_fraction(coef)
            if c != 0:
                clean[key] = clean.get(key, Fraction(0)) + c
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "terms", {k: v for k, v in clean.items() if v != 0})

    @classmethod
    def _trusted(cls, dim: int, terms: dict[MultiIndex, Fraction]) -> "Polynomial":
        """Wrap a term map that already meets the invariant (see module
        docstring), no zero coefficient included; the map is not copied."""
        self = object.__new__(cls)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "terms", terms)
        return self

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Polynomial is immutable")

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
        return not self.terms

    def total_degree(self) -> int:
        """Total degree; the zero polynomial reports -1."""
        if not self.terms:
            return -1
        return max(sum(exps) for exps in self.terms)

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def sorted_terms(self) -> list[tuple[MultiIndex, Fraction]]:
        """Terms in graded lexicographic order."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.dim, tuple(self.sorted_terms())))

    def __repr__(self) -> str:
        if not self.terms:
            return f"Polynomial({self.dim}, 0)"
        parts = [
            f"{format_rational(c)}*x^{list(e)}" for e, c in self.sorted_terms()
        ]
        return f"Polynomial({self.dim}, {' + '.join(parts)})"

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
        out = dict(self.terms)
        for exps, coef in other.terms.items():
            out[exps] = out.get(exps, Fraction(0)) + coef
        return Polynomial._trusted(self.dim, {e: c for e, c in out.items() if c})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check_dim(other)
        out = dict(self.terms)
        for exps, coef in other.terms.items():
            out[exps] = out.get(exps, Fraction(0)) - coef
        return Polynomial._trusted(self.dim, {e: c for e, c in out.items() if c})

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted(self.dim, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_dim(other)
        den_a, nums_a = over_common_denominator(self.terms)
        den_b, nums_b = over_common_denominator(other.terms)
        out: dict[MultiIndex, int] = {}
        for ea, na in nums_a:
            for eb, nb in nums_b:
                key = tuple(map(operator.add, ea, eb))
                out[key] = out.get(key, 0) + na * nb
        return Polynomial._trusted(self.dim, reduce_over(out, den_a * den_b))

    def scale(self, factor: RationalLike) -> "Polynomial":
        f = _as_fraction(factor)
        return Polynomial._trusted(self.dim, {e: c * f for e, c in self.terms.items()} if f else {})

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
        out: dict[MultiIndex, Fraction] = {}
        for exps, coef in self.terms.items():
            k = exps[index]
            if k == 0:
                continue
            new = list(exps)
            new[index] = k - 1
            key = tuple(new)
            out[key] = out.get(key, Fraction(0)) + coef * k
        return Polynomial._trusted(self.dim, out)

    def gradient(self) -> tuple["Polynomial", ...]:
        return tuple(self.partial(j) for j in range(self.dim))

    def laplacian(self) -> "Polynomial":
        out: dict[MultiIndex, Fraction] = {}
        for exps, coef in self.terms.items():
            for j, k in enumerate(exps):
                if k < 2:
                    continue
                key = exps[:j] + (k - 2,) + exps[j + 1:]
                c = coef * (k * (k - 1))
                prev = out.get(key)
                out[key] = c if prev is None else prev + c
        return Polynomial._trusted(self.dim, {e: c for e, c in out.items() if c})

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
        terms = tensor_expand(
            self.terms, lambda j, e: _binomial_row(e, off[j].numerator, off[j].denominator)
        )
        return Polynomial._trusted(self.dim, terms)

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
    1 <= q <= coeff_bound; exponents are uniform subject to the total
    degree cap.  ``rng`` is a random.Random so corpora reproduce exactly
    from a recorded seed.
    """
    n_terms = rng.randint(1, max_terms)
    terms: dict[MultiIndex, Fraction] = {}
    for _ in range(n_terms):
        degree = rng.randint(0, max_degree)
        exps = [0] * dim
        for _ in range(degree):
            exps[rng.randrange(dim)] += 1
        num = rng.randint(-coeff_bound, coeff_bound)
        den = rng.randint(1, coeff_bound)
        key = tuple(exps)
        terms[key] = terms.get(key, Fraction(0)) + Fraction(num, den)
    p = Polynomial(dim, terms)
    if nonzero and p.is_zero():
        return Polynomial.constant(dim, Fraction(1, rng.randint(1, coeff_bound)))
    return p

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

Each multi-index is stored as one packed int key, the layout of
Monagan & Pearce ("Polynomial division using dynamic arrays, heaps, and
packed exponent vectors", CASC 2007) and of FLINT's ``mpoly``.  For n
variables and fields FIELD_BITS = W bits wide,

    key = |e| << W*n | e_0 << W*(n-1) | ... | e_(n-1),

the total degree in the leading field.  Adding two keys multiplies their
monomials; moving axis j by one step adds or subtracts ``step_j = 1 << W*n
| 1 << W*(n-1-j)``; ``key >> W*n`` is the total degree; ``key & PAR``,
PAR bit 0 of every exponent field, is the parity class; and int order is
graded lexicographic order (total degree first, then lexicographic on the
exponents), the canonical order of serialization and repr.  A field holds
at most MAX_DEGREE = 2^W - 1, and so does the degree field: the validating
constructors refuse a larger total degree, and every operation that raises
the degree checks the result's degree from its operands' largest keys
before it builds a key, so no field wraps into its neighbour.  The per-dim
constants are ``key_layout(n)``.  Outside the kernels every multi-index is
a tuple: ``Polynomial(dim, terms)``, ``terms``, ``coefficient``,
``sorted_terms`` and the JSON wire form pack on the way in and unpack on
the way out.

A tensor expansion maps each term through its whole-term image, the
tensor product of one sparse 1-D row per axis as (key, int) pairs over
one denominator (``term_image``), a row's index i landing at the key
offset i * step_j of its axis; an axis with exponent 0 has the identity
row and is skipped.  Every conversion builds its images per call from
cached per-axis rows with the center folded in (the centered Hermite rows
of both directions), and ``shift`` from binomial rows it builds per term,
so one expansion converts each term and nothing is cached per whole term.

Invariant of every instance: ``den > 0``; ``nums`` has packed int keys of
``dim`` exponent fields, each key equal to ``pack`` of a multi-index of
total degree at most MAX_DEGREE, with nonzero int values; and
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
import struct
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence, Union

# One entry per variable: entry j is the exponent of x_j.
MultiIndex = tuple[int, ...]

RationalLike = Union[int, Fraction, str]

# Int numerators over one denominator: (den, {key: num}) stands for the
# map key -> num / den, each key a packed multi-index.
IntMap = tuple[int, dict]

# Bits of one field of a packed key (W in the module docstring), and the
# largest total degree, so the largest exponent, a field holds.
FIELD_BITS = 32
MAX_DEGREE = 2**FIELD_BITS - 1


class DimensionMismatchError(ValueError):
    """Operands live in spaces of different ambient dimension."""


class InputLimitError(ValueError):
    """An input is larger than the stated limits."""


def check_degree(degree: int, what: str) -> None:
    """InputLimitError, naming ``what`` and the limit, for a total degree
    above MAX_DEGREE: a packed field would wrap into its neighbour."""
    if degree > MAX_DEGREE:
        raise InputLimitError(
            f"{what} has total degree {degree}, above MAX_DEGREE = {MAX_DEGREE} "
            f"(one {FIELD_BITS}-bit field per exponent)"
        )


class KeyLayout(NamedTuple):
    """The packed-key constants of one dimension n."""

    degree_shift: int  # W * n: key >> degree_shift is the total degree
    axes: tuple[tuple[int, int], ...]  # per axis j: (shift, step_j), e_j = key >> shift & MAX_DEGREE
    parity: int  # PAR: bit 0 of every exponent field
    fields: struct.Struct  # the exponents: fields.unpack(key.to_bytes(fields.size, "big"))


@lru_cache(maxsize=64)
def key_layout(dim: int) -> KeyLayout:
    """The ``KeyLayout`` of dimension ``dim``, one shared instance per dim."""
    top = FIELD_BITS * dim
    shifts = [FIELD_BITS * (dim - 1 - j) for j in range(dim)]
    return KeyLayout(
        top,
        tuple((shift, 1 << top | 1 << shift) for shift in shifts),
        sum(1 << shift for shift in shifts),
        struct.Struct(f">4x{dim}I"),  # FIELD_BITS = 32: one big-endian "I" word per field, the degree skipped
    )


def pack(exps: Sequence[int]) -> int:
    """The packed key of a multi-index whose total degree is at most
    MAX_DEGREE (not checked here; see ``check_multi_index``)."""
    key = sum(exps)
    for e in exps:
        key = key << FIELD_BITS | e
    return key


def unpack(key: int, dim: int) -> MultiIndex:
    """The multi-index of a packed key of ``dim`` fields."""
    fields = key_layout(dim).fields
    return fields.unpack(key.to_bytes(fields.size, "big"))


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
    """Render a Fraction as 'p/q' (or 'p' when the denominator is 1).  A
    part past Python's int-to-str limit raises OverflowError naming its
    digits and the limit: the value is exact, but has no decimal string."""
    try:
        return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"
    except ValueError:
        digits = math.floor(math.log10(max(abs(value.numerator), value.denominator))) + 1
        raise OverflowError(
            f"a rational of about {digits} digits exceeds Python's int-to-str limit of "
            f"{sys.get_int_max_str_digits()} digits (sys.get_int_max_str_digits())"
        ) from None


def format_fields(fields: dict, block: str = "") -> dict:
    """A report's JSON fields, in order, with each Fraction rendered by
    format_rational and each exact record by its ``to_json_dict``; one past
    the int-to-str limit raises OverflowError naming its key, after the
    ``block`` prefix of a nested block ("solution.")."""
    out = {}
    for key, value in fields.items():
        try:
            record = value.to_json_dict() if hasattr(value, "to_json_dict") else value
            out[key] = format_rational(value) if isinstance(value, Fraction) else record
        except OverflowError as exc:
            raise OverflowError(f"{exc}, in the report field {block + key!r}") from None
    return out


def _as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        return parse_rational(value)
    return Fraction(value)


def check_multi_index(exps: Iterable, dim: int) -> MultiIndex:
    """Validate an outside multi-index: ``dim`` ints (numpy ints too), none
    negative, of total degree at most MAX_DEGREE (InputLimitError above).
    Floats are rejected rather than truncated."""
    key = tuple(operator.index(e) for e in exps)
    if len(key) != dim:
        raise DimensionMismatchError(
            f"multi-index {key} has length {len(key)}, expected {dim}"
        )
    if any(e < 0 for e in key):
        raise ValueError(f"negative entry in multi-index {key}")
    check_degree(sum(key), f"multi-index {key}")
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
    """(den, {pack(key): num}) with ``terms[key] == num / den`` for every
    key, ``den`` the lcm of the denominators (1 for no terms).  For checked
    multi-indices and reduced, nonzero Fractions the pair meets the
    Polynomial invariant."""
    den = math.lcm(*(c.denominator for c in terms.values()))
    return den, {pack(key): c.numerator * (den // c.denominator) for key, c in terms.items()}


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

# A whole-term image as ints over one denominator: (den, ((key, num), ...))
# stands for sum num / den * basis_key, key a packed multi-index.
TermImage = tuple[int, tuple[tuple[int, int], ...]]


def term_image(rows: Iterable[tuple[IntRow, int]]) -> TermImage:
    """The tensor product of one sparse 1-D row per axis, each with the
    step of its axis: keys the sums of index * step over the axes, in the
    order of the nested loop over the rows, axis 0 outermost, numerators
    multiplied as ints over the product of the rows' denominators."""
    den = 1
    partial: list[tuple[int, int]] = [(0, 1)]
    for (row_den, pairs), step in rows:
        den *= row_den
        partial = [(prefix + i * step, pc * c) for prefix, pc in partial for i, c in pairs]
    return den, tuple(partial)


def tensor_expand(den: int, nums: Mapping[int, int], image: Callable[[int], TermImage]) -> IntMap:
    """Expand every term num / den * prod_j basis_{e_j} through its whole-term
    image: the sum of num / den * image(key).

    ``image(key)`` is the tensor product (``term_image``) of the term's
    per-axis rows.  Each term's numerators are rescaled from its image's
    denominator to the lcm of those denominators and summed; the result,
    over den times that lcm, is reduced once.  Keys need only be hashable.
    """
    images = [(num, image(key)) for key, num in nums.items()]
    common = math.lcm(*(term_den for _, (term_den, _) in images))
    out: dict[int, int] = {}
    get = out.get
    for num, (term_den, pairs) in images:
        c = num * (common // term_den)
        for key, v in pairs:
            out[key] = get(key, 0) + c * v
    return reduced(den * common, out)


def _binomial_row(e: int, p: int, q: int) -> IntRow:
    """(x + p/q)^e = sum_i C(e, i) p^(e-i) q^i / q^e x^i, nonzero terms only."""
    if p == 0:
        return 1, ((e, 1),)
    return q**e, tuple((i, math.comb(e, i) * p ** (e - i) * q**i) for i in range(e + 1))


class Polynomial:
    """Sparse polynomial over the rationals, used as an immutable value.

    ``nums`` maps each packed multi-index to its nonzero int numerator
    over the shared ``den``; every key has ``dim`` exponent fields.
    ``terms`` gives the same map as reduced Fractions on tuple keys.  No
    method changes ``dim``, ``den`` or ``nums`` after construction, so
    sharing across threads is safe.
    """

    # _hash is left unset until the first hash() (see __hash__)
    __slots__ = ("dim", "den", "nums", "_terms", "_hash")

    def __init__(self, dim: int, terms: Mapping[MultiIndex, RationalLike]):
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        self.dim = dim
        self._terms = validated_terms(dim, terms)
        self.den, self.nums = over_common_denominator(self._terms)

    @classmethod
    def _trusted(cls, dim: int, den: int, nums: dict[int, int]) -> "Polynomial":
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
            den, fields = self.den, key_layout(self.dim).fields
            read, size = fields.unpack, fields.size
            self._terms = {read(key.to_bytes(size, "big")): Fraction(num, den) for key, num in self.nums.items()}
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
    @lru_cache(maxsize=64)
    def norm_squared(cls, dim: int) -> "Polynomial":
        """The radial polynomial x_1^2 + ... + x_n^2, one shared instance per dim."""
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        return cls._trusted(dim, 1, {2 * step: 1 for _, step in key_layout(dim).axes})

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.nums

    def total_degree(self) -> int:
        """Total degree, read off the largest key; the zero polynomial reports -1."""
        return max(self.nums) >> FIELD_BITS * self.dim if self.nums else -1

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def sorted_terms(self) -> list[tuple[MultiIndex, Fraction]]:
        """Terms in graded lexicographic order: the int order of the keys."""
        return [term for _, term in sorted(zip(self.nums, self.terms.items()))]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.dim == other.dim and self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        """Kept after the first call: caches hash one weight again and again."""
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.dim, self.den, frozenset(self.nums.items())))
            return self._hash

    def __str__(self) -> str:
        """The identity corpus signature: graded-lex terms c*x^[e], or 0.
        Each coefficient num/den is reduced by one gcd, without building
        ``terms``."""
        if not self.nums:
            return "0"
        den, fields = self.den, key_layout(self.dim).fields
        read, size = fields.unpack, fields.size
        parts = []
        for key, num in sorted(self.nums.items()):
            g = math.gcd(num, den)
            coef = str(num // g) if g == den else f"{num // g}/{den // g}"
            parts.append(f"{coef}*x^{list(read(key.to_bytes(size, 'big')))}")
        return " + ".join(parts)

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
        """The product: a key sum per pair of terms, the degree checked
        first from the two largest keys (InputLimitError above MAX_DEGREE)."""
        self._check_dim(other)
        check_degree(self.total_degree() + other.total_degree(), "the product")
        pairs_b = list(other.nums.items())
        out: dict[int, int] = {}
        get = out.get
        for ka, na in self.nums.items():
            for kb, nb in pairs_b:
                key = ka + kb
                out[key] = get(key, 0) + na * nb
        return Polynomial._trusted(self.dim, *reduced(self.den * other.den, out))

    def scale(self, factor: RationalLike) -> "Polynomial":
        return Polynomial._trusted(self.dim, *scale_over((self.den, self.nums), _as_fraction(factor)))

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative powers are not polynomials")
        check_degree(exponent * self.total_degree(), f"the power {exponent}")
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
        shift, step = key_layout(self.dim).axes[index]
        out: dict[int, int] = {}
        for key, num in self.nums.items():
            k = key >> shift & MAX_DEGREE
            if k:
                out[key - step] = num * k
        return Polynomial._trusted(self.dim, *reduced(self.den, out))

    def gradient(self) -> tuple["Polynomial", ...]:
        return tuple(self.partial(j) for j in range(self.dim))

    def laplacian(self) -> "Polynomial":
        axes = [(shift, 2 * step) for shift, step in key_layout(self.dim).axes]
        out: dict[int, int] = {}
        get = out.get
        for key, num in self.nums.items():
            for shift, step in axes:
                k = key >> shift & MAX_DEGREE
                if k >= 2:
                    lowered = key - step
                    out[lowered] = get(lowered, 0) + num * (k * (k - 1))
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
        axes = [
            (shift, step, v.numerator, v.denominator)
            for (shift, step), v in zip(key_layout(self.dim).axes, map(_as_fraction, offset))
        ]
        return Polynomial._trusted(self.dim, *tensor_expand(
            self.den, self.nums,
            # a zero exponent's row is the identity (1, ((0, 1),)), so its axis is skipped
            lambda key: term_image([
                (_binomial_row(e, p, q), step) for shift, step, p, q in axes if (e := key >> shift & MAX_DEGREE)
            ]),
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
        value ValueError, and a total degree above MAX_DEGREE
        InputLimitError (a ValueError).
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


@lru_cache(maxsize=64)
def coordinate_vector(dim: int) -> tuple[Polynomial, ...]:
    """The vector (x_1, ..., x_n) as polynomials, one shared tuple per dim."""
    return tuple(Polynomial._trusted(dim, 1, {step: 1}) for _, step in key_layout(dim).axes)


@lru_cache(maxsize=16)
def _lcm_upto(bound: int) -> int:
    """lcm(1..bound), the common denominator of ``random_polynomial``'s coefficients."""
    return math.lcm(*range(1, bound + 1))


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
    from a recorded seed.  Each draw is read from ``rng.getrandbits`` by
    the rule of CPython's ``randrange``, so ``randint`` and ``randrange``
    would give the same polynomials and leave ``rng`` in the same state.
    """
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")

    def below(n: int) -> int:
        """rng.randrange(n): n.bit_length() bits, redrawn while >= n."""
        if n < 1:
            raise ValueError(f"empty range for randrange({n})")
        r = rng.getrandbits(k := n.bit_length())
        while r >= n:
            r = rng.getrandbits(k)
        return r

    # each term's below(degrees), below(signed) and below(coeff_bound) are
    # inlined too, their bit widths taken once
    common = _lcm_upto(coeff_bound)
    degrees, signed = max_degree + 1, 2 * coeff_bound + 1
    n_terms = 1 + below(max_terms)
    for n in (degrees, signed, coeff_bound):
        if n < 1:
            raise ValueError(f"empty range for randrange({n})")
    steps = [step for _, step in key_layout(dim).axes]
    getrandbits, axis_bits = rng.getrandbits, dim.bit_length()
    degree_bits, signed_bits, den_bits = degrees.bit_length(), signed.bit_length(), coeff_bound.bit_length()
    nums: dict[int, int] = {}
    for _ in range(n_terms):
        degree = getrandbits(degree_bits)
        while degree >= degrees:
            degree = getrandbits(degree_bits)
        key = 0
        for _ in range(degree):  # one unit of degree on the axis below(dim), inlined
            axis = getrandbits(axis_bits)
            while axis >= dim:
                axis = getrandbits(axis_bits)
            key += steps[axis]
        num = getrandbits(signed_bits)
        while num >= signed:
            num = getrandbits(signed_bits)
        den = getrandbits(den_bits)
        while den >= coeff_bound:
            den = getrandbits(den_bits)
        nums[key] = nums.get(key, 0) + (num - coeff_bound) * (common // (den + 1))
    p = Polynomial._trusted(dim, *reduced(common, nums))
    if nonzero and p.is_zero():
        return Polynomial.constant(dim, Fraction(1, 1 + below(coeff_bound)))
    return p

"""Constructive right inverse of lap + a on the Gaussian-weighted space.

The solver works in coefficient space over the scaled Hermite basis, where
the Laplacian lowers total degree by exactly two:

    (lap + a) G_gamma = a G_gamma + sum_j 4 gamma_j (gamma_j - 1) G_{gamma - 2 e_j}.

``shifted_laplacian`` is this sparse action, and every report's
``residual_exact`` is the exact check (lap + a) u == f on Hermite
coefficients (a bijective change of basis, so it equals the check on
monomials).  Every block of lap + a is built from the cached
``_level(dim, degree, parity)``: one level of a parity class, its members
and their _lowered entries.

For a = 0 the coefficient system (over solutions of degree <= deg f + 2)
is underdetermined; the minimal-weighted-norm solution is u = P (L P)^-1 f
for L = lap and P the raising map (L* = lam^2 P).  L P keeps the blocks of
(total degree, parity vector) and has a known integer spectrum on each,
one eigenvalue per tower of the Fischer decomposition, so (L P)^-1 is an
integer polynomial in L P, applied by Horner: no matrix is formed.

For a != 0 the truncated system is uniquely solvable (triangular with a
on the diagonal) but the resulting ratio ||u||^2/||f||^2 generally
violates the 1/(8n) target: the kernel of lap + a contains no
polynomials.  Kernel enrichment subtracts the weighted projection onto
explicit kernel elements (plane waves cos/sin(k.x) with |k|^2 = a for
a > 0, e^{k.x} with |k|^2 = -a for a < 0), driving the ratio toward the
bound.  Plane waves pair with Hermite coefficients in closed form, by the
generating function e^{2st - s^2} = sum_m H_m(t) s^m / m!, so enrichment
never leaves Hermite coordinates.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .hermite import (
    GaussianScalar,
    HermiteExpansion,
    WeightSpec,
    monomial_to_hermite,
)
from .linalg import SingularMatrixError
from .polynomials import (
    DimensionMismatchError,
    MultiIndex,
    Polynomial,
    RationalLike,
    format_rational,
    reduced,
)


class GramConditionError(ArithmeticError):
    """Enrichment Gram system too ill-conditioned to trust."""


class InputLimitError(ValueError):
    """An input is larger than the stated limits."""


def input_float(value: Fraction, name: str) -> float:
    """float(value), or InputLimitError naming the input when |value| is
    above the float range."""
    try:
        return float(value)
    except OverflowError:
        digits = math.log10(abs(value.numerator)) - math.log10(value.denominator)
        raise InputLimitError(
            f"{name}: |{name}| = 10^{digits:.2f} is above the float range "
            f"(sys.float_info.max = {sys.float_info.max!r})"
        ) from None


def _report_float(quantity: str, exact: GaussianScalar | Fraction) -> float:
    """The float of an exact solve-report quantity, or OverflowError naming
    it: data near 1e154 and up, or a lam or 1/lam above the float range,
    put ||u||^2_w or the ratio out of it."""
    try:
        return exact.to_float() if isinstance(exact, GaussianScalar) else float(exact)
    except (OverflowError, ZeroDivisionError) as exc:
        raise OverflowError(f"solve_min_norm: {quantity} is out of the float range ({exc})") from None


def multi_indices_up_to(dim: int, degree: int) -> list[MultiIndex]:
    """All multi-indices with total degree <= degree, graded lex order."""
    return [alpha for d in range(degree + 1) for alpha in _indices_of_degree(dim, d)]


@lru_cache(maxsize=1024)
def _indices_of_degree(dim: int, degree: int) -> tuple[MultiIndex, ...]:
    """Multi-indices of total degree ``degree`` (none below 0), in lex
    order: the gaps between 0, cuts 0 <= c_1 <= ... <= c_(dim-1) <= degree
    and degree, the cuts in lex order."""
    cuts = itertools.combinations_with_replacement(range(degree + 1), dim - 1) if degree >= 0 else ()
    return tuple(tuple(b - a for a, b in zip((0,) + c, c + (degree,))) for c in cuts)


# ----------------------------------------------------------------------
# the operator lap + a on Hermite coefficients
# ----------------------------------------------------------------------


def _lowered(gamma: MultiIndex) -> list[tuple[MultiIndex, int]]:
    """lap G_gamma as pairs (gamma - 2 e_j, 4 gamma_j (gamma_j - 1)), gamma_j >= 2.

    This holds for every weight scale lam and center: the lam factors of
    the scaled basis cancel against the chain rule.
    """
    return [
        (gamma[:j] + (g - 2,) + gamma[j + 1 :], 4 * g * (g - 1))
        for j, g in enumerate(gamma)
        if g >= 2
    ]


@lru_cache(maxsize=4096)
def _level(dim: int, degree: int, parity: tuple[int, ...]) -> tuple[tuple[MultiIndex, ...], tuple]:
    """(members, entries) of one level of a parity class: the multi-indices
    parity + 2 q of total degree ``degree``, q in lex order, and each one's
    _lowered entries as (position in the level of degree - 2, int).
    Neither depends on a, lam or the center."""
    half, odd = divmod(degree - sum(parity), 2)
    if half < 0 or odd:
        return (), ()
    below, level = (
        tuple(tuple(p + 2 * e for p, e in zip(parity, q)) for q in _indices_of_degree(dim, h))
        for h in (half - 1, half)
    )
    pos = {beta: i for i, beta in enumerate(below)}
    return level, tuple(tuple((pos[beta], b) for beta, b in _lowered(gamma)) for gamma in level)


def shifted_laplacian(expansion: HermiteExpansion, a: RationalLike) -> HermiteExpansion:
    """(lap + a) applied to an expansion, exactly, over the same weight.

    With a = p/q, every result coefficient is an int sum over q times the
    expansion's denominator, and the result is reduced once.
    """
    a = Fraction(a)
    p, q = a.numerator, a.denominator
    nums = expansion.nums
    out = {gamma: p * num for gamma, num in nums.items()} if p else {}
    for gamma, num in nums.items():
        for beta, b in _lowered(gamma):
            out[beta] = out.get(beta, 0) + q * b * num
    return HermiteExpansion._trusted(expansion.weight, *reduced(q * expansion.den, out))


# ----------------------------------------------------------------------
# kernel functions
# ----------------------------------------------------------------------


# Real and imaginary parts of i^m, by m mod 4, for the pairing of each kind.
_PHASES = {"exp": (1, 1, 1, 1), "cos": (1, 0, -1, 0), "sin": (0, 1, 0, -1)}


@dataclass(frozen=True)
class KernelFunction:
    """An explicit plane wave in ker(lap + a) living in the weighted space.

    The float wavevector has |k|^2 = a for trig kinds, -a for exp.
    """

    kind: str  # "cos" | "sin" | "exp"
    wavevector: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in _PHASES:
            raise ValueError(f"unknown plane-wave kind {self.kind!r}")

    def describe(self) -> str:
        vec = ",".join(f"{v:.12g}" for v in self.wavevector)
        return f"{self.kind}({vec})"

    def evaluate(self, point: Sequence[float]) -> float:
        phase = sum(k * float(x) for k, x in zip(self.wavevector, point))
        if self.kind == "cos":
            return math.cos(phase)
        if self.kind == "sin":
            return math.sin(phase)
        return math.exp(phase)

    def annihilation_defect(self, a: Fraction) -> float:
        """How far (lap + a) is from annihilating this function: the |k|^2
        defect (the float wavevector is the only error source)."""
        k_sq = sum(v * v for v in self.wavevector)
        target = float(a) if self.kind in ("cos", "sin") else -float(a)
        return abs(k_sq - target)

    def pair(self, expansion: HermiteExpansion) -> float:
        """<self, u> under the unit Gaussian weight, u in Hermite coefficients.

        The generating function e^{2st - s^2} = sum_m H_m(t) s^m / m! at
        s = k/2 and s = ik/2 gives, per basis element,
            <e^{k.x}, G_alpha>  = pi^{n/2} e^{|k|^2/4}  k^alpha
            <e^{ik.x}, G_alpha> = pi^{n/2} e^{-|k|^2/4} (ik)^alpha,
        whose real and imaginary parts pair cos(k.x) and sin(k.x).  Raises
        OverflowError, naming the pairing, |k| and the degree of u, when a
        power k^alpha or the value is not a finite float.
        """
        k = self.wavevector
        if not expansion.weight.is_unit:
            raise ValueError("plane-wave pairing requires the unit weight")
        if len(k) != expansion.weight.dim:
            raise DimensionMismatchError(
                f"wavevector length {len(k)} != dim {expansion.weight.dim}"
            )
        phases = _PHASES[self.kind]
        den = expansion.den
        k_sq = sum(v * v for v in k) / 4.0
        try:
            total = math.fsum(
                phases[sum(alpha) % 4] * (num / den) * math.prod(v**e for v, e in zip(k, alpha))
                for alpha, num in expansion.nums.items()
            )
            damping = math.exp(k_sq if self.kind == "exp" else -k_sq)
            value = math.pi ** (len(k) / 2.0) * damping * total
        except (OverflowError, ValueError):  # a power, a coefficient or inf - inf in fsum
            value = math.inf
        if not math.isfinite(value):
            raise OverflowError(
                f"plane-wave pairing <{self.describe()}, u> with |k| = {math.sqrt(4.0 * k_sq):.6g} "
                f"and u of degree {expansion.degree()} is not finite in floating point"
            )
        return value


def default_directions(dim: int) -> list[tuple[float, ...]]:
    """Coordinate axes plus the normalized diagonals, deduped up to sign."""
    dirs: list[tuple[float, ...]] = []
    for j in range(dim):
        dirs.append(tuple(1.0 if i == j else 0.0 for i in range(dim)))
    scale = dim**-0.5
    for signs in itertools.product((1.0, -1.0), repeat=dim):
        if signs[0] < 0:
            continue  # cos/sin/exp-pair spans are sign-symmetric
        vec = tuple(s * scale for s in signs)
        if vec not in dirs:
            dirs.append(vec)
    return dirs


# Most plane waves kernel_basis builds: two per default direction, 2 (dim +
# 2^(dim - 1)) from 2-D on, so 1044 in 10-D and 2070 in 11-D.  Enrichment's
# Gram matrix over them is a Python loop of count^2 entries: a 10-D solve
# takes 5.5 s and an 11-D one 25 s on a 2-core machine.
MAX_PLANE_WAVES = 1044


def kernel_basis(a: RationalLike, dim: int) -> list[KernelFunction]:
    """Plane-wave kernel elements of lap + a (a != 0) along the default
    directions; InputLimitError, before any wave is built, for an |a|
    above the float range or more than MAX_PLANE_WAVES waves."""
    a = Fraction(a)
    if a == 0:
        raise ValueError("plane-wave kernel basis requires a != 0")
    count = 2 * (dim + 2 ** (dim - 1)) if dim > 1 else 2
    if count > MAX_PLANE_WAVES:
        raise InputLimitError(
            f"kernel_basis in {dim}-D needs {count} plane waves, above MAX_PLANE_WAVES = {MAX_PLANE_WAVES}"
        )
    speed = math.sqrt(abs(input_float(a, "a")))
    dirs = default_directions(dim)
    out: list[KernelFunction] = []
    if a > 0:
        for d in dirs:
            k = tuple(speed * v for v in d)
            out.append(KernelFunction(kind="cos", wavevector=k))
            out.append(KernelFunction(kind="sin", wavevector=k))
    else:
        for d in dirs:
            k = tuple(speed * v for v in d)
            out.append(KernelFunction(kind="exp", wavevector=k))
            out.append(KernelFunction(kind="exp", wavevector=tuple(-v for v in k)))
    return out


# ----------------------------------------------------------------------
# solve report
# ----------------------------------------------------------------------


@dataclass
class SolveReport:
    """Solution of (lap + a) u = f with norms, ratio, and bound verdict.

    The polynomial part of the solution is exact; plane-wave enrichment
    contributes float kernel coefficients, after which the achieved ratio
    is a float and ``ratio`` (the exact rational) is None.
    """

    weight: WeightSpec
    a: Fraction
    truncation: int
    solution: HermiteExpansion
    kernel_part: list[tuple[KernelFunction, float]] = field(default_factory=list)
    residual_exact: bool = True
    kernel_defect: float = 0.0
    norm_f_sq: GaussianScalar | None = None
    norm_u_sq: GaussianScalar | None = None
    norm_u_sq_float: float = 0.0
    ratio: Fraction | None = None
    ratio_float: float = 0.0
    pre_enrichment_ratio: Fraction | None = None
    pre_enrichment_ratio_float: float | None = None
    bound: Fraction = Fraction(0)
    bound_satisfied: bool = False
    enrichment: str = "none"
    gram_condition: float | None = None

    @property
    def passed(self) -> bool:
        """The solve verdict: exact residual and the ratio within the bound."""
        return self.residual_exact and self.bound_satisfied

    def solution_polynomial(self) -> Polynomial:
        """Exact polynomial part of the solution."""
        return self.solution.to_polynomial()

    def evaluate(self, point: Sequence[float]) -> float:
        """Pointwise value of the full solution, kernel part included."""
        total = float(self.solution_polynomial().evaluate([float(v) for v in point]))
        for g, c in self.kernel_part:
            total += c * g.evaluate(point)
        return total

    def to_json_dict(self) -> dict:
        return {
            "weight": self.weight.to_json_dict(),
            "a": format_rational(self.a),
            "truncation": self.truncation,
            "solution": {
                "hermite": self.solution.to_json_dict(),
                "polynomial": self.solution_polynomial().to_json_dict(),
                "kernel": [
                    {"function": g.describe(), "coefficient": c}
                    for g, c in self.kernel_part
                ],
            },
            "residual_exact": self.residual_exact,
            "kernel_defect": self.kernel_defect,
            "norm_f_sq": self.norm_f_sq.to_json_dict() if self.norm_f_sq else None,
            "norm_u_sq": self.norm_u_sq.to_json_dict() if self.norm_u_sq else None,
            "norm_u_sq_float": self.norm_u_sq_float,
            "ratio": format_rational(self.ratio) if self.ratio is not None else None,
            "ratio_float": self.ratio_float,
            "pre_enrichment_ratio": (
                format_rational(self.pre_enrichment_ratio)
                if self.pre_enrichment_ratio is not None
                else None
            ),
            "pre_enrichment_ratio_float": self.pre_enrichment_ratio_float,
            "bound": format_rational(self.bound),
            "bound_satisfied": self.bound_satisfied,
            "enrichment": self.enrichment,
            "gram_condition": self.gram_condition,
        }


# ----------------------------------------------------------------------
# core solvers
# ----------------------------------------------------------------------


# Most work a min-norm solve may take, counted from binomials before any
# level is built: per (degree d, parity) block, the lap entries of level
# d + 2 (dim times the members of level d) times the towers, plus the dim
# ints of each member's multi-index on levels d and d + 2.  A unit takes about
# 0.4 us to solve and 4.5 us in a whole cold `gauss-rinv solve` (2-core x86):
# x1^8 in 12-D counts 198,564 (0.9 s in all), x1^10 in 12-D 713,988 (3.2 s);
# x1^12 in 12-D (2,283,972) and x1^2 in 1000-D (504,502,000) are refused.
MAX_MIN_NORM_WORK = 1_000_000


@lru_cache(maxsize=1024)
def _tower_polynomial(dim: int, degree: int, odd: int) -> tuple[int, ...]:
    """(c_0, c_1, ...) of c(x) = prod_k (mu_k - x), mu_k = 8 (k + 1) (2 degree
    - 2k + dim), over the towers P^k H_(degree - 2k) present on the degree
    level of a parity class with ``odd`` odd axes: k = 0..(degree - odd) / 2,
    and in 1-D, where H_m = 0 for m >= 2, only k = (degree - odd) / 2."""
    top = (degree - odd) // 2
    coeffs = [1]
    for k in range(top + 1) if dim > 1 else (top,):
        mu = 8 * (k + 1) * (2 * degree - 2 * k + dim)
        coeffs = [mu * c - below for c, below in zip(coeffs + [0], [0] + coeffs)]
    return tuple(coeffs)


def _min_norm_coeffs(f: HermiteExpansion) -> HermiteExpansion:
    """Minimal-weighted-norm coefficients solving lap(u) = f exactly.

    The weighted adjoint of L = lap is lam^2 P, P G_beta = sum_j
    G_(beta + 2 e_j), so u = P (L P)^-1 f, the same for every weight.  On
    the degree d level of a parity class L P is the int mu_k on each tower
    P^k H_(d - 2k) (R. Howe, Trans. AMS 313, 1989; Stein & Weiss 1971, ch.
    IV), so c(L P) = 0 for the ``_tower_polynomial`` c of the towers there,
    and (L P)^-1 = -(sum_(i >= 1) c_i (L P)^(i - 1)) / c_0: Horner on f's
    int numerators, one gather (P) and one scatter (L) over the entries of
    ``_level(dim, d + 2, parity)`` per step, then u = P of the result over
    -c_0, one gcd per block, over the lcm of the blocks' denominators.
    Work over MAX_MIN_NORM_WORK raises InputLimitError first.
    """
    dim = f.weight.dim
    blocks: dict[tuple[int, tuple[int, ...]], dict[MultiIndex, int]] = {}
    for alpha, num in f.nums.items():
        key = (sum(alpha), tuple(e % 2 for e in alpha))
        blocks.setdefault(key, {})[alpha] = num
    work = 0
    for deg, parity in blocks:
        half = (deg - sum(parity)) // 2
        rows, cols = math.comb(half + dim - 1, dim - 1), math.comb(half + dim, dim - 1)
        work += dim * (rows * (half + 1 if dim > 1 else 1) + rows + cols)
    if work > MAX_MIN_NORM_WORK:
        raise InputLimitError(
            f"the min-norm solve in {dim}-D needs {work} units of work (lap entries times towers, "
            f"plus the {dim}-entry multi-indices), above MAX_MIN_NORM_WORK = {MAX_MIN_NORM_WORK}"
        )
    parts: list[tuple[MultiIndex, int, int]] = []
    common = 1
    for (deg, parity), rhs_nums in sorted(blocks.items()):
        c0, *tail = _tower_polynomial(dim, deg, sum(parity))
        rhs = [rhs_nums.get(alpha, 0) for alpha in _level(dim, deg, parity)[0]]
        columns, entries = _level(dim, deg + 2, parity)
        acc = [tail[-1] * v for v in rhs]
        for c in reversed(tail[:-1]):
            nxt = [c * v for v in rhs]
            for column in entries:
                y = 0
                for i, _ in column:
                    y += acc[i]
                if y:
                    for i, b in column:
                        nxt[i] += b * y
            acc = nxt
        nums = []
        for column in entries:
            y = 0
            for i, _ in column:
                y -= acc[i]
            nums.append(y)
        g = math.gcd(c0, *nums)
        den = c0 // g
        common = math.lcm(common, den)
        parts.extend((gamma, num // g, den) for gamma, num in zip(columns, nums))
    u = {gamma: num * (common // den) for gamma, num, den in parts}
    return HermiteExpansion._trusted(f.weight, *reduced(f.den * common, u))


def _triangular_coeffs(f: HermiteExpansion, a: Fraction) -> HermiteExpansion:
    """Unique polynomial solution of (lap + a) u = f for a != 0 (top-down).

    u_alpha = (f_alpha - (lap u)_alpha) / a, where (lap u)_alpha only
    involves the coefficients of degree |alpha| + 2, already solved.  With
    a = p/q, a coefficient of degree d divides by p once per step of its
    chain d, d + 2, ..., deg f, so over f's denominator times |p|^m, m the
    longest chain, every step is an exact int division.  lap + a keeps
    per-axis parity, so only the members of f's parity classes are walked.
    """
    dim = f.weight.dim
    p, q = a.numerator, a.denominator
    degree = f.degree()
    m = max(degree, 0) // 2 + 1
    lift = abs(p) ** m
    classes = sorted({tuple(e % 2 for e in alpha) for alpha in f.nums})
    u: dict[MultiIndex, int] = {}
    lap_u: dict[MultiIndex, int] = {}
    for d in range(degree, -1, -1):
        for alpha in heapq.merge(*(_level(dim, d, parity)[0] for parity in classes)):
            acc = f.nums.get(alpha, 0) * lift - lap_u.get(alpha, 0)
            if acc:
                u[alpha] = num = q * acc // p
                for beta, b in _lowered(alpha):
                    lap_u[beta] = lap_u.get(beta, 0) + b * num
    return HermiteExpansion._trusted(f.weight, *reduced(f.den * lift, u))


def right_inverse_coeffs(f: HermiteExpansion, a: Fraction) -> HermiteExpansion:
    """Hermite coefficients, over f's weight, of the package's exact
    solution of (lap + a) u = f: minimal-weighted-norm at a = 0, the unique
    triangular one otherwise.  Neither depends on the weight's lam or
    center (see _min_norm_coeffs)."""
    if a == 0:
        return _min_norm_coeffs(f)
    return _triangular_coeffs(f, a)


def exact_solve(
    f: HermiteExpansion, a: Fraction
) -> tuple[HermiteExpansion, bool, GaussianScalar, GaussianScalar, Fraction]:
    """The exact core of every solve: u = right_inverse_coeffs(f, a), the
    exact residual check shifted_laplacian(u, a) == f, ||f||^2_w,
    ||u||^2_w and their ratio ||u||^2_w / ||f||^2_w (0 for zero data)."""
    u = right_inverse_coeffs(f, a)
    norm_f, norm_u = f.norm_sq(), u.norm_sq()
    ratio = Fraction(0) if norm_f.is_zero() else norm_u.ratio(norm_f)
    return u, shifted_laplacian(u, a) == f, norm_f, norm_u, ratio


def solve_min_norm(
    f: Polynomial, a: RationalLike = 0, weight: WeightSpec | None = None
) -> SolveReport:
    """Solve (lap + a) u = f over polynomials with exact zero residual.

    a = 0: minimal-weighted-norm solution over degree <= deg f + 2; it is
    orthogonal to every polynomial in ker(lap) and satisfies the ratio
    bound ||u||^2/||f||^2 <= 1/(8 n lam^2) with equality exactly at
    nonzero constant f.  a != 0: the unique triangular polynomial
    solution, whose ratio generally exceeds the bound until enriched.
    ``residual_exact`` is the exact check shifted_laplacian(u, a) == f on
    Hermite coefficients.  Neither solution depends on a truncation degree;
    the report's ``truncation`` is deg f (0 for zero data).
    """
    a = Fraction(a)
    w = weight if weight is not None else WeightSpec.unit(f.dim)
    if f.dim != w.dim:
        raise ValueError(f"dimension mismatch: {f.dim} vs {w.dim}")
    u_exp, residual_exact, norm_f, norm_u, ratio = exact_solve(monomial_to_hermite(f, w), a)
    bound = Fraction(1, 8 * w.dim * w.lam**2)
    return SolveReport(
        weight=w,
        a=a,
        truncation=max(f.total_degree(), 0),
        solution=u_exp,
        residual_exact=residual_exact,
        norm_f_sq=norm_f,
        norm_u_sq=norm_u,
        norm_u_sq_float=_report_float("norm_u_sq_float, the float of ||u||^2_w,", norm_u),
        ratio=ratio,
        ratio_float=_report_float("ratio_float", ratio),
        bound=bound,
        bound_satisfied=ratio <= bound,
    )


# ----------------------------------------------------------------------
# kernel enrichment
# ----------------------------------------------------------------------

GRAM_CONDITION_LIMIT = 1e12
# Largest |k|^2 defect of a plane wave, relative to |a|.  Rounding of the
# float wavevector (sqrt |a|, the direction, their product, the square and
# the dim-term sum) keeps |k|^2 within about (dim + 6) eps |a| of |a|,
# 2e-15 |a| for dim <= 3; a wrong wavevector misses by far more.
ANNIHILATION_TOL = 1e-12


def _kernel_gram(basis: Sequence[KernelFunction]) -> tuple[np.ndarray, float]:
    """Unit-weight Gram matrix of plane waves and its condition number.

    Product-to-sum turns each entry into a pairing with G_0 = 1:
    exp-exp is pi^{n/2} e^{|k+l|^2/4}; cos-cos and sin-sin are
    pi^{n/2} (e^{-|k-l|^2/4} +- e^{-|k+l|^2/4}) / 2; cos-sin is 0 (odd).
    Raises GramConditionError above GRAM_CONDITION_LIMIT, or naming the
    entry when an exp-exp entry overflows a float (|a| above about 709).
    """
    unit = math.pi ** (len(basis[0].wavevector) / 2.0)

    def entry(g: KernelFunction, h: KernelFunction) -> float:
        plus = sum((x + y) ** 2 for x, y in zip(g.wavevector, h.wavevector)) / 4.0
        if g.kind == h.kind == "exp":
            try:
                value = unit * math.exp(plus)
            except OverflowError:
                value = math.inf
            if math.isinf(value):
                raise GramConditionError(
                    f"kernel Gram entry <{g.describe()}, {h.describe()}> = "
                    f"{unit:.6g} e^{plus:.6g} overflows a float"
                )
            return value
        if "exp" in (g.kind, h.kind):
            raise ValueError(f"unsupported kernel pair {g.kind}/{h.kind}")
        if g.kind != h.kind:
            return 0.0
        minus = sum((x - y) ** 2 for x, y in zip(g.wavevector, h.wavevector)) / 4.0
        sign = 1.0 if g.kind == "cos" else -1.0
        return unit * 0.5 * (math.exp(-minus) + sign * math.exp(-plus))

    gram = np.array([[entry(g, h) for h in basis] for g in basis], dtype=float)
    condition = float(np.linalg.cond(gram))
    if condition > GRAM_CONDITION_LIMIT:
        raise GramConditionError(
            f"kernel Gram condition {condition:.3e} exceeds {GRAM_CONDITION_LIMIT:.0e}"
        )
    return gram, condition


def enrich(report: SolveReport, basis: Sequence[KernelFunction]) -> SolveReport:
    """Subtract the weighted projection of the solution onto kernel span.

    The residual is untouched ((lap + a) annihilates every basis element);
    the new squared norm is ||u_p||^2 - 2 b.v + b.G b from the normal
    equations G b = v, v_i = <g_i, u_p>, from closed-form float Gram data
    and closed-form pairings with the Hermite coefficients of u_p.
    """
    if not basis:
        return report
    if report.kernel_part:
        raise ValueError("report already carries kernel enrichment")
    if not report.weight.is_unit:
        raise ValueError("kernel enrichment requires the unit weight")
    defect = max(g.annihilation_defect(report.a) for g in basis)
    if not defect <= ANNIHILATION_TOL * abs(float(report.a)):
        raise ValueError(
            f"basis element not annihilated by lap + a (defect {defect}, "
            f"above {ANNIHILATION_TOL} |a|)"
        )
    gram, condition = _kernel_gram(basis)
    v = np.array([g.pair(report.solution) for g in basis], dtype=float)
    beta = np.linalg.solve(gram, v)
    old_norm = report.norm_u_sq.to_float()
    new_norm = old_norm - 2.0 * float(beta @ v) + float(beta @ gram @ beta)
    norm_f_float = report.norm_f_sq.to_float()
    ratio_float = new_norm / norm_f_float if norm_f_float else 0.0
    return dataclasses.replace(
        report,
        kernel_part=[(g, -float(b)) for g, b in zip(basis, beta)],
        kernel_defect=defect,
        norm_u_sq_float=new_norm,
        ratio=None,
        ratio_float=ratio_float,
        pre_enrichment_ratio=report.ratio,
        pre_enrichment_ratio_float=report.ratio_float,
        bound_satisfied=ratio_float <= float(report.bound) + 1e-12,
        enrichment=f"plane-waves[{len(basis)}]",
        gram_condition=condition,
    )


def apply_right_inverse(
    f: Polynomial, a: RationalLike = 0, weight: WeightSpec | None = None
) -> SolveReport:
    """The full right-inverse application: exact solve, then enrich.

    Only a != 0 on the unit weight is projected off the default plane-wave
    kernel basis (plane waves pair in closed form under that weight alone);
    at a = 0 the min-norm solution is already orthogonal to the kernel.
    The report keeps the pre-enrichment ratio next to the final one.
    """
    a = Fraction(a)
    report = solve_min_norm(f, a, weight=weight)
    if a == 0 or f.is_zero() or not report.weight.is_unit:
        return report
    return enrich(report, kernel_basis(a, f.dim))


# ----------------------------------------------------------------------
# operator norm of the truncated right inverse
# ----------------------------------------------------------------------

# Largest block (rows x cols) operator_norm builds: 3-D at a != 0 and
# degree 40 has a 1771 x 1771 parity block (25 MB of floats, about 11 s to
# invert and decompose on a 2-core machine).  1-D a != 0 is admitted up to
# degree 3999.
MAX_BLOCK_ENTRIES = 4_000_000
# Entries of all blocks together, a block counting as at least
# BLOCK_FLOOR_ENTRIES: building and decomposing even a 1 x 1 block costs
# about 25 us, against about 0.5 us per entry of a large block.  A block
# also counts as at least the dim entries of each of its rows' and
# columns' multi-indices, which its levels hold: in 1000-D at degree 1
# the 1 x 1000 blocks are small, their levels a billion ints.  That count
# never decides in 1-D to 3-D.  3-D
# a != 0 at degree 40 holds 19,134,941 entries (about 11 s).  a = 0 is
# admitted up to degree 312,499 in 1-D (6 s), 490 in 2-D (3 s) and 66 in
# 3-D (4 s).
MAX_TOTAL_ENTRIES = 20_000_000
BLOCK_FLOOR_ENTRIES = 64


def _parities(dim: int, degree: int) -> list[tuple[int, ...]]:
    """The parity vectors with at most ``degree`` odd axes, in lex order:
    C(dim, s) of them for each s <= degree, the classes _block_shapes counts."""
    return sorted(
        tuple(int(j in odd) for j in range(dim))
        for s in range(min(dim, degree) + 1)
        for odd in itertools.combinations(range(dim), s)
    )


def _float_blocks(dim: int, degree: int, shift: float):
    """(parity, block) for each float block of lap + a in orthonormal Hermite
    coordinates, over consecutive levels of a class: sqrt of each entry from
    a column level k into the row level k - 2, ``shift`` on the diagonal.  At
    shift 0 a block maps level k + 2 onto level k; else it spans the levels."""
    for parity in _parities(dim, degree):
        degrees = range(sum(parity), degree + 1, 2)
        for rows, cols in [(degrees, degrees)] if shift else [((k,), (k + 2,)) for k in degrees]:
            sizes = {k: len(_level(dim, k, parity)[0]) for k in (*rows, *cols)}
            row_at, col_at = (
                dict(zip(span, itertools.accumulate((sizes[k] for k in span), initial=0)))
                for span in (rows, cols)
            )
            block = np.zeros((sum(sizes[k] for k in rows), sum(sizes[k] for k in cols)))
            for k in cols:
                if k - 2 in row_at:
                    for ci, column in enumerate(_level(dim, k, parity)[1], col_at[k]):
                        for ri, b in column:
                            block[row_at[k - 2] + ri, ci] = math.sqrt(b)
            if shift:
                np.fill_diagonal(block, shift)
            yield parity, block


def _block_shapes(dim: int, degree: int, shifted: bool) -> list[tuple[int, int, int]]:
    """(rows, cols, multiplicity) of the blocks of ``_float_blocks``, from binomial
    counts: a parity class of weight s holds C(h + dim - 1, dim - 1)
    indices of degree s + 2h, and there are C(dim, s) such classes."""
    shapes = []
    for s in range(min(dim, degree) + 1):
        classes = math.comb(dim, s)
        top = (degree - s) // 2
        if shifted:
            m = math.comb(top + dim, dim)
            shapes.append((m, m, classes))
        else:
            shapes.extend(
                (math.comb(h + dim - 1, dim - 1), math.comb(h + dim, dim - 1), classes)
                for h in range(top + 1)
            )
    return shapes


def check_operator_norm_limits(dim: int, degree: int, shifted: bool) -> None:
    """Raise InputLimitError, naming the limit, before any block is built,
    for a block over MAX_BLOCK_ENTRIES or blocks over MAX_TOTAL_ENTRIES."""
    shapes = _block_shapes(dim, degree, shifted)
    rows, cols, _ = max(shapes, key=lambda shape: shape[0] * shape[1])
    if rows * cols > MAX_BLOCK_ENTRIES:
        raise InputLimitError(
            f"opnorm in {dim}-D at degree {degree} needs a {rows} x {cols} block, "
            f"above MAX_BLOCK_ENTRIES = {MAX_BLOCK_ENTRIES}"
        )
    total = sum(max(r * c, BLOCK_FLOOR_ENTRIES, (r + c) * dim) * k for r, c, k in shapes)
    if total > MAX_TOTAL_ENTRIES:
        raise InputLimitError(
            f"opnorm in {dim}-D at degree {degree} needs {total} block entries "
            f"(a block counting as at least {BLOCK_FLOOR_ENTRIES} and its {dim}-entry multi-indices), "
            f"above MAX_TOTAL_ENTRIES = {MAX_TOTAL_ENTRIES}"
        )


def operator_norm(dim: int, a: RationalLike = 0, degree: int = 8) -> float:
    """Norm of the truncated right inverse of lap + a, in orthonormal
    Hermite coordinates.

    In those coordinates the entry of lap + a at (gamma - 2 e_j, gamma) is
    2 sqrt(g (g - 1)), the root of _lowered's coefficient, and the diagonal
    is a.  Blocks keep per-axis parity.  D (lap + a) D = -(lap - a) for
    D = diag((-1)^floor(|alpha|/2)), so the blocks use |a|, and the value
    at -a is the value at a, bit for bit.

    a = 0: one block per degree k <= degree, from degree k + 2 onto k; the
    minimal-norm inverse has norm 1/sigma_min (Golub & Van Loan, Matrix
    Computations, 5.5).  No resolution check is needed: the paper's bound
    gives every block sigma_min >= sqrt(8 dim), far above the SVD's
    absolute error of about size * eps * sigma_max.

    a != 0: one square block B per parity class, members in ascending
    degree, so upper triangular with |a| on the diagonal.  D B D is a
    triangular M-matrix, so entry (beta, gamma) of B^-1 has sign
    (-1)^((|gamma| - |beta|)/2) and every product in it the same sign: the
    inverse (LU swaps no rows) and its largest singular value, the norm,
    come out to relative accuracy (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 8), where 1/sigma_min of B would be resolved
    only to an absolute size * eps * sigma_max.

    Raises InputLimitError beyond ``check_operator_norm_limits`` or for
    an |a| above the float range, and
    SingularMatrixError, naming the block, if an inverse entry or the norm
    is not a finite float (at once for an a != 0 whose float is 0).
    """
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    a = Fraction(a)
    shift = abs(input_float(a, "a"))
    if a and not shift:
        raise SingularMatrixError(
            f"operator_norm: a = {a} rounds to the float 0.0; the inverse's entries 1/|a| overflow"
        )
    check_operator_norm_limits(dim, degree, shift != 0)
    norm = 0.0
    for parity, block in _float_blocks(dim, degree, shift):
        if not shift:
            norm = max(norm, 1.0 / float(np.linalg.svd(block, compute_uv=False)[-1]))
            continue
        inverse = np.linalg.solve(block, np.eye(len(block)))
        finite = np.isfinite(inverse).all()
        value = float(np.linalg.svd(inverse, compute_uv=False)[0]) if finite else math.inf
        if not math.isfinite(value):
            raise SingularMatrixError(
                f"operator_norm: the inverse of the {len(block)} x {len(block)} block of "
                f"parity {parity} at |a| = {shift!r} is not finite in floating point"
            )
        norm = max(norm, value)
    return norm

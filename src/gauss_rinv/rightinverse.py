"""Constructive right inverse of lap + a on the Gaussian-weighted space.

The solver works in coefficient space over the scaled Hermite basis, where
the Laplacian lowers total degree by exactly two:

    (lap + a) G_gamma = a G_gamma + sum_j 4 gamma_j (gamma_j - 1) G_{gamma - 2 e_j}.

``shifted_laplacian`` is this sparse action, and every report's
``residual_exact`` is the exact check (lap + a) u == f on Hermite
coefficients (a bijective change of basis, so it equals the check on
monomials).  The solves walk the cached ``_level(dim, degree, parity)``:
one level of a parity class, its members and their _lowered entries;
``operator_norm`` walks the towers of the Fischer decomposition instead.

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


def _nu(dim: int, m, k):
    """The tower spectrum, for ints or float arrays: L P^k g = nu(m, k) P^(k - 1) g
    for g in H_m = ker L of degree m (R. Howe, Trans. AMS 313, 1989; Stein & Weiss 1971, ch. IV)."""
    return 8 * k * (2 * m + 2 * k - 2 + dim)


@lru_cache(maxsize=1024)
def _tower_polynomial(dim: int, degree: int, odd: int) -> tuple[int, ...]:
    """(c_0, c_1, ...) of c(x) = prod_k (mu_k - x), mu_k = nu(degree - 2k,
    k + 1), over the towers P^k H_(degree - 2k) present on the degree
    level of a parity class with ``odd`` odd axes: k = 0..(degree - odd) / 2,
    and in 1-D, where H_m = 0 for m >= 2, only k = (degree - odd) / 2."""
    top = (degree - odd) // 2
    coeffs = [1]
    for k in range(top + 1) if dim > 1 else (top,):
        mu = _nu(dim, degree - 2 * k, k + 1)
        coeffs = [mu * c - below for c, below in zip(coeffs + [0], [0] + coeffs)]
    return tuple(coeffs)


def _min_norm_coeffs(f: HermiteExpansion) -> HermiteExpansion:
    """Minimal-weighted-norm coefficients solving lap(u) = f exactly.

    The weighted adjoint of L = lap is lam^2 P, P G_beta = sum_j
    G_(beta + 2 e_j), so u = P (L P)^-1 f, the same for every weight.  On
    the degree d level of a parity class L P is the int mu_k = nu(d - 2k,
    k + 1) on each tower P^k H_(d - 2k), so c(L P) = 0 for the
    ``_tower_polynomial`` c of the towers there, and (L P)^-1 = -(sum_(i >=
    1) c_i (L P)^(i - 1)) / c_0: Horner on f's int numerators, one gather
    (P) and one scatter (L) over the entries of ``_level(dim, d + 2,
    parity)`` per step, then u = P of the result over -c_0, one gcd per
    block, over the lcm of the blocks' denominators.  Work over
    MAX_MIN_NORM_WORK raises InputLimitError first.
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
# operator norm of the truncated right inverse, tower by tower
# ----------------------------------------------------------------------

# Most tower entries operator_norm forms: (K + 1)^2 per tower at a != 0, K + 1
# at a = 0.  1-D a != 0 stops at degree 3999, two 2000 x 2000 towers (5 s on
# a 2-core machine), 2-D on at 455; a = 0 at 7,999,999 in 1-D, 5,654 from 2-D.
MAX_TOWER_ENTRIES = 8_000_000


def _tower_entries(dim: int, degree: int, shifted: bool) -> int:
    """Towers have K + 1 = 1..t steps, t = degree // 2 + 1 or (degree + 1) // 2 by m's parity; 1-D only t."""
    tops = (degree // 2 + 1, (degree + 1) // 2)
    if dim == 1:
        return sum(t * t if shifted else t for t in tops)
    return sum(t * (t + 1) * (2 * t + 1) // 6 if shifted else t * (t + 1) // 2 for t in tops)


def _tower_block(dim: int, m: int, top: int, shift: float) -> np.ndarray:
    """B_m, lap + a on the tower P^k H_m, k <= top: ``shift`` on the diagonal, sqrt(nu(m, k)) at (k - 1, k)."""
    return np.diag(np.sqrt(_nu(dim, m, np.arange(1.0, top + 1))), 1) + shift * np.eye(top + 1)


def operator_norm(dim: int, a: RationalLike = 0, degree: int = 8) -> float:
    """Norm of the truncated right inverse of lap + a in orthonormal
    Hermite coordinates: the largest over the towers P^k H_m, k <= K =
    (degree - m) // 2, of V_degree (m <= degree; m <= 1 in 1-D), where lap
    maps step k to sqrt(nu(m, k)) times step k - 1.  The towers take |a|,
    as D (lap + a) D = -(lap - a) for D = diag((-1)^k): a and -a agree.

    a = 0: 1/sigma_min of lap from V_(degree + 2) onto V_degree (Golub &
    Van Loan, Matrix Computations, 5.5), its singular values sqrt(nu(m, k)),
    k = 1..K + 1, read off; the least is sqrt(nu(0, 1)) = sqrt(8 dim).

    a != 0: the largest singular value of each B_m^-1 (``_tower_block``).
    D B_m D is a triangular M-matrix, so entry (i, j) of B_m^-1 is one
    product of entries of B_m, of sign (-1)^(j - i): the inverse (LU swaps
    no rows) and its norm come out to relative accuracy (Higham, Accuracy
    and Stability of Numerical Algorithms, ch. 8), where 1/sigma_min of B_m
    would be resolved only to an absolute (K + 1) eps sigma_max.

    Raises InputLimitError over MAX_TOWER_ENTRIES or for an |a| above the
    float range, and SingularMatrixError, naming the tower, for an inverse
    or norm that is not finite (at once for an a != 0 whose float is 0).
    """
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    a = Fraction(a)
    shift = abs(input_float(a, "a"))
    if a and not shift:
        raise SingularMatrixError(
            f"operator_norm: a = {a} rounds to the float 0.0; the inverse's entries 1/|a| overflow"
        )
    entries = _tower_entries(dim, degree, shift != 0)
    if entries > MAX_TOWER_ENTRIES:
        raise InputLimitError(
            f"opnorm: degree {degree} needs {entries} tower entries, above MAX_TOWER_ENTRIES = {MAX_TOWER_ENTRIES}"
        )
    input_float(Fraction(_nu(dim, degree, degree + 1)), "nu(degree, degree + 1)")  # the largest nu read
    towers = [(m, (degree - m) // 2) for m in range(min(degree, 1 if dim == 1 else degree) + 1)]
    if not shift:
        return 1.0 / math.sqrt(min(_nu(dim, m, np.arange(1.0, top + 2)).min() for m, top in towers))
    norm = 0.0
    for m, top in towers:
        inverse = np.linalg.solve(_tower_block(dim, m, top, shift), np.eye(top + 1))
        value = float(np.linalg.svd(inverse, compute_uv=False)[0]) if np.isfinite(inverse).all() else math.inf
        if not math.isfinite(value):
            raise SingularMatrixError(
                f"operator_norm: the inverse of the {top + 1} x {top + 1} block of tower "
                f"m = {m} at |a| = {shift!r} is not finite in floating point"
            )
        norm = max(norm, value)
    return norm

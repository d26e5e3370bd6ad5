"""Bounded-domain solves, space embeddings, and the unweighted-L2 failure.

The bounded-domain pipeline extends data f in L2(U) by zero, projects it
onto the Hermite basis centered inside U by adaptive panel quadrature
(the zero extension is discontinuous at the boundary of U, so a global
Gauss-Hermite rule would converge poorly; composite Gauss-Legendre panels
over U see only the smooth restriction), solves exactly in coefficient
space, and restricts back.  The restricted solution obeys

    ||u||_{L2(U)} <= sqrt(e^{|U|^2} / (8n)) ||f||_{L2(U)},

with |U| the Euclidean diameter of the box: on U the Gaussian factor
e^{-|x-x0|^2} is at least e^{-|U|^2} once x0 lies in U.

The embedding checks confirm ||f||^2_w <= ||f||^2_{L2} (the weight is at
most 1) and ||f||^2_w <= pi^{n/2} sup|f|^2 (total Gaussian mass), which
transport unweighted data into the weighted theory.

The counterexample is the classical 1/x-sourced second antiderivative:
u'' = f with f = 1/x on [1, inf) has u = -x/2 + x ln x + 2/3 (+ affine),
which leaves L2(R) (its square integral grows like R^3 ln^2 R) yet stays
square-integrable against the Gaussian weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .hermite import HermiteExpansion, WeightSpec, normalized_hermite_values, norm_sq
from .polynomials import MultiIndex, Polynomial, RationalLike, format_rational
from .rightinverse import (
    _min_norm_coeffs,
    _triangular_coeffs,
    multi_indices_up_to,
    shifted_laplacian,
)


# ----------------------------------------------------------------------
# domains and sampled data
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BoxDomain:
    """Axis-aligned box: per-axis closed intervals [lo_j, hi_j]."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        ivals = tuple((float(lo), float(hi)) for lo, hi in self.intervals)
        object.__setattr__(self, "intervals", ivals)
        for lo, hi in ivals:
            if not lo < hi:
                raise ValueError(f"degenerate interval [{lo}, {hi}]")

    @property
    def dim(self) -> int:
        return len(self.intervals)

    @property
    def diameter(self) -> float:
        """Euclidean length of the corner-to-corner vector."""
        return math.sqrt(sum((hi - lo) ** 2 for lo, hi in self.intervals))

    @property
    def center(self) -> tuple[float, ...]:
        return tuple((lo + hi) / 2.0 for lo, hi in self.intervals)

    def contains(self, point: Sequence[float]) -> bool:
        return all(lo <= x <= hi for (lo, hi), x in zip(self.intervals, point))

    @classmethod
    def from_string(cls, text: str) -> "BoxDomain":
        """Parse 'lo1,hi1;lo2,hi2;...'."""
        intervals = []
        for part in text.split(";"):
            lo_s, hi_s = part.split(",")
            intervals.append((float(lo_s), float(hi_s)))
        return cls(tuple(intervals))

    def to_json_dict(self) -> dict:
        return {"intervals": [list(iv) for iv in self.intervals], "diameter": self.diameter}


@dataclass(frozen=True)
class SampledFunction:
    """Function given on a box, extended by zero outside it."""

    box: BoxDomain
    fn: Callable[[Sequence[float]], float]
    label: str = "callable"

    def __call__(self, point: Sequence[float]) -> float:
        if not self.box.contains(point):
            return 0.0
        return float(self.fn(point))

    @classmethod
    def constant(cls, box: BoxDomain, value: float) -> "SampledFunction":
        v = float(value)
        return cls(box=box, fn=lambda _x: v, label=f"const:{v:g}")

    @classmethod
    def from_polynomial(cls, poly: Polynomial, box: BoxDomain) -> "SampledFunction":
        if poly.dim != box.dim:
            raise ValueError(f"dimension mismatch: {poly.dim} vs {box.dim}")
        return cls(
            box=box,
            fn=lambda x: float(poly.evaluate([float(v) for v in x])),
            label="polynomial",
        )

    @classmethod
    def from_grid(
        cls, box: BoxDomain, shape: Sequence[int], values: Sequence[float]
    ) -> "SampledFunction":
        """Multilinear interpolation of a flat value grid over the box."""
        arr = np.asarray(values, dtype=float).reshape(tuple(shape))
        if arr.ndim != box.dim:
            raise ValueError(f"grid rank {arr.ndim} != box dimension {box.dim}")
        if min(arr.shape) < 2:
            raise ValueError(f"grid shape {arr.shape} needs at least 2 points per axis")
        if not np.isfinite(arr).all():
            raise ValueError("grid values must be finite")
        axes = [
            np.linspace(lo, hi, num) for (lo, hi), num in zip(box.intervals, shape)
        ]

        def interp(x: Sequence[float]) -> float:
            idx = []
            frac = []
            for ax, v in zip(axes, x):
                i = int(np.clip(np.searchsorted(ax, v) - 1, 0, len(ax) - 2))
                idx.append(i)
                frac.append((v - ax[i]) / (ax[i + 1] - ax[i]))
            total = 0.0
            for corner in range(1 << len(idx)):
                w = 1.0
                pos = []
                for j, (i, t) in enumerate(zip(idx, frac)):
                    if corner >> j & 1:
                        w *= t
                        pos.append(i + 1)
                    else:
                        w *= 1.0 - t
                        pos.append(i)
                total += w * float(arr[tuple(pos)])
            return total

        return cls(box=box, fn=interp, label="grid")


# ----------------------------------------------------------------------
# adaptive panel quadrature over boxes
# ----------------------------------------------------------------------

_LEGENDRE_CACHE: dict[int, tuple[list[float], list[float]]] = {}


class QuadratureError(ArithmeticError):
    """The integrand gave a panel estimate that is not finite (NaN or inf)."""


def _legendre_rule(order: int) -> tuple[list[float], list[float]]:
    rule = _LEGENDRE_CACHE.get(order)
    if rule is None:
        nodes, weights = np.polynomial.legendre.leggauss(order)
        rule = ([float(t) for t in nodes], [float(w) for w in weights])
        _LEGENDRE_CACHE[order] = rule
    return rule


def _tensor_panel(fn, intervals: Sequence[tuple[float, float]], order: int) -> float:
    nodes, weights = _legendre_rule(order)
    dim = len(intervals)
    idx = [0] * dim
    total = 0.0
    jac = 1.0
    for lo, hi in intervals:
        jac *= (hi - lo) / 2.0
    while True:
        w = 1.0
        x = [0.0] * dim
        for j, (lo, hi) in enumerate(intervals):
            w *= weights[idx[j]]
            x[j] = (hi + lo) / 2.0 + (hi - lo) / 2.0 * nodes[idx[j]]
        total += w * fn(x)
        j = dim - 1
        while j >= 0:
            idx[j] += 1
            if idx[j] < order:
                break
            idx[j] = 0
            j -= 1
        if j < 0:
            break
    return total * jac


def integrate_box(
    fn: Callable[[Sequence[float]], float],
    box: BoxDomain,
    tol: float = 1e-10,
    order: int = 12,
    max_depth: int = 24,
) -> float:
    """Adaptive composite Gauss-Legendre integral of fn over the box.

    Panels are bisected along their longest axis until the coarse/refined
    estimates agree within the (absolutely distributed) panel tolerance.
    A non-finite estimate raises QuadratureError at once: NaN never
    passes the agreement test, so it would bisect to ``max_depth``.
    """

    def recurse(intervals, budget, depth):
        coarse = _tensor_panel(fn, intervals, order)
        axis = max(range(len(intervals)), key=lambda j: intervals[j][1] - intervals[j][0])
        lo, hi = intervals[axis]
        mid = (lo + hi) / 2.0
        left = list(intervals)
        right = list(intervals)
        left[axis] = (lo, mid)
        right[axis] = (mid, hi)
        fine = _tensor_panel(fn, left, order) + _tensor_panel(fn, right, order)
        if not (math.isfinite(coarse) and math.isfinite(fine)):
            raise QuadratureError(f"non-finite integrand estimate {fine!r} on panel {intervals}")
        # the relative floor stops refinement once float rounding dominates
        noise = 4e-15 * max(abs(coarse), abs(fine))
        if abs(fine - coarse) <= max(budget, noise) or depth >= max_depth:
            return fine
        return recurse(left, budget / 2.0, depth + 1) + recurse(
            right, budget / 2.0, depth + 1
        )

    return recurse(list(box.intervals), tol, 0)


# ----------------------------------------------------------------------
# numerically stable evaluation of Hermite expansions
# ----------------------------------------------------------------------


def _normalized_coefficient(alpha: MultiIndex, coef: float, weight: WeightSpec) -> float:
    """Coefficient over the orthonormal basis given one over the G basis."""
    r = HermiteExpansion.basis_norm_sq(alpha, weight.lam)
    unit = (math.pi / float(weight.lam)) ** (weight.dim / 2.0)
    return coef * math.sqrt(float(r) * unit)


def normalized_basis_evaluator(
    weight: WeightSpec, coeffs: dict[MultiIndex, float]
) -> Callable[[Sequence[float]], float]:
    """Evaluator for sum_alpha c_alpha h_alpha(x) over the orthonormal
    basis h_alpha of L2(e^{-weight}) (unit weighted norm per element)."""
    items = sorted(coeffs.items())
    if not items:
        return lambda _x: 0.0
    dim = weight.dim
    max_per_axis = [0] * dim
    for alpha, _ in items:
        for j, e in enumerate(alpha):
            max_per_axis[j] = max(max_per_axis[j], e)
    lam = float(weight.lam)
    sqrt_lam = math.sqrt(lam)
    # per-axis normalization: integral h~_k(sqrt(lam) u)^2 e^{-lam u^2} du = lam^{-1/2}
    axis_scale = lam**0.25
    center = [float(c) for c in weight.center]

    def evaluate(x: Sequence[float]) -> float:
        tables = [
            normalized_hermite_values(
                max_per_axis[j], sqrt_lam * (float(x[j]) - center[j])
            )
            for j in range(dim)
        ]
        total = 0.0
        for alpha, c in items:
            term = c
            for j, e in enumerate(alpha):
                term *= tables[j][e] * axis_scale
            total += term
        return total

    return evaluate


def expansion_evaluator(expansion: HermiteExpansion) -> Callable[[Sequence[float]], float]:
    """Stable pointwise evaluator for an exact expansion."""
    w = expansion.weight
    coeffs = {
        alpha: _normalized_coefficient(alpha, float(c), w)
        for alpha, c in expansion.coeffs.items()
    }
    return normalized_basis_evaluator(w, coeffs)


# ----------------------------------------------------------------------
# bounded-domain solve
# ----------------------------------------------------------------------


# A weak residual above this flags the truncation degree as too small.
WEAK_RESIDUAL_TOL = 1e-6


@dataclass
class BoundedSolveReport:
    """Outcome of the zero-extend / weighted-solve / restrict pipeline."""

    box: BoxDomain
    a: Fraction
    truncation: int
    x0: tuple[float, ...]
    solution: HermiteExpansion
    residual_exact: bool
    norm_u_l2: float
    norm_f_l2: float
    diameter_constant: float
    bound_value: float
    bound_satisfied: bool
    margin: float
    weighted_ratio: Fraction
    weighted_bound: Fraction
    weighted_ratio_vs_data: float
    weak_residual_rel: float
    projection_adequate: bool
    quad_tol: float

    def to_json_dict(self) -> dict:
        return {
            "box": self.box.to_json_dict(),
            "a": format_rational(self.a),
            "truncation": self.truncation,
            "x0": list(self.x0),
            "residual_exact": self.residual_exact,
            "norm_u_l2": self.norm_u_l2,
            "norm_f_l2": self.norm_f_l2,
            "diameter_constant": self.diameter_constant,
            "bound_value": self.bound_value,
            "bound_satisfied": self.bound_satisfied,
            "margin": self.margin,
            "weighted_ratio": format_rational(self.weighted_ratio),
            "weighted_bound": format_rational(self.weighted_bound),
            "weighted_ratio_vs_data": self.weighted_ratio_vs_data,
            "weak_residual_rel": self.weak_residual_rel,
            "weak_residual_tol": WEAK_RESIDUAL_TOL,
            "projection_adequate": self.projection_adequate,
            "quad_tol": self.quad_tol,
        }


def solve_bounded(
    box: BoxDomain,
    f: SampledFunction,
    a: RationalLike = 0,
    truncation: int = 30,
    quad_tol: float = 1e-10,
) -> BoundedSolveReport:
    """Solve (lap + a) u = f on a bounded box with the diameter constant.

    Pipeline: center the unit Gaussian weight at the box center x0,
    project the zero extension of f onto the Hermite basis up to the
    truncation degree by adaptive panel quadrature over the box, solve the
    projected problem exactly in coefficient space, and restrict.  The
    report checks ||u||_{L2(U)} <= sqrt(e^{|U|^2}/(8n)) ||f||_{L2(U)}.
    ``residual_exact`` is the exact check (lap + a) u == P_N f~ on Hermite
    coefficients.  The weak residual  max_psi |<u, (lap+a)*psi>_w - <f~, psi>_w|
    runs over unit-norm Hermite test polynomials psi of degree <= N; by
    Parseval <u, (lap+a)* G_b>_w = ((lap+a) u)_b ||G_b||^2_w exactly, so only
    the data side needs quadrature.  A residual above WEAK_RESIDUAL_TOL
    flags the projection degree as too small rather than silently passing.
    """
    a = Fraction(a)
    n = box.dim
    if f.box.intervals != box.intervals:
        raise ValueError("sampled function must live on the target box")
    point0 = box.center
    weight = WeightSpec(
        dim=n, lam=Fraction(1), center=tuple(Fraction(v) for v in point0)
    )

    indices = multi_indices_up_to(n, truncation)
    unit = math.pi ** (n / 2.0)
    norm_sq_rational = {alpha: HermiteExpansion.basis_norm_sq(alpha, Fraction(1)) for alpha in indices}
    # ||G_alpha||_w, the scale between the G basis and the orthonormal one
    basis_norm = {alpha: math.sqrt(float(r) * unit) for alpha, r in norm_sq_rational.items()}

    def normalized_pairing(alpha: MultiIndex) -> float:
        """<f~, h_alpha>_w against the unit-norm basis function (stable)."""
        ev = normalized_basis_evaluator(weight, {alpha: 1.0})

        def integrand(x):
            dx = sum((xi - ci) ** 2 for xi, ci in zip(x, point0))
            return f(x) * ev(x) * math.exp(-dx)

        return integrate_box(integrand, box, tol=quad_tol)

    raw = {alpha: normalized_pairing(alpha) for alpha in indices}
    f_coeffs: dict[MultiIndex, Fraction] = {}
    for alpha in indices:
        c = raw[alpha] / basis_norm[alpha]
        if c != 0.0:
            f_coeffs[alpha] = Fraction(c)
    f_exp = HermiteExpansion(weight, f_coeffs)

    if a == 0:
        u_coeffs = _min_norm_coeffs(f_exp.coeffs, n, Fraction(1))
    else:
        u_coeffs = _triangular_coeffs(f_exp.coeffs, n, a)
    u_exp = HermiteExpansion(weight, u_coeffs)
    t_u = shifted_laplacian(u_exp, a)
    residual_exact = t_u == f_exp

    norm_u_w = u_exp.norm_sq()
    norm_f_w = f_exp.norm_sq()
    weighted_bound = Fraction(1, 8 * n)
    weighted_ratio = (
        Fraction(0) if norm_f_w.is_zero() else norm_u_w.ratio(norm_f_w)
    )

    # data-side weighted norm of the zero extension, by quadrature
    def f_sq_weighted(x):
        dx = sum((xi - ci) ** 2 for xi, ci in zip(x, point0))
        return f(x) ** 2 * math.exp(-dx)

    norm_f_w_data = integrate_box(f_sq_weighted, box, tol=quad_tol)
    weighted_ratio_vs_data = (
        norm_u_w.to_float() / norm_f_w_data if norm_f_w_data > 0 else 0.0
    )

    # restriction norms
    u_eval = expansion_evaluator(u_exp)
    norm_u_l2 = math.sqrt(max(integrate_box(lambda x: u_eval(x) ** 2, box, tol=quad_tol), 0.0))
    norm_f_l2 = math.sqrt(max(integrate_box(lambda x: f(x) ** 2, box, tol=quad_tol), 0.0))
    constant = math.sqrt(math.exp(box.diameter**2) / (8 * n))
    bound_value = constant * norm_f_l2
    margin = bound_value - norm_u_l2

    # weak residual over unit-norm test polynomials, by Parseval
    norm_f_w_float = math.sqrt(max(norm_f_w_data, 0.0))
    scale = norm_f_w_float if norm_f_w_float > 0 else 1.0
    weak_residual = 0.0
    for beta in indices:
        lhs = float(t_u.coeffs.get(beta, 0) * norm_sq_rational[beta]) * unit
        weak_residual = max(
            weak_residual, abs(lhs / basis_norm[beta] - raw[beta]) / scale
        )

    return BoundedSolveReport(
        box=box,
        a=a,
        truncation=truncation,
        x0=point0,
        solution=u_exp,
        residual_exact=residual_exact,
        norm_u_l2=norm_u_l2,
        norm_f_l2=norm_f_l2,
        diameter_constant=constant,
        bound_value=bound_value,
        bound_satisfied=norm_u_l2 <= bound_value + 1e-12,
        margin=margin,
        weighted_ratio=weighted_ratio,
        weighted_bound=weighted_bound,
        weighted_ratio_vs_data=weighted_ratio_vs_data,
        weak_residual_rel=weak_residual,
        projection_adequate=weak_residual <= WEAK_RESIDUAL_TOL,
        quad_tol=quad_tol,
    )


# ----------------------------------------------------------------------
# embedding checks
# ----------------------------------------------------------------------


@dataclass
class EmbeddingReport:
    """Weighted norm against the unweighted L2 and sup routes."""

    dim: int
    weighted_sq: float
    l2_sq: float | None
    sup_sq: float | None
    l2_holds: bool | None
    sup_holds: bool | None
    tol: float

    @property
    def holds(self) -> bool:
        routes = [h for h in (self.l2_holds, self.sup_holds) if h is not None]
        return bool(routes) and all(routes)

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "weighted_sq": self.weighted_sq,
            "l2_sq": self.l2_sq,
            "sup_sq": self.sup_sq,
            "l2_holds": self.l2_holds,
            "sup_holds": self.sup_holds,
            "pass": self.holds,
            "tol": self.tol,
        }


def embedding_check(
    f: SampledFunction | Polynomial,
    tol: float = 1e-8,
    quad_tol: float = 1e-12,
    sup_samples: int = 2048,
) -> EmbeddingReport:
    """Check ||f||^2_w <= ||f||^2_{L2} and ||f||^2_w <= pi^{n/2} sup|f|^2.

    Sampled data uses quadrature over its support box (the zero extension
    contributes nothing outside); at least one of the two routes must be
    available.  Polynomials get the exact weighted norm; their L2/sup
    norms over R^n are infinite except in the constant case, so only the
    applicable route is reported.
    """
    if isinstance(f, Polynomial):
        n = f.dim
        weighted = norm_sq(f, WeightSpec.unit(n)).to_float()
        if f.total_degree() <= 0:
            c = float(f.coefficient((0,) * n)) if not f.is_zero() else 0.0
            sup_sq = c * c
            l2_sq = None if c != 0.0 else 0.0
        else:
            sup_sq = None
            l2_sq = None
        if sup_sq is None and l2_sq is None:
            raise ValueError(
                "non-constant polynomials have neither finite L2 nor sup norm"
            )
    else:
        n = f.box.dim
        weighted = integrate_box(
            lambda x: f(x) ** 2 * math.exp(-sum(v * v for v in x)),
            f.box,
            tol=quad_tol,
        )
        l2_sq = integrate_box(lambda x: f(x) ** 2, f.box, tol=quad_tol)
        rng = np.random.default_rng(0)
        lo = np.array([iv[0] for iv in f.box.intervals])
        hi = np.array([iv[1] for iv in f.box.intervals])
        points = rng.uniform(lo, hi, size=(sup_samples, n))
        sup = max(abs(f(p)) for p in points)
        sup_sq = sup * sup

    pi_mass = math.pi ** (n / 2.0)
    l2_holds = None if l2_sq is None else weighted <= l2_sq + tol
    sup_holds = None if sup_sq is None else weighted <= pi_mass * sup_sq + tol
    return EmbeddingReport(
        dim=n,
        weighted_sq=weighted,
        l2_sq=l2_sq,
        sup_sq=sup_sq,
        l2_holds=l2_holds,
        sup_holds=sup_holds,
        tol=tol,
    )


# ----------------------------------------------------------------------
# the unweighted-L2 counterexample
# ----------------------------------------------------------------------


@dataclass
class CounterexampleReport:
    """Second antiderivative of the 1/x source: L2 fails, weighted holds."""

    c1: Fraction
    c2: Fraction
    r_max: float
    u1_closed: Fraction
    u1_integral: Fraction
    closed_vs_integral_max_rel: float
    second_derivative_max_abs: float
    growth: list[tuple[float, float]]
    strictly_increasing: bool
    weighted_integral: float
    weighted_tail_bound: float
    weighted_finite: bool

    def to_json_dict(self) -> dict:
        return {
            "c1": format_rational(self.c1),
            "c2": format_rational(self.c2),
            "R": self.r_max,
            "u1_closed": format_rational(self.u1_closed),
            "u1_integral": format_rational(self.u1_integral),
            "closed_vs_integral_max_rel": self.closed_vs_integral_max_rel,
            "second_derivative_max_abs": self.second_derivative_max_abs,
            "growth": [[r, v] for r, v in self.growth],
            "strictly_increasing": self.strictly_increasing,
            "weighted_integral": self.weighted_integral,
            "weighted_tail_bound": self.weighted_tail_bound,
            "weighted_finite": self.weighted_finite,
        }


def _closed_form(c1: Fraction, c2: Fraction) -> Callable[[float], float]:
    """u(x) = -x/2 + x ln x + 2/3 + c1 x + c2 for x >= 1."""
    a_lin = float(Fraction(-1, 2) + c1)
    a_const = float(Fraction(2, 3) + c2)

    def u(x: float) -> float:
        return a_lin * x + x * math.log(x) + a_const

    return u


def _integral_form(c1: float, c2: float, order: int = 64) -> Callable[[float], float]:
    """u(x) = integral_0^x (x-t) f(t) dt + c1 x + c2 with the piecewise
    source f(t) = t on (0,1), 1/t on [1, inf); quadrature per smooth piece."""
    nodes, weights = _legendre_rule(order)

    def piece(lo: float, hi: float, g: Callable[[float], float]) -> float:
        mid, half = (hi + lo) / 2.0, (hi - lo) / 2.0
        return half * sum(w * g(mid + half * t) for t, w in zip(nodes, weights))

    def u(x: float) -> float:
        total = piece(0.0, 1.0, lambda t: (x - t) * t)
        if x > 1.0:
            total += piece(1.0, x, lambda t: (x - t) / t)
        return total + c1 * x + c2

    return u


def counterexample_report(
    r_max: float = 1000.0,
    c1: RationalLike = 0,
    c2: RationalLike = 0,
    sample_points: int = 50,
) -> CounterexampleReport:
    """Reconstruct the counterexample and demonstrate its divergence.

    Checks: (i) the closed form agrees with the double-integral formula at
    sample points (and exactly at x = 1, where both give 1/6 + c1 + c2);
    (ii) its second derivative reproduces the 1/x source identically;
    (iii) the unweighted square integral over [1, R] grows without bound
    while the Gaussian-weighted one converges.
    """
    if r_max < 1.0:
        raise ValueError(f"R must be >= 1, got {r_max}")
    c1 = Fraction(c1)
    c2 = Fraction(c2)

    u1_closed = Fraction(-1, 2) + Fraction(2, 3) + c1 + c2
    # exact antiderivative of (1-t)*t over [0,1]: t^2/2 - t^3/3
    u1_integral = Fraction(1, 2) - Fraction(1, 3) + c1 + c2

    u = _closed_form(c1, c2)
    u_int = _integral_form(float(c1), float(c2))
    max_rel = 0.0
    for i in range(sample_points):
        x = 1.0 + (20.0 - 1.0) * i / (sample_points - 1)
        a_val, b_val = u(x), u_int(x)
        scale = max(abs(a_val), abs(b_val), 1.0)
        max_rel = max(max_rel, abs(a_val - b_val) / scale)

    # term-by-term second derivatives of A x + B x ln x + C:
    # x -> 0, x ln x -> 1/x, 1 -> 0, so u'' = B/x with B = 1
    b_coef = 1.0
    second_max = 0.0
    for i in range(sample_points):
        x = 1.0 + (float(r_max) - 1.0) * i / (sample_points - 1)
        second_max = max(second_max, abs(b_coef / x - 1.0 / x))

    radii = sorted({10.0, 100.0, 1000.0, float(r_max)})
    radii = [r for r in radii if r <= float(r_max)] or [float(r_max)]
    growth = []
    for r in radii:
        if r <= 1.0:
            growth.append((r, 0.0))
            continue
        box = BoxDomain(((1.0, r),))
        growth.append((r, integrate_box(lambda x: u(x[0]) ** 2, box, tol=1e-8)))
    strictly_increasing = all(b[1] > a[1] for a, b in zip(growth, growth[1:]))

    cutoff = 8.0
    box = BoxDomain(((1.0, cutoff),))
    weighted = integrate_box(
        lambda x: u(x[0]) ** 2 * math.exp(-x[0] ** 2), box, tol=1e-12
    )
    # |u| <= D x^2 for x >= cutoff, and
    # integral_X^inf x^4 e^{-x^2} dx <= e^{-X^2} (X^3/2 + 3X/4 + 3/(8X))
    d_const = abs(float(Fraction(-1, 2) + c1)) + 1.0 + abs(float(Fraction(2, 3) + c2))
    tail = (
        d_const**2
        * math.exp(-(cutoff**2))
        * (cutoff**3 / 2.0 + 0.75 * cutoff + 3.0 / (8.0 * cutoff))
    )

    return CounterexampleReport(
        c1=c1,
        c2=c2,
        r_max=float(r_max),
        u1_closed=u1_closed,
        u1_integral=u1_integral,
        closed_vs_integral_max_rel=max_rel,
        second_derivative_max_abs=second_max,
        growth=growth,
        strictly_increasing=strictly_increasing,
        weighted_integral=weighted,
        weighted_tail_bound=tail,
        weighted_finite=math.isfinite(weighted + tail),
    )

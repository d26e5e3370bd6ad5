"""Bounded-domain solves, space embeddings, and the unweighted-L2 failure.

The bounded-domain pipeline extends data f in L2(U) by zero, projects it
onto the orthonormal Hermite basis centered inside U by adaptive panel
quadrature (the zero extension is discontinuous at the boundary of U, so a
global Gauss-Hermite rule would converge poorly; composite Gauss-Legendre
panels over U see only the smooth restriction), solves exactly in
coefficient space, and restricts back.  Integrands map an (m, n) array of
nodes to m values, or to an (m, k) array for k integrals at once, so one
panel tree yields every pairing <f~, h_alpha>_w together with the data
norms.  The restricted solution obeys

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
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .hermite import HermiteExpansion, WeightSpec, normalized_hermite_values, norm_sq, tensor_rule
from .polynomials import MultiIndex, Polynomial, RationalLike, format_rational
from .rightinverse import InputLimitError, exact_solve, input_float, multi_indices_up_to

# Gauss-Legendre nodes per axis of one quadrature panel.
PANEL_ORDER = 12
# Bisection depth cap of integrate_box.
MAX_DEPTH = 24
# Absolute quadrature tolerance of the two passes of solve_bounded; the
# Bessel tolerance is derived from it and printed as "quad_tol".
QUAD_TOL = 1e-10
# Random points of the sup estimate of embedding_check.
SUP_SAMPLES = 2048
# Slack of the two embedding inequalities, and the quadrature tolerance of
# the norms they compare, four orders tighter so that quadrature error
# cannot use up the slack.
EMBEDDING_TOL = 1e-8
EMBEDDING_QUAD_TOL = 1e-12
# Points of the closed-form and second-derivative checks of the counterexample.
SAMPLE_POINTS = 50
# Step (relative to x) of the counterexample's central second difference,
# and the tolerance of its relative distance from the source 1/x: the
# truncation error h^2 u''''/12 of u = x ln x is h^2/(6 x^2) = 1.7e-7
# relative, and a 0.1 % error in the x ln x coefficient reads 1e-3.
SECOND_DIFFERENCE_STEP = 1e-3
SECOND_DIFFERENCE_TOL = 1e-6
# Relative distance allowed between the closed form and the
# INTEGRAL_FORM_ORDER-point Gauss-Legendre double integral: on [1, 20] both
# are smooth, so they agree to rounding.
CLOSED_FORM_TOL = 1e-12
INTEGRAL_FORM_ORDER = 64
# Largest R of the counterexample: the square integral of u over [1, R]
# grows like R^3 ln^2 R / 3, which passes the float maximum 1.8e308 near
# R = 2.5e101 (at 1e102 the quadrature reads inf).
MAX_R = 1e101
# One panel of a bounded solve holds C(N+n, n) * PANEL_ORDER^n orthonormal
# Hermite values (8 bytes each); 2-D at N = 30 holds 71,424, 3-D at N = 30
# would hold 9.4 million.
MAX_TABLE_ENTRIES = 2_000_000


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

    @property
    def corners(self) -> tuple[np.ndarray, np.ndarray]:
        """The lower and upper corners as arrays."""
        lo, hi = zip(*self.intervals)
        return np.array(lo), np.array(hi)

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
    """Function given on a box, extended by zero outside it.

    ``fn`` maps an (m, n) array of points inside the box to m values.
    """

    box: BoxDomain
    fn: Callable[[np.ndarray], np.ndarray]

    def __call__(self, points) -> np.ndarray:
        """Values at an (m, n) array of points, zero outside the box."""
        x = np.asarray(points, dtype=float)
        lo, hi = self.box.corners
        inside = np.all((lo <= x) & (x <= hi), axis=1)
        return np.where(inside, self.fn(x), 0.0)

    @classmethod
    def constant(cls, box: BoxDomain, value: float) -> "SampledFunction":
        v = float(value)
        return cls(box=box, fn=lambda _x: v)

    @classmethod
    def from_polynomial(cls, poly: Polynomial, box: BoxDomain) -> "SampledFunction":
        if poly.dim != box.dim:
            raise ValueError(f"dimension mismatch: {poly.dim} vs {box.dim}")
        return cls(box=box, fn=lambda x: poly.evaluate(list(x.T)))

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

        def interp(x: np.ndarray) -> np.ndarray:
            idx = []
            frac = []
            for ax, v in zip(axes, x.T):
                i = np.clip(np.searchsorted(ax, v) - 1, 0, len(ax) - 2)
                idx.append(i)
                frac.append((v - ax[i]) / (ax[i + 1] - ax[i]))
            total = 0.0
            for corner in range(1 << len(idx)):
                w = 1.0
                pos = []
                for j, (i, t) in enumerate(zip(idx, frac)):
                    if corner >> j & 1:
                        w = w * t
                        pos.append(i + 1)
                    else:
                        w = w * (1.0 - t)
                        pos.append(i)
                total = total + w * arr[tuple(pos)]
            return total

        return cls(box=box, fn=interp)


# ----------------------------------------------------------------------
# adaptive panel quadrature over boxes
# ----------------------------------------------------------------------


class QuadratureError(ArithmeticError):
    """The integrand gave a panel estimate that is not finite (NaN or inf)."""


def integrate_box(
    fn: Callable[[np.ndarray], np.ndarray],
    box: BoxDomain,
    tol: float = 1e-10,
) -> float | np.ndarray:
    """Adaptive composite Gauss-Legendre integral of fn over the box.

    ``fn`` maps an (m, n) array of nodes to m values (the result is a
    float) or to an (m, k) array (the result is k integrals).  Panels are
    bisected along their longest axis until the coarse/refined estimates
    of every component agree within the (absolutely distributed) panel
    tolerance, so each component gets a panel set at least as fine as it
    would alone; the half-panel estimates are the children's coarse ones.
    A non-finite estimate raises QuadratureError at once: NaN never passes
    the agreement test, so it would bisect to ``MAX_DEPTH``.
    """
    # tensor nodes on [-1, 1]^n and their weights
    ref_nodes, ref_weights = tensor_rule(*np.polynomial.legendre.leggauss(PANEL_ORDER), box.dim)

    def panel(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        half = (hi - lo) / 2.0
        values = np.asarray(fn((hi + lo) / 2.0 + half * ref_nodes), dtype=float)
        return (ref_weights @ values) * np.prod(half)

    def recurse(lo, hi, coarse, budget, depth):
        axis = int(np.argmax(hi - lo))
        mid = (lo[axis] + hi[axis]) / 2.0
        left_hi, right_lo = hi.copy(), lo.copy()
        left_hi[axis] = right_lo[axis] = mid
        left, right = panel(lo, left_hi), panel(right_lo, hi)
        fine = left + right
        if not (np.isfinite(coarse).all() and np.isfinite(fine).all()):
            raise QuadratureError(
                f"non-finite integrand estimate {fine.tolist()!r} on panel "
                f"{list(zip(lo.tolist(), hi.tolist()))}"
            )
        # the relative floor stops refinement once float rounding dominates
        noise = 4e-15 * np.maximum(abs(coarse), abs(fine))
        if np.all(abs(fine - coarse) <= np.maximum(budget, noise)) or depth >= MAX_DEPTH:
            return fine
        return recurse(lo, left_hi, left, budget / 2.0, depth + 1) + recurse(
            right_lo, hi, right, budget / 2.0, depth + 1
        )

    lo, hi = box.corners
    # overflow and NaN surface as the QuadratureError above, not as warnings
    with np.errstate(all="ignore"):
        total = recurse(lo, hi, panel(lo, hi), tol, 0)
    return float(total) if total.ndim == 0 else total


# ----------------------------------------------------------------------
# the orthonormal Hermite basis at quadrature nodes
# ----------------------------------------------------------------------


def orthonormal_table(
    weight: WeightSpec, indices: Sequence[MultiIndex], points: np.ndarray
) -> np.ndarray:
    """(m, K) values h_alpha(x) of the orthonormal basis of L2(e^{-weight})
    at the m points, alpha over the K indices.

    The normalized three-term recurrence keeps every value O(1) near the
    physical region, where monomial coefficients of high-degree Hermite
    polynomials are astronomically large.
    """
    n = weight.dim
    lam = float(weight.lam)
    idx = np.array(indices, dtype=int).reshape(-1, n)
    t = math.sqrt(lam) * (points - np.array([float(c) for c in weight.center]))
    top = int(idx.max(initial=0))
    axis = np.stack([np.broadcast_to(v, t.shape) for v in normalized_hermite_values(top, t)])
    # per-axis normalization: integral h~_k(sqrt(lam) u)^2 e^{-lam u^2} du = lam^{-1/2}
    table = np.full((len(points), len(idx)), lam ** (n / 4.0))
    for j in range(n):
        table *= axis[idx[:, j], :, j].T
    return table


# ----------------------------------------------------------------------
# bounded-domain solve
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def max_truncation(dim: int) -> int:
    """Largest truncation N whose degree-(N+2) squared basis norm is a finite
    float: the min-norm solution reaches degree N + 2, and ||G_alpha||^2_w
    of that degree is largest at a pure power, 2^d d! pi^{n/2}."""
    limit = sys.float_info.max / math.pi ** (dim / 2.0)
    degree = 2
    while HermiteExpansion.basis_norm_sq((degree + 1,), Fraction(1)) <= limit:
        degree += 1
    return degree - 2


def check_input_limits(dim: int, truncation: int) -> None:
    """Raise InputLimitError, naming the limit, for a bounded solve over
    MAX_TABLE_ENTRIES per panel or above max_truncation(dim)."""
    entries = math.comb(truncation + dim, dim) * PANEL_ORDER**dim
    if entries > MAX_TABLE_ENTRIES:
        raise InputLimitError(
            f"truncation {truncation} in {dim}-D needs {entries} Hermite table entries "
            f"per panel, above MAX_TABLE_ENTRIES = {MAX_TABLE_ENTRIES}"
        )
    limit = max_truncation(dim)
    if truncation > limit:
        raise InputLimitError(
            f"truncation {truncation} in {dim}-D is above the degree limit {limit}: "
            f"the degree-{truncation + 2} basis norm overflows a float"
        )


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
    projection_defect_rel: float
    bessel_holds: bool
    bessel_tol: float

    @property
    def passed(self) -> bool:
        """The bounded-solve verdict: the diameter bound, Bessel and the exact residual."""
        return self.bound_satisfied and self.bessel_holds and self.residual_exact

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
            "projection_defect_rel": self.projection_defect_rel,
            "bessel_holds": self.bessel_holds,
            "bessel_tol": self.bessel_tol,
            "quad_tol": QUAD_TOL,
        }


def solve_bounded(
    box: BoxDomain,
    f: SampledFunction,
    a: RationalLike = 0,
    truncation: int = 30,
) -> BoundedSolveReport:
    """Solve (lap + a) u = f on a bounded box with the diameter constant.

    Pipeline: center the unit Gaussian weight at the box center x0,
    project the zero extension f~ of f onto the orthonormal Hermite basis
    h_alpha up to the truncation degree, solve the projected problem
    exactly in coefficient space, and restrict.  Two quadrature passes do
    the float work: the data side gives every pairing <f~, h_alpha>_w,
    ||f~||^2_w and ||f||^2_{L2(U)} over one panel tree, the solution side
    ||u||^2_{L2(U)}.  The report checks
    ||u||_{L2(U)} <= sqrt(e^{|U|^2}/(8n)) ||f||_{L2(U)}.
    ``residual_exact`` is the exact check (lap + a) u == P_N f~ on Hermite
    coefficients.  ``bessel_holds`` checks ||P_N f~||^2_w (Parseval on the
    projected coefficients) <= ||f~||^2_w (quadrature) within
    ``bessel_tol``, which follows from QUAD_TOL and the number of
    pairings; it fails when the quadrature or the basis is wrong.
    ``projection_defect_rel`` = 1 - ||P_N f~||^2_w / ||f~||^2_w is the
    share of the data the truncation drops (0 for zero data).
    Inputs beyond ``check_input_limits`` raise InputLimitError first.
    """
    a = Fraction(a)
    n = box.dim
    if f.box.intervals != box.intervals:
        raise ValueError("sampled function must live on the target box")
    check_input_limits(n, truncation)
    point0 = box.center
    x0 = np.array(point0)
    weight = WeightSpec(
        dim=n, lam=Fraction(1), center=tuple(Fraction(v) for v in point0)
    )

    indices = multi_indices_up_to(n, truncation)
    unit = math.pi ** (n / 2.0)
    # ||G_alpha||_w, the scale between the G basis and the orthonormal one;
    # the min-norm solution reaches degree N + 2
    basis_norm = {
        alpha: math.sqrt(float(HermiteExpansion.basis_norm_sq(alpha, Fraction(1))) * unit)
        for alpha in multi_indices_up_to(n, truncation + 2)
    }

    def data_side(x: np.ndarray) -> np.ndarray:
        gauss = np.exp(-((x - x0) ** 2).sum(axis=1))
        fx = f(x)
        pairings = fx[:, None] * orthonormal_table(weight, indices, x) * gauss[:, None]
        return np.column_stack([pairings, fx**2 * gauss, fx**2])

    *raw, norm_f_w_data, norm_f_l2_sq = integrate_box(data_side, box, tol=QUAD_TOL).tolist()
    f_coeffs: dict[MultiIndex, Fraction] = {}
    for alpha, p in zip(indices, raw):
        c = p / basis_norm[alpha]
        if c != 0.0:
            f_coeffs[alpha] = Fraction(c)
    f_exp = HermiteExpansion(weight, f_coeffs)

    u_exp, residual_exact, norm_f_w, norm_u_w, weighted_ratio = exact_solve(f_exp, a)
    weighted_ratio_vs_data = (
        norm_u_w.to_float() / norm_f_w_data if norm_f_w_data > 0 else 0.0
    )

    # Bessel: exact pairings keep at most the data's weighted norm.  The K
    # pairings and ||f~||^2_w are each within QUAD_TOL of their integrals, so
    # by Cauchy-Schwarz sum p^2 moves by 2 QUAD_TOL sqrt(K ||f~||^2) + K QUAD_TOL^2.
    projected = norm_f_w.to_float()
    k = len(indices)
    bessel_tol = QUAD_TOL * (1.0 + 2.0 * math.sqrt(k * max(norm_f_w_data, 0.0)) + k * QUAD_TOL)
    defect = 1.0 - projected / norm_f_w_data if norm_f_w_data > 0 else 0.0

    # restriction norm of the solution, over its orthonormal coefficients
    u_indices = sorted(u_exp.nums)
    u_orth = np.array([u_exp.nums[alpha] / u_exp.den * basis_norm[alpha] for alpha in u_indices])
    norm_u_l2_sq = integrate_box(
        lambda x: (orthonormal_table(weight, u_indices, x) @ u_orth) ** 2, box, tol=QUAD_TOL
    )
    norm_u_l2 = math.sqrt(max(norm_u_l2_sq, 0.0))
    norm_f_l2 = math.sqrt(max(norm_f_l2_sq, 0.0))
    constant = math.sqrt(math.exp(box.diameter**2) / (8 * n))
    bound_value = constant * norm_f_l2
    margin = bound_value - norm_u_l2

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
        weighted_bound=Fraction(1, 8 * n),
        weighted_ratio_vs_data=weighted_ratio_vs_data,
        projection_defect_rel=defect,
        bessel_holds=projected <= norm_f_w_data + bessel_tol,
        bessel_tol=bessel_tol,
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
            "tol": EMBEDDING_TOL,
        }


def embedding_check(f: SampledFunction | Polynomial) -> EmbeddingReport:
    """Check ||f||^2_w <= ||f||^2_{L2} and ||f||^2_w <= pi^{n/2} sup|f|^2,
    each within EMBEDDING_TOL.

    Sampled data uses one quadrature pass over its support box for both
    squared norms (the zero extension contributes nothing outside) and
    SUP_SAMPLES seeded random points for the sup; at least one of the two
    routes must be available.  Polynomials get the exact weighted norm;
    their L2/sup norms over R^n are infinite except in the constant case,
    so only the applicable route is reported.
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

        def squares(x: np.ndarray) -> np.ndarray:
            f_sq = f(x) ** 2
            return np.column_stack([f_sq * np.exp(-(x * x).sum(axis=1)), f_sq])

        weighted, l2_sq = integrate_box(squares, f.box, tol=EMBEDDING_QUAD_TOL).tolist()
        lo, hi = f.box.corners
        points = np.random.default_rng(0).uniform(lo, hi, size=(SUP_SAMPLES, n))
        sup_sq = float(np.max(np.abs(f(points)))) ** 2

    pi_mass = math.pi ** (n / 2.0)
    l2_holds = None if l2_sq is None else weighted <= l2_sq + EMBEDDING_TOL
    sup_holds = None if sup_sq is None else weighted <= pi_mass * sup_sq + EMBEDDING_TOL
    return EmbeddingReport(
        dim=n,
        weighted_sq=weighted,
        l2_sq=l2_sq,
        sup_sq=sup_sq,
        l2_holds=l2_holds,
        sup_holds=sup_holds,
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
    second_derivative_max_rel: float
    second_derivative_tol: float
    growth: list[tuple[float, float]]
    strictly_increasing: bool
    weighted_integral: float
    weighted_tail_bound: float
    weighted_finite: bool

    @property
    def passed(self) -> bool:
        """The counterexample verdict: both routes to u agree (exactly at x = 1,
        within CLOSED_FORM_TOL elsewhere), u'' is the source, the unweighted
        square integral grows and the weighted one is finite."""
        return (
            self.u1_closed == self.u1_integral
            and self.closed_vs_integral_max_rel <= CLOSED_FORM_TOL
            and self.second_derivative_max_rel <= self.second_derivative_tol
            and self.strictly_increasing
            and self.weighted_finite
        )

    def to_json_dict(self) -> dict:
        return {
            "c1": format_rational(self.c1),
            "c2": format_rational(self.c2),
            "R": self.r_max,
            "u1_closed": format_rational(self.u1_closed),
            "u1_integral": format_rational(self.u1_integral),
            "closed_vs_integral_max_rel": self.closed_vs_integral_max_rel,
            "second_derivative_max_rel": self.second_derivative_max_rel,
            "second_derivative_tol": self.second_derivative_tol,
            "growth": [[r, v] for r, v in self.growth],
            "strictly_increasing": self.strictly_increasing,
            "weighted_integral": self.weighted_integral,
            "weighted_tail_bound": self.weighted_tail_bound,
            "weighted_finite": self.weighted_finite,
        }


def _closed_form(
    c1: Fraction, c2: Fraction
) -> tuple[Fraction, Fraction, Callable[[np.ndarray], np.ndarray]]:
    """u(x) = a_lin x + x ln x + a_const for x >= 1: the exact a_lin =
    -1/2 + c1 and a_const = 2/3 + c2, and u over arrays.

    -1/2 and 2/3 continue u = t^3/6 + c1 t + c2 of the source t on (0, 1)
    with its value and slope at x = 1.
    """
    a_lin = Fraction(-1, 2) + c1
    a_const = Fraction(2, 3) + c2
    lin, const = float(a_lin), float(a_const)

    def u(x: np.ndarray) -> np.ndarray:
        return lin * x + x * np.log(x) + const

    return a_lin, a_const, u


def _integral_form() -> Callable[[float], float]:
    """u(x) = integral_0^x (x-t) f(t) dt with the piecewise source f(t) = t
    on (0,1), 1/t on [1, inf); quadrature per smooth piece."""
    nodes, weights = np.polynomial.legendre.leggauss(INTEGRAL_FORM_ORDER)

    def piece(lo: float, hi: float, g: Callable[[np.ndarray], np.ndarray]) -> float:
        mid, half = (hi + lo) / 2.0, (hi - lo) / 2.0
        return half * float(weights @ g(mid + half * nodes))

    def u(x: float) -> float:
        total = piece(0.0, 1.0, lambda t: (x - t) * t)
        if x > 1.0:
            total += piece(1.0, x, lambda t: (x - t) / t)
        return total

    return u


def counterexample_report(
    r_max: float = 1000.0,
    c1: RationalLike = 0,
    c2: RationalLike = 0,
) -> CounterexampleReport:
    """Reconstruct the counterexample and demonstrate its divergence.

    Checks: (i) the closed form agrees with the double-integral formula at
    SAMPLE_POINTS points (and exactly at x = 1, where both give 1/6 + c1 + c2);
    (ii) its central second difference reproduces the 1/x source at
    SAMPLE_POINTS points of [1, R] within SECOND_DIFFERENCE_TOL relative;
    (iii) the unweighted square integral over [1, R] grows without bound
    while the Gaussian-weighted one converges.  The affine part c1 x + c2
    is exact on both routes of (i) and has u'' = 0, and the exact u(1)
    check covers it, so (i) and (ii) run at c1 = c2 = 0: in float, a large
    affine part would round away the x ln x term they check.  An R above
    MAX_R, or a c1 or c2 above the float range, raises InputLimitError; a
    square integral of u (QuadratureError) or the tail bound
    (OverflowError) that leaves the float range raises naming it, c1 and c2.
    """
    if r_max < 1.0:
        raise ValueError(f"R must be >= 1, got {r_max}")
    if r_max > MAX_R:
        raise InputLimitError(
            f"R: R = {r_max!r} is above MAX_R = {MAX_R!r}: the square integral of u "
            f"over [1, R] grows like R^3 ln^2 R / 3 and overflows a float near R = 2.5e101"
        )
    c1 = Fraction(c1)
    c2 = Fraction(c2)
    c1_float, c2_float = input_float(c1, "c1"), input_float(c2, "c2")

    a_lin, a_const, u = _closed_form(c1, c2)
    u1_closed = a_lin + a_const  # x ln x vanishes at x = 1
    # exact antiderivative of (1-t)*t over [0,1]: t^2/2 - t^3/3
    u1_integral = Fraction(1, 2) - Fraction(1, 3) + c1 + c2

    _, _, u0 = _closed_form(Fraction(0), Fraction(0))
    u_int = _integral_form()
    steps = np.arange(SAMPLE_POINTS) / (SAMPLE_POINTS - 1)
    xs = 1.0 + (20.0 - 1.0) * steps
    a_val = u0(xs)
    b_val = np.array([u_int(x) for x in xs.tolist()])
    scale = np.maximum(np.maximum(abs(a_val), abs(b_val)), 1.0)
    max_rel = float(np.max(abs(a_val - b_val) / scale))

    xs = 1.0 + (float(r_max) - 1.0) * steps
    h = SECOND_DIFFERENCE_STEP * xs
    second = (u0(xs + h) - 2.0 * u0(xs) + u0(xs - h)) / h**2
    second_max = float(np.max(abs(second * xs - 1.0)))

    def square_integral(name: str, fn: Callable[[np.ndarray], np.ndarray], r: float, tol: float) -> float:
        try:
            return integrate_box(fn, BoxDomain(((1.0, r),)), tol=tol)
        except QuadratureError as exc:
            raise QuadratureError(
                f"counterexample: the {name} over [1, {r!r}] at c1 = {c1_float:.6g}, "
                f"c2 = {c2_float:.6g} leaves the float range ({exc})"
            ) from None

    radii = sorted({10.0, 100.0, 1000.0, float(r_max)})
    radii = [r for r in radii if r <= float(r_max)] or [float(r_max)]
    growth = []
    for r in radii:
        if r <= 1.0:
            growth.append((r, 0.0))
            continue
        growth.append((r, square_integral("growth integral of u^2", lambda x: u(x[:, 0]) ** 2, r, 1e-8)))
    strictly_increasing = all(b[1] > a[1] for a, b in zip(growth, growth[1:]))

    cutoff = 8.0
    weighted = square_integral(
        "weighted integral of u^2", lambda x: u(x[:, 0]) ** 2 * np.exp(-x[:, 0] ** 2), cutoff, 1e-12
    )
    # |u| <= D x^2 for x >= cutoff, and
    # integral_X^inf x^4 e^{-x^2} dx <= e^{-X^2} (X^3/2 + 3X/4 + 3/(8X))
    d_const = abs(float(a_lin)) + 1.0 + abs(float(a_const))
    try:
        tail = d_const**2 * math.exp(-(cutoff**2)) * (cutoff**3 / 2.0 + 0.75 * cutoff + 3.0 / (8.0 * cutoff))
    except OverflowError:
        raise OverflowError(
            f"counterexample: the weighted tail bound past x = {cutoff:g}, where |u| <= {d_const:.6g} x^2, "
            f"leaves the float range at c1 = {c1_float:.6g}, c2 = {c2_float:.6g}"
        ) from None

    return CounterexampleReport(
        c1=c1,
        c2=c2,
        r_max=float(r_max),
        u1_closed=u1_closed,
        u1_integral=u1_integral,
        closed_vs_integral_max_rel=max_rel,
        second_derivative_max_rel=second_max,
        second_derivative_tol=SECOND_DIFFERENCE_TOL,
        growth=growth,
        strictly_increasing=strictly_increasing,
        weighted_integral=weighted,
        weighted_tail_bound=tail,
        weighted_finite=math.isfinite(weighted + tail),
    )

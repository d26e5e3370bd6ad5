"""Bounded-domain solves, space embeddings, and the unweighted-L2 failure.

The bounded-domain pipeline extends data f in L2(U) by zero, projects it
onto the orthonormal Hermite basis centered inside U, solves exactly in
coefficient space, and restricts back.  f is a tensor-product piecewise
polynomial (a constant, a polynomial, or a grid's multilinear
interpolant), so each pairing <f~, h_alpha>_w and norm is its coefficient
tensor contracted with 1-D tables per axis, each from Gauss-Legendre rules:
the Gaussian moments of the Hermite functions (``gaussian_moments``, one
rule per cell, converging geometrically on these entire integrands), and
for ||u||_{L2(U)} their Gram matrices over the sides of U
(``hermite_gram``, a rule exact to its degree; Davis & Rabinowitz, 1984,
ch. 2).  The unweighted norms are exact.  The solution obeys

    ||u||_{L2(U)} <= sqrt(e^{|U|^2} / (8n)) ||f||_{L2(U)},

with |U| the Euclidean diameter of the box: on U the Gaussian factor
e^{-|x-x0|^2} is at least e^{-|U|^2} once x0 lies in U.

Those tables, the Hermite-function values and ``gauss_rule``, the one
Gauss rule of the package (Tricomi's asymptotic roots, Newton steps on the
three-term recurrence), are defined here, outside the exact core; a bounded
op calls no LAPACK or BLAS routine.

What a bounded op reads that the data values and a do not set is kept
across calls, read-only, by one rule (``_kept``) in one store of at most
KEPT_BYTES; a result over KEPT_BYTES // 64 is built on each call.  The
one working set that grows with the data, the Hermite values at the rule
nodes of an axis's cells, is built a slice of cells at a time, each slice
within KEPT_BYTES // 4.  The sup estimate's sample points are not kept.

The embedding checks confirm ||f||^2_w <= ||f||^2_{L2} (the weight is at
most 1) and ||f||^2_w <= pi^{n/2} sup|f|^2 (total Gaussian mass), which
transport unweighted data into the weighted theory.

The counterexample is the classical 1/x-sourced second antiderivative:
u'' = f with f = 1/x on [1, inf) has u = -x/2 + x ln x + 2/3 (+ affine),
which leaves L2(R) (its square integral grows like R^3 ln^2 R) yet stays
square-integrable against the Gaussian weight, by the fixed
INTEGRAL_FORM_ORDER-point Gauss-Legendre rule ``integrate_box``.
"""

from __future__ import annotations

import math
import operator
import sys
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, wraps
from typing import Callable, Sequence

import numpy as np

from .hermite import (
    HermiteExpansion,
    WeightSpec,
    _axis_norms,
    norm_sq,
)
from .polynomials import Polynomial, RationalLike, format_fields, pack, reduced
from .rightinverse import InputLimitError, exact_solve, input_float, multi_indices_up_to

# linalg, the exact row reduction the tests use as a reference, loads with
# the float layer rather than the exact core, so that perfbench's linalg
# tracer targets resolve until it moves to the tests (ROADMAP item 1).
from . import linalg  # noqa: F401  (imported for its side effect)

# Error budget of each float integral of solve_bounded; the Bessel
# tolerance and the diameter bound's relative slack are derived from it,
# and it is printed as "quad_tol".  The Gauss rules meet it to rounding.  A
# weighted norm below -QUAD_TOL ||f||^2_L2 raises, and solve_bounded
# refuses one above (1 + QUAD_TOL) ||f||^2_L2.
QUAD_TOL = 1e-10
# Sample budget of embedding_check's sup estimate: s equispaced points of each
# cell, its ends and centre among them, on each of the k axes of power above 1,
# s the largest odd number >= 3 with s^k <= SUP_SAMPLES (3 past k = 6).
SUP_SAMPLES = 2048
# Slack of the two embedding inequalities, relative to each right-hand side.
EMBEDDING_TOL = 1e-8
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
# R = 2.5e101.
MAX_R = 1e101
# Entries of a dense coefficient array built from sparse input: a bounded
# solution's (N+3)^n orthonormal ones (Gram contraction n (N+3)^(n+1)
# multiply-adds; 2-D reaches its degree limit 147 at 22,500, 3-D stops at
# N = 29, 4-D at N = 10) and polynomial data's, over each axis's powers.
MAX_TENSOR_ENTRIES = 32_768
# Largest box diameter |U| of a bounded solve: its constant's e^{|U|^2}
# overflows a float past sqrt(ln(float max)) = 26.64.
MAX_DIAMETER = math.sqrt(math.log(sys.float_info.max))
# Half-width in t = x - x0 of the window gaussian_moments integrates over:
# past |t| = 38.6 the factor e^{-t^2/2} of every integrand is 0 in floats.
MOMENT_WINDOW = 40.0
# Bytes kept across calls, keys included (8 MiB); a result over 1/64 of it is not kept.
KEPT_BYTES = 8 << 20
# Largest Gauss rule the tests pin, and the largest gaussian_moments builds:
# on [-1, 1] it admits data powers up to 2,020 at N = 30 and 2,026 at N = 0.
MAX_RULE_ORDER = 2048


# ----------------------------------------------------------------------
# Hermite values, the Gauss-Legendre rule
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


_KEPT: OrderedDict = OrderedDict()  # key -> (result, bytes), the least recently read first


def _kept(build):
    """``build`` with its results read-only and kept in _KEPT, keyed on its
    arguments (float64 arrays by their bytes, a zero by its repr: -0.0 is not
    0.0); a result's bytes are its arrays', 8 per entry of any other container
    and its key's.  Past KEPT_BYTES in all, the least recently read go first.
    The store takes no lock: the package starts no threads."""

    @wraps(build)
    def kept(*args):
        parts = [build]
        for a in args:
            parts.append(a.tobytes() if isinstance(a, np.ndarray) else a or repr(a))
        key = tuple(parts)
        if key in _KEPT:
            _KEPT.move_to_end(key)
            return _KEPT[key][0]
        result = build(*args)
        size = 8 * len(key) + sum(len(a) for a in key if isinstance(a, (bytes, str)))
        for part in result if isinstance(result, tuple) else (result,):
            if isinstance(part, np.ndarray):
                part.setflags(write=False)
            size += part.nbytes if isinstance(part, np.ndarray) else 8 * len(part)
        if size <= KEPT_BYTES // 64:
            _KEPT[key] = result, size
            while sum(size for _, size in _KEPT.values()) > KEPT_BYTES:
                _KEPT.popitem(last=False)
        return result

    return kept


# Fraction bits of the fixed-point Newton step of gauss_rule.
NEWTON_BITS = 128


def _legendre_newton(x: float, n: int) -> tuple[float, float]:
    """The root of P_n next to x and its weight 2 / ((1 - t^2) P_n'(t)^2).

    With p = P_n(x), q = P_(n-1)(x), e = 1 - x^2 and g = n (q - x p) =
    e P_n'(x), one Newton step gives the root x - p e / g, and the weight
    formula, 2 e / g^2 at x, moves by the factor 1 + 2 x p / g over the
    step (P_n'' / P_n' = 2 t / (1 - t^2) at a root).  Both are carried in
    fixed point with NEWTON_BITS fraction bits and rounded once.
    """
    f = NEWTON_BITS
    a, d = x.as_integer_ratio()
    t = (a << f) // d
    q, p = 0, 1 << f
    for k in range(n):
        q, p = p, (((2 * k + 1) * t * p >> f) - k * q) // (k + 1)
    e = (1 << 2 * f) - t * t
    g = n * ((q << f) - t * p)
    return (t * g - p * e) / (g << f), (e * (g + 2 * t * p) << 2 * f + 1) / g**3


@_kept
def gauss_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """The order-point Gauss-Legendre rule, exact to degree 2 order - 1 on
    [-1, 1]: ascending nodes and their weights, kept, read-only.

    The rule is symmetric, so only its roots >= 0 are found, all at once:
    each starts at Tricomi's asymptotic value (Abramowitz & Stegun 22.16.6)
    and takes two float Newton steps on the three-term recurrence, so a rule
    holds O(order) floats.  One more Newton step, in fixed point, takes each
    to the nearest float of its root, whatever the start, and the weight is
    the derivative formula at the root.
    """
    if order < 1:
        raise ValueError(f"a Gauss rule needs order >= 1, got {order}")
    k = np.arange((order + 1) // 2, 0, -1)  # the roots >= 0, ascending
    start = (1.0 - (1.0 - 1.0 / order) / (8.0 * order * order)) * np.cos(np.pi * (4 * k - 1) / (4 * order + 2))
    for _ in range(2):
        q, p = 0.0, 1.0
        for j in range(order):  # P_(j+1) = x P_j + j / (j + 1) (x P_j - P_(j-1))
            xp = start * p
            q, p = p, xp + (xp - q) * (j / (j + 1))
        start = start - p * (1.0 - start * start) / (order * (q - start * p))
    if order % 2:
        start[0] = 0.0  # the middle root of an odd order
    half = np.array([_legendre_newton(x, order) for x in start.tolist()]).T
    half[0] = abs(half[0])  # the root 0 comes out as -0.0 where g < 0
    mirror = half[:, order % 2:][:, ::-1]
    return np.concatenate([-mirror[0], half[0]]), np.concatenate([mirror[1], half[1]])


def tensor_rule(nodes: np.ndarray, weights: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-fold tensor product of a 1-D rule: (m, n) points, the last
    axis fastest, and their (m,) weights, m = len(nodes)^n."""
    grids = np.meshgrid(*[nodes] * n, indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=1)
    return points, np.prod(np.meshgrid(*[weights] * n, indexing="ij"), axis=0).ravel()


# ----------------------------------------------------------------------
# 1-D integrals of the orthonormal basis
# ----------------------------------------------------------------------


def gaussian_moments(
    lo: np.ndarray, hi: np.ndarray, origins: np.ndarray, x0: float, rows: int, cols: int
) -> np.ndarray:
    """The (C, rows, cols) table M[c, m, k] of the integrals over [lo_c, hi_c]
    of s^m h_k(t) e^{-t^2} dx, s = x - origins_c, t = x - x0; cols >= 2.
    ``axis_blocks`` keeps the blocks it reads from it, not the table.

    One Gauss-Legendre rule of order q serves every cell, clipped to |t| <=
    MOMENT_WINDOW.  The integrands are entire, so the rule converges
    geometrically (Trefethen, SIAM Review 50, 2008).  q is the power of two
    at or above the largest w (max(nu, w) + |mid - x0|) over the cells, with
    w the half-width and nu = sqrt(2 cols - 1) the highest frequency of the
    h_k, plus rows // 2 for s^m and 20: a short ladder of orders, each rule
    built once.  Each node's integrand is summed with its mirror's before
    the rest, so on a cell centred on x0 and on its origin, where s^m h_k(t)
    is even or odd in exact float arithmetic, every entry of odd m + k is
    exactly 0.  h_k(t) e^{-t^2} is the Hermite function h_k e^{-t^2/2} times
    e^{-t^2/2}: a far end underflows to 0, not inf * 0.  A q above
    MAX_RULE_ORDER raises InputLimitError before any rule or table is built.
    """
    lo, hi = (np.minimum(np.maximum(ends, x0 - MOMENT_WINDOW), x0 + MOMENT_WINDOW) for ends in (lo, hi))
    # the centres in s and t from the ends themselves: a grid cell's s runs
    # over [0, hi - lo] exactly, though (lo + hi) / 2 rounds on its scale
    s_mid, t_mid, half = ((lo - origins) + (hi - origins)) / 2.0, ((lo - x0) + (hi - x0)) / 2.0, (hi - lo) / 2.0
    need = math.ceil((half * (np.maximum(math.sqrt(2 * cols - 1), half) + abs(t_mid))).max()) + rows // 2 + 20
    order = 1 << (need - 1).bit_length()
    if order > MAX_RULE_ORDER:
        raise InputLimitError(
            f"the Gaussian moments of s^m h_k, m < {rows}, k < {cols}, ask for a Gauss rule of {need} nodes, "
            f"above MAX_RULE_ORDER = {MAX_RULE_ORDER}"
        )
    nodes, weights = (part[order // 2 :] for part in gauss_rule(order))  # the nodes > 0 of an even order
    # Slices of cells within KEPT_BYTES // 4 at 3 cols q floats a cell (the Hermite
    # values as a list and an array, then the array and its products): a long axis
    # adds a quarter of the store to the peak, and a slice spans enough cells that
    # numpy's arithmetic, not the recurrence's Python steps, takes the time.
    step = max(1, KEPT_BYTES // 4 // (24 * cols * order))
    table = np.empty((rows, cols, len(lo)))
    for first in range(0, len(lo), step):
        part = slice(first, first + step)
        # both sides at once: offsets (2, c, q/2) at +xi and -xi, exact negatives
        offset = np.array([1.0, -1.0])[:, None, None] * (half[part, None] * nodes)
        s, t = s_mid[part, None] + offset, t_mid[part, None] + offset
        gauss = np.exp(-t * t / 2.0)
        values = np.array(normalized_hermite_values(cols - 1, t, math.pi**-0.25 * gauss))
        values *= gauss
        # the weights times s^m, by products, which keep the sign symmetry np.power can break
        power = np.broadcast_to(half[part, None] * weights, s.shape)
        for m in range(rows):  # each node's (cols, c, q/2) integrand plus its mirror's, then their sum
            table[m, :, part] = (power[0] * values[:, 0] + power[1] * values[:, 1]).sum(-1)
            power = power * s
    return table.transpose(2, 0, 1)


@_kept
def axis_blocks(
    lo: np.ndarray, hi: np.ndarray, origins: np.ndarray, x0: float, power: int, top: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three blocks SampledFunction.integrals contracts one axis's cells
    [lo_c, hi_c] with, for the basis (x - origins_c)^p, p <= power: the
    pairings M[c, p, k], k <= top, of ``gaussian_moments``; the weighted
    block pi^{1/4} M[c, p + q, 0] of ||f~||^2_w (h_0 = pi^{-1/4}, so it
    integrates s^(p+q) e^{-t^2}); and the plain block, the integral of
    s^(p+q) over the cell.  Kept, read-only."""
    rows = 2 * power + 1
    table = gaussian_moments(lo, hi, origins, x0, rows, max(top + 1, 2))  # refuses past MAX_RULE_ORDER first
    powers = np.arange(power + 1)
    square = powers[:, None] + powers
    # s^p at both ends, p = 1..rows, by products, so a symmetric cell's odd moments are exactly 0
    ends = np.stack([hi - origins, lo - origins], -1)[..., None].repeat(rows, -1).cumprod(-1)
    plain = (ends[:, 0] - ends[:, 1]) / np.arange(1, rows + 1)
    return table[:, powers, : top + 1], math.pi**0.25 * table[:, :, 0][:, square], plain[:, square]


@_kept
def hermite_gram(lo: float, hi: float, x0: float, size: int) -> np.ndarray:
    """G[a, b] = integral_lo^hi h_a(x - x0) h_b(x - x0) dx, a, b < size: a
    polynomial of degree 2 size - 2, which the size-point rule integrates
    exactly; kept, read-only."""
    nodes, weights = gauss_rule(size)
    t = (hi + lo) / 2.0 - x0 + (hi - lo) / 2.0 * nodes
    values = np.array(normalized_hermite_values(size - 1, t, np.full(size, math.pi**-0.25)))
    return np.einsum("ai,bi->ab", values * (weights * (hi - lo) / 2.0), values)  # no BLAS call


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
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError(f"degenerate or unbounded interval [{lo}, {hi}]")

    @property
    def dim(self) -> int:
        return len(self.intervals)

    @property
    def diameter(self) -> float:
        """Euclidean length of the corner-to-corner vector."""
        try:
            return math.sqrt(sum((hi - lo) ** 2 for lo, hi in self.intervals))
        except OverflowError:  # a side's square is past the float range
            return math.hypot(*(hi - lo for lo, hi in self.intervals))

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


class QuadratureError(ArithmeticError):
    """An integral is not a finite float."""


@dataclass(frozen=True, eq=False)
class SampledFunction:
    """Data on a box, extended by zero outside it: a tensor-product
    piecewise polynomial.  Axis j is a triple (edges, origins, powers):
    cells [edges[c], edges[c+1]] and on cell c the basis (x_j -
    origins[c])^p, p in powers; ``coeffs`` has one axis of length
    cells * len(powers) per box axis, cell-major.  A polynomial is its
    monomial terms (one cell, origin 0), a dense tensor over each axis's
    powers of at most MAX_TENSOR_ENTRIES, and a constant is the constant
    polynomial (its Fraction refuses NaN and infinities); a grid is its
    multilinear interpolant, v_c + (v_(c+1) - v_c) (x - x_c) / h_c per cell.
    """

    box: BoxDomain
    axes: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    coeffs: np.ndarray

    @classmethod
    def constant(cls, box: BoxDomain, value: float) -> "SampledFunction":
        return cls.from_polynomial(Polynomial.constant(box.dim, float(value)), box)

    @classmethod
    def from_polynomial(cls, poly: Polynomial, box: BoxDomain) -> "SampledFunction":
        if poly.dim != box.dim:
            raise ValueError(f"dimension mismatch: {poly.dim} vs {box.dim}")
        terms = poly.terms
        powers = [sorted({exps[j] for exps in terms} or {0}) for j in range(box.dim)]
        shape = tuple(map(len, powers))
        if math.prod(shape) > MAX_TENSOR_ENTRIES:  # refused before any array: sparse terms can ask for TiB
            raise InputLimitError(
                f"the polynomial's dense coefficient tensor {shape} over the powers of each axis has "
                f"{math.prod(shape)} entries, above MAX_TENSOR_ENTRIES = {MAX_TENSOR_ENTRIES}"
            )
        coeffs = np.zeros(shape)
        slots = [{e: i for i, e in enumerate(p)} for p in powers]
        for exps, coef in terms.items():
            coeffs[tuple(slot[e] for slot, e in zip(slots, exps))] = float(coef)
        axes = tuple((np.array(ends), np.zeros(1), np.array(p)) for ends, p in zip(box.intervals, powers))
        return cls(box, axes, coeffs)

    @classmethod
    def from_grid(
        cls, box: BoxDomain, shape: Sequence[int], values: Sequence[float]
    ) -> "SampledFunction":
        """Multilinear interpolation of a flat value grid over the box; a
        shape entry that is not an int >= 2 is refused before the reshape."""
        shape = tuple(operator.index(num) for num in shape)
        if len(shape) != box.dim:
            raise ValueError(f"grid rank {len(shape)} != box dimension {box.dim}")
        if min(shape) < 2:
            raise ValueError(f"grid shape {shape} needs at least 2 points per axis")
        arr = np.asarray(values, dtype=float).reshape(shape)
        if not np.isfinite(arr).all():
            raise ValueError("grid values must be finite")
        axes, coeffs = [], arr
        for j, ((lo, hi), num) in enumerate(zip(box.intervals, arr.shape)):
            nodes = np.linspace(lo, hi, num)
            v = np.swapaxes(coeffs, j, -1)
            with np.errstate(all="ignore"):
                slopes = np.diff(v, axis=-1) / np.diff(nodes)
            if not np.isfinite(slopes).all():
                raise ValueError(f"non-finite grid slope {float(slopes[~np.isfinite(slopes)][0])!r} on axis {j}")
            local = np.stack([v[..., :-1], slopes], axis=-1)
            coeffs = np.swapaxes(local.reshape(local.shape[:-2] + (-1,)), j, -1)
            axes.append((nodes, nodes[:-1], np.array([0, 1])))
        return cls(box, tuple(axes), coeffs)

    def integrals(self, x0: Sequence[float], top: int) -> tuple[np.ndarray, float, float]:
        """Against e^{-|x-x0|^2}, the (top+1)^n pairings <f~, h_alpha(x - x0)>,
        alpha_j <= top, h_alpha the orthonormal Hermite basis, and
        ||f~||^2_w; then ||f||^2_{L2} over the box.  One table of Gaussian
        moments per axis serves both weighted integrals.  A ||f~||^2_w below
        -QUAD_TOL ||f||^2_{L2} raises QuadratureError."""
        pairs, weighted, plain = self.coeffs, [], []
        # the longest axes first, so no intermediate outgrows the data or the result
        for j in sorted(range(self.box.dim), key=lambda j: -self.coeffs.shape[j]):
            edges, origins, powers = self.axes[j]
            block, w, p = axis_blocks(edges[:-1], edges[1:], origins, x0[j], int(powers[-1]), top)
            if len(powers) <= powers[-1]:  # a power set with gaps reads its own rows
                block, w, p = block[:, powers], w[:, powers[:, None], powers], p[:, powers[:, None], powers]
            pairs = _contract(pairs, j, block, keep=False)
            weighted.append((j, w))
            plain.append((j, p))
        pairs = _finite("pairings <f~, h_alpha>_w", pairs)
        norm_w = _finite("||f~||^2_w", _quadratic(self.coeffs, weighted))
        norm_l2 = _finite("||f||^2_L2", _quadratic(self.coeffs, plain))
        if norm_w < -QUAD_TOL * norm_l2:
            raise QuadratureError(f"||f~||^2_w = {norm_w!r} is below -QUAD_TOL ||f||^2_L2 = {-QUAD_TOL * norm_l2!r}")
        return pairs, norm_w, norm_l2


# ----------------------------------------------------------------------
# contractions with the 1-D tables
# ----------------------------------------------------------------------


def _finite(name: str, value):
    if not (math.isfinite(value) if isinstance(value, float) else np.isfinite(value).all()):
        raise QuadratureError(f"non-finite {name}: it leaves the float range")
    return value


def _contract(t: np.ndarray, j: int, table: np.ndarray, keep: bool = True) -> np.ndarray:
    """t's axis j, read as (cells, D), against table[c, d, e]:
    out[.., c, e, ..] (keep) or summed over c (not keep)."""
    cells, depth, _ = table.shape
    moved = t.swapaxes(j, -1)
    moved = moved.reshape(moved.shape[:-1] + (cells, depth))
    if not keep:
        return np.einsum("...cd,cde->...e", moved, table).swapaxes(j, -1)
    out = np.einsum("...cd,cde->...ce", moved, table)
    return out.reshape(out.shape[:-2] + (-1,)).swapaxes(j, -1)


def _quadratic(coeffs: np.ndarray, blocks: Sequence[tuple[int, np.ndarray]]) -> float:
    """coeffs . (B_1 x ... x B_n) coeffs, each (j, B_j) block diagonal over
    the cells of axis j."""
    out = coeffs
    for j, block in blocks:
        out = _contract(out, j, block)
    return float((coeffs * out).sum())


# ----------------------------------------------------------------------
# the fixed Gauss-Legendre rule over boxes
# ----------------------------------------------------------------------


def integrate_box(fn: Callable[[np.ndarray], np.ndarray], box: BoxDomain) -> float | np.ndarray:
    """The INTEGRAL_FORM_ORDER-point Gauss-Legendre tensor rule for fn over
    the box, geometric on integrands analytic near it (Trefethen, SIAM
    Review 50, 2008).

    ``fn`` maps an (m, n) array of nodes to m values (the result is a
    float) or to an (m, k) array (the result is k integrals); it is called
    once.  A non-finite result raises QuadratureError.
    """
    nodes, weights = tensor_rule(*gauss_rule(INTEGRAL_FORM_ORDER), box.dim)
    lo, hi = box.corners
    half = (hi - lo) / 2.0
    # overflow and NaN surface as the QuadratureError below, not as warnings
    with np.errstate(all="ignore"):
        total = (weights @ np.asarray(fn((hi + lo) / 2.0 + half * nodes), dtype=float)) * np.prod(half)
    if not np.isfinite(total).all():
        raise QuadratureError(f"non-finite integral {total.tolist()!r} over {list(box.intervals)}")
    return float(total) if total.ndim == 0 else total


# ----------------------------------------------------------------------
# bounded-domain solve
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def max_truncation(dim: int) -> int:
    """Largest truncation N whose degree-(N+2) squared basis norm is a finite
    float: the min-norm solution reaches degree N + 2, and ||G_alpha||^2_w
    of that degree is largest at a pure power, 2^d d! pi^{n/2}."""
    limit = sys.float_info.max / math.pi ** (dim / 2.0)
    degree, norm = 2, 2**3 * 6  # the int 2^(d+1) (d+1)!, compared exactly
    while norm <= limit:
        degree += 1
        norm *= 2 * (degree + 1)
    return degree - 2


def check_input_limits(dim: int, truncation: int, diameter: float = 0.0) -> None:
    """Raise ValueError for a negative N, and InputLimitError, naming the
    limit, for a bounded solve whose (N+3)^n coefficient array is over
    MAX_TENSOR_ENTRIES, whose N is above max_truncation(dim) or whose box
    diameter is above MAX_DIAMETER."""
    if truncation < 0:
        raise ValueError(f"truncation must be >= 0, got {truncation}")
    entries = (truncation + 3) ** dim
    if entries > MAX_TENSOR_ENTRIES:
        raise InputLimitError(
            f"truncation {truncation} in {dim}-D needs {entries} solution coefficient entries "
            f"(N + 3)^n, above MAX_TENSOR_ENTRIES = {MAX_TENSOR_ENTRIES}"
        )
    limit = max_truncation(dim)
    if truncation > limit:
        raise InputLimitError(
            f"truncation {truncation} in {dim}-D is above the degree limit {limit}: "
            f"the degree-{truncation + 2} basis norm overflows a float"
        )
    if diameter > MAX_DIAMETER:
        raise InputLimitError(
            f"box diameter |U| = {diameter!r} is above MAX_DIAMETER = {MAX_DIAMETER!r}: "
            f"the diameter constant's e^(|U|^2) overflows a float"
        )


@_kept
def basis_plan(dim: int, truncation: int) -> tuple[tuple[int, ...], np.ndarray, np.ndarray, dict[int, int]]:
    """The multi-indices alpha of degree <= N + 2 (the min-norm solution's
    reach), graded lex: packed keys, (2, K) flat positions in the (N+1)^n
    pairings (row 0; clipped above degree N) and the (N+3)^n orthonormal
    coefficients (row 1), ||G_alpha||_w, and each key's column; kept,
    read-only."""
    indices = multi_indices_up_to(dim, truncation + 2)
    # at lam = 1, ||G_alpha||^2_w is the int prod_j 2^a_j a_j! times pi^{n/2}
    unit, axis_norms = math.pi ** (dim / 2.0), _axis_norms(truncation + 2)
    norms = np.array([math.sqrt(math.prod([axis_norms[e] for e in alpha]) * unit) for alpha in indices])
    exps, sizes = np.array(indices).reshape(-1, dim).T, (truncation + 1, truncation + 3)
    flat = np.array([np.ravel_multi_index(exps, (size,) * dim, mode="clip") for size in sizes])
    keys = tuple(pack(alpha) for alpha in indices)
    return keys, flat, norms, {key: i for i, key in enumerate(keys)}


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
        """The fields but the solution, in order, then quad_tol."""
        fields = dict(vars(self), x0=list(self.x0), quad_tol=QUAD_TOL)
        del fields["solution"]
        return format_fields(fields)


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
    exactly in coefficient space, and restrict.  The float integrals are
    tabulated by Gauss rules: SampledFunction.integrals for the data,
    per-axis Gram matrices of the basis for ||u||^2_{L2(U)}.  The report
    checks ||u||_{L2(U)} <= sqrt(e^{|U|^2}/(8n)) ||f||_{L2(U)} within
    QUAD_TOL relative.
    The solution is the minimal-norm weak one on V_N (see
    ``rightinverse.solve_min_norm``), so the weighted ratio is at most
    1/(8n) for every a.  ``residual_exact`` is the exact check P_N (lap +
    a) u == P_N f~ on Hermite coefficients, which at a = 0 is lap u == P_N
    f~.  ``bessel_holds`` checks ||P_N f~||^2_w (Parseval on the
    projected coefficients) <= ||f~||^2_w within ``bessel_tol``, which
    follows from QUAD_TOL and the number of pairings; it fails when a
    pairing or the basis is wrong.  ``projection_defect_rel`` = 1 -
    ||P_N f~||^2_w / ||f~||^2_w is the share of the data the truncation
    drops (0 for zero data).  Inputs past ``check_input_limits`` or
    MAX_RULE_ORDER raise InputLimitError, a negative truncation ValueError,
    and a ||f~||^2_w above ||f||^2_{L2} (1 + QUAD_TOL) QuadratureError.
    """
    a = Fraction(a)
    n = box.dim
    if f.box.intervals != box.intervals:
        raise ValueError("sampled function must live on the target box")
    diameter = box.diameter
    check_input_limits(n, truncation, diameter)
    point0 = box.center
    weight = WeightSpec(
        dim=n, lam=Fraction(1), center=tuple(Fraction(v) for v in point0)
    )

    keys, flat, norms, rows = basis_plan(n, truncation)
    k = math.comb(truncation + n, n)  # the pairings: the indices of degree <= N come first

    with np.errstate(all="ignore"):
        raw, norm_f_w_data, norm_f_l2_sq = f.integrals(point0, truncation)
    if norm_f_w_data > norm_f_l2_sq * (1.0 + QUAD_TOL):  # the weight is at most 1 on the box
        raise QuadratureError(f"||f~||^2_w = {norm_f_w_data!r} is above ||f||^2_L2 = {norm_f_l2_sq!r} (1 + QUAD_TOL)")
    # each float coefficient is an int over a power of two: over the largest, exactly
    ratios = [v.as_integer_ratio() for v in (raw.ravel()[flat[0, :k]] / norms[:k]).tolist()]
    den = max(d for _, d in ratios)
    nums = {key: num * (den // d) for key, (num, d) in zip(keys, ratios)}
    f_exp = HermiteExpansion._trusted(weight, *reduced(den, nums))

    u_exp, residual_exact, norm_f_w, norm_u_w, weighted_ratio = exact_solve(f_exp, a, truncation)
    weighted_ratio_vs_data = (
        norm_u_w.to_float() / norm_f_w_data if norm_f_w_data > 0 else 0.0
    )

    # Bessel: exact pairings keep at most the data's weighted norm.  The K
    # pairings and ||f~||^2_w are each within QUAD_TOL of their integrals, so
    # by Cauchy-Schwarz sum p^2 moves by 2 QUAD_TOL sqrt(K ||f~||^2) + K QUAD_TOL^2.
    projected = norm_f_w.to_float()
    bessel_tol = QUAD_TOL * (1.0 + 2.0 * math.sqrt(k * max(norm_f_w_data, 0.0)) + k * QUAD_TOL)
    defect = 1.0 - projected / norm_f_w_data if norm_f_w_data > 0 else 0.0

    # restriction norm of the solution: its dense orthonormal coefficients
    # against the per-axis Gram matrices of h_0..h_(N+2) over the box
    size = truncation + 3
    at = [rows[key] for key in u_exp.nums]
    u_orth = np.zeros((size,) * n)
    u_orth.flat[flat[1, at]] = np.array([num / u_exp.den for num in u_exp.nums.values()]) * norms[at]
    with np.errstate(all="ignore"):
        grams = [(j, hermite_gram(*box.intervals[j], point0[j], size)[None]) for j in range(n)]
        norm_u_l2 = math.sqrt(max(_finite("||u||^2_L2", _quadratic(u_orth, grams)), 0.0))
    norm_f_l2 = math.sqrt(max(norm_f_l2_sq, 0.0))
    constant = math.sqrt(math.exp(diameter**2) / (8 * n))
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
        bound_satisfied=norm_u_l2 <= bound_value * (1.0 + QUAD_TOL),
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
        """The fields in order, then the verdict and EMBEDDING_TOL."""
        return {**vars(self), "pass": self.holds, "tol": EMBEDDING_TOL}


def embedding_check(f: SampledFunction | Polynomial) -> EmbeddingReport:
    """Check ||f||^2_w <= ||f||^2_{L2} and ||f||^2_w <= pi^{n/2} sup|f|^2,
    each within EMBEDDING_TOL times its right-hand side.

    Sampled data gets both squared norms from its per-axis tables over its
    support box (the zero extension contributes nothing outside) and, for
    the sup, the largest |f| on a tensor grid, one axis contracted at a
    time: the ends of every cell, where data multilinear on each cell
    (constants, grids) peaks, and on an axis of power above 1 the odd
    number of equispaced points of each cell that SUP_SAMPLES sets.
    These values are attained, so a passing sup route stays a certificate.
    At least one of the two routes must be available.
    A constant polynomial gets the exact weighted norm and the applicable
    route; a non-constant one, whose L2 and sup norms over R^n are
    infinite, raises ValueError before any norm is taken.
    """
    if isinstance(f, Polynomial):
        if f.total_degree() > 0:
            raise ValueError("non-constant polynomials have neither finite L2 nor sup norm")
        n = f.dim
        weighted = norm_sq(f, WeightSpec.unit(n)).to_float()
        c = float(f.coefficient((0,) * n)) if not f.is_zero() else 0.0
        sup_sq = c * c
        l2_sq = None if c != 0.0 else 0.0
    else:
        n = f.box.dim
        with np.errstate(all="ignore"):
            _, weighted, l2_sq = f.integrals((0.0,) * n, 0)
        side = int(SUP_SAMPLES ** (1.0 / max(1, sum(powers[-1] > 1 for _, _, powers in f.axes))))
        steps = max(2, (side - 1) // 2 * 2)  # s - 1 of SUP_SAMPLES: even, so the centre is a sample
        values = f.coeffs
        for j, (edges, origins, powers) in enumerate(f.axes):
            points = np.stack([edges[:-1], edges[1:]], axis=-1)
            if powers[-1] > 1:  # and the s - 2 points inside each cell
                inner = edges[:-1, None] + np.diff(edges)[:, None] * (np.arange(1, steps) / steps)
                points = np.concatenate([points, inner], axis=-1)
            values = _contract(values, j, (points - origins[:, None])[:, None, :] ** powers[:, None])
        sup_sq = float(np.max(np.abs(values))) ** 2

    pi_mass = math.pi ** (n / 2.0)
    l2_holds = None if l2_sq is None else weighted <= l2_sq * (1.0 + EMBEDDING_TOL)
    sup_holds = None if sup_sq is None else weighted <= pi_mass * sup_sq * (1.0 + EMBEDDING_TOL)
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
        """The fields in order, r_max under the key R."""
        return format_fields({"R" if key == "r_max" else key: value for key, value in vars(self).items()})


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
    nodes, weights = gauss_rule(INTEGRAL_FORM_ORDER)

    def piece(lo: float, hi: float, g: Callable[[np.ndarray], np.ndarray]) -> float:
        mid, half = (hi + lo) / 2.0, (hi - lo) / 2.0
        return half * float(weights @ g(mid + half * nodes))

    def u(x: float) -> float:
        total = piece(0.0, 1.0, lambda t: (x - t) * t)
        if x > 1.0:
            total += piece(1.0, x, lambda t: (x - t) / t)
        return total

    return u


def _square_integral(lin: float, const: float, r: float) -> float:
    """integral_1^r (lin x + x ln x + const)^2 dx, by the elementary
    antiderivatives of x^2 ln^i x (i <= 2), x ln^i x (i <= 1) and 1."""

    def antiderivative(x: float) -> float:
        ln = math.log(x)
        cubic = lin * lin / 3.0 + ln * ln / 3.0 - 2.0 * ln / 9.0 + 2.0 / 27.0 + 2.0 * lin * (ln / 3.0 - 1.0 / 9.0)
        return x * x * x * cubic + x * x * const * (lin + ln - 0.5) + const * const * x

    return antiderivative(r) - antiderivative(1.0)


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
    affine part would round away the x ln x term they check.  The growth
    integrals are elementary (_square_integral); the weighted one over [1,
    8] is the fixed rule integrate_box, and past 8 a bound.  An R above
    MAX_R, or a c1 or c2 above the float range, raises InputLimitError; a
    square integral of u (QuadratureError) or the tail bound (OverflowError)
    that leaves the float range raises naming it, c1 and c2.
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

    radii = sorted({10.0, 100.0, 1000.0, float(r_max)})
    radii = [r for r in radii if r <= float(r_max)] or [float(r_max)]
    growth = []
    for r in radii:
        value = _square_integral(float(a_lin), float(a_const), r) if r > 1.0 else 0.0
        if not math.isfinite(value):
            raise QuadratureError(
                f"counterexample: the growth integral of u^2 over [1, {r!r}] at c1 = {c1_float:.6g}, "
                f"c2 = {c2_float:.6g} leaves the float range ({value!r})"
            )
        growth.append((r, value))
    strictly_increasing = all(b[1] > a[1] for a, b in zip(growth, growth[1:]))

    cutoff = 8.0
    try:
        weighted = integrate_box(lambda x: u(x[:, 0]) ** 2 * np.exp(-x[:, 0] ** 2), BoxDomain(((1.0, cutoff),)))
    except QuadratureError as exc:
        raise QuadratureError(
            f"counterexample: the weighted integral of u^2 over [1, {cutoff!r}] at c1 = {c1_float:.6g}, "
            f"c2 = {c2_float:.6g} failed ({exc})"
        ) from None
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

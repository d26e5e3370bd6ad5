"""Constructive right inverse of lap + a on the Gaussian-weighted space.

The solver works in coefficient space over the scaled Hermite basis, where
the Laplacian lowers total degree by exactly two:

    (lap + a) G_gamma = a G_gamma + sum_j 4 gamma_j (gamma_j - 1) G_{gamma - 2 e_j}.

``shifted_laplacian`` is this sparse action, and every report's
``residual_exact`` is the exact check (lap + a) u == f on Hermite
coefficients (a bijective change of basis, so it equals the check on
monomials).  The solves walk the cached ``_level(dim, degree, parity)``:
one level of a parity class, its members and their _lowered entries;
``operator_norm`` reads the same operator's towers from ``_nu``, in floats.

The package's solution is the weak (Galerkin) one on V_N, the polynomials
of degree <= N (N = deg f by default): the minimal-weighted-norm u in
V_(N+2) with P_N (lap + a) u = f, P_N the weighted projection onto V_N.
It is u = T* w for T = lap + a, T* = lam^2 P + a (L = lap, P the raising
map, L* = lam^2 P), and the w in V_N with P_N T T* w = f (Hormander's
duality argument on a finite test space), so ||u||^2 = <w, f> exactly,
and the coercivity ||T* w||^2 >= 8 n lam^2 ||w||^2 gives ||u||^2 <=
||f||^2 / (8 n lam^2) for every a, N, lam and center.  Within a parity
class P_N T T* is block tridiagonal over the levels, and one block Thomas
sweep solves it for every a.  Each pivot acts on the tower P^k H_m of a
level as one rational, independent of N, and its inverse is an integer
polynomial in L P applied by Horner: no matrix is formed and no kernel
element is needed.  At a = 0 the couplings between levels vanish: the
sweep walks only f's own (degree, parity) levels, with no back pass, each
pivot is L P, whose integer spectrum has one eigenvalue per tower of the
Fischer decomposition, and u = P (L P)^-1 f is the same for every N.  The
plane-wave kernel elements (cos/sin(k.x) with |k|^2 = a, e^(k.x) with
|k|^2 = -a) and ``enrich``, which projected a particular solution off
them in floats, stay as library functions that no report path calls.
"""

from __future__ import annotations

import itertools
import math
import struct
import sys
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Sequence

from .hermite import (
    GaussianScalar,
    HermiteExpansion,
    WeightSpec,
    monomial_to_hermite,
)
from .polynomials import (
    MAX_DEGREE,
    DimensionMismatchError,
    InputLimitError,
    MultiIndex,
    Polynomial,
    RationalLike,
    format_fields,
    key_layout,
    pack,
    reduced,
)


class GramConditionError(ArithmeticError):
    """Enrichment Gram system too ill-conditioned to trust."""


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


# Multi-indices whose lap entries _lowered keeps: the weak solution fills
# every level up to N + 2, and the 12-D solve of x1^8 has 6,187 terms.
LOWERED_CACHE_SIZE = 16384


@lru_cache(maxsize=LOWERED_CACHE_SIZE)
def _lowered(dim: int, gamma: int) -> tuple[tuple[int, int], ...]:
    """lap G_gamma as pairs (gamma - 2 step_j, 4 gamma_j (gamma_j - 1)),
    gamma_j >= 2, for the packed key gamma of ``dim`` fields.

    This holds for every weight scale lam and center: the lam factors of
    the scaled basis cancel against the chain rule.
    """
    return tuple(
        (gamma - 2 * step, 4 * g * (g - 1))
        for shift, step in key_layout(dim).axes
        if (g := gamma >> shift & MAX_DEGREE) >= 2
    )


@lru_cache(maxsize=4096)
def _level(dim: int, degree: int, parity: int) -> tuple[tuple[int, ...], tuple]:
    """(members, entries) of one level of the parity class ``parity`` (a
    key & PAR): the packed multi-indices parity + 2 q of total degree
    ``degree``, in int order, which is q's lex order, and each one's
    _lowered entries as (position in the level of degree - 2, int).
    Neither depends on a, lam or the center."""
    odd = parity.bit_count()
    half, rem = divmod(degree - odd, 2)
    if half < 0 or rem:
        return (), ()
    base = odd << key_layout(dim).degree_shift | parity  # the packed parity vector
    below, level = (tuple(base + 2 * pack(q) for q in _indices_of_degree(dim, h)) for h in (half - 1, half))
    pos = {beta: i for i, beta in enumerate(below)}
    return level, tuple(tuple((pos[beta], b) for beta, b in _lowered(dim, gamma)) for gamma in level)


def shifted_laplacian(expansion: HermiteExpansion, a: RationalLike) -> HermiteExpansion:
    """(lap + a) applied to an expansion, exactly, over the same weight.

    With a = p/q, every result coefficient is an int sum over q times the
    expansion's denominator, and the result is reduced once.
    """
    a = Fraction(a)
    p, q = a.numerator, a.denominator
    dim, nums = expansion.weight.dim, expansion.nums
    out = {gamma: p * num for gamma, num in nums.items()} if p else {}
    for gamma, num in nums.items():
        for beta, b in _lowered(dim, gamma):
            out[beta] = out.get(beta, 0) + q * b * num
    return HermiteExpansion._trusted(expansion.weight, *reduced(q * expansion.den, out))


# ----------------------------------------------------------------------
# kernel functions
# ----------------------------------------------------------------------


# Real and imaginary parts of i^m, by m mod 4, for the pairing of each kind.
_PHASES = {"exp": (1, 1, 1, 1), "cos": (1, 0, -1, 0), "sin": (0, 1, 0, -1)}


class _KernelFields(NamedTuple):
    kind: str  # "cos" | "sin" | "exp"
    wavevector: tuple[float, ...]


class KernelFunction(_KernelFields):
    """An explicit plane wave in ker(lap + a) living in the weighted space,
    an immutable record whose constructor checks the kind.

    The float wavevector has |k|^2 = a for trig kinds, -a for exp.
    """

    __slots__ = ()

    def __new__(cls, kind: str, wavevector: tuple[float, ...] = ()):
        if kind not in _PHASES:
            raise ValueError(f"unknown plane-wave kind {kind!r}")
        return super().__new__(cls, kind, wavevector)

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
        k_sq = sum(v * v for v in k) / 4.0
        try:
            total = math.fsum(
                phases[sum(alpha) % 4] * float(c) * math.prod(v**e for v, e in zip(k, alpha))
                for alpha, c in expansion.coeffs.items()
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


class SolveReport(NamedTuple):
    """Immutable record of the minimal-norm weak solution of (lap + a) u = f
    on V_N (N = ``truncation``) with norms, ratio, and bound verdict.

    Every field of a ``solve_min_norm`` report is exact or the float of an
    exact value: ``residual_exact`` is the exact weak residual check P_N
    (lap + a) u == f on V_N (the strong one at a = 0), ``ratio`` the exact
    ||u||^2_w / ||f||^2_w, and ``bound_satisfied`` ratio <= bound with zero
    tolerance.  The kernel and pre-enrichment fields are filled only by
    ``enrich``'s copy, which no report path makes: there ``ratio`` is None
    and the float ratio is the verdict's.
    """

    weight: WeightSpec
    a: Fraction
    truncation: int
    solution: HermiteExpansion
    kernel_part: tuple[tuple[KernelFunction, float], ...] = ()
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
        """The fields in order, ``kernel_part`` folded into the solution block."""
        fields = self._asdict()
        fields["solution"] = format_fields({
            "hermite": self.solution,
            "polynomial": self.solution_polynomial(),
            "kernel": [{"function": g.describe(), "coefficient": c} for g, c in fields.pop("kernel_part")],
        }, "solution.")
        return format_fields(fields)


# ----------------------------------------------------------------------
# core solvers
# ----------------------------------------------------------------------


# Most work a min-norm solve may take, counted from binomials over the
# levels the sweep walks, before any level is built.  A level's units are
# the lap entries of the level above it (dim times its members) times the
# towers, plus the dim ints of each member's multi-index on the level and
# the one above.  At a = 0 the sweep walks the data's (degree, parity)
# blocks, uncoupled, and each counts once.  At a != 0 it walks every level
# of each of the data's parity classes from its bottom to N, twice (the
# forward and the back pass), and a level counts j + 1 times, j the levels
# below it in its class: the sweep's ints grow by about one pivot per
# level, so a level counts 2 (j + 1) times in all.  A unit takes about
# 0.4 us at a = 0 and 0.1-1.2 us at a != 0 (2-core x86): x1^8 in 12-D
# counts 198,564 at a = 0 (0.9 s in a whole cold `gauss-rinv solve`) and
# 1,867,200 at a != 0; x^1000 in 1-D counts 754,506 at a = 1 (0.9 s), and
# x^80 in 2-D 3,159,296 (2.8 s); x1^12 in 12-D (2,283,972) and x1^2 in
# 1000-D (504,502,000) are refused at a = 0.  The data's conversion to
# Hermite coefficients is held to it too, before its first row is built: the
# ints of the cold rows 1..d of an axis, d (d + 3) / 2 for data of degree d.
# x^1000 counts 501,500 (0.9 s), x^1412 998,990 (2.7 s); x^1413 is refused.
MAX_MIN_NORM_WORK = 1_000_000


def _check_work(what: str, work: int, units: str) -> None:
    """InputLimitError naming what, its work and the limit, for work over MAX_MIN_NORM_WORK."""
    if work > MAX_MIN_NORM_WORK:
        raise InputLimitError(
            f"{what} needs {work} units of work ({units}), above MAX_MIN_NORM_WORK = {MAX_MIN_NORM_WORK}"
        )


def _nu(dim: int, m: int, k: int) -> int:
    """The tower spectrum, an int: L P^k g = nu(m, k) P^(k - 1) g
    for g in H_m = ker L of degree m (R. Howe, Trans. AMS 313, 1989; Stein & Weiss 1971, ch. IV)."""
    return 8 * k * (2 * m + 2 * k - 2 + dim)


def _towers(dim: int, degree: int, odd: int) -> range:
    """The k of the towers P^k H_(degree - 2k) on the degree level of a
    parity class with ``odd`` odd axes: k = 0..(degree - odd) / 2, and in
    1-D, where H_m = 0 for m >= 2, only the last."""
    top = (degree - odd) // 2
    return range(top + 1) if dim > 1 else range(top, top + 1)


@lru_cache(maxsize=1024)
def _lagrange_bases(dim: int, degree: int, odd: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Per tower of the level, in ``_towers`` order: (B_k, B_k(mu_k)) for
    B_k(x) = prod_(j != k) (x - mu_j), its int coefficients from x^0 up:
    prod_j (x - mu_j) divided by x - mu_k, synthetically.  They do not
    depend on a or lam."""
    mus = [_nu(dim, degree - 2 * k, k + 1) for k in _towers(dim, degree, odd)]
    full = [1]
    for mu in mus:
        full = [below - mu * c for c, below in zip(full + [0], [0] + full)]
    out = []
    for mu in mus:  # B_k from its top: b_(i - 1) = full_i + mu_k b_i
        basis = itertools.accumulate(reversed(full[1:]), lambda b, c: c + mu * b)
        out.append((tuple(basis)[::-1], math.prod(mu - other for other in mus if other != mu)))
    return tuple(out)


@lru_cache(maxsize=4096)
def _shifted_pivots(dim: int, c_num: int, c_den: int, degree: int, odd: int) -> tuple[Fraction | int, ...]:
    """The bottom-up pivots of the sweep on the degree level of a parity
    class at c = c_num / c_den = a^2 / lam^2, one per ``_towers`` k.

    On the tower P^k H_m, m = degree - 2k, the pivot is the rational
    s_k = nu(m, k + 1) + c - [k >= 1] c nu(m, k) / s'_(k - 1), s' the
    pivots of the level below: the Thomas pivots of the tower's normal
    operator, taken from its bottom, so they do not depend on N.  Called
    for the levels of a class from the bottom up, the recursion finds the
    level below cached.  At c = 0 they are the ints mu_k = nu(m, k + 1),
    the spectrum of L P, and the level below is not read.
    """
    if not c_num:
        return tuple(_nu(dim, degree - 2 * k, k + 1) for k in _towers(dim, degree, odd))
    c = Fraction(c_num, c_den)
    below = _shifted_pivots(dim, c_num, c_den, degree - 2, odd) if degree - 2 >= odd else ()
    first = _towers(dim, degree - 2, odd).start  # the k of below[0]
    return tuple(
        _nu(dim, degree - 2 * k, k + 1) + c - (c * _nu(dim, degree - 2 * k, k) / below[k - 1 - first] if k else 0)
        for k in _towers(dim, degree, odd)
    )


@lru_cache(maxsize=4096)
def _shifted_inverse(dim: int, c_num: int, c_den: int, degree: int, odd: int) -> tuple[tuple[int, ...], int]:
    """(Q, D) with q = Q / D, q(mu_k) = 1 / s_k for the ``_shifted_pivots``
    s_k: Q is the int sum of the ``_lagrange_bases`` B_k times 1 / (s_k
    B_k(mu_k)) over their lcm D, so the pivot's inverse is Q(L P) / D, in
    lowest terms with D > 0.  It is built on ints."""
    bases = _lagrange_bases(dim, degree, odd)
    pivots = _shifted_pivots(dim, c_num, c_den, degree, odd)
    # 1 / (s_k B_k(mu_k)) as an int numerator over an int of either sign
    weights = [(s.denominator, s.numerator * at_mu) for s, (_, at_mu) in zip(pivots, bases)]
    den = math.lcm(*(w for _, w in weights))
    q = [0] * len(bases)
    for (num, w), (basis, _) in zip(weights, bases):
        scale = num * (den // w)
        for i, b in enumerate(basis):
            q[i] += scale * b
    g = math.gcd(den, *q)
    return tuple(v // g for v in q), den // g


def _horner(coeffs: tuple[int, ...], rhs: list[int], entries: tuple) -> list[int]:
    """Q(L P) rhs on one level of a parity class, on int numerators: per
    Horner step one gather (P) and one scatter (L) over the ``entries`` of
    the level above."""
    acc = [coeffs[-1] * v for v in rhs]
    for c in reversed(coeffs[:-1]):
        nxt = [c * v for v in rhs]
        for column in entries:
            y = 0
            for i, _ in column:
                y += acc[i]
            if y:
                for i, b in column:
                    nxt[i] += b * y
        acc = nxt
    return acc


def _raised(v: list[int], entries: tuple) -> list[int]:
    """P v on the level whose ``_level`` entries are given: (P v)_gamma is
    the sum of v over gamma's lowered positions."""
    out = []
    for column in entries:
        y = 0
        for i, _ in column:
            y += v[i]
        out.append(y)
    return out


def _over_gcd(nums: list[int], den: int) -> tuple[list[int], int]:
    """nums / den, den > 0, with their gcd divided out."""
    g = math.gcd(den, *nums)
    return ([v // g for v in nums], den // g) if g > 1 else (nums, den)


@lru_cache(maxsize=4096)
def _level_work(dim: int, degree: int, odd: int) -> int:
    """MAX_MIN_NORM_WORK units of one Horner on a level (see there)."""
    half = (degree - odd) // 2
    rows, cols = math.comb(half + dim - 1, dim - 1), math.comb(half + dim, dim - 1)
    return dim * (rows * (half + 1 if dim > 1 else 1) + rows + cols)


def _min_norm_coeffs(f: HermiteExpansion, a: Fraction = Fraction(0), top: int | None = None) -> HermiteExpansion:
    """Coefficients of the minimal-weighted-norm u in V_(top + 2) with
    P_top (lap + a) u = f, for top >= deg f (deg f by default).

    With v = lam^2 w, u = T* w = (P + alpha) v for alpha = a / lam^2, and
    P_top (L + a)(P + alpha) v = f.  Within a parity class this is block
    tridiagonal over the levels d: L P + c on the diagonal (c = a alpha),
    alpha L above and a P below.  One block Thomas sweep solves it for
    every a, on int numerators: forward, from the bottom up, y_d = S_d^-1
    (f_d - a P y_(d - 2)); back, from the top down, v_d = y_d - alpha
    S_d^-1 L v_(d + 2) and u's level d + 2, P v_d + alpha v_(d + 2); and
    u = alpha v on the bottom level.  The pivot inverses S_d^-1 = Q_d(L P)
    / D_d of ``_shifted_inverse`` are applied by ``_horner``.  At a != 0
    the sweep walks every level of each of f's parity classes from its
    bottom to top.  At a = 0 the couplings a P and alpha L vanish and S_d =
    L P: it walks only f's own (degree, parity) blocks, uncoupled, with no
    back step, and u = P (L P)^-1 f, the same for every weight and every
    top.  Each level of u is put over one denominator with their gcd
    divided out, as is each y_d and v_d that feeds another level, and u,
    in (degree, parity) order, over the lcm of those.  Work over
    MAX_MIN_NORM_WORK raises InputLimitError before any level is built.
    """
    dim = f.weight.dim
    top = f.degree() if top is None else top
    layout = key_layout(dim)
    degree_shift, par = layout.degree_shift, layout.parity
    blocks: dict[tuple[int, int], dict[int, int]] = {}  # (degree, parity class) -> its terms
    for gamma, num in f.nums.items():
        blocks.setdefault((gamma >> degree_shift, gamma & par), {})[gamma] = num
    p, q, lam = a.numerator, a.denominator, f.weight.lam
    alpha, c = (a / lam**2, a * a / lam**2) if p else (a, a)  # alpha = a / lam^2, c = a alpha
    sp, sq, cp, cq = alpha.numerator, alpha.denominator, c.numerator, c.denominator
    # the chains of (degree, parity) levels the sweep walks, coupled within a chain: each
    # parity class of f from its bottom to top, or at a = 0, uncoupled, f's own blocks
    if p:
        classes = {parity for _, parity in blocks}
        plan = [[(d, parity) for d in range(parity.bit_count(), top + 1, 2)] for parity in classes]
    else:
        plan = [sorted(blocks)]
    work = 0
    for chain in plan:
        for j, (d, parity) in enumerate(chain):
            work += (2 * (j + 1) if p else 1) * _level_work(dim, d, parity.bit_count())
    _check_work(f"the min-norm solve in {dim}-D", work, f"lap entries times towers, plus the {dim}-entry multi-indices")
    parts: list[tuple[int, int, tuple[int, ...], list[int], int]] = []  # (degree, parity, members, nums, den)
    for chain in plan:
        ys: list[tuple[list[int], int]] = []
        for d, parity in chain:  # forward: y_d = S_d^-1 (f_d - a P y_(d - 2))
            members, below = _level(dim, d, parity)
            coeffs, den = _shifted_inverse(dim, cp, cq, d, parity.bit_count())
            block = blocks.get((d, parity), {})
            rhs = [block.get(gamma, 0) for gamma in members]
            if p and ys:
                y, e = ys[-1]
                rhs = [q * e * r - p * x for r, x in zip(rhs, _raised(y, below))]
                den *= q * e
            y = _horner(coeffs, rhs, _level(dim, d + 2, parity)[1])
            ys.append(_over_gcd(y, den) if p else (y, den))  # at a = 0 only its part of u, below, takes a gcd
        v_up = None  # v_(d + 2) over g_up, at a != 0
        for (d, parity), (v, g) in zip(reversed(chain), reversed(ys)):  # back: v_d = y_d - alpha S_d^-1 L v_(d + 2)
            above, entries = _level(dim, d + 2, parity)
            if v_up is None:
                nums, den = _raised(v, entries), g
            else:
                coeffs, den = _shifted_inverse(dim, cp, cq, d, parity.bit_count())
                lowered = [0] * len(v)
                for column, x in zip(entries, v_up):
                    if x:
                        for i, b in column:
                            lowered[i] += b * x
                x = _horner(coeffs, lowered, entries)
                v, g = _over_gcd([sq * den * g_up * vi - sp * g * xi for vi, xi in zip(v, x)], sq * den * g_up * g)
                nums, den = [sq * g_up * x + sp * g * y for x, y in zip(_raised(v, entries), v_up)], sq * g * g_up
            parts.append((d + 2, parity, above, *_over_gcd(nums, den)))  # u = P v_d + alpha v_(d + 2) there
            if p:
                v_up, g_up = v, g
        if p:  # and u = alpha v on the bottom level
            d, parity = chain[0]
            parts.append((d, parity, _level(dim, d, parity)[0], *_over_gcd([sp * x for x in v], sq * g)))
    parts.sort()  # in (degree, parity) order: no two parts share a level
    common = math.lcm(*(den for *_, den in parts))
    u = {gamma: num * (common // den) for _, _, members, nums, den in parts for gamma, num in zip(members, nums)}
    return HermiteExpansion._trusted(f.weight, *reduced(f.den * common, u))


def exact_solve(
    f: HermiteExpansion, a: Fraction, truncation: int | None = None
) -> tuple[HermiteExpansion, bool, GaussianScalar, GaussianScalar, Fraction]:
    """The exact core of every solve at truncation N (deg f, 0 for zero
    data, by default; ValueError below 0 or deg f): u = _min_norm_coeffs(f,
    a, N), the exact weak residual check P_N shifted_laplacian(u, a) == f
    on V_N, ||f||^2_w, ||u||^2_w and their ratio ||u||^2_w / ||f||^2_w (0
    for zero data).  At a = 0, (lap) u has degree deg f, so the weak
    residual is the strong one."""
    degree = f.degree()
    top = max(degree, 0) if truncation is None else truncation
    if top < 0:
        raise ValueError(f"truncation must be >= 0, got {top}")
    if top < degree:
        raise ValueError(f"truncation {top} is below the degree {degree} of the data")
    u = _min_norm_coeffs(f, a, top)
    image = shifted_laplacian(u, a)
    if a:  # P_N, the keys below degree top + 1; at a = 0 the image has degree deg f
        limit = (top + 1) << key_layout(f.weight.dim).degree_shift
        kept = {gamma: num for gamma, num in image.nums.items() if gamma < limit}
        image = HermiteExpansion._trusted(image.weight, *reduced(image.den, kept))
    norm_f, norm_u = f.norm_sq(), u.norm_sq()
    ratio = Fraction(0) if norm_f.is_zero() else norm_u.ratio(norm_f)
    return u, image == f, norm_f, norm_u, ratio


def solve_min_norm(
    f: Polynomial,
    a: RationalLike = 0,
    weight: WeightSpec | None = None,
    truncation: int | None = None,
) -> SolveReport:
    """The minimal-weighted-norm weak solution of (lap + a) u = f on V_N,
    N = ``truncation`` (deg f by default, 0 for zero data; ValueError
    below deg f): the u of least ||u||_w in V_(N+2) with P_N (lap + a) u
    = f.  Its ratio ||u||^2/||f||^2 is at most 1/(8 n lam^2) for every a
    and N, with equality exactly at nonzero constant f and a = 0; at a != 0
    it does not decrease as N grows.  At a = 0 the solution is the same for
    every N >= deg f and solves lap u = f exactly.  ``residual_exact`` is
    the exact weak residual check P_N shifted_laplacian(u, a) == f on
    Hermite coefficients, ``ratio`` the exact ratio and ``bound_satisfied``
    ratio <= bound with zero tolerance.  Data whose conversion counts over
    MAX_MIN_NORM_WORK (see there) raises InputLimitError before any row is built.
    """
    a = Fraction(a)
    w = weight if weight is not None else WeightSpec.unit(f.dim)
    if f.dim != w.dim:
        raise ValueError(f"dimension mismatch: {f.dim} vs {w.dim}")
    degree = max(f.total_degree(), 0)
    top = degree if truncation is None else truncation
    _check_work(f"the data's conversion to Hermite coefficients in {f.dim}-D", degree * (degree + 3) // 2, "row ints")
    u_exp, residual_exact, norm_f, norm_u, ratio = exact_solve(monomial_to_hermite(f, w), a, top)
    bound = Fraction(1, 8 * w.dim * w.lam**2)
    return SolveReport(
        weight=w,
        a=a,
        truncation=top,
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


# The name perfbench's solve workload calls for a != 0; the same solve.
apply_right_inverse = solve_min_norm


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
    import numpy as np

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
    import numpy as np

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
    return report._replace(
        kernel_part=tuple((g, -float(b)) for g, b in zip(basis, beta)),
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


# ----------------------------------------------------------------------
# operator norm of the truncated right inverse, tower by tower
# ----------------------------------------------------------------------

# Most bisection passes of operator_norm: the floats in [0, M_m[0, 0]] have
# fewer than 2^63 bit patterns.  MAX_TOWER_ENTRIES counts K + 1 per tower
# times the passes: a = 0 stops at degree 7,999,999 in 1-D and 5,654 from
# 2-D on, a != 0 at 126,983 and 710 (0.4 s each on a 2-core machine).
BISECTION_PASSES = 63
MAX_TOWER_ENTRIES = 8_000_000


def _tower_entries(dim: int, degree: int) -> int:
    """Sum of K + 1 over the towers: 1..t steps, t = degree // 2 + 1 or (degree + 1) // 2 by m's parity; 1-D only t."""
    tops = (degree // 2 + 1, (degree + 1) // 2)
    return sum(tops) if dim == 1 else sum(t * (t + 1) // 2 for t in tops)


def _tower_normal(dim: int, m: int, top: int, c: float, unit: float) -> list[tuple[float, float]]:
    """M_m = B_m B_m^T on the steps k <= top of P^k H_m in units of unit^2, per row k
    its diagonal c + nu(m, k + 1) and squared off-diagonal c nu(m, k), c = a^2."""
    nus = [_nu(dim, m, k) / unit / unit for k in range(top + 2)]
    return [(c + nus[k + 1], c * nus[k]) for k in range(top + 1)]


def _positive_definite(normals: list[list[tuple[float, float]]], x: float) -> bool:
    """Whether the Sturm count of every M_m - x I, its negative LDL^T pivots d_k =
    diag_k - x - off_k / d_(k - 1), is 0; at x = 0 the d_k are ``_shifted_pivots``."""
    for tower in normals:
        d = 1.0
        for diag, off in tower:
            d = diag - x - off / d
            if d <= 0:
                return False
    return True


def _float(bits: int) -> float:
    """The float whose IEEE 754 bit pattern is the int ``bits``."""
    return struct.unpack("<d", bits.to_bytes(8, "little"))[0]


def operator_norm(dim: int, a: RationalLike = 0, degree: int = 8) -> float:
    """1/sigma_min of P_degree (lap + a) from V_(degree + 2) onto V_degree in
    orthonormal Hermite coordinates: the norm of the min-norm right inverse
    every solve at truncation N = degree applies.  On each tower P^k H_m, k
    <= K = (degree - m) // 2, m <= degree (m <= 1 in 1-D), it is the (K +
    1) x (K + 2) bidiagonal B_m, a at (k, k) and sqrt(nu(m, k + 1)) at (k,
    k + 1), so the norm is the largest 1/sqrt(lambda_min) of the
    tridiagonal M_m = B_m B_m^T, which reads a^2 only: a and -a agree.
    At a = 0, or an a whose square underflows, M_m = diag(nu(m, k + 1)) and
    the norm is 1/sqrt(min nu(m, 1)) = 1/sqrt(8 dim).  Otherwise the least
    lambda_min is bisected on the Sturm counts of ``_positive_definite``
    (Barth, Martin & Wilkinson 1967; Golub & Van Loan 8.4.1) over float bit
    patterns to adjacent floats lo < lambda_min <= hi, read at hi: within
    5e-16 relative of the SVD of the ``_lowered`` blocks in the tests.  For
    |a| > 1 the towers are in units of a^2, which may exceed the floats.
    InputLimitError over MAX_TOWER_ENTRIES, counted before any tower is
    walked, or for an |a| or nu(degree, degree + 1) above the float range.
    """
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    shift = abs(input_float(Fraction(a), "a"))
    unit = max(1.0, shift)
    c = (shift / unit) ** 2  # a^2 in units of unit^2
    entries = _tower_entries(dim, degree) * (BISECTION_PASSES if c else 1)
    if entries > MAX_TOWER_ENTRIES:
        raise InputLimitError(
            f"opnorm: degree {degree} needs {entries} tower entries, above MAX_TOWER_ENTRIES = {MAX_TOWER_ENTRIES}"
        )
    input_float(Fraction(_nu(dim, degree, degree + 1)), "nu(degree, degree + 1)")  # the largest nu read
    towers = [(m, (degree - m) // 2) for m in range(min(degree, 1 if dim == 1 else degree) + 1)]
    if not c:
        return 1.0 / math.sqrt(min(_nu(dim, m, 1) for m, _ in towers))
    normals = [_tower_normal(dim, m, top, c, unit) for m, top in towers]
    lo, hi = 0, int.from_bytes(struct.pack("<d", min(t[0][0] for t in normals)), "little")  # >= lambda_min
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _positive_definite(normals, _float(mid)) else (lo, mid)
    return 1.0 / math.sqrt(_float(hi)) / unit

"""Formal adjoint of the shifted Laplacian and its commutator identities.

With respect to <f,g>_w = integral f g e^{-w} dx the Laplacian has the
formal adjoint

    adj(psi) = lap(psi) + psi*|grad w|^2 - psi*lap(w) - 2*grad(psi).grad(w),

and (lap + a) has adjoint adj + a.  ``formal_adjoint`` applies it as one
sparse stencil pass,

    adj(psi) + a psi = lap(psi) + V psi - 2 sum_j (d_j w) d_j(psi) + a psi,
    V = |grad w|^2 - lap(w),

with V and the d_j w of each weight polynomial kept, as ints over one
denominator, in a small cache keyed on the weight and the denominator of
a.  The commutator lap(adj(psi)) -
adj(lap(psi)) controls solvability bounds: paired against psi under the
radial weight |x|^2 it equals 8n||psi||^2 + 8||grad psi||^2, which makes
||(lap+a)* psi||^2 >= 8n||psi||^2 for every a.  Everything here is
polynomial-exact; the integral checks run over weights lam*|x-x0|^2, whose
Gaussian moments give every weighted integral of a polynomial in closed
form, and general polynomial weights get pointwise (polynomial equality)
checks only.

Test functions are polynomials rather than compactly supported functions;
the Gaussian factor decays fast enough that every integration by parts
used below is boundary-term free, and the checks confirm the resulting
identities exactly.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .hermite import GaussianScalar, WeightSpec, inner_product, norm_sq
from .polynomials import (
    MAX_DEGREE,
    Polynomial,
    RationalLike,
    _as_fraction,
    check_degree,
    coordinate_vector,
    dot,
    key_layout,
    random_polynomial,
    reduced,
)

COMMUTATOR_METHODS = ("direct", "expanded", "reduced")


# Weight polynomials whose stencils are kept: 8 holds the radial weights
# of n = 1-3 and the last few corpus weights, each of which a case applies
# the adjoint to up to three times.  The stencil cache holds each weight at
# both shift denominators of the corpus, q in {1, 2}; the expanded
# commutator route keeps the derivatives of as many weights.
STENCIL_CACHE_SIZE = 8


@lru_cache(maxsize=2 * STENCIL_CACHE_SIZE)
def _weight_stencil(w: Polynomial, q: int) -> tuple[int, tuple, tuple, tuple, int]:
    """(S, L, V, G, R): the weight's part of the adjoint of lap + p/q as
    ints over one denominator S = D q, keyed on (w, q), ints both: hashing
    a Fraction shift costs about 1 us.  L holds (shift_j, 2 step_j) per
    axis, lap psi entering times S; V holds the (key, num) pairs of q
    (|grad w|^2 - lap w); G holds (key - step_j, shift_j, num) for every
    term key of -2 q d_j w, the key lowered by step_j so that adding it to
    the key of a psi term with e_j >= 1 gives the key of that term's d_j
    psi times this term (an intermediate field may borrow; the sum does
    not).  R bounds the degree the stencil adds, 2 deg w - 2 or 0.

    Built from w's numerators in one pass rather than by the ring
    operations: each scaled or off-center corpus case brings a new weight,
    and the ring operations took 55 us a build against 20 us here.
    """
    d = w.den
    axes = key_layout(w.dim).axes
    grads: list[dict[int, int]] = [{} for _ in axes]  # d_j w over d
    lap: dict[int, int] = {}  # lap w over d
    for key, num in w.nums.items():
        for (shift, step), grad in zip(axes, grads):
            k = key >> shift & MAX_DEGREE
            if k:
                grad[key - step] = num * k
            if k >= 2:
                lowered = key - 2 * step
                lap[lowered] = lap.get(lowered, 0) + num * k * (k - 1)
    v = {key: -d * num for key, num in lap.items()}
    for g in grads:
        for ka, na in g.items():
            for kb, nb in g.items():
                key = ka + kb
                v[key] = v.get(key, 0) + na * nb
    g_pairs = [
        (key - step, shift, num * d)
        for (shift, step), g in zip(axes, grads)
        for key, num in g.items()
    ]
    common = math.gcd(d * d, *v.values(), *(num for _, _, num in g_pairs))
    return (
        d * d // common * q,
        tuple((shift, 2 * step) for shift, step in axes),
        tuple((key, num // common * q) for key, num in v.items() if num),
        tuple((key, shift, -2 * q * (num // common)) for key, shift, num in g_pairs),
        max(2 * w.total_degree() - 2, 0),
    )


def formal_adjoint(psi: Polynomial, w: Polynomial, a: RationalLike = 0) -> Polynomial:
    """Adjoint of lap + a under the weight polynomial w, applied to psi.

    One pass over the terms of psi = P / e with the stencil of w at a =
    p / q, cached on (w, q): every contribution of lap psi + V psi - 2
    sum_j (d_j w)(d_j psi) + a psi is added as an int over e D q, and the
    sum is reduced once.  For the radial weight |x|^2 and a = 0 this is
    lap(psi) + 4|x|^2 psi - 2n psi - 4 x.grad(psi).
    """
    if psi.dim != w.dim:
        raise ValueError(f"dimension mismatch: {psi.dim} vs {w.dim}")
    a = _as_fraction(a)
    p, q = a.numerator, a.denominator
    lap_scale, lap_axes, v_pairs, g_pairs, rise = _weight_stencil(w, q)
    check_degree(psi.total_degree() + rise, "the adjoint's image")
    a_scale = lap_scale // q * p
    out: dict[int, int] = {}
    get = out.get
    for key, num in psi.nums.items():
        for shift, step in lap_axes:
            k = key >> shift & MAX_DEGREE
            if k >= 2:
                lowered = key - step
                out[lowered] = get(lowered, 0) + num * k * (k - 1) * lap_scale
        for off, c in v_pairs:
            image = key + off
            out[image] = get(image, 0) + num * c
        for off, shift, c in g_pairs:
            k = key >> shift & MAX_DEGREE
            if k:
                image = key + off
                out[image] = get(image, 0) + num * k * c
        if a_scale:
            out[key] = get(key, 0) + num * a_scale
    return Polynomial._trusted(psi.dim, *reduced(psi.den * lap_scale, out))


@lru_cache(maxsize=STENCIL_CACHE_SIZE)
def _weight_derivatives(w: Polynomial) -> tuple:
    """(grad w, lap |grad w|^2, grad |grad w|^2, lap lap w, grad lap w): the
    factors of the expanded commutator that depend on w alone."""
    grad_w = w.gradient()
    grad_sq = dot(grad_w, grad_w)
    lap_w = w.laplacian()
    return grad_w, grad_sq.laplacian(), grad_sq.gradient(), lap_w.laplacian(), lap_w.gradient()


def commutator(psi: Polynomial, w: Polynomial, method: str = "direct") -> Polynomial:
    """lap(adj(psi)) - adj(lap(psi)) under the weight polynomial w, by one of
    three independent routes.  A shift a commutes with lap, so this is also
    the commutator of lap + a with its adjoint.

    direct    apply the two operator compositions literally;
    expanded  the general-weight expansion
              psi*lap(|grad w|^2) + 2 grad(psi).grad(|grad w|^2)
              - psi*lap(lap w) - 2 grad(psi).grad(lap w)
              - 2 lap(grad(psi).grad(w)) + 2 grad(lap psi).grad(w);
    reduced   radial weight |x|^2 only: 8n psi + 16 grad(psi).x - 8 lap(psi).

    All applicable routes return the identical exact polynomial.  Only
    ``direct`` goes through the stencil of ``formal_adjoint`` (looked up on
    the module, so a replaced adjoint is the one applied); ``expanded`` and
    ``reduced`` run on the generic ring operations, ``expanded`` reading
    the factors that depend on w alone from a small per-weight cache.
    """
    if method not in COMMUTATOR_METHODS:
        raise ValueError(f"unknown commutator method {method!r}")
    if psi.dim != w.dim:
        raise ValueError(f"dimension mismatch: {psi.dim} vs {w.dim}")
    if method == "direct":
        return formal_adjoint(psi, w).laplacian() - formal_adjoint(psi.laplacian(), w)
    if method == "expanded":
        grad_w, lap_grad_sq, grad_grad_sq, lap_lap_w, grad_lap_w = _weight_derivatives(w)
        grad_psi = psi.gradient()
        return (
            psi * lap_grad_sq
            + dot(grad_psi, grad_grad_sq).scale(2)
            - psi * lap_lap_w
            - dot(grad_psi, grad_lap_w).scale(2)
            - dot(grad_psi, grad_w).laplacian().scale(2)
            + dot(psi.laplacian().gradient(), grad_w).scale(2)
        )
    # reduced
    n = w.dim
    if w != Polynomial.norm_squared(n):
        raise ValueError("reduced commutator form requires the radial weight |x|^2")
    x = coordinate_vector(n)
    return (
        psi.scale(8 * n)
        + dot(psi.gradient(), x).scale(16)
        - psi.laplacian().scale(8)
    )


# ----------------------------------------------------------------------
# identity checkers (exact)
# ----------------------------------------------------------------------


class CheckReport(NamedTuple):
    """Outcome of one exact identity/inequality check, an immutable record.

    ``passed`` compares lhs with rhs by the relation the checker states.
    The corpus also reports its pointwise commutator routes this way, with
    polynomial sides.
    """

    lhs: GaussianScalar | Polynomial
    rhs: GaussianScalar | Polynomial
    passed: bool


def _adjoint_norm_sq(psi: Polynomial, a: RationalLike, w: WeightSpec, w_poly: Polynomial) -> GaussianScalar:
    """||(lap+a)* psi||^2_w, with w_poly the weight as a polynomial."""
    return norm_sq(formal_adjoint(psi, w_poly, a), w)


def _commutator_pairing(psi: Polynomial, w: WeightSpec, w_poly: Polynomial) -> GaussianScalar:
    """<psi, commutator(psi)>_w, with w_poly the weight as a polynomial."""
    return inner_product(psi, commutator(psi, w_poly, "direct"), w)


def check_commutator_pairing(psi: Polynomial) -> CheckReport:
    """<psi, commutator(psi)>_w = 8n||psi||^2_w + 8||grad psi||^2_w,
    radial weight |x|^2."""
    n = psi.dim
    w = WeightSpec.unit(n)
    lhs = _commutator_pairing(psi, w, Polynomial.norm_squared(n))
    rhs = norm_sq(psi, w).scale(8 * n)
    for j in range(n):
        rhs = rhs + norm_sq(psi.partial(j), w).scale(8)
    return CheckReport(lhs, rhs, lhs == rhs)


def check_adjoint_norm_split(
    psi: Polynomial, a: RationalLike = 0, weight: WeightSpec | None = None
) -> CheckReport:
    """||(lap+a)* psi||^2_w = ||(lap+a) psi||^2_w + <psi, commutator(psi)>_w.

    Holds for any C^4 weight; evaluated exactly over weights lam*|x-x0|^2.
    """
    w = weight if weight is not None else WeightSpec.unit(psi.dim)
    w_poly = w.polynomial()
    lhs = _adjoint_norm_sq(psi, a, w, w_poly)
    rhs = norm_sq(psi.laplacian() + psi.scale(a), w) + _commutator_pairing(psi, w, w_poly)
    return CheckReport(lhs, rhs, lhs == rhs)


def check_coercivity(psi: Polynomial, a: RationalLike = 0) -> CheckReport:
    """||(lap+a)* psi||^2_w >= 8n ||psi||^2_w under the radial weight,
    uniformly in a."""
    n = psi.dim
    w = WeightSpec.unit(n)
    lhs = _adjoint_norm_sq(psi, a, w, Polynomial.norm_squared(n))
    bound = norm_sq(psi, w).scale(8 * n)
    return CheckReport(lhs, bound, lhs >= bound)


def check_duality(f: Polynomial, psi: Polynomial, a: RationalLike = 0) -> CheckReport:
    """|<f,psi>_w|^2 <= (||f||^2_w / 8n) ||(lap+a)* psi||^2_w, radial weight.

    The necessity direction of the solvability criterion, with the sharp
    constant; evaluated exactly (both sides carry unit (pi)^n).
    """
    if f.dim != psi.dim:
        raise ValueError(f"dimension mismatch: {f.dim} vs {psi.dim}")
    n = f.dim
    w = WeightSpec.unit(n)
    ip = inner_product(f, psi, w)
    lhs = ip * ip
    rhs = norm_sq(f, w).scale(Fraction(1, 8 * n)) * _adjoint_norm_sq(psi, a, w, Polynomial.norm_squared(n))
    return CheckReport(lhs, rhs, lhs <= rhs)


def check_adjointness(psi: Polynomial, u: Polynomial, weight: WeightSpec | None = None) -> CheckReport:
    """<psi, lap u>_w = <adj(psi), u>_w for weights lam*|x-x0|^2."""
    if psi.dim != u.dim:
        raise ValueError(f"dimension mismatch: {psi.dim} vs {u.dim}")
    w = weight if weight is not None else WeightSpec.unit(psi.dim)
    lhs = inner_product(psi, u.laplacian(), w)
    rhs = inner_product(formal_adjoint(psi, w.polynomial()), u, w)
    return CheckReport(lhs, rhs, lhs == rhs)


# ----------------------------------------------------------------------
# seeded verification corpus
# ----------------------------------------------------------------------

SHIFT_CYCLE: tuple[Fraction, ...] = (
    Fraction(-2),
    Fraction(-1),
    Fraction(0),
    Fraction(1, 2),
    Fraction(1),
    Fraction(3),
)

CORPUS_IDENTITIES = (
    "commutator-three-way",
    "commutator-pairing",
    "adjoint-norm-split",
    "coercivity",
    "duality",
    "adjointness",
)


def _corpus_weights(rng: random.Random) -> WeightSpec:
    lam = rng.choice([Fraction(1), Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3)])
    dim = rng.choice([1, 2, 3])
    center = tuple(
        Fraction(rng.randint(-2, 2), rng.randint(1, 3)) if lam != 1 or rng.random() < 0.5 else Fraction(0)
        for _ in range(dim)
    )
    return WeightSpec(dim=dim, lam=lam, center=center)


def _draw(rng: random.Random, dim: int) -> Polynomial:
    """One corpus polynomial: degree <= 6, at most 8 terms."""
    return random_polynomial(rng, dim, max_degree=6, max_terms=8)


def check_identity_case(identity: str, seed: int) -> CheckReport:
    """The check of one seeded corpus case; the seed fully determines the
    inputs, every draw after psi's coming from the same rng."""
    rng = random.Random(seed)
    psi = _draw(rng, rng.choice([1, 2, 3]))
    a = SHIFT_CYCLE[seed % len(SHIFT_CYCLE)]
    if identity == "commutator-three-way":
        radial = Polynomial.norm_squared(psi.dim)
        direct, expanded, reduced = (commutator(psi, radial, m) for m in COMMUTATOR_METHODS)
        return CheckReport(direct, expanded, direct == expanded == reduced)
    if identity == "weight-expansion":
        # general polynomial weight: direct vs expanded route, pointwise
        weight = random_polynomial(rng, psi.dim, max_degree=4, max_terms=6, nonzero=True)
        direct, expanded = commutator(psi, weight, "direct"), commutator(psi, weight, "expanded")
        return CheckReport(direct, expanded, direct == expanded)
    if identity == "commutator-pairing":
        return check_commutator_pairing(psi)
    if identity == "adjoint-norm-split":
        w = _corpus_weights(rng)
        return check_adjoint_norm_split(_draw(rng, w.dim), a, w)
    if identity == "coercivity":
        return check_coercivity(psi, a)
    if identity == "duality":
        return check_duality(_draw(rng, psi.dim), psi, a)
    if identity == "adjointness":
        w = _corpus_weights(rng)
        return check_adjointness(_draw(rng, w.dim), _draw(rng, w.dim), w)
    raise ValueError(f"unknown identity {identity!r}")


def identity_jobs(seed: int, cases_per_identity: int, weight_cases: int) -> list[tuple[str, int]]:
    """(identity, case seed) of every case of the corpus at a master seed:
    every identity over fresh seeds derived deterministically from it."""
    jobs: list[tuple[str, int]] = []
    for offset, identity in enumerate(CORPUS_IDENTITIES):
        base = seed * 1_000_003 + offset * 10_007
        jobs.extend((identity, base + i) for i in range(cases_per_identity))
    base = seed * 1_000_003 + len(CORPUS_IDENTITIES) * 10_007
    jobs.extend(("weight-expansion", base + i) for i in range(weight_cases))
    return jobs


def run_identity_case(identity: str, seed: int) -> dict:
    """Run one seeded corpus case, its id ``identity-seed``.

    ``lhs`` and ``rhs`` are the str() of the two sides: polynomials for the
    commutator routes, exact scalars otherwise.
    """
    report = check_identity_case(identity, seed)
    return {
        "id": f"{identity}-{seed}",
        "seed": seed,
        "identity": identity,
        "lhs": str(report.lhs),
        "rhs": str(report.rhs),
        "pass": bool(report.passed),
    }


def run_identity_battery(
    seed: int = 42,
    cases_per_identity: int = 200,
    weight_cases: int = 50,
) -> list[dict]:
    """The full seeded identity corpus, every case of ``identity_jobs``."""
    return [run_identity_case(identity, s) for identity, s in identity_jobs(seed, cases_per_identity, weight_cases)]

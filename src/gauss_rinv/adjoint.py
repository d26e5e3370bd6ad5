"""Formal adjoint of the shifted Laplacian and its commutator identities.

With respect to <f,g>_w = integral f g e^{-w} dx the Laplacian has the
formal adjoint

    adj(psi) = lap(psi) + psi*|grad w|^2 - psi*lap(w) - 2*grad(psi).grad(w),

and (lap + a) has adjoint adj + a.  The commutator lap(adj(psi)) -
adj(lap(psi)) controls solvability bounds: paired against psi under the
radial weight |x|^2 it equals 8n||psi||^2 + 8||grad psi||^2, which makes
||(lap+a)* psi||^2 >= 8n||psi||^2 for every a.  Everything here is
polynomial-exact; the integral checks run over weights lam*|x-x0|^2 where
closed-form Hermite evaluation exists, and general polynomial weights get
pointwise (polynomial equality) checks only.

Test functions are polynomials rather than compactly supported functions;
the Gaussian factor decays fast enough that every integration by parts
used below is boundary-term free, and the checks confirm the resulting
identities exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .hermite import GaussianScalar, WeightSpec, inner_product, norm_sq
from .polynomials import Polynomial, RationalLike, dot, coordinate_vector, random_polynomial

COMMUTATOR_METHODS = ("direct", "expanded", "reduced")


def formal_adjoint(psi: Polynomial, w: Polynomial, a: RationalLike = 0) -> Polynomial:
    """Adjoint of lap + a under the weight polynomial w, applied to psi.

    For the radial weight |x|^2 and a = 0 this reduces to
    lap(psi) + 4|x|^2 psi - 2n psi - 4 x.grad(psi).
    """
    if psi.dim != w.dim:
        raise ValueError(f"dimension mismatch: {psi.dim} vs {w.dim}")
    grad_w = w.gradient()
    grad_psi = psi.gradient()
    out = (
        psi.laplacian()
        + psi * dot(grad_w, grad_w)
        - psi * w.laplacian()
        - dot(grad_psi, grad_w).scale(2)
    )
    if a:
        out = out + psi.scale(a)
    return out


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

    All applicable routes return the identical exact polynomial.
    """
    if method not in COMMUTATOR_METHODS:
        raise ValueError(f"unknown commutator method {method!r}")
    if psi.dim != w.dim:
        raise ValueError(f"dimension mismatch: {psi.dim} vs {w.dim}")
    if method == "direct":
        return formal_adjoint(psi, w).laplacian() - formal_adjoint(psi.laplacian(), w)
    if method == "expanded":
        grad_w = w.gradient()
        grad_sq = dot(grad_w, grad_w)
        lap_w = w.laplacian()
        grad_psi = psi.gradient()
        return (
            psi * grad_sq.laplacian()
            + dot(grad_psi, grad_sq.gradient()).scale(2)
            - psi * lap_w.laplacian()
            - dot(grad_psi, lap_w.gradient()).scale(2)
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


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one exact identity/inequality check.

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


def _check_case(identity: str, rng: random.Random, psi: Polynomial, a: Fraction) -> CheckReport:
    """One case's check; every further draw from rng comes after psi's."""
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


def run_identity_case(identity: str, seed: int) -> dict:
    """Run one seeded corpus case; the seed fully determines the inputs.

    ``lhs`` and ``rhs`` are the str() of the two sides: polynomials for the
    commutator routes, exact scalars otherwise.
    """
    rng = random.Random(seed)
    dim = rng.choice([1, 2, 3])
    psi = _draw(rng, dim)
    report = _check_case(identity, rng, psi, SHIFT_CYCLE[seed % len(SHIFT_CYCLE)])
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
    """The full seeded identity corpus: every identity over fresh seeds.

    Case seeds derive deterministically from the master seed.
    """
    jobs: list[tuple[str, int]] = []
    for offset, identity in enumerate(CORPUS_IDENTITIES):
        base = seed * 1_000_003 + offset * 10_007
        jobs.extend((identity, base + i) for i in range(cases_per_identity))
    base = seed * 1_000_003 + len(CORPUS_IDENTITIES) * 10_007
    jobs.extend(("weight-expansion", base + i) for i in range(weight_cases))
    return [run_identity_case(identity, s) for identity, s in jobs]

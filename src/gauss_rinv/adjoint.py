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
from dataclasses import dataclass, field
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
    ``parts`` carries named intermediate scalars for reporting.
    """

    identity: str
    lhs: GaussianScalar
    rhs: GaussianScalar
    passed: bool
    parts: dict = field(default_factory=dict)


def check_commutator_pairing(psi: Polynomial) -> CheckReport:
    """<psi, commutator(psi)>_w = 8n||psi||^2_w + 8||grad psi||^2_w,
    radial weight |x|^2."""
    n = psi.dim
    w = WeightSpec.unit(n)
    lhs = inner_product(psi, commutator(psi, Polynomial.norm_squared(n), "direct"), w)
    rhs = norm_sq(psi, w).scale(8 * n)
    for j in range(n):
        rhs = rhs + norm_sq(psi.partial(j), w).scale(8)
    return CheckReport(
        identity="commutator-pairing",
        lhs=lhs,
        rhs=rhs,
        passed=lhs == rhs,
    )


def check_adjoint_norm_split(
    psi: Polynomial, a: RationalLike = 0, weight: WeightSpec | None = None
) -> CheckReport:
    """||(lap+a)* psi||^2_w = ||(lap+a) psi||^2_w + <psi, commutator(psi)>_w.

    Holds for any C^4 weight; evaluated exactly over weights lam*|x-x0|^2.
    """
    w = weight if weight is not None else WeightSpec.unit(psi.dim)
    weight_poly = w.polynomial()
    adj = formal_adjoint(psi, weight_poly, a)
    forward = psi.laplacian() + psi.scale(a)
    lhs = norm_sq(adj, w)
    h_norm = norm_sq(forward, w)
    pairing = inner_product(psi, commutator(psi, weight_poly, "direct"), w)
    rhs = h_norm + pairing
    return CheckReport(
        identity="adjoint-norm-split",
        lhs=lhs,
        rhs=rhs,
        passed=lhs == rhs,
        parts={"forward_norm_sq": h_norm, "commutator_pairing": pairing},
    )


def check_coercivity(psi: Polynomial, a: RationalLike = 0) -> CheckReport:
    """||(lap+a)* psi||^2_w >= 8n ||psi||^2_w under the radial weight,
    uniformly in a."""
    n = psi.dim
    w = WeightSpec.unit(n)
    adj = formal_adjoint(psi, Polynomial.norm_squared(n), a)
    lhs = norm_sq(adj, w)
    bound = norm_sq(psi, w).scale(8 * n)
    return CheckReport(
        identity="coercivity",
        lhs=lhs,
        rhs=bound,
        passed=lhs >= bound,
    )


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
    c = norm_sq(f, w).scale(Fraction(1, 8 * n))
    rhs = c * norm_sq(formal_adjoint(psi, Polynomial.norm_squared(n), a), w)
    return CheckReport(
        identity="duality",
        lhs=lhs,
        rhs=rhs,
        passed=lhs <= rhs,
    )


def check_adjointness(psi: Polynomial, u: Polynomial, weight: WeightSpec | None = None) -> CheckReport:
    """<psi, lap u>_w = <adj(psi), u>_w for weights lam*|x-x0|^2."""
    if psi.dim != u.dim:
        raise ValueError(f"dimension mismatch: {psi.dim} vs {u.dim}")
    w = weight if weight is not None else WeightSpec.unit(psi.dim)
    lhs = inner_product(psi, u.laplacian(), w)
    rhs = inner_product(formal_adjoint(psi, w.polynomial()), u, w)
    return CheckReport(
        identity="adjointness",
        lhs=lhs,
        rhs=rhs,
        passed=lhs == rhs,
    )


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


def _poly_signature(p: Polynomial) -> str:
    from .polynomials import format_rational

    if p.is_zero():
        return "0"
    return " + ".join(
        f"{format_rational(c)}*x^{list(e)}" for e, c in p.sorted_terms()
    )


def _scalar_signature(s: GaussianScalar) -> str:
    from .polynomials import format_rational

    return f"{format_rational(s.value)}*(pi/{format_rational(s.lam)})^{float(s.pi_pow)}"


def _corpus_weights(rng: random.Random) -> WeightSpec:
    lam = rng.choice([Fraction(1), Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3)])
    dim = rng.choice([1, 2, 3])
    center = tuple(
        Fraction(rng.randint(-2, 2), rng.randint(1, 3)) if lam != 1 or rng.random() < 0.5 else Fraction(0)
        for _ in range(dim)
    )
    return WeightSpec(dim=dim, lam=lam, center=center)


def run_identity_case(identity: str, seed: int) -> dict:
    """Run one seeded corpus case; the seed fully determines the inputs."""
    rng = random.Random(seed)
    dim = rng.choice([1, 2, 3])
    psi = random_polynomial(rng, dim, max_degree=6, max_terms=8)
    a = SHIFT_CYCLE[seed % len(SHIFT_CYCLE)]

    if identity == "commutator-three-way":
        radial = Polynomial.norm_squared(dim)
        routes = {m: commutator(psi, radial, m) for m in COMMUTATOR_METHODS}
        passed = routes["direct"] == routes["expanded"] == routes["reduced"]
        lhs_s = _poly_signature(routes["direct"])
        rhs_s = _poly_signature(routes["expanded"])
    elif identity == "weight-expansion":
        # general polynomial weight: direct vs expanded route, pointwise
        weight = random_polynomial(rng, dim, max_degree=4, max_terms=6, nonzero=True)
        lhs_p = commutator(psi, weight, "direct")
        rhs_p = commutator(psi, weight, "expanded")
        passed = lhs_p == rhs_p
        lhs_s = _poly_signature(lhs_p)
        rhs_s = _poly_signature(rhs_p)
    elif identity == "commutator-pairing":
        report = check_commutator_pairing(psi)
        passed, lhs_s, rhs_s = report.passed, _scalar_signature(report.lhs), _scalar_signature(report.rhs)
    elif identity == "adjoint-norm-split":
        weight = _corpus_weights(rng)
        psi_w = random_polynomial(rng, weight.dim, max_degree=6, max_terms=8)
        report = check_adjoint_norm_split(psi_w, a, weight)
        passed, lhs_s, rhs_s = report.passed, _scalar_signature(report.lhs), _scalar_signature(report.rhs)
    elif identity == "coercivity":
        report = check_coercivity(psi, a)
        passed, lhs_s, rhs_s = report.passed, _scalar_signature(report.lhs), _scalar_signature(report.rhs)
    elif identity == "duality":
        f = random_polynomial(rng, dim, max_degree=6, max_terms=8)
        report = check_duality(f, psi, a)
        passed, lhs_s, rhs_s = report.passed, _scalar_signature(report.lhs), _scalar_signature(report.rhs)
    elif identity == "adjointness":
        weight = _corpus_weights(rng)
        psi_w = random_polynomial(rng, weight.dim, max_degree=6, max_terms=8)
        u = random_polynomial(rng, weight.dim, max_degree=6, max_terms=8)
        report = check_adjointness(psi_w, u, weight)
        passed, lhs_s, rhs_s = report.passed, _scalar_signature(report.lhs), _scalar_signature(report.rhs)
    else:
        raise ValueError(f"unknown identity {identity!r}")

    return {
        "id": f"{identity}-{seed}",
        "seed": seed,
        "identity": identity,
        "lhs": lhs_s,
        "rhs": rhs_s,
        "pass": bool(passed),
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

"""Pinned output digests: the exact core must keep its outputs byte-identical.

The battery and conversion digests were computed before the fast-path
constructors, the binomial ``shift`` and the cached Hermite rows were
introduced; the solve and bounded digests before the residual checks
moved to the sparse Hermite action of ``lap + a``.  A change that alters
any coefficient, any ordering or any verdict of these small seeded
corpora changes a digest and fails here.  The bounded reports hold
quadrature floats, which move in the last bits whenever the quadrature is
reorganized, so they are compared with ``data/bounded_documents.json``
(recorded before the one-pass quadrature) field by field instead: booleans
and echoed inputs exactly, floats and coefficients within BOUNDED_FLOAT_REL.
"""

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np

from gauss_rinv import adjoint, hermite, polynomials, rightinverse
from gauss_rinv.adjoint import run_identity_battery
from gauss_rinv.cli import EXIT_CHECK_FAILED, EXIT_OK, main
from gauss_rinv.domains import BoxDomain, SampledFunction, solve_bounded
from gauss_rinv.hermite import WeightSpec, monomial_to_hermite
from gauss_rinv.polynomials import random_polynomial
from gauss_rinv.rightinverse import operator_norm, solve_min_norm

BATTERY_SHA256 = "f2c4c791115d06d1035fb29031a36e21c5c1d2644165422eca440e50c7edb9d0"
# The stdout of VERIFY_ARGS, also pinned in the CI workflow.
VERIFY_ARGS = ["verify", "--seed", "7", "--cases", "24", "--weight-cases", "6"]
VERIFY_SHA256 = "5f12d25d53336bfbfb9db8d9a964bef18f7ad2de1e6865c0af016a1c3a191bb0"
CONVERSION_SHA256 = "67467ea262849db33096a45c0462fec0ec679980100d74b3c2061c0358ac3125"
SOLVE_SHA256 = "4e6b01e987e015f394d8554fbcc86b8eb59511d1e1c7d43181fe7854d167175b"
# repr of every operator_norm value over OPNORM_CASES and OPNORM_SHIFTS,
# recorded when the norm was first taken tower by tower.  In 1-D the towers
# are the old parity-class blocks, and those values kept their bits; 63 of
# the 2-D and 3-D values moved, by at most 6.3e-16 relative, from the
# parity-class blocks' SVDs (at a = 0 they are now 1/sqrt(8n) exactly).
OPNORM_SHA256 = "6c924609fb4d128539c19264885ed519d8f32eab9a67dc3cbd2fef1900260fe2"
OPNORM_CASES = ((1, 40), (2, 16), (3, 10))  # (dim, top degree)
OPNORM_SHIFTS = (Fraction(0), Fraction(1, 2), Fraction(-1), Fraction(3))
BOUNDED_DOCUMENTS = Path(__file__).parent / "data" / "bounded_documents.json"
# Relative tolerance of the bounded floats.  A coefficient is measured
# against the largest coefficient of its solution: symmetry-forced zeros
# come out of quadrature as ~1e-20 noise with no relative accuracy of
# their own.
BOUNDED_FLOAT_REL = 1e-12
# Keys of the recorded reports that the Bessel check replaced.
BOUNDED_REMOVED_KEYS = {"weak_residual_rel", "weak_residual_tol", "projection_adequate"}
BOUNDED_ADDED_KEYS = {"projection_defect_rel", "bessel_holds", "bessel_tol"}

# Unit, scaled, off-center and scaled off-center weights in n = 1, 2, 3.
WEIGHTS = (
    WeightSpec.unit(2),
    WeightSpec(1, Fraction(3, 2), (Fraction(1, 3),)),
    WeightSpec(2, Fraction(1, 4), (Fraction(-1, 2), Fraction(2))),
    WeightSpec(3, Fraction(5), (Fraction(0), Fraction(1, 5), Fraction(-3, 7))),
    WeightSpec(2, Fraction(2), ()),
)

# Unit, scaled and off-center weights for the min-norm solves.
SOLVE_WEIGHTS = (
    WeightSpec.unit(1),
    WeightSpec.unit(2),
    WeightSpec(2, Fraction(3, 2), ()),
    WeightSpec(1, Fraction(1), (Fraction(2, 3),)),
    WeightSpec(3, Fraction(1, 2), (Fraction(1, 2), Fraction(0), Fraction(-1))),
)
SHIFTS = (Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(2))
# (box, data, a, truncation): 1-D and 2-D, symmetric and off-center, a = 0 and a != 0.
BOUNDED_CASES = (
    (((-1.0, 1.0),), "const", Fraction(0), 8),
    (((0.25, 1.5),), "poly", Fraction(0), 6),
    (((-1.0, 1.0),), "poly", Fraction(1, 2), 6),
    (((-1.0, 1.0), (-0.5, 0.5)), "const", Fraction(0), 3),
    (((0.0, 1.0), (-0.25, 0.75)), "poly", Fraction(-2), 2),
)


def _sha256(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def conversion_documents() -> list[dict]:
    """monomial_to_hermite, to_polynomial and shift on seeded polynomials."""
    rng = random.Random(20191)
    docs = []
    for weight in WEIGHTS:
        for _ in range(3):
            p = random_polynomial(rng, weight.dim, max_degree=6, max_terms=8)
            expansion = monomial_to_hermite(p, weight)
            docs.append({
                "hermite": expansion.to_json_dict(),
                "back": expansion.to_polynomial().to_json_dict(),
                "shifted": p.shift(weight.center).to_json_dict(),
            })
    return docs


def solve_documents() -> list[dict]:
    """solve_min_norm reports over every shift and weight above."""
    rng = random.Random(4042)
    docs = []
    for weight in SOLVE_WEIGHTS:
        for a in SHIFTS:
            for _ in range(2):
                f = random_polynomial(rng, weight.dim, max_degree=5, max_terms=6)
                docs.append(solve_min_norm(f, a, weight=weight).to_json_dict())
    return docs


def bounded_documents() -> list[dict]:
    """solve_bounded reports, with the solution coefficients added."""
    rng = random.Random(4043)
    docs = []
    for intervals, data, a, degree in BOUNDED_CASES:
        box = BoxDomain(intervals)
        if data == "const":
            f = SampledFunction.constant(box, 1.5)
        else:
            poly = random_polynomial(rng, box.dim, max_degree=3, max_terms=3, nonzero=True)
            f = SampledFunction.from_polynomial(poly, box)
        report = solve_bounded(box, f, a=a, truncation=degree)
        doc = report.to_json_dict()
        doc["coeffs"] = report.solution.to_json_dict()["coeffs"]
        docs.append(doc)
    return docs


def test_battery_digest_pinned():
    results = run_identity_battery(seed=42, cases_per_identity=3, weight_cases=2)
    assert _sha256(results) == BATTERY_SHA256


# The caches of weight stencils and whole-term Hermite images.
KERNEL_CACHES = (adjoint._weight_stencil, hermite._monomial_image, hermite._hermite_image)


def test_cold_caches_give_warm_bytes():
    """A battery slice and the conversions over WEIGHTS from emptied kernel
    caches equal, byte for byte, their run from the caches that filled."""

    def text() -> str:
        docs = [run_identity_battery(seed=42, cases_per_identity=3, weight_cases=2), conversion_documents()]
        return json.dumps(docs, sort_keys=True)

    for cache in KERNEL_CACHES:
        cache.cache_clear()
    cold = text()
    assert all(cache.cache_info().currsize for cache in KERNEL_CACHES)
    assert text() == cold
    for cache in KERNEL_CACHES:
        assert cache.cache_info().maxsize is not None


# The caches of the centered rows, the whole-term images and the shared
# constants |x|^2 and (x_1, ..., x_n).
CONVERSION_CACHES = (
    hermite._centered_monomial_row,
    hermite._centered_hermite_row,
    hermite._monomial_image,
    hermite._hermite_image,
    polynomials.Polynomial.norm_squared,
    polynomials.coordinate_vector,
)


def test_cold_conversion_caches_give_pinned_verify_bytes(capsys):
    """The seed-7 verify report from emptied conversion and constant caches,
    and again from the caches that filled, gives the CI-pinned bytes; so do
    the conversions over WEIGHTS, which also fill the Hermite->monomial
    caches that the corpus does not read."""

    def verify_text() -> str:
        assert main(VERIFY_ARGS) == EXIT_OK
        return capsys.readouterr().out

    for cache in CONVERSION_CACHES:
        cache.cache_clear()
    cold = verify_text()
    assert _sha256(conversion_documents()) == CONVERSION_SHA256
    assert all(cache.cache_info().currsize for cache in CONVERSION_CACHES)
    assert verify_text() == cold
    assert hashlib.sha256(cold.encode()).hexdigest() == VERIFY_SHA256
    for cache in CONVERSION_CACHES:
        assert cache.cache_info().maxsize is not None


def test_corrupted_centered_row_fails_verify(monkeypatch, capsys):
    """One numerator off in every m = 2 monomial->Hermite row, at zero
    center or off it, fails cases of the seed-7 verify report, and the
    command exits 1."""
    row = hermite._centered_monomial_row

    def corrupted(m: int, p: int, q: int, cn: int, cd: int):
        den, pairs = row(m, p, q, cn, cd)
        if m == 2:
            (k, num), *rest = pairs
            pairs = ((k, num + 1), *rest)
        return den, pairs

    monkeypatch.setattr(hermite, "_centered_monomial_row", corrupted)
    try:
        assert main(VERIFY_ARGS) == EXIT_CHECK_FAILED
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is False
        assert any(not case["pass"] for case in report["results"])
    finally:
        # each row is built from the one below it, and the zero-center
        # images from the rows, so what was cached meanwhile carries the error
        row.cache_clear()
        hermite._monomial_image.cache_clear()


def test_conversion_digest_pinned():
    assert _sha256(conversion_documents()) == CONVERSION_SHA256


def test_solve_digest_pinned():
    assert _sha256(solve_documents()) == SOLVE_SHA256


# The caches of the tower polynomials and of the levels of lap + a.
SOLVE_CACHES = (rightinverse._tower_polynomial, rightinverse._level)


def test_cold_tower_caches_give_warm_bytes():
    """The solve corpus from emptied tower-polynomial and level caches, and
    again from the caches that filled, gives the same, pinned, bytes."""
    for cache in SOLVE_CACHES:
        cache.cache_clear()
    cold = solve_documents()
    assert all(cache.cache_info().currsize for cache in SOLVE_CACHES)
    warm = solve_documents()
    assert json.dumps(warm, sort_keys=True) == json.dumps(cold, sort_keys=True)
    assert _sha256(cold) == SOLVE_SHA256
    for cache in SOLVE_CACHES:
        assert cache.cache_info().maxsize is not None


def test_opnorm_values_pinned():
    """276 operator norms, bit for bit."""
    values = [
        repr(operator_norm(dim, a, degree))
        for dim, top in OPNORM_CASES
        for a in OPNORM_SHIFTS
        for degree in range(top + 1)
    ]
    assert len(values) == 276
    assert hashlib.sha256("\n".join(values).encode()).hexdigest() == OPNORM_SHA256


def _close(x: float, y: float, scale: float) -> bool:
    return abs(x - y) <= BOUNDED_FLOAT_REL * scale


def bounded_mismatches(recorded: list[dict], current: list[dict]) -> list[str]:
    """The keys (and coefficient indices) where current moves from the
    recorded bounded reports: booleans and echoed inputs exactly, floats and
    coefficients beyond BOUNDED_FLOAT_REL."""
    assert len(current) == len(recorded)
    out = []
    for old, new in zip(recorded, current):
        assert set(new) == set(old) - BOUNDED_REMOVED_KEYS | BOUNDED_ADDED_KEYS
        for key in ("box", "a", "truncation", "x0", "weighted_bound", "quad_tol"):
            if new[key] != old[key]:
                out.append(key)
        for key in ("residual_exact", "bound_satisfied"):
            if new[key] is not old[key]:
                out.append(key)
        for key in ("norm_u_l2", "norm_f_l2", "diameter_constant", "bound_value", "margin",
                    "weighted_ratio_vs_data", "weighted_ratio"):
            x, y = float(Fraction(old[key])), float(Fraction(new[key]))
            if not _close(x, y, abs(x)):
                out.append(key)
        old_c = {tuple(t["index"]): float(Fraction(t["coef"])) for t in old["coeffs"]}
        new_c = {tuple(t["index"]): float(Fraction(t["coef"])) for t in new["coeffs"]}
        scale = max(abs(v) for v in old_c.values())
        for alpha in old_c.keys() | new_c.keys():
            if not _close(old_c.get(alpha, 0.0), new_c.get(alpha, 0.0), scale):
                out.append(f"coeffs {alpha}")
    return out


def test_bounded_digest_pinned():
    recorded = json.loads(BOUNDED_DOCUMENTS.read_text())
    assert bounded_mismatches(recorded, bounded_documents()) == []


def test_wrong_rodrigues_factor_is_caught(monkeypatch):
    """Rodrigues' d/dt [h_(k-1) e^{-t^2}] = -sqrt(2k) h_k e^{-t^2} with
    sqrt(2k + 1) in its place: the Bessel check or the pinned reports see it."""
    monkeypatch.setattr(hermite, "_rodrigues_factors", lambda cols: 1.0 / np.sqrt(2.0 * np.arange(1, cols) + 1.0))
    recorded = json.loads(BOUNDED_DOCUMENTS.read_text())
    current = bounded_documents()
    assert bounded_mismatches(recorded, current) or not all(doc["bessel_holds"] for doc in current)

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
import pytest

from gauss_rinv import adjoint, domains, hermite, polynomials, rightinverse
from gauss_rinv.adjoint import run_identity_battery
from gauss_rinv.cli import EXIT_CHECK_FAILED, EXIT_OK, main, run_suite
from gauss_rinv.domains import BoxDomain, SampledFunction, embedding_check, solve_bounded
from gauss_rinv.hermite import WeightSpec, monomial_to_hermite
from gauss_rinv.polynomials import Polynomial, random_polynomial
from gauss_rinv.rightinverse import operator_norm, solve_min_norm

BATTERY_SHA256 = "f2c4c791115d06d1035fb29031a36e21c5c1d2644165422eca440e50c7edb9d0"
# The stdout of VERIFY_ARGS, also pinned in the CI workflow.
VERIFY_ARGS = ["verify", "--seed", "7", "--cases", "24", "--weight-cases", "6"]
VERIFY_SHA256 = "5f12d25d53336bfbfb9db8d9a964bef18f7ad2de1e6865c0af016a1c3a191bb0"
CONVERSION_SHA256 = "67467ea262849db33096a45c0462fec0ec679980100d74b3c2061c0358ac3125"
# The solve corpus, re-pinned when the a != 0 solves became the weak
# solution on V_N (the bottom-up sweep in place of the triangular solve);
# its a = 0 reports kept their bytes, pinned on their own.
SOLVE_SHA256 = "cff2c2230d6883b81ed4f2a8ce5495a111cc5466da96009303b2f9a9a4d38627"
SOLVE_A0_SHA256 = "17c2e3d397fcd9aee149287287c5e18c5422f4b271ef92b45d3109db63547f13"
# repr of every operator_norm value over OPNORM_CASES, in two pins.  The
# a = 0 values, 1/sqrt(8n) exactly since the norm was first taken tower by
# tower, keep their bits.  The OPNORM_SHIFTS values were re-recorded when
# the norm at a != 0 became that of the min-norm inverse the solves apply
# (the rectangular towers, bisected), in place of the triangular inverse's
# square towers, whose norms reached 1e30.
OPNORM_A0_SHA256 = "0e8dd70495191749c3c91963a6ed0a899e594329aa5be7ae78ec04b394a68bbd"
OPNORM_SHIFTED_SHA256 = "ea21192f37d2ba796b6269dba858935ebb94375956114aef3e2fdeeee1837226"
OPNORM_CASES = ((1, 40), (2, 16), (3, 10))  # (dim, top degree)
OPNORM_SHIFTS = (Fraction(1, 2), Fraction(-1), Fraction(3))
# The recorded bounded reports; the solve-side fields of the two a != 0
# cases (solution coefficients, norm_u_l2, margin, the weighted ratios,
# bound_satisfied) were re-recorded from the weak solution on V_N.
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


# The caches of weight stencils (per weight and shift denominator), the
# expanded commutator's weight derivatives and Gaussian moment rows.
KERNEL_CACHES = (
    adjoint._weight_stencil,
    adjoint._weight_derivatives,
    hermite._moment_row,
)


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


# The Hermite conversions' caches: the centered rows of both directions.
CONVERSION_CACHES = (
    hermite._centered_monomial_row,
    hermite._centered_hermite_row,
)
# The caches a verify run reads: the weight stencils and derivatives, the
# Gaussian moment rows and the shared constants, the unit weights, the
# packed-key layouts, |x|^2 and (x_1, ..., x_n).
CORPUS_CACHES = (
    adjoint._weight_stencil,
    adjoint._weight_derivatives,
    hermite._moment_row,
    hermite.WeightSpec.unit,
    polynomials.key_layout,
    polynomials.Polynomial.norm_squared,
    polynomials.coordinate_vector,
)


def test_cold_conversion_caches_give_pinned_verify_bytes(capsys):
    """The seed-7 verify report from emptied moment-row, conversion and
    constant caches gives the CI-pinned bytes and leaves every conversion
    cache empty: the corpus pairs polynomials through Gaussian moments and
    converts none to Hermite coefficients.  The conversions over WEIGHTS
    then fill the conversion caches, and the report from the warm caches
    has the same bytes."""

    def verify_text() -> str:
        assert main(VERIFY_ARGS) == EXIT_OK
        return capsys.readouterr().out

    for cache in CONVERSION_CACHES + CORPUS_CACHES:
        cache.cache_clear()
    cold = verify_text()
    assert all(cache.cache_info().currsize for cache in CORPUS_CACHES)
    assert not any(cache.cache_info().currsize for cache in CONVERSION_CACHES)
    assert _sha256(conversion_documents()) == CONVERSION_SHA256
    assert all(cache.cache_info().currsize for cache in CONVERSION_CACHES)
    assert verify_text() == cold
    assert hashlib.sha256(cold.encode()).hexdigest() == VERIFY_SHA256
    for cache in CONVERSION_CACHES + CORPUS_CACHES:
        assert cache.cache_info().maxsize is not None


def test_large_solution_round_trips_from_cold_and_warm_rows():
    """The min-norm solution of x1^8 in 12-D, 6,187 terms, converts to
    monomials and back to the same (den, nums), from emptied conversion
    caches and again from the rows that filled."""
    u = solve_min_norm(Polynomial.monomial((8,) + (0,) * 11)).solution
    assert len(u.nums) == 6187
    for cache in CONVERSION_CACHES:
        cache.cache_clear()
    for _ in range(2):
        back = monomial_to_hermite(u.to_polynomial(), u.weight)
        assert (back.den, back.nums) == (u.den, u.nums)


def corrupt_moment_rows(monkeypatch) -> None:
    """Put one numerator off at k = 2 in every Gaussian moment row, at zero
    center or off it."""
    row = hermite._moment_row

    def corrupted(top: int, p: int, q: int, cn: int, cd: int):
        den, nums = row(top, p, q, cn, cd)
        if top >= 2:
            nums = (*nums[:2], nums[2] + 1, *nums[3:])
        return den, nums

    monkeypatch.setattr(hermite, "_moment_row", corrupted)


def test_corrupted_moment_row_fails_verify(monkeypatch, capsys):
    """Corrupted moment rows fail cases of the seed-7 verify report, and
    the command exits 1."""
    corrupt_moment_rows(monkeypatch)
    assert main(VERIFY_ARGS) == EXIT_CHECK_FAILED
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is False
    assert any(not case["pass"] for case in report["results"])


def test_corrupted_moment_row_fails_suite_identity_battery(monkeypatch):
    """Under corrupted moment rows the suite's identity-battery record,
    read from verdicts alone, fails and names the very cases that fail in
    the formatted corpus at the suite's arguments."""
    corrupt_moment_rows(monkeypatch)
    expected = [case["id"] for case in run_identity_battery(42, 200, 50) if not case["pass"]]
    results, passed = run_suite()
    (record,) = [r for r in results if r["criterion"] == "identity-battery"]
    assert expected and not passed
    assert record["pass"] is False and record["failures"] == expected and record["total"] == 1250


def test_corrupted_weight_derivatives_fail_verify(monkeypatch, capsys):
    """lap |grad w|^2 doubled in the expanded commutator's per-weight cache
    (emptied first, so no correct entry is read) fails the seed-7 verify
    report in both identities that take the expanded route, and only
    there."""
    derivatives = adjoint._weight_derivatives

    def corrupted(w):
        grad_w, lap_grad_sq, *rest = derivatives(w)
        return (grad_w, lap_grad_sq.scale(2), *rest)

    derivatives.cache_clear()
    monkeypatch.setattr(adjoint, "_weight_derivatives", corrupted)
    assert main(VERIFY_ARGS) == EXIT_CHECK_FAILED
    report = json.loads(capsys.readouterr().out)
    failed = {case["identity"] for case in report["results"] if not case["pass"]}
    assert failed == {"commutator-three-way", "weight-expansion"}


def test_corrupted_centered_row_fails_conversion_digest(monkeypatch):
    """One numerator off in every m = 2 monomial->Hermite row, at zero
    center or off it, moves the pinned conversions over WEIGHTS, whose
    Hermite coefficients are built from those rows."""
    row = hermite._centered_monomial_row

    def corrupted(m: int, p: int, q: int, cn: int, cd: int):
        den, pairs = row(m, p, q, cn, cd)
        if m == 2:
            (k, num), *rest = pairs
            pairs = ((k, num + 1), *rest)
        return den, pairs

    # each row is built from the one below it, so what is cached carries
    # the error or hides it
    for cache in CONVERSION_CACHES:
        cache.cache_clear()
    monkeypatch.setattr(hermite, "_centered_monomial_row", corrupted)
    try:
        assert _sha256(conversion_documents()) != CONVERSION_SHA256
    finally:
        for cache in CONVERSION_CACHES:
            cache.cache_clear()


def test_conversion_digest_pinned():
    assert _sha256(conversion_documents()) == CONVERSION_SHA256


def test_solve_digest_pinned():
    docs = solve_documents()
    assert _sha256(docs) == SOLVE_SHA256
    assert _sha256([doc for doc in docs if doc["a"] == "0"]) == SOLVE_A0_SHA256


# The caches of lap + a (its entries per multi-index and its levels) and of
# the sweep (its Lagrange bases, pivots and pivot inverses).
SOLVE_CACHES = (
    rightinverse._lowered,
    rightinverse._level,
    rightinverse._lagrange_bases,
    rightinverse._shifted_pivots,
    rightinverse._shifted_inverse,
)


def test_cold_tower_caches_give_warm_bytes():
    """The solve corpus from emptied level and sweep caches, and again
    from the caches that filled, gives the same, pinned, bytes."""
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
    """69 operator norms at a = 0 and 207 at a != 0, bit for bit."""
    for shifts, count, digest in [((0,), 69, OPNORM_A0_SHA256), (OPNORM_SHIFTS, 207, OPNORM_SHIFTED_SHA256)]:
        values = [
            repr(operator_norm(dim, a, degree))
            for dim, top in OPNORM_CASES
            for a in shifts
            for degree in range(top + 1)
        ]
        assert len(values) == count
        assert hashlib.sha256("\n".join(values).encode()).hexdigest() == digest


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


def test_counterexample_and_embedding_keys_pinned():
    """The counterexample report's keys in order and its exact fields, and
    the embedding report's keys in order, as recorded before the reports
    serialized their own fields."""
    report = domains.counterexample_report(50.0, Fraction(-1, 3), Fraction(7, 5)).to_json_dict()
    assert list(report) == [
        "c1", "c2", "R", "u1_closed", "u1_integral", "closed_vs_integral_max_rel", "second_derivative_max_rel",
        "second_derivative_tol", "growth", "strictly_increasing", "weighted_integral", "weighted_tail_bound",
        "weighted_finite",
    ]
    exact = {key: report[key] for key in ("c1", "c2", "u1_closed", "u1_integral")}
    assert exact == {"c1": "-1/3", "c2": "7/5", "u1_closed": "37/30", "u1_integral": "37/30"}
    box = BoxDomain(((-1.0, 1.0),))
    for f in (SampledFunction.constant(box, 2.0), Polynomial.constant(2, 3)):
        keys = list(embedding_check(f).to_json_dict())
        assert keys == ["dim", "weighted_sq", "l2_sq", "sup_sq", "l2_holds", "sup_holds", "pass", "tol"]


def embedding_documents() -> list[dict]:
    """embedding_check reports of polynomials of power 2 or more on the
    bounded boxes, whose sup estimates sample inside the cells."""
    rng = random.Random(4043)
    docs = []
    for intervals, *_ in BOUNDED_CASES:
        box = BoxDomain(intervals)
        poly = random_polynomial(rng, box.dim, max_degree=3, max_terms=3) + Polynomial.variable(box.dim, 0) ** 2
        docs.append(embedding_check(SampledFunction.from_polynomial(poly, box)).to_json_dict())
    return docs


# What a box keeps across calls, in the one store of domains._kept: the
# per-axis blocks its data's pairings and norms contract with, its Hermite
# Gram matrices and the basis plan of its truncation.
BOX_BUILDERS = (domains.axis_blocks, domains.hermite_gram, domains.basis_plan)


def test_cold_box_caches_give_warm_bytes():
    """The bounded and embedding reports from an emptied store, and again
    from what it kept, give the same bytes, and the bounded ones match the
    recorded reports; every kept array is read-only."""
    domains._KEPT.clear()
    cold = bounded_documents(), embedding_documents()
    assert all(any(key[0] is build.__wrapped__ for key in domains._KEPT) for build in BOX_BUILDERS)
    warm = bounded_documents(), embedding_documents()
    assert json.dumps(warm, sort_keys=True) == json.dumps(cold, sort_keys=True)
    assert bounded_mismatches(json.loads(BOUNDED_DOCUMENTS.read_text()), cold[0]) == []
    assert sum(size for _, size in domains._KEPT.values()) <= domains.KEPT_BYTES
    ends = np.array([-1.0]), np.array([1.0])
    kept = (
        *domains.axis_blocks(*ends, np.zeros(1), 0.0, 2, 3),
        domains.hermite_gram(-1.0, 1.0, 0.0, 4),
        *domains.basis_plan(1, 4)[1:3],
    )
    for table in kept:
        with pytest.raises(ValueError):
            table[(0,) * table.ndim] = 0


@pytest.fixture
def cold_box_caches():
    """Empty the kept store before a test and after it: a warm table would
    hide a fault planted in its builder, and a table built under the fault
    would outlive the test."""
    domains._KEPT.clear()
    yield
    domains._KEPT.clear()


def test_wrong_moment_rule_weight_is_caught(monkeypatch, cold_box_caches):
    """The per-cell Gauss rule of the Gaussian moments with its weights
    1 + 1e-6 too large: the pinned reports or the Bessel check see it.  Those
    rules have order 32 or more here, the Gram matrices' N + 3 <= 11."""
    rule, faulted = domains.gauss_rule, []

    def wrong(order):
        nodes, weights = rule(order)
        if order < 32:
            return nodes, weights
        faulted.append(order)
        return nodes, weights * (1.0 + 1e-6)

    monkeypatch.setattr(domains, "gauss_rule", wrong)
    recorded = json.loads(BOUNDED_DOCUMENTS.read_text())
    current = bounded_documents()
    assert faulted
    assert bounded_mismatches(recorded, current) or not all(doc["bessel_holds"] for doc in current)

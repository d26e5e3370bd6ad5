"""Acceptance battery: one test per criterion, stated tolerances, no slack.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.  Exact claims are compared as rationals with zero
tolerance; float claims use the tolerance pinned next to the assertion.
"""

import json
import math
import random
import time
from fractions import Fraction

from gauss_rinv.adjoint import run_identity_battery
from gauss_rinv.domains import (
    EMBEDDING_TOL,
    QUAD_TOL,
    BoxDomain,
    SampledFunction,
    counterexample_report,
    embedding_check,
    solve_bounded,
)
from gauss_rinv.hermite import WeightSpec
from gauss_rinv.polynomials import Polynomial, random_polynomial
from gauss_rinv.rightinverse import operator_norm, solve_min_norm

SEED = 42


def _criterion(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num:02d}] {name}: {status}" + (f"  ({detail})" if detail else ""))
    assert ok, f"acceptance criterion {num} ({name}) failed: {detail}"


def test_criterion_01_sharp_bound_constant_data():
    """Exact ratio 1/(8n) at f = 1 for n = 1, 2, 3; equality, under 1 s."""
    started = time.perf_counter()
    ratios = {}
    for n in (1, 2, 3):
        rep = solve_min_norm(Polynomial.constant(n, 1))
        ratios[n] = rep.ratio
        assert rep.residual_exact
    elapsed = time.perf_counter() - started
    ok = all(ratios[n] == Fraction(1, 8 * n) for n in (1, 2, 3)) and elapsed < 1.0
    _criterion(
        1,
        "sharp bound a=0",
        ok,
        f"ratios {[str(ratios[n]) for n in (1, 2, 3)]}, {elapsed:.3f}s",
    )


def test_criterion_02_bound_dominance_random_data(suite_runs):
    """100 seeded random f (deg <= 8, n <= 3): exact ratio <= 1/(8n),
    residual exactly zero, under 30 s.  The largest 8n * ratio over each
    dimension's draws of total degree > 0 is pinned, and the suite's
    bound-dominance record reports the same."""
    started = time.perf_counter()
    rng = random.Random(SEED)
    count = 0
    all_ok = True
    worst = {1: Fraction(0), 2: Fraction(0), 3: Fraction(0)}
    for i in range(100):
        n = 1 + i % 3
        f = random_polynomial(rng, n, max_degree=8, max_terms=10, nonzero=True)
        rep = solve_min_norm(f)
        all_ok = all_ok and rep.residual_exact and rep.ratio <= Fraction(1, 8 * n)
        if f.total_degree() > 0:
            worst[n] = max(worst[n], 8 * n * rep.ratio)
        count += 1
    elapsed = time.perf_counter() - started
    expected = {"1": "1117/2765", "2": "60700/73587", "3": "9679974460985/9993353403059"}
    criteria = {c["criterion"]: c for c in json.loads(suite_runs[0].stdout)["results"]["criteria"]}
    reported = criteria["bound-dominance"]["worst_nonconstant_ratio_by_dimension"]
    ok = all_ok and count == 100 and elapsed < 30.0
    ok = ok and {str(n): str(r) for n, r in worst.items()} == expected == reported
    _criterion(2, "bound dominance a=0", ok, f"{count} cases, {elapsed:.2f}s, worst non-constant {reported}")


def test_criterion_03_operator_norm():
    """Truncated right-inverse norm: 1/sqrt(8) at n=1 (N=20), 1/4 at n=2,
    both within 1e-10."""
    value1 = operator_norm(1, 0, 20)
    value2 = operator_norm(2, 0, 8)
    err1 = abs(value1 - 1.0 / math.sqrt(8.0))
    err2 = abs(value2 - 0.25)
    ok = err1 <= 1e-10 and err2 <= 1e-10
    _criterion(3, "operator norm", ok, f"n=1 err {err1:.2e}, n=2 err {err2:.2e}")


def test_criterion_04_shifted_solve(suite_runs):
    """The shifted solve that replaced the kernel enrichment: at a = +-1,
    f = 1, the exact ratio of the weak solution on V_N rises with N = 0, 2,
    ..., 8 and at N = 8 is within 1e-10 of 1 - 2e^{-1/2}/(1+e^{-1}) <= 1/8,
    the ratio of the minimal-norm weak solution; the suite's shifted-solve
    criterion passes."""
    closed = 1.0 - 2.0 * math.exp(-0.5) / (1.0 + math.exp(-1.0))
    ladders = {
        a: [solve_min_norm(Polynomial.constant(1, 1), a, truncation=top) for top in range(0, 9, 2)]
        for a in (1, -1)
    }
    ratios = {a: [rep.ratio for rep in ladder] for a, ladder in ladders.items()}
    ok = (
        all(rep.residual_exact and rep.bound_satisfied for ladder in ladders.values() for rep in ladder)
        and all(lo <= hi for r in ratios.values() for lo, hi in zip(r, r[1:]))
        and all(abs(float(r[-1]) - closed) <= 1e-10 for r in ratios.values())
        and ratios[1] == ratios[-1]
        and float(ratios[1][-1]) <= 1.0 / 8.0
    )
    criteria = {c["criterion"]: c for c in json.loads(suite_runs[0].stdout)["results"]["criteria"]}
    ok = ok and criteria["shifted-solve"]["pass"] and "kernel-enrichment" not in criteria
    _criterion(
        4,
        "shifted-solve bound a!=0",
        ok,
        f"ratio {float(ratios[1][-1]):.12f} vs closed {closed:.12f}; a=-1 ratio {float(ratios[-1][-1]):.12f}",
    )


def test_criterion_05_identity_battery():
    """200 seeded cases per identity (six identities) plus 50 random
    polynomial weights for the expansion identity, all exact, under 60 s."""
    started = time.perf_counter()
    cases = run_identity_battery(seed=SEED, cases_per_identity=200, weight_cases=50)
    elapsed = time.perf_counter() - started
    failures = [c["id"] for c in cases if not c["pass"]]
    ok = len(cases) == 6 * 200 + 50 and not failures and elapsed < 60.0
    _criterion(
        5,
        "identity battery",
        ok,
        f"{len(cases)} cases, {elapsed:.1f}s" + (f", failures {failures[:3]}" if failures else ""),
    )


def test_criterion_06_scaled_weight():
    """lambda=2 gives the exact ratio 1/32 = 1/(8 n lambda^2); the
    lambda=1 path is bit-identical to the unscaled solver."""
    rep2 = solve_min_norm(Polynomial.constant(1, 1), 0, weight=WeightSpec(dim=1, lam=Fraction(2)))
    rep1 = solve_min_norm(Polynomial.constant(1, 1), 0, weight=WeightSpec.unit(1))
    base = solve_min_norm(Polynomial.constant(1, 1))
    ok = (
        rep2.ratio == Fraction(1, 32)
        and rep1.solution.coeffs == base.solution.coeffs
        and rep1.to_json_dict() == base.to_json_dict()
    )
    _criterion(6, "scaled weight", ok, f"ratio {rep2.ratio}")


def test_criterion_07_bounded_domain():
    """U=(-1,1), f=1, a=0, N=30: restricted norm under sqrt(e^4/8)*sqrt(2)
    with the margin reported; at quad tol 1e-10 the projection obeys Bessel's
    inequality and drops a share of the data strictly between 0 and 1."""
    assert QUAD_TOL == 1e-10
    box = BoxDomain(((-1.0, 1.0),))
    rep = solve_bounded(box, SampledFunction.constant(box, 1.0), a=0, truncation=30)
    target = math.sqrt(math.exp(4.0) / 8.0) * math.sqrt(2.0)
    ok = (
        rep.norm_u_l2 <= target
        and abs(rep.bound_value - target) <= 1e-9
        and rep.bessel_holds
        and 0.0 < rep.projection_defect_rel < 1.0
        and rep.residual_exact
    )
    _criterion(
        7,
        "bounded domain",
        ok,
        f"norm {rep.norm_u_l2:.6f} <= {target:.6f}, margin {rep.margin:.4f}, "
        f"projection defect {rep.projection_defect_rel:.4f}",
    )


def test_criterion_08_counterexample():
    """u(1) = 1/6 exactly from both routes; the second difference of the
    closed form within 1e-6 relative of the 1/x source; square integral
    past 10^6 by R=1000 and strictly increasing; weighted integral finite."""
    rep = counterexample_report(1000.0)
    growth = dict(rep.growth)
    ok = (
        rep.u1_closed == Fraction(1, 6)
        and rep.u1_integral == Fraction(1, 6)
        and rep.closed_vs_integral_max_rel <= 1e-12
        and rep.second_derivative_max_rel <= 1e-6
        and rep.strictly_increasing
        and growth[1000.0] > 1e6
        and rep.weighted_finite
        and rep.weighted_integral + rep.weighted_tail_bound < 1.0
    )
    _criterion(
        8,
        "counterexample",
        ok,
        f"u(1)={rep.u1_closed}, growth@1000 {growth[1000.0]:.3e}, "
        f"weighted {rep.weighted_integral:.4f}",
    )


def test_criterion_09_embeddings():
    """Weighted norm below both the L2 and the scaled sup norm, to 1e-8,
    over the sampled corpus; equality witnessed at f = 1 (sup route)."""
    tol = 1e-8
    assert EMBEDDING_TOL == tol
    corpus_ok = True
    details = []

    const = embedding_check(Polynomial.constant(1, 1))
    equality = abs(const.weighted_sq - math.sqrt(math.pi) * const.sup_sq) <= tol
    corpus_ok = corpus_ok and const.holds and equality

    box = BoxDomain(((0.0, 1.0),))
    chi = embedding_check(SampledFunction.constant(box, 1.0))
    corpus_ok = corpus_ok and chi.holds
    details.append(f"chi weighted {chi.weighted_sq:.6f} <= {chi.l2_sq:.6f}")

    cut2 = BoxDomain(((-2.0, 2.0), (-1.0, 1.0)))
    poly2 = Polynomial(2, {(1, 0): 1, (0, 2): Fraction(1, 3)})
    emb2 = embedding_check(SampledFunction.from_polynomial(poly2, cut2))
    corpus_ok = corpus_ok and emb2.holds

    rng = random.Random(SEED)
    for _ in range(5):
        p = random_polynomial(rng, 1, max_degree=4, max_terms=4, nonzero=True)
        emb = embedding_check(SampledFunction.from_polynomial(p, BoxDomain(((-1.5, 1.5),))))
        corpus_ok = corpus_ok and emb.holds

    _criterion(9, "embeddings", corpus_ok, "; ".join(details))


def test_criterion_10_suite_determinism(suite_runs):
    """`suite` (seed 42, fixed) emits byte-identical reports on repeated runs."""
    first, second = suite_runs
    ok = first.stdout == second.stdout and len(first.stdout) > 0
    _criterion(10, "suite determinism", ok, f"{len(first.stdout)} bytes")

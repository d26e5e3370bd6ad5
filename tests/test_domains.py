"""Bounded-domain pipeline, embedding checks, and the counterexample."""

import math
from fractions import Fraction

import pytest

from gauss_rinv import domains
from gauss_rinv.adjoint import AdjointConfig, formal_adjoint
from gauss_rinv.domains import (
    BoxDomain,
    QuadratureError,
    SampledFunction,
    counterexample_report,
    embedding_check,
    expansion_evaluator,
    integrate_box,
    solve_bounded,
)
from gauss_rinv.hermite import HermiteExpansion, WeightSpec, inner_product, monomial_to_hermite
from gauss_rinv.polynomials import Polynomial


class TestBoxDomain:
    def test_diameter(self):
        box = BoxDomain(((0.0, 3.0), (0.0, 4.0)))
        assert box.diameter == pytest.approx(5.0)

    def test_center(self):
        assert BoxDomain(((-1.0, 1.0),)).center == (0.0,)

    def test_degenerate_interval(self):
        with pytest.raises(ValueError):
            BoxDomain(((1.0, 1.0),))

    def test_parse(self):
        box = BoxDomain.from_string("-1,1;0,2")
        assert box.intervals == ((-1.0, 1.0), (0.0, 2.0))


class TestQuadrature:
    def test_polynomial_panel(self):
        box = BoxDomain(((0.0, 1.0),))
        assert integrate_box(lambda x: x[0] ** 2, box) == pytest.approx(1 / 3, rel=1e-14)

    def test_2d(self):
        box = BoxDomain(((0.0, 1.0), (0.0, 2.0)))
        val = integrate_box(lambda x: x[0] * x[1], box, tol=1e-12)
        assert val == pytest.approx(1.0, rel=1e-12)

    def test_gaussian_against_erf(self):
        box = BoxDomain(((0.0, 1.0),))
        val = integrate_box(lambda x: math.exp(-x[0] ** 2), box, tol=1e-13)
        assert val == pytest.approx(math.sqrt(math.pi) / 2 * math.erf(1.0), rel=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_integrand_raises_at_once(self, bad):
        """NaN never passes the agreement test; it used to bisect to depth 24."""
        evals = []

        def fn(x):
            evals.append(x)
            return bad if x[0] > 0.5 else 1.0

        with pytest.raises(QuadratureError):
            integrate_box(fn, BoxDomain(((0.0, 1.0), (0.0, 1.0))))
        assert len(evals) == 3 * 12 * 12  # the first coarse panel and its two halves


class TestExpansionEvaluator:
    def test_matches_exact_polynomial_high_degree(self):
        """Recurrence evaluation agrees with exact rational evaluation."""
        w = WeightSpec.unit(1)
        exp = HermiteExpansion(w, {(24,): Fraction(1, 10**6), (3,): Fraction(2)})
        poly = exp.to_polynomial()
        ev = expansion_evaluator(exp)
        for t in (-1.5, -0.3, 0.0, 0.7, 2.0):
            exact = float(poly.evaluate([Fraction(t).limit_denominator(10**6)]))
            assert ev([t]) == pytest.approx(exact, rel=1e-11, abs=1e-9)

    def test_scaled_weight(self):
        w = WeightSpec(dim=1, lam=Fraction(2), center=(Fraction(1),))
        exp = monomial_to_hermite(Polynomial(1, {(3,): 1, (0,): -2}), w)
        ev = expansion_evaluator(exp)
        assert ev([1.5]) == pytest.approx(1.5**3 - 2, rel=1e-12)


class TestSolveBounded:
    def test_unit_interval_constant(self):
        box = BoxDomain(((-1.0, 1.0),))
        f = SampledFunction.constant(box, 1.0)
        rep = solve_bounded(box, f, a=0, truncation=16, quad_tol=1e-10)
        # diameter 2: constant sqrt(e^4/8), data norm sqrt(2)
        assert rep.diameter_constant == pytest.approx(math.sqrt(math.exp(4.0) / 8.0))
        assert rep.bound_value == pytest.approx(
            math.sqrt(math.exp(4.0) / 8.0) * math.sqrt(2.0), rel=1e-12
        )
        assert rep.bound_satisfied and rep.margin > 3.0
        assert rep.residual_exact
        assert rep.weak_residual_rel <= 1e-6
        assert rep.weighted_ratio <= Fraction(1, 8)

    def test_zero_data(self):
        box = BoxDomain(((-1.0, 1.0),))
        rep = solve_bounded(box, SampledFunction.constant(box, 0.0), truncation=6)
        assert rep.solution.is_zero() and rep.norm_u_l2 == 0.0

    def test_polynomial_data_weighted_ratio(self):
        box = BoxDomain(((-1.0, 1.0),))
        f = SampledFunction.from_polynomial(Polynomial.variable(1, 0), box)
        rep = solve_bounded(box, f, a=0, truncation=16, quad_tol=1e-10)
        assert rep.weighted_ratio <= Fraction(1, 8)
        assert rep.weighted_ratio_vs_data <= 1 / 8 + 1e-12
        assert rep.bound_satisfied

    def test_shifted_box_2d(self):
        box = BoxDomain(((0.0, 1.0), (1.0, 2.0)))
        f = SampledFunction.constant(box, 2.0)
        rep = solve_bounded(box, f, a=0, truncation=8, quad_tol=1e-9)
        assert rep.bound_satisfied and rep.projection_adequate

    def test_nonzero_shift(self):
        box = BoxDomain(((-1.0, 1.0),))
        f = SampledFunction.constant(box, 1.0)
        rep = solve_bounded(box, f, a=Fraction(1, 2), truncation=12)
        assert rep.residual_exact and rep.projection_adequate

    def test_weak_residual_matches_adjoint_route(self):
        """Reference: the Parseval weak residual equals the one computed with
        the formal adjoint, <u, (lap+a)* psi>_w, bit for bit."""
        box = BoxDomain(((0.25, 1.5),))
        poly = Polynomial(1, {(3,): Fraction(2, 3), (1,): -1, (0,): Fraction(1, 5)})
        f = SampledFunction.from_polynomial(poly, box)
        for a in (Fraction(0), Fraction(-3, 2)):
            rep = solve_bounded(box, f, a=a, truncation=6)
            w = rep.solution.weight
            cfg = AdjointConfig(weight=w.polynomial(), a=a)
            u_poly = rep.solution.to_polynomial()
            unit = math.pi**0.5
            x0 = float(w.center[0])
            norm_f = math.sqrt(
                integrate_box(lambda x: f(x) ** 2 * math.exp(-(x[0] - x0) ** 2), box)
            )
            worst = 0.0
            for k in range(7):
                psi = HermiteExpansion(w, {(k,): 1}).to_polynomial()
                lhs = inner_product(u_poly, formal_adjoint(psi, cfg, include_shift=True), w)
                psi_norm = math.sqrt(float(HermiteExpansion.basis_norm_sq((k,), Fraction(1))) * unit)
                h_k = domains.normalized_basis_evaluator(w, {(k,): 1.0})
                rhs = integrate_box(lambda x: f(x) * h_k(x) * math.exp(-(x[0] - x0) ** 2), box)
                worst = max(worst, abs(lhs.to_float() / psi_norm - rhs) / norm_f)
            assert rep.weak_residual_rel == worst

    def test_corrupted_solution_fails_residuals(self, monkeypatch):
        """One wrong coefficient in u fails the exact and the weak residual."""
        solver = domains._min_norm_coeffs

        def corrupt(*args):
            u = dict(solver(*args))
            u[max(u)] += Fraction(1, 7)
            return u

        monkeypatch.setattr(domains, "_min_norm_coeffs", corrupt)
        box = BoxDomain(((-1.0, 1.0),))
        rep = solve_bounded(box, SampledFunction.constant(box, 1.0), truncation=8)
        assert not rep.residual_exact
        assert not rep.projection_adequate

    def test_box_mismatch(self):
        box = BoxDomain(((-1.0, 1.0),))
        other = BoxDomain(((0.0, 1.0),))
        with pytest.raises(ValueError):
            solve_bounded(box, SampledFunction.constant(other, 1.0))


class TestEmbeddings:
    def test_constant_equality_witness(self):
        report = embedding_check(Polynomial.constant(1, 1))
        assert report.sup_holds and report.l2_holds is None
        assert report.weighted_sq == pytest.approx(math.sqrt(math.pi))

    def test_indicator(self):
        box = BoxDomain(((0.0, 1.0),))
        report = embedding_check(SampledFunction.constant(box, 1.0))
        assert report.weighted_sq == pytest.approx(
            math.sqrt(math.pi) / 2 * math.erf(1.0), rel=1e-10
        )
        assert report.l2_sq == pytest.approx(1.0, rel=1e-12)
        assert report.holds

    def test_zero(self):
        report = embedding_check(Polynomial.zero(2))
        assert report.weighted_sq == 0.0 and report.holds

    def test_polynomial_cutoff_2d(self):
        box = BoxDomain(((-2.0, 2.0), (-1.0, 1.0)))
        poly = Polynomial(2, {(1, 0): 1, (0, 2): Fraction(1, 3)})
        report = embedding_check(SampledFunction.from_polynomial(poly, box))
        assert report.holds

    def test_grid_function(self):
        box = BoxDomain(((0.0, 1.0),))
        f = SampledFunction.from_grid(box, (5,), [0.0, 0.25, 0.5, 0.75, 1.0])
        assert f([0.5]) == pytest.approx(0.5)
        assert embedding_check(f).holds

    def test_nonconstant_polynomial_rejected(self):
        with pytest.raises(ValueError):
            embedding_check(Polynomial.variable(1, 0))


class TestCounterexample:
    def test_value_at_one(self):
        report = counterexample_report(10.0)
        assert report.u1_closed == Fraction(1, 6)
        assert report.u1_integral == Fraction(1, 6)

    def test_affine_constants_shift_value(self):
        report = counterexample_report(10.0, c1=Fraction(1, 2), c2=Fraction(-1, 3))
        assert report.u1_closed == Fraction(1, 6) + Fraction(1, 2) - Fraction(1, 3)
        assert report.u1_closed == report.u1_integral

    def test_closed_form_matches_integral_formula(self):
        report = counterexample_report(100.0)
        assert report.closed_vs_integral_max_rel <= 1e-12

    def test_source_recovered(self):
        report = counterexample_report(50.0)
        assert report.second_derivative_max_abs <= 1e-12

    def test_unbounded_growth(self):
        report = counterexample_report(1000.0)
        assert report.strictly_increasing
        assert report.growth[-1][1] > 1e6

    def test_weighted_integral_finite(self):
        report = counterexample_report(1000.0)
        assert report.weighted_finite
        assert report.weighted_integral + report.weighted_tail_bound < 1.0

    def test_growth_rate(self):
        """Square integral grows like R^3 ln(R)^2 (up to lower-order terms)."""
        report = counterexample_report(1000.0)
        values = dict(report.growth)
        model = lambda r: r**3 * math.log(r) ** 2 / 3.0
        assert values[1000.0] / model(1000.0) == pytest.approx(1.0, rel=0.25)

    def test_r_below_one_rejected(self):
        with pytest.raises(ValueError):
            counterexample_report(0.5)

"""Bounded-domain pipeline, embedding checks, and the counterexample."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from gauss_rinv import domains, rightinverse
from gauss_rinv.domains import (
    BoxDomain,
    InputLimitError,
    QuadratureError,
    SampledFunction,
    check_input_limits,
    counterexample_report,
    embedding_check,
    integrate_box,
    orthonormal_table,
    solve_bounded,
)
from gauss_rinv.hermite import HermiteExpansion, WeightSpec, monomial_to_hermite
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
        assert integrate_box(lambda x: x[:, 0] ** 2, box) == pytest.approx(1 / 3, rel=1e-14)

    def test_2d(self):
        box = BoxDomain(((0.0, 1.0), (0.0, 2.0)))
        val = integrate_box(lambda x: x[:, 0] * x[:, 1], box, tol=1e-12)
        assert val == pytest.approx(1.0, rel=1e-12)

    def test_gaussian_against_erf(self):
        box = BoxDomain(((0.0, 1.0),))
        val = integrate_box(lambda x: np.exp(-x[:, 0] ** 2), box, tol=1e-13)
        assert val == pytest.approx(math.sqrt(math.pi) / 2 * math.erf(1.0), rel=1e-12)

    def test_array_integrand_gives_every_component(self):
        """An (m, k) integrand returns k integrals: x^j on [0, 1] is 1/(j+1)."""
        tol = 1e-12
        vals = integrate_box(lambda x: x[:, :1] ** np.arange(6), BoxDomain(((0.0, 1.0),)), tol=tol)
        assert vals.shape == (6,)
        for j, v in enumerate(vals):
            assert abs(v - 1.0 / (j + 1)) <= tol

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_every_component_refined(self, order):
        """sqrt(x) needs panels near 0 that the constant never asks for; the
        shared tree refines for it whichever column it is."""
        tol = 1e-10
        columns = [lambda t: np.ones_like(t), np.sqrt]
        vals = integrate_box(
            lambda x: np.column_stack([columns[j](x[:, 0]) for j in order]),
            BoxDomain(((0.0, 1.0),)),
            tol=tol,
        )
        exact = [1.0, 2.0 / 3.0]
        for j, v in zip(order, vals):
            assert abs(v - exact[j]) <= tol

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_integrand_raises_at_once(self, bad):
        """NaN never passes the agreement test; it used to bisect to depth 24."""
        calls = []

        def fn(x):
            calls.append(len(x))
            return np.where(x[:, 0] > 0.5, bad, 1.0)

        with pytest.raises(QuadratureError):
            integrate_box(fn, BoxDomain(((0.0, 1.0), (0.0, 1.0))))
        # the first coarse panel and its two halves, 12 x 12 nodes each
        assert calls == [12 * 12] * 3


def _evaluate(expansion: HermiteExpansion, points) -> np.ndarray:
    """An expansion at points, through the orthonormal table: the
    coefficient over h_alpha is c_alpha ||G_alpha||_w."""
    w = expansion.weight
    unit = (math.pi / float(w.lam)) ** (w.dim / 2.0)
    indices = sorted(expansion.coeffs)
    orth = [
        float(expansion.coeffs[alpha])
        * math.sqrt(float(HermiteExpansion.basis_norm_sq(alpha, w.lam)) * unit)
        for alpha in indices
    ]
    return orthonormal_table(w, indices, np.asarray(points, dtype=float)) @ np.array(orth)


class TestExpansionEvaluator:
    def test_matches_exact_polynomial_high_degree(self):
        """Recurrence evaluation agrees with exact rational evaluation."""
        w = WeightSpec.unit(1)
        exp = HermiteExpansion(w, {(24,): Fraction(1, 10**6), (3,): Fraction(2)})
        poly = exp.to_polynomial()
        ts = (-1.5, -0.3, 0.0, 0.7, 2.0)
        values = _evaluate(exp, [[t] for t in ts])
        for t, value in zip(ts, values):
            exact = float(poly.evaluate([Fraction(t).limit_denominator(10**6)]))
            assert value == pytest.approx(exact, rel=1e-11, abs=1e-9)

    def test_scaled_weight(self):
        w = WeightSpec(dim=1, lam=Fraction(2), center=(Fraction(1),))
        exp = monomial_to_hermite(Polynomial(1, {(3,): 1, (0,): -2}), w)
        assert _evaluate(exp, [[1.5]])[0] == pytest.approx(1.5**3 - 2, rel=1e-12)

    def test_table_is_orthonormal_2d(self):
        """Quadrature of h_alpha h_beta e^{-|x-x0|^2} over a wide box is the identity."""
        w = WeightSpec(dim=2, lam=Fraction(1), center=(Fraction(1, 2), Fraction(-1)))
        indices = [(0, 0), (1, 0), (0, 1), (2, 1), (3, 3)]
        box = BoxDomain(((-9.5, 10.5), (-11.0, 9.0)))

        def gram(x):
            h = orthonormal_table(w, indices, x)
            gauss = np.exp(-((x - [0.5, -1.0]) ** 2).sum(axis=1))
            return (h[:, :, None] * h[:, None, :] * gauss[:, None, None]).reshape(len(x), -1)

        g = integrate_box(gram, box, tol=1e-11).reshape(len(indices), len(indices))
        assert np.abs(g - np.eye(len(indices))).max() <= 1e-10


class TestSolveBounded:
    def test_unit_interval_constant(self):
        box = BoxDomain(((-1.0, 1.0),))
        f = SampledFunction.constant(box, 1.0)
        rep = solve_bounded(box, f, a=0, truncation=16)
        # diameter 2: constant sqrt(e^4/8), data norm sqrt(2)
        assert rep.diameter_constant == pytest.approx(math.sqrt(math.exp(4.0) / 8.0))
        assert rep.bound_value == pytest.approx(
            math.sqrt(math.exp(4.0) / 8.0) * math.sqrt(2.0), rel=1e-12
        )
        assert rep.bound_satisfied and rep.margin > 3.0
        assert rep.residual_exact
        assert rep.bessel_holds and 0.0 < rep.projection_defect_rel < 1.0
        assert rep.weighted_ratio <= Fraction(1, 8)

    @pytest.mark.parametrize("component", ["bound_satisfied", "bessel_holds", "residual_exact"])
    def test_each_verdict_component_can_fail(self, component):
        box = BoxDomain(((0.0, 1.0),))
        rep = solve_bounded(box, SampledFunction.constant(box, 1.0), truncation=6)
        assert rep.passed
        assert not dataclasses.replace(rep, **{component: False}).passed

    def test_zero_data(self):
        box = BoxDomain(((-1.0, 1.0),))
        rep = solve_bounded(box, SampledFunction.constant(box, 0.0), truncation=6)
        assert rep.solution.is_zero() and rep.norm_u_l2 == 0.0
        assert rep.projection_defect_rel == 0.0 and rep.bessel_holds

    def test_polynomial_data_weighted_ratio(self):
        box = BoxDomain(((-1.0, 1.0),))
        f = SampledFunction.from_polynomial(Polynomial.variable(1, 0), box)
        rep = solve_bounded(box, f, a=0, truncation=16)
        assert rep.weighted_ratio <= Fraction(1, 8)
        assert rep.weighted_ratio_vs_data <= 1 / 8 + 1e-12
        assert rep.bound_satisfied

    def test_shifted_box_2d(self):
        box = BoxDomain(((0.0, 1.0), (1.0, 2.0)))
        f = SampledFunction.constant(box, 2.0)
        rep = solve_bounded(box, f, a=0, truncation=8)
        assert rep.bound_satisfied and rep.bessel_holds

    def test_nonzero_shift(self):
        box = BoxDomain(((-1.0, 1.0),))
        f = SampledFunction.constant(box, 1.0)
        rep = solve_bounded(box, f, a=Fraction(1, 2), truncation=12)
        assert rep.residual_exact and rep.bessel_holds

    @pytest.mark.parametrize("degree, defect", [(10, 0.0357), (30, 0.0203), (60, 0.0143)])
    def test_projection_defect_of_indicator(self, degree, defect):
        """1 - ||P_N f~||^2_w / ||f~||^2_w for f = 1 on [-1, 1]: the truncation
        keeps most, never all, of the indicator's weighted norm."""
        box = BoxDomain(((-1.0, 1.0),))
        rep = solve_bounded(box, SampledFunction.constant(box, 1.0), truncation=degree)
        assert rep.bessel_holds
        assert rep.projection_defect_rel == pytest.approx(defect, abs=5e-5)

    def test_doubled_table_fails_bessel(self, monkeypatch):
        """A basis that is not orthonormal (every h_alpha doubled) projects
        more than the data holds, and the Bessel check says so."""
        table = domains.orthonormal_table
        monkeypatch.setattr(domains, "orthonormal_table", lambda *args: 2.0 * table(*args))
        box = BoxDomain(((-1.0, 1.0),))
        rep = solve_bounded(box, SampledFunction.constant(box, 1.0), truncation=10)
        assert not rep.bessel_holds
        assert rep.projection_defect_rel < 0.0

    def test_corrupted_solution_fails_residuals(self, monkeypatch):
        """One wrong coefficient in u fails the exact residual; the data-side
        Bessel check does not read u and still holds."""
        solver = rightinverse.right_inverse_coeffs

        def corrupt(*args):
            u = solver(*args)
            top = max(u.nums)
            return HermiteExpansion(u.weight, {**u.coeffs, top: u.coeffs[top] + Fraction(1, 7)})

        monkeypatch.setattr(rightinverse, "right_inverse_coeffs", corrupt)
        box = BoxDomain(((-1.0, 1.0),))
        rep = solve_bounded(box, SampledFunction.constant(box, 1.0), truncation=8)
        assert not rep.residual_exact
        assert rep.bessel_holds

    def test_box_mismatch(self):
        box = BoxDomain(((-1.0, 1.0),))
        other = BoxDomain(((0.0, 1.0),))
        with pytest.raises(ValueError):
            solve_bounded(box, SampledFunction.constant(other, 1.0))


class TestInputLimits:
    """A bounded solve states its limits: table entries per panel and the
    degree whose basis norm stays a finite float."""

    @pytest.mark.parametrize("dim, last_ok", [(1, 148), (2, 147)])
    def test_degree_limit_both_sides(self, dim, last_ok):
        assert domains.max_truncation(dim) == last_ok
        check_input_limits(dim, last_ok)
        with pytest.raises(InputLimitError, match=f"degree limit {last_ok}"):
            check_input_limits(dim, last_ok + 1)

    @pytest.mark.parametrize("dim, last_ok", [(1, 166665), (2, 165)])
    def test_size_limit_both_sides(self, dim, last_ok):
        """Just inside MAX_TABLE_ENTRIES the size passes (the degree limit then
        names itself); one degree more names the size limit."""
        per_panel = domains.PANEL_ORDER**dim
        assert math.comb(last_ok + dim, dim) * per_panel <= domains.MAX_TABLE_ENTRIES
        assert math.comb(last_ok + 1 + dim, dim) * per_panel > domains.MAX_TABLE_ENTRIES
        with pytest.raises(InputLimitError, match="degree limit"):
            check_input_limits(dim, last_ok)
        with pytest.raises(InputLimitError, match="MAX_TABLE_ENTRIES"):
            check_input_limits(dim, last_ok + 1)

    def test_every_workload_size_admitted(self):
        for dim, degree in [(1, 16), (2, 3), (2, 30), (1, 30)]:
            check_input_limits(dim, degree)

    @pytest.mark.parametrize(
        "intervals, degree",
        [(((-1.0, 1.0),), 149), (((-1.0, 1.0),) * 2, 148), (((-1.0, 1.0),) * 3, 30)],
    )
    def test_rejected_before_any_work(self, monkeypatch, intervals, degree):
        def forbidden(*args, **kwargs):
            raise AssertionError("work started on an over-limit input")

        monkeypatch.setattr(domains, "multi_indices_up_to", forbidden)
        monkeypatch.setattr(domains, "integrate_box", forbidden)
        box = BoxDomain(intervals)
        with pytest.raises(InputLimitError):
            solve_bounded(box, SampledFunction.constant(box, 1.0), truncation=degree)


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
        assert f([[0.5]]) == pytest.approx([0.5])
        assert f([[0.3], [1.5]]).tolist() == pytest.approx([0.3, 0.0])  # zero outside
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
        assert report.second_derivative_tol == 1e-6
        assert report.second_derivative_max_rel <= report.second_derivative_tol

    def test_wrong_coefficient_fails_source_check(self, monkeypatch):
        """u with 0.999 x ln x in place of x ln x has u'' = 0.999/x."""
        closed_form = domains._closed_form

        def mutated(c1, c2):
            a_lin, a_const, u = closed_form(c1, c2)
            return a_lin, a_const, lambda x: u(x) - 1e-3 * x * np.log(x)

        monkeypatch.setattr(domains, "_closed_form", mutated)
        report = counterexample_report(50.0)
        assert report.second_derivative_max_rel == pytest.approx(1e-3, rel=1e-2)
        assert report.second_derivative_max_rel > report.second_derivative_tol

    def test_wrong_constant_fails_value_check(self, monkeypatch):
        """A constant term off by 10^-30 is below float rounding, so only the
        exact u(1) check, read from the closed form's own coefficients, sees it."""
        closed_form = domains._closed_form

        def mutated(c1, c2):
            return closed_form(c1, c2 + Fraction(1, 10**30))

        monkeypatch.setattr(domains, "_closed_form", mutated)
        report = counterexample_report(50.0)
        assert report.u1_closed - report.u1_integral == Fraction(1, 10**30)
        assert report.closed_vs_integral_max_rel <= domains.CLOSED_FORM_TOL
        assert not report.passed

    @pytest.mark.parametrize("c1, c2", [(0, 100_000), (-(10**6), 7), (0, 10**100), (10**100, 0)])
    def test_large_affine_constants_pass(self, c1, c2):
        """The float checks run on u at c1 = c2 = 0, so a large affine part
        neither rounds away the x ln x term they check nor warns; the exact
        u(1) check carries c1 and c2."""
        report = counterexample_report(1000.0, c1, c2)
        assert report.u1_closed == report.u1_integral == Fraction(1, 6) + c1 + c2
        assert report.passed

    def test_square_integral_overflow_named(self):
        with pytest.raises(QuadratureError, match=r"growth integral of u\^2 over \[1, 10.0\] at c1 = 1e\+200"):
            counterexample_report(1000.0, 10**200)

    def test_tail_bound_overflow_named(self):
        """With c2 = -4.5 c1, |u| <= 3.5 |c1| on [1, 8], so at R = 1 the
        weighted integral is a float while D = 5.5 |c1| squared is not."""
        with pytest.raises(OverflowError, match="weighted tail bound past x = 8, where [|]u[|] <= 1.65e[+]154"):
            counterexample_report(1.0, 3 * 10**153, -27 * 10**153 // 2)

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

    def test_r_limit(self):
        """At MAX_R the square integral is still a float; just above it the
        input is refused before any quadrature."""
        assert counterexample_report(domains.MAX_R).passed
        with pytest.raises(InputLimitError, match="above MAX_R = 1e\\+101"):
            counterexample_report(math.nextafter(domains.MAX_R, math.inf))

    @pytest.mark.parametrize(
        "change",
        [
            {"u1_integral": Fraction(1, 6) + Fraction(1, 10**30)},
            {"closed_vs_integral_max_rel": 2e-12},
            {"second_derivative_max_rel": 2e-6},
            {"strictly_increasing": False},
            {"weighted_finite": False},
        ],
        ids=["u1", "closed-vs-integral", "second-derivative", "growth", "weighted"],
    )
    def test_each_verdict_part_can_fail(self, change):
        report = counterexample_report(100.0)
        assert report.passed
        assert not dataclasses.replace(report, **change).passed

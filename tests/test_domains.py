"""Bounded-domain pipeline, embedding checks, and the counterexample."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from gauss_rinv import domains, rightinverse
from gauss_rinv.domains import (
    MAX_BATCH_NODES,
    MAX_DEPTH,
    PANEL_ORDER,
    BoxDomain,
    InputLimitError,
    QuadratureError,
    SampledFunction,
    check_input_limits,
    counterexample_report,
    embedding_check,
    integrate_box,
    solve_bounded,
)
from gauss_rinv.hermite import (
    HermiteExpansion,
    WeightSpec,
    gaussian_moments,
    monomial_to_hermite,
    normalized_hermite_values,
    tensor_rule,
)
from gauss_rinv.polynomials import Polynomial


def orthonormal_table(weight: WeightSpec, indices, points: np.ndarray) -> np.ndarray:
    """(m, K) values h_alpha(x) of the orthonormal basis of L2(e^{-weight})
    at the m points, alpha over the K indices, by the normalized three-term
    recurrence: the pointwise reference of the closed-form tables."""
    n = weight.dim
    lam = float(weight.lam)
    idx = np.array(indices, dtype=int).reshape(-1, n)
    t = math.sqrt(lam) * (points - np.array([float(c) for c in weight.center]))
    top = int(idx.max(initial=0))
    axis = np.stack([np.broadcast_to(v, t.shape) for v in normalized_hermite_values(top, t)])
    # per-axis normalization: integral h~_k(sqrt(lam) u)^2 e^{-lam u^2} du = lam^{-1/2}
    table = np.full((len(points), len(idx)), lam ** (n / 4.0))
    for j in range(n):
        table *= axis[idx[:, j], :, j].T
    return table


# sqrt(x + SQRT_SHIFT) is steep enough near 0 to refine 43 1-D panels
# there at tol 1e-10, and smooth enough to converge above MAX_DEPTH.
SQRT_SHIFT = 1e-4


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
        """sqrt(x + c) needs panels near 0 that the constant never asks for;
        the shared tree refines for it whichever column it is.  (sqrt(x)
        itself never meets 1e-10 above MAX_DEPTH: see test_max_depth_raises.)"""
        tol = 1e-10
        columns = [lambda t: np.ones_like(t), lambda t: np.sqrt(t + SQRT_SHIFT)]
        vals = integrate_box(
            lambda x: np.column_stack([columns[j](x[:, 0]) for j in order]),
            BoxDomain(((0.0, 1.0),)),
            tol=tol,
        )
        exact = [1.0, 2.0 / 3.0 * ((1.0 + SQRT_SHIFT) ** 1.5 - SQRT_SHIFT**1.5)]
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
        # the first coarse panel, then its two halves in one call, 12 x 12
        # nodes each, and nothing deeper
        assert calls == [12 * 12, 2 * 12 * 12]

    @pytest.mark.parametrize(
        "fn, tol",
        [(lambda x: abs(x[:, 0] - 1.0 / 3.0), 1e-13), (lambda x: np.sqrt(x[:, 0]), 1e-10)],
        ids=["kink-at-third", "sqrt"],
    )
    def test_max_depth_raises(self, fn, tol):
        """1/3 is never a panel edge, and the error of sqrt(x) on [0, h]
        shrinks like h^1.5 while the panel's share of tol shrinks like h, so
        both bisect to MAX_DEPTH unconverged, and say so instead of returning."""
        with pytest.raises(QuadratureError, match=rf"reached MAX_DEPTH = 24 on panel .* above its share .* of tol = {tol!r}"):
            integrate_box(fn, BoxDomain(((0.0, 1.0),)), tol=tol)


def recursive_integrate_box(fn, box, tol=1e-10, depths=None):
    """Reference integrate_box: the depth-first recursion, one integrand
    call per panel.  ``depths`` collects the tree depth of each panel."""
    ref_nodes, ref_weights = tensor_rule(*np.polynomial.legendre.leggauss(PANEL_ORDER), box.dim)

    def panel(lo, hi, depth):
        if depths is not None:
            depths.append(depth)
        half = (hi - lo) / 2.0
        values = np.asarray(fn((hi + lo) / 2.0 + half * ref_nodes), dtype=float)
        return (ref_weights @ values) * np.prod(half)

    def recurse(lo, hi, coarse, budget, depth):
        axis = int(np.argmax(hi - lo))
        mid = (lo[axis] + hi[axis]) / 2.0
        left_hi, right_lo = hi.copy(), lo.copy()
        left_hi[axis] = right_lo[axis] = mid
        left, right = panel(lo, left_hi, depth + 1), panel(right_lo, hi, depth + 1)
        fine = left + right
        if not (np.isfinite(coarse).all() and np.isfinite(fine).all()):
            raise QuadratureError(f"non-finite integrand estimate {fine.tolist()!r}")
        noise = 4e-15 * np.maximum(abs(coarse), abs(fine))
        if np.all(abs(fine - coarse) <= np.maximum(budget, noise)):
            return fine
        if depth >= MAX_DEPTH:
            raise QuadratureError("unconverged at MAX_DEPTH")
        return recurse(lo, left_hi, left, budget / 2.0, depth + 1) + recurse(
            right_lo, hi, right, budget / 2.0, depth + 1
        )

    lo, hi = box.corners
    with np.errstate(all="ignore"):
        total = recurse(lo, hi, panel(lo, hi, 0), tol, 0)
    return float(total) if total.ndim == 0 else total


def assert_same_bits(got, reference) -> None:
    assert type(got) is type(reference)
    assert np.shape(got) == np.shape(reference)
    assert np.all(got == reference)


def recorded(fn, calls):
    """fn, appending the nodes of every call to ``calls``."""

    def wrapped(x):
        calls.append(x.copy())
        return fn(x)

    return wrapped


UNIT, SQUARE = BoxDomain(((0.0, 1.0),)), BoxDomain(((0.0, 1.0), (0.0, 2.0)))
_LINE, _PLANE = BoxDomain(((0.25, 1.5),)), BoxDomain(((0.5, 1.5), (-1.0, 0.0)))
# One of each data kind, on symmetric and off-center boxes.
DATA_CASES = {
    "1d-constant": (BoxDomain(((-1.0, 1.0),)), SampledFunction.constant(BoxDomain(((-1.0, 1.0),)), 1.0)),
    "1d-grid": (_LINE, SampledFunction.from_grid(_LINE, (5,), [0.3, -1.0, 0.5, 2.0, 0.0])),
    # sqrt(x) sampled on 9 nodes: its interpolant's kinks fall on panel edges
    "1d-sqrt": (UNIT, SampledFunction.from_grid(UNIT, (9,), np.sqrt(np.linspace(0.0, 1.0, 9)))),
    "2d-polynomial": (
        _PLANE,
        SampledFunction.from_polynomial(Polynomial(2, {(1, 0): 1, (0, 2): Fraction(-1, 3)}), _PLANE),
    ),
    "2d-grid": (_PLANE, SampledFunction.from_grid(_PLANE, (3, 4), np.linspace(-1.0, 2.0, 12))),
}


def _weight(box: BoxDomain) -> WeightSpec:
    """The unit weight centered at the box center, as solve_bounded takes it."""
    return WeightSpec(dim=box.dim, lam=Fraction(1), center=tuple(Fraction(c) for c in box.center))
REFERENCE_CASES = {
    "1d-scalar": (lambda x: x[:, 0] ** 2, UNIT, 1e-10),
    "2d-scalar": (lambda x: x[:, 0] * x[:, 1], SQUARE, 1e-12),
    "gaussian-erf": (lambda x: np.exp(-x[:, 0] ** 2), UNIT, 1e-13),
    "1d-array": (lambda x: x[:, :1] ** np.arange(6), UNIT, 1e-12),
    "sqrt-refined": (lambda x: np.column_stack([np.ones(len(x)), np.sqrt(x[:, 0] + SQRT_SHIFT)]), UNIT, 1e-10),
    "2d-array": (lambda x: np.column_stack([np.sqrt(x[:, 0] * x[:, 1] + SQRT_SHIFT), x[:, 1]]), SQUARE, 1e-8),
    # levels wider than MAX_BATCH_NODES: 64 1-D panels, 16 2-D panels
    "1d-oscillation": (lambda x: np.cos(300.0 * x[:, 0]), UNIT, 1e-12),
    "2d-kink": (lambda x: abs(x[:, 0] + x[:, 1] - 2.0 / 3.0), BoxDomain(((0.0, 1.0),) * 2), 1e-5),
}


class TestLevelBatching:
    """integrate_box against the recursive reference: the same panel tree
    and bit-identical integrals, in fewer calls of at most MAX_BATCH_NODES
    nodes."""

    @pytest.mark.parametrize("name", sorted(REFERENCE_CASES))
    def test_matches_recursive_reference(self, name):
        fn, box, tol = REFERENCE_CASES[name]
        calls, reference_calls = [], []
        got = integrate_box(recorded(fn, calls), box, tol=tol)
        reference = recursive_integrate_box(recorded(fn, reference_calls), box, tol=tol)
        assert_same_bits(got, reference)
        # the same panels: the same nodes, visited level by level
        nodes, reference_nodes = np.concatenate(calls), np.concatenate(reference_calls)
        assert np.array_equal(nodes[np.lexsort(nodes.T)], reference_nodes[np.lexsort(reference_nodes.T)])
        assert max(map(len, calls)) <= MAX_BATCH_NODES
        assert len(calls) <= len(reference_calls)

    @pytest.mark.parametrize("name", ["1d-oscillation", "2d-kink"])
    def test_wide_level_is_split(self, name):
        fn, box, tol = REFERENCE_CASES[name]
        depths = []
        recursive_integrate_box(fn, box, tol=tol, depths=depths)
        widest = max(depths.count(d) for d in set(depths))
        assert widest * PANEL_ORDER**box.dim > MAX_BATCH_NODES
        calls = []
        integrate_box(recorded(fn, calls), box, tol=tol)
        assert max(map(len, calls)) == MAX_BATCH_NODES

    @pytest.mark.parametrize("name", sorted(DATA_CASES))
    def test_solve_bounded_integrands_match(self, name):
        """The integrands the bounded pipeline handed integrate_box before its
        closed forms: the batched tree gives the recursion's bits on them, and
        both agree with the closed forms within QUAD_TOL."""
        box, f = DATA_CASES[name]
        w = _weight(box)
        indices = rightinverse.multi_indices_up_to(box.dim, 6)
        x0 = np.array(box.center)

        def data_side(x):
            gauss = np.exp(-((x - x0) ** 2).sum(axis=1))
            fx = f(x)
            return np.column_stack([fx[:, None] * orthonormal_table(w, indices, x) * gauss[:, None], fx**2 * gauss, fx**2])

        batched = integrate_box(data_side, box, tol=domains.QUAD_TOL)
        assert_same_bits(batched, recursive_integrate_box(data_side, box, tol=domains.QUAD_TOL))
        pairs, weighted, l2_sq = f.integrals(box.center, 6)
        closed = [pairs[alpha] for alpha in indices] + [weighted, l2_sq]
        assert np.abs(batched - closed).max() <= domains.QUAD_TOL

    def test_panel_rule_built_once_and_read_only(self, monkeypatch):
        built = []
        leggauss = np.polynomial.legendre.leggauss
        monkeypatch.setattr(np.polynomial.legendre, "leggauss", lambda k: built.append(k) or leggauss(k))
        domains._panel_rule.cache_clear()
        for _ in range(3):
            for box in (UNIT, SQUARE):
                integrate_box(lambda x: x[:, 0] ** 2, box)
        assert built == [PANEL_ORDER, PANEL_ORDER]
        for dim in (1, 2):
            nodes, weights = domains._panel_rule(dim)
            with pytest.raises(ValueError):
                nodes[0, 0] = 0.0
            with pytest.raises(ValueError):
                weights[0] = 0.0


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
        """A basis that is not orthonormal (every h_alpha doubled, so every
        pairing doubled) projects more than the data holds, and the Bessel
        check says so."""
        integrals = SampledFunction.integrals

        def doubled(self, x0, top):
            pairs, weighted, l2_sq = integrals(self, x0, top)
            return 2.0 * pairs, weighted, l2_sq

        monkeypatch.setattr(SampledFunction, "integrals", doubled)
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
    """A bounded solve states its limits: the entries of its dense (N+3)^n
    solution array and the degree whose basis norm stays a finite float."""

    @pytest.mark.parametrize("dim, last_ok", [(1, 148), (2, 147)])
    def test_degree_limit_both_sides(self, dim, last_ok):
        assert domains.max_truncation(dim) == last_ok
        check_input_limits(dim, last_ok)
        with pytest.raises(InputLimitError, match=f"degree limit {last_ok}"):
            check_input_limits(dim, last_ok + 1)

    @pytest.mark.parametrize("dim, last_ok", [(1, 32765), (2, 178), (3, 29), (4, 10)])
    def test_size_limit_both_sides(self, dim, last_ok):
        """Just inside MAX_TENSOR_ENTRIES the size passes (in 1-D and 2-D the
        degree limit then names itself); one degree more names the size limit."""
        assert (last_ok + 3) ** dim <= domains.MAX_TENSOR_ENTRIES < (last_ok + 4) ** dim
        if last_ok > domains.max_truncation(dim):
            with pytest.raises(InputLimitError, match="degree limit"):
                check_input_limits(dim, last_ok)
        else:
            check_input_limits(dim, last_ok)
        with pytest.raises(InputLimitError, match="MAX_TENSOR_ENTRIES"):
            check_input_limits(dim, last_ok + 1)

    def test_every_input_the_panel_limit_admitted_is_admitted(self):
        """The per-panel limit this one replaced, C(N+n, n) 12^n <= 2,000,000
        Hermite values, admitted with the degree limit N <= 148, 147, 17, 4
        and 1 in 1- to 5-D and nothing from 6-D on; each is still admitted."""
        admitted = 0
        for dim in range(1, 8):
            for degree in range(domains.max_truncation(dim) + 1):
                if math.comb(degree + dim, dim) * 12**dim <= 2_000_000:
                    check_input_limits(dim, degree)
                    admitted += 1
        assert admitted == 149 + 148 + 18 + 5 + 2

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

        for name in ("multi_indices_up_to", "gaussian_moments", "hermite_gram", "integrate_box"):
            monkeypatch.setattr(domains, name, forbidden)
        box = BoxDomain(intervals)
        with pytest.raises(InputLimitError):
            solve_bounded(box, SampledFunction.constant(box, 1.0), truncation=degree)


def _mp_hermite_values(mpmath, top: int, t):
    """h_0(t)..h_top(t) in mpmath, by the normalized recurrence."""
    values, prev = [mpmath.pi ** mpmath.mpf(-0.25)], mpmath.mpf(0)
    for k in range(top):
        values.append(t * mpmath.sqrt(mpmath.mpf(2) / (k + 1)) * values[k] - mpmath.sqrt(mpmath.mpf(k) / (k + 1)) * prev)
        prev = values[k]
    return values


def _magnitude(lo, hi, origin, x0, rows, top) -> np.ndarray:
    """(rows, top+1) float integrals of |s^m h_k(t)| e^{-t^2} over [lo, hi]:
    the scale each closed-form entry is measured against."""
    nodes, weights = np.polynomial.legendre.leggauss(400)
    x = (hi + lo) / 2.0 + (hi - lo) / 2.0 * nodes
    t = x - x0
    h = np.array(normalized_hermite_values(top, t, np.full_like(t, math.pi**-0.25)))
    powers = (x - origin)[None, :] ** np.arange(rows)[:, None]
    integrand = abs(powers[:, None, :] * h[None, :, :]) * np.exp(-t * t)
    return integrand @ weights * (hi - lo) / 2.0


class TestClosedForms:
    """The 1-D Gaussian moment tables, the non-dyadic grid of the silent
    quadrature error, and the exact hand-off to the solver."""

    ORACLE_KS = (0, 1, 2, 3, 10, 40, 80, 120, 147, 148)

    @pytest.mark.parametrize(
        "lo, hi, origin, x0, rows",
        [
            (-1.0, 1.0, 0.0, 0.0, 7),  # centered, polynomial data
            (0.25, 1.5, 0.0, 0.875, 7),  # off-center box, weight at its center
            (0.25, 0.5625, 0.25, 0.875, 3),  # one grid cell of that box
            (4.0, 5.0, 0.0, 0.0, 7),  # far on the right of the weight: erfc
            (-6.0, -5.25, -6.0, 0.0, 3),  # far on the left, a grid cell
        ],
        ids=["centered", "off-center", "grid-cell", "far-right", "far-left-cell"],
    )
    def test_moments_match_mpmath(self, lo, hi, origin, x0, rows):
        """integral s^m h_k(t) e^{-t^2}, k up to max_truncation(1), against
        30-digit mpmath.quad; each entry within 1e-13 of the integral of
        its absolute value."""
        mpmath = pytest.importorskip("mpmath")
        top = domains.max_truncation(1)
        assert top == self.ORACLE_KS[-1]
        table = gaussian_moments(np.array([lo]), np.array([hi]), np.array([origin]), x0, rows, top + 1)[0]
        scale = _magnitude(lo, hi, origin, x0, rows, top)
        with mpmath.workdps(30):
            cache = {}

            def entry(x, m, k):
                if x not in cache:
                    t = x - x0
                    cache[x] = (_mp_hermite_values(mpmath, top, t), mpmath.exp(-t * t))
                h, gauss = cache[x]
                return (x - origin) ** m * h[k] * gauss

            pieces = mpmath.linspace(lo, hi, 5)
            for m in range(rows):
                for k in self.ORACLE_KS:
                    exact = mpmath.quad(lambda x: entry(x, m, k), pieces, method="gauss-legendre")
                    assert abs(table[m, k] - exact) <= 1e-13 * scale[m, k], (m, k)

    def test_far_end_underflows_to_zero(self):
        """At |t| = 40, e^{-t^2/2} is 0 in floats: the far end adds 0, not inf * 0."""
        table = gaussian_moments(np.array([0.0, 38.0]), np.array([40.0, 40.0]), np.zeros(2), 0.0, 3, 149)
        assert np.isfinite(table).all()
        assert table[0, 0, 0] == pytest.approx(math.pi**-0.25 * math.sqrt(math.pi) / 2, rel=1e-15)
        assert np.abs(table[1]).max() < 1e-300

    def test_non_dyadic_grid(self):
        """The 7 x 6 grid whose weighted norm the panel tree missed by 3.2e-4
        at QUAD_TOL: the closed form is within 1e-12 of a 40-point rule per
        cell, and its unweighted norm is the exact multilinear one."""
        box = BoxDomain(((-1.0, 1.0), (-0.5, 0.5)))
        values = np.random.default_rng(5).uniform(-1, 1, 42)
        report = embedding_check(SampledFunction.from_grid(box, (7, 6), values.tolist()))
        grid = values.reshape(7, 6)
        axes = [np.linspace(-1.0, 1.0, 7), np.linspace(-0.5, 0.5, 6)]
        rule, weights = np.polynomial.legendre.leggauss(40)
        reference = 0.0
        for i in range(6):
            for j in range(5):
                (x0, x1), (y0, y1) = axes[0][i : i + 2], axes[1][j : j + 2]
                x = (x0 + x1) / 2 + (x1 - x0) / 2 * rule
                y = (y0 + y1) / 2 + (y1 - y0) / 2 * rule
                # hat functions by np.interp over each axis's unit vectors
                hx = np.stack([np.interp(x, axes[0], row) for row in np.eye(7)], axis=1)
                hy = np.stack([np.interp(y, axes[1], row) for row in np.eye(6)], axis=1)
                f = hx @ grid @ hy.T
                cell = (f * f * np.exp(-x[:, None] ** 2 - y[None, :] ** 2)) @ weights @ weights
                reference += cell * (x1 - x0) * (y1 - y0) / 4
        assert report.weighted_sq == pytest.approx(reference, rel=1e-12)
        assert abs(report.weighted_sq - 0.197887) < 1e-6

        def mass(points: int, width: Fraction) -> list[list[Fraction]]:
            """Hat mass matrix: h/3 at the ends, 2h/3 inside, h/6 beside the diagonal."""
            m = [[Fraction(0)] * points for _ in range(points)]
            for c in range(points - 1):
                m[c][c] += width / 3
                m[c + 1][c + 1] += width / 3
                m[c][c + 1] = m[c + 1][c] = width / 6
            return m

        mx, my = mass(7, Fraction(2, 6)), mass(6, Fraction(1, 5))
        v = [[Fraction(float(e)) for e in row] for row in grid]
        exact = sum(
            v[i][j] * mx[i][k] * my[j][l] * v[k][l]
            for i in range(7) for k in range(7) if mx[i][k]
            for j in range(6) for l in range(6) if my[j][l]
        )
        assert report.l2_sq == pytest.approx(float(exact), rel=1e-14)

    @pytest.mark.parametrize("name", sorted(DATA_CASES))
    def test_no_panel_quadrature(self, monkeypatch, name):
        def forbidden(*args, **kwargs):
            raise AssertionError("integrate_box called")

        monkeypatch.setattr(domains, "integrate_box", forbidden)
        box, f = DATA_CASES[name]
        assert solve_bounded(box, f, a=Fraction(1, 2), truncation=5).residual_exact
        assert embedding_check(f).holds

    @pytest.mark.parametrize("name", sorted(DATA_CASES))
    def test_exact_handoff_equals_fraction_construction(self, monkeypatch, name):
        """f_exp from each coefficient's integer ratio over one power of two
        is the HermiteExpansion of Fraction(c), exactly."""
        box, f = DATA_CASES[name]
        truncation = 6
        seen = []
        solve = domains.exact_solve
        monkeypatch.setattr(domains, "exact_solve", lambda f_exp, a: seen.append(f_exp) or solve(f_exp, a))
        solve_bounded(box, f, truncation=truncation)
        pairs, _, _ = f.integrals(box.center, truncation)
        unit = math.pi ** (box.dim / 2.0)
        coeffs = {}
        for alpha in rightinverse.multi_indices_up_to(box.dim, truncation):
            norm = math.sqrt(float(HermiteExpansion.basis_norm_sq(alpha, Fraction(1))) * unit)
            c = float(pairs[alpha]) / norm
            if c != 0.0:
                coeffs[alpha] = Fraction(c)
        (f_exp,) = seen
        assert f_exp == HermiteExpansion(_weight(box), coeffs)
        assert len(f_exp.nums) == len(coeffs) > 1

    def test_evaluation_matches_data(self):
        """__call__ on the coefficient tensor: the polynomial itself, and the
        grid's interpolant (np.interp in 1-D)."""
        rng = np.random.default_rng(3)
        box, f = DATA_CASES["2d-polynomial"]
        points = rng.uniform(*zip(*box.intervals), size=(50, 2))
        poly = Polynomial(2, {(1, 0): 1, (0, 2): Fraction(-1, 3)})
        assert f(points) == pytest.approx([float(poly.evaluate(list(p))) for p in points], abs=1e-15)
        box, f = DATA_CASES["1d-grid"]
        x = rng.uniform(0.25, 1.5, size=50)
        nodes = np.linspace(0.25, 1.5, 5)
        assert f(x[:, None]) == pytest.approx(np.interp(x, nodes, [0.3, -1.0, 0.5, 2.0, 0.0]), abs=1e-15)


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

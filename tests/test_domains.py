"""Bounded-domain pipeline, embedding checks, and the counterexample."""

import dataclasses
import itertools
import math
import random
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from gauss_rinv import domains, rightinverse
from gauss_rinv.cli import run_suite
from gauss_rinv.domains import (
    BoxDomain,
    InputLimitError,
    QuadratureError,
    SampledFunction,
    check_input_limits,
    counterexample_report,
    embedding_check,
    gauss_rule,
    gaussian_moments,
    hermite_gram,
    integrate_box,
    normalized_hermite_values,
    solve_bounded,
)
from gauss_rinv.hermite import HermiteExpansion, WeightSpec, monomial_to_hermite
from gauss_rinv.polynomials import Polynomial, pack
from reference import basis_norm_sq


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


def sampled_values(f: SampledFunction, points) -> np.ndarray:
    """f at an (m, n) array of points, zero outside its box, read from its
    data alone: per point, each axis's cell by np.searchsorted on its
    edges, then that cell's polynomial in x_j - origin."""
    coeffs = f.coeffs.reshape([s for _, origins, powers in f.axes for s in (len(origins), len(powers))])
    values = []
    for point in np.asarray(points, dtype=float):
        value = coeffs
        for x, (edges, origins, powers) in zip(point, f.axes):
            c = min(max(int(np.searchsorted(edges, x)) - 1, 0), len(origins) - 1)
            value = np.tensordot((x - origins[c]) ** powers, value[c], axes=1)
        inside = all(lo <= x <= hi for x, (lo, hi) in zip(point, f.box.intervals))
        values.append(float(value) if inside else 0.0)
    return np.array(values)


def kept_entries(build) -> int:
    """The results of a ``domains._kept`` builder in its one store."""
    return sum(key[0] is build.__wrapped__ for key in domains._KEPT)


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
        val = integrate_box(lambda x: x[:, 0] * x[:, 1], box)
        assert val == pytest.approx(1.0, rel=1e-12)

    def test_gaussian_against_erf(self):
        box = BoxDomain(((0.0, 1.0),))
        val = integrate_box(lambda x: np.exp(-x[:, 0] ** 2), box)
        assert val == pytest.approx(math.sqrt(math.pi) / 2 * math.erf(1.0), rel=1e-12)

    def test_array_integrand_gives_every_component(self):
        """An (m, k) integrand returns k integrals: x^j on [0, 1] is 1/(j+1)."""
        vals = integrate_box(lambda x: x[:, :1] ** np.arange(6), BoxDomain(((0.0, 1.0),)))
        assert vals.shape == (6,)
        for j, v in enumerate(vals):
            assert abs(v - 1.0 / (j + 1)) <= 1e-12

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_integrand_raises_at_once(self, bad):
        """One call on the 64 x 64 nodes of the fixed rule, then the error."""
        calls = []

        def fn(x):
            calls.append(len(x))
            return np.where(x[:, 0] > 0.5, bad, 1.0)

        with pytest.raises(QuadratureError, match="non-finite integral"):
            integrate_box(fn, BoxDomain(((0.0, 1.0), (0.0, 1.0))))
        assert calls == [domains.INTEGRAL_FORM_ORDER**2]


UNIT = BoxDomain(((0.0, 1.0),))
_LINE, _PLANE = BoxDomain(((0.25, 1.5),)), BoxDomain(((0.5, 1.5), (-1.0, 0.0)))
# One of each data kind, on symmetric and off-center boxes.
DATA_CASES = {
    "1d-constant": (BoxDomain(((-1.0, 1.0),)), SampledFunction.constant(BoxDomain(((-1.0, 1.0),)), 1.0)),
    "1d-grid": (_LINE, SampledFunction.from_grid(_LINE, (5,), [0.3, -1.0, 0.5, 2.0, 0.0])),
    # sqrt(x) sampled on 9 nodes: its interpolant kinks at every node
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


class TestLevelBatching:
    """The closed-form tables against integrate_box on the integrands they
    replaced."""

    @pytest.mark.parametrize("name", sorted(DATA_CASES))
    def test_solve_bounded_integrands_match(self, name):
        """The integrands the bounded pipeline handed integrate_box before its
        closed forms, integrated cell by cell of the data, on each of which it
        is a polynomial: within QUAD_TOL of the closed forms."""
        box, f = DATA_CASES[name]
        w = _weight(box)
        indices = rightinverse.multi_indices_up_to(box.dim, 6)
        x0 = np.array(box.center)

        def data_side(x):
            gauss = np.exp(-((x - x0) ** 2).sum(axis=1))
            fx = sampled_values(f, x)
            return np.column_stack([fx[:, None] * orthonormal_table(w, indices, x) * gauss[:, None], fx**2 * gauss, fx**2])

        cells = itertools.product(*[zip(edges[:-1], edges[1:]) for edges, _, _ in f.axes])
        got = sum(integrate_box(data_side, BoxDomain(cell)) for cell in cells)
        pairs, weighted, l2_sq = f.integrals(box.center, 6)
        closed = [pairs[alpha] for alpha in indices] + [weighted, l2_sq]
        assert np.abs(got - closed).max() <= domains.QUAD_TOL


def _evaluate(expansion: HermiteExpansion, points) -> np.ndarray:
    """An expansion at points, through the orthonormal table: the
    coefficient over h_alpha is c_alpha ||G_alpha||_w."""
    w = expansion.weight
    unit = (math.pi / float(w.lam)) ** (w.dim / 2.0)
    indices = sorted(expansion.coeffs)
    orth = [
        float(expansion.coeffs[alpha])
        * math.sqrt(float(basis_norm_sq(alpha, w.lam)) * unit)
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

        g = integrate_box(gram, box).reshape(len(indices), len(indices))
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

    def test_inflated_gram_fails_the_bound_on_small_data(self, monkeypatch):
        """The diameter bound is compared relatively, so it can fail on small
        data: f = 1e-15 on [-1, 1] with every Gram matrix 1e4 too large reads
        ||u||_L2 100 times too large, above the bound."""
        box = BoxDomain(((-1.0, 1.0),))
        f = SampledFunction.constant(box, 1e-15)
        assert solve_bounded(box, f).bound_satisfied
        gram = domains.hermite_gram
        monkeypatch.setattr(domains, "hermite_gram", lambda *args: 1e4 * gram(*args))
        rep = solve_bounded(box, f)
        assert rep.norm_u_l2 > rep.bound_value > 0.0
        assert not rep.bound_satisfied and not rep.passed

    def test_corrupted_solution_fails_residuals(self, monkeypatch):
        """One wrong coefficient in u fails the exact residual; the data-side
        Bessel check does not read u and still holds."""
        solver = rightinverse._min_norm_coeffs

        def corrupt(*args):
            u = solver(*args)
            top = max(u.coeffs)
            return HermiteExpansion(u.weight, {**u.coeffs, top: u.coeffs[top] + Fraction(1, 7)})

        monkeypatch.setattr(rightinverse, "_min_norm_coeffs", corrupt)
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

    def test_negative_truncation_raises(self):
        box = BoxDomain(((-1.0, 1.0),))
        with pytest.raises(ValueError, match="truncation must be >= 0, got -1"):
            check_input_limits(1, -1)
        with pytest.raises(ValueError, match="truncation must be >= 0, got -1"):
            solve_bounded(box, SampledFunction.constant(box, 1.0), 0, -1)

    def test_degree_limit_matches_the_exact_basis_norms(self):
        """The int recurrence 2^(d+1) (d+1)! gives the degree limit that the
        Fraction basis norms ||G_(d+1)||^2 give against the same float limit."""

        def by_basis_norms(dim):
            limit = sys.float_info.max / math.pi ** (dim / 2.0)
            degree = 2
            while basis_norm_sq((degree + 1,), Fraction(1)) <= limit:
                degree += 1
            return degree - 2

        limits = [domains.max_truncation(dim) for dim in range(1, 7)]
        assert limits == [by_basis_norms(dim) for dim in range(1, 7)]
        assert limits == [148, 147, 147, 147, 147, 147]

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

    def test_rule_order_limit_both_sides(self, monkeypatch):
        """On [-1, 1] the moments of x^p ask for p + 28 nodes at N = 30 and
        p + 22 in embedding_check (k = 0 only): x^2020 and x^2026 ask for a
        rule of MAX_RULE_ORDER; one power more is refused before any rule."""

        class Asked(Exception):
            pass

        asked = []
        monkeypatch.setattr(domains, "gauss_rule", lambda order: asked.append(order) or _raise(Asked()))
        domains._KEPT.clear()
        box = BoxDomain(((-1.0, 1.0),))
        for check, last_ok in ((lambda f: solve_bounded(box, f), 2020), (embedding_check, 2026)):
            with pytest.raises(Asked):
                check(SampledFunction.from_polynomial(Polynomial.monomial((last_ok,)), box))
            with pytest.raises(InputLimitError, match="a Gauss rule of 2049 nodes, above MAX_RULE_ORDER = 2048"):
                check(SampledFunction.from_polynomial(Polynomial.monomial((last_ok + 1,)), box))
        assert asked == [2048, 2048]

    def test_polynomial_tensor_limit_both_sides(self, monkeypatch):
        """x^i (i < 128) and y^j (j < 256) fill a dense 128 x 256 tensor,
        MAX_TENSOR_ENTRIES; one more power of x is refused before any array."""
        box = BoxDomain(((-1.0, 1.0),) * 2)
        terms = {(i, 0): 1 for i in range(128)} | {(0, j): 1 for j in range(256)}
        assert SampledFunction.from_polynomial(Polynomial(2, terms), box).coeffs.size == domains.MAX_TENSOR_ENTRIES
        monkeypatch.setattr(domains, "np", None)
        with pytest.raises(InputLimitError, match=r"\(129, 256\) over the powers of each axis has 33024 entries"):
            SampledFunction.from_polynomial(Polynomial(2, terms | {(128, 0): 1}), box)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_constant_refused_before_any_array(self, monkeypatch, value):
        box = BoxDomain(((-1.0, 1.0),))
        monkeypatch.setattr(domains, "np", None)
        with pytest.raises(ValueError if math.isnan(value) else OverflowError):
            SampledFunction.constant(box, value)

    @pytest.mark.parametrize(
        "intervals, degree",
        [(((-1.0, 1.0),), 149), (((-1.0, 1.0),) * 2, 148), (((-1.0, 1.0),) * 3, 30), (((-40.0, 40.0),), 4)],
    )
    def test_rejected_before_any_work(self, monkeypatch, intervals, degree):
        """Over the tensor or degree limit, or on a box of diameter 80, whose
        constant e^{|U|^2} overflows a float, before any table is built."""

        def forbidden(*args, **kwargs):
            raise AssertionError("work started on an over-limit input")

        for name in (
            "multi_indices_up_to", "gaussian_moments", "axis_blocks", "hermite_gram", "basis_plan", "integrate_box",
        ):
            monkeypatch.setattr(domains, name, forbidden)
        box = BoxDomain(intervals)
        with pytest.raises(InputLimitError):
            solve_bounded(box, SampledFunction.constant(box, 1.0), truncation=degree)


class TestPolynomialData:
    """Constant and polynomial data are one path: a constant is the constant
    polynomial's one-cell tensor, and each term lands at its powers' slots."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("value", [0.0, -2.5, 1e-15, 1e308])
    def test_constant_is_the_constant_polynomial(self, dim, value):
        box = BoxDomain(tuple((-1.0 - j, 0.5 * j) for j in range(dim)))
        got = SampledFunction.constant(box, value)
        want = SampledFunction.from_polynomial(Polynomial.constant(dim, Fraction(value)), box)
        assert got.coeffs.tobytes() == np.full((1,) * dim, value).tobytes() == want.coeffs.tobytes()
        assert got.coeffs.shape == want.coeffs.shape and got.coeffs.dtype == want.coeffs.dtype
        for got_axis, want_axis in zip(got.axes, want.axes, strict=True):
            for a, b in zip(got_axis, want_axis, strict=True):
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_many_terms_land_where_a_dict_says(self):
        """20,000 terms over 160 x 200 gapped powers: every entry of the dense
        tensor is its term's coefficient, or 0 where no term has those powers."""
        rng = random.Random(5)
        x_powers, y_powers = rng.sample(range(1000), 160), rng.sample(range(1000), 200)
        pairs = rng.sample([(i, j) for i in x_powers for j in y_powers], 20_000)
        terms = {pair: Fraction(rng.choice([-1, 1]) * rng.randint(1, 99), rng.randint(1, 9)) for pair in pairs}
        box = BoxDomain(((-1.0, 1.0), (0.0, 2.0)))
        f = SampledFunction.from_polynomial(Polynomial(2, terms), box)
        axis_powers = [sorted({pair[j] for pair in terms}) for j in range(2)]
        assert [axis[2].tolist() for axis in f.axes] == axis_powers
        want = [[float(terms.get((i, j), 0)) for j in axis_powers[1]] for i in axis_powers[0]]
        assert f.coeffs.tolist() == want


def _raise(exc: Exception):
    raise exc


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

    @pytest.mark.parametrize("half", [1.0, 0.01])
    def test_weighted_norm_of_powers_matches_mpmath(self, half):
        """||f~||^2_w of x^d, d <= 16, on [-half, half] at x0 = 0, within
        1e-13 relative of gamma(d + 1/2, half^2), the same integral, at 40
        digits: the k = 0 column to the power 32 on a wide cell and on a
        narrow one."""
        mpmath = pytest.importorskip("mpmath")
        box = BoxDomain(((-half, half),))
        with mpmath.workdps(40):
            for d in range(17):
                _, weighted, _ = SampledFunction.from_polynomial(Polynomial(1, {(d,): 1}), box).integrals((0.0,), 0)
                exact = mpmath.gammainc(d + mpmath.mpf(0.5), 0, mpmath.mpf(half) ** 2)
                assert abs(weighted - exact) <= 1e-13 * exact, d

    def test_fine_grid_matches_a_rule_per_cell(self):
        """The cells of a 2,001-node grid on [3, 4] at x0 = 0, each with its
        left end as origin: the moments s^m h_k(t) e^{-t^2}, m <= 2, k <= 3
        (one sign on every cell), and the grid's ||f~||^2_w are within
        1e-13 relative of a 20-point Gauss-Legendre rule per cell."""
        nodes = np.linspace(3.0, 4.0, 2001)
        lo, hi = nodes[:-1], nodes[1:]
        table = gaussian_moments(lo, hi, lo, 0.0, 3, 4)
        rule, weights = np.polynomial.legendre.leggauss(20)
        s = ((hi - lo) / 2)[:, None] * (1.0 + rule)
        x = lo[:, None] + s
        # h_0..h_3 times pi^{1/4}, in closed form
        h = np.array([x**0, math.sqrt(2) * x, (2 * x**2 - 1) / math.sqrt(2), (2 * x**3 - 3 * x) / math.sqrt(3)])
        ws = np.exp(-x * x) * weights * ((hi - lo) / 2)[:, None]
        reference = np.einsum("mci,kci,ci->cmk", s[None] ** np.arange(3)[:, None, None], h, ws)
        np.testing.assert_allclose(table, math.pi**-0.25 * reference, rtol=1e-13, atol=0.0)
        values = np.random.default_rng(7).uniform(-1, 1, 2001)
        grid = SampledFunction.from_grid(BoxDomain(((3.0, 4.0),)), (2001,), values.tolist())
        _, weighted, _ = grid.integrals((0.0,), 0)
        f = values[:-1, None] + np.diff(values)[:, None] * s / (hi - lo)[:, None]
        assert weighted == pytest.approx(float((f * f * ws).sum()), rel=1e-13)

    @pytest.mark.parametrize(
        "intervals, terms",
        [
            (((-1.0, 1.0),), {(0,): 1, (2,): -3, (6,): Fraction(1, 2)}),
            (((-1.0, 1.0), (-0.5, 0.5)), {(0, 0): 2, (2, 4): 1, (4, 0): -1}),
        ],
        ids=["1d", "2d"],
    )
    def test_odd_pairings_of_even_data_are_zero(self, intervals, terms):
        """Even data on a box centred at x0, the origin of its powers: every
        pairing <f~, h_alpha>_w with an odd alpha_j is exactly 0.0, as the
        mirrored nodes of the folded rule give, and no even one is."""
        box = BoxDomain(intervals)
        for f in (SampledFunction.constant(box, 1.5), SampledFunction.from_polynomial(Polynomial(box.dim, terms), box)):
            pairs, _, _ = f.integrals(box.center, 12)
            odd = np.logical_or.reduce(np.indices(pairs.shape) % 2 == 1)
            assert (pairs[odd] == 0.0).all() and (pairs[~odd] != 0.0).all()

    def test_odd_plain_moments_of_a_symmetric_box_are_zero(self):
        """The plain block of [-0.7, 0.7] at power 8 takes its powers of the
        ends by products, which keep their sign symmetry: every integral of
        an odd power s^(p+q) is exactly 0.0, and no even one is."""
        plain = domains.axis_blocks(np.array([-0.7]), np.array([0.7]), np.zeros(1), 0.0, 8, 3)[2][0]
        odd = np.add.outer(np.arange(9), np.arange(9)) % 2 == 1
        assert (plain[odd] == 0.0).all() and (plain[~odd] > 0.0).all()

    def test_wide_and_far_cells_read_only_the_window(self, monkeypatch):
        """Past |t| = MOMENT_WINDOW every integrand is 0 in floats, so a cell
        reaching to 1000 is integrated over its part inside the window, by a
        rule of order at most 1024, and a cell beyond it reads 0."""
        rule = domains.gauss_rule

        def bounded_rule(order):
            assert order <= 1024, order
            return rule(order)

        monkeypatch.setattr(domains, "gauss_rule", bounded_rule)
        table = gaussian_moments(np.array([0.0, 1000.0]), np.array([1000.0, 1001.0]), np.zeros(2), 0.0, 3, 4)
        assert table[0, 0, 0] == pytest.approx(math.pi**-0.25 * math.sqrt(math.pi) / 2, rel=1e-15)
        assert (table[1] == 0.0).all()

    def test_large_tables_are_built_not_kept(self):
        """Blocks or a Gram matrix over KEPT_BYTES // 64 with their key are
        returned, read-only, but not kept: the blocks of the whole 2,000-cell
        axis of a 2,001-node grid at top 3 (250 KiB), whose first cell reads
        as that cell's own kept blocks, and a size-130 Gram matrix (132 KiB).
        Kept blocks are keyed on the bits of x0, so 0.0 and -0.0 key two."""
        domains._KEPT.clear()
        nodes = np.linspace(-1.0, 1.0, 2001)
        lo, hi = nodes[:-1], nodes[1:]
        blocks = domains.axis_blocks(lo, hi, lo, 0.0, 1, 3)
        assert [block.shape for block in blocks] == [(2000, 2, 4), (2000, 2, 2), (2000, 2, 2)]
        assert not any(block.flags.writeable for block in blocks)
        gram = hermite_gram(-1.0, 1.0, 0.0, 130)
        assert gram.shape == (130, 130) and not gram.flags.writeable
        assert kept_entries(domains.axis_blocks) == kept_entries(hermite_gram) == 0
        for x0 in (0.0, -0.0):
            first = domains.axis_blocks(lo[:1], hi[:1], lo[:1], x0, 1, 3)
            for block, whole in zip(first, blocks):
                np.testing.assert_allclose(block[0], whole[0], rtol=1e-14, atol=0.0)
        assert (kept_entries(domains.axis_blocks), kept_entries(hermite_gram)) == (2, 0)

    def test_slices_do_not_change_the_bits(self, monkeypatch):
        """gaussian_moments takes its cells in slices under KEPT_BYTES, with q
        chosen over all of them: 512 grid cells and a wide one, which sets q
        = 64, give the same bytes, and the same (C, rows, cols) view of a
        (rows, cols, C) array, whether a slice holds one cell, the default's
        9 or all 513."""
        nodes = np.append(np.linspace(-1.0, 1.0, 513), 3.0)
        lo, hi = nodes[:-1], nodes[1:]
        tables = []
        for budget in (1, domains.KEPT_BYTES, 1 << 40):
            monkeypatch.setattr(domains, "KEPT_BYTES", budget)
            tables.append(gaussian_moments(lo, hi, lo, 0.0, 3, 148))
        assert {table.strides for table in tables} == {(8, 148 * 513 * 8, 513 * 8)}
        assert len({table.tobytes() for table in tables}) == 1

    def test_long_grid_working_set_stays_under_budget(self):
        """solve_bounded of a 2,049-node grid on [-1, 1] at N = 147, its
        rules warm, allocates at most 40 MiB at its peak: the Hermite values
        at the 65,536 rule nodes of its 2,048 cells, 78 MB, are built a slice
        of at most KEPT_BYTES // 4 at a time."""
        box = BoxDomain(((-1.0, 1.0),))
        f = SampledFunction.from_grid(box, (2049,), np.random.default_rng(5).uniform(-1, 1, 2049).tolist())
        solve_bounded(box, f, truncation=147)
        tracemalloc.start()
        try:
            report = solve_bounded(box, f, truncation=147)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak <= 40 << 20, peak

    def test_large_basis_plan_is_built_not_kept(self):
        """The 2-D plan at the degree limit, 11,325 indices of degree <= 149,
        is 442 KiB, over KEPT_BYTES // 64: built in full, not kept; N = 16 is
        kept."""
        domains._KEPT.clear()
        keys, flat, norms, columns = domains.basis_plan(2, 147)
        assert len(keys) == flat.shape[1] == len(norms) == len(columns) == math.comb(151, 2)
        assert flat[1, columns[pack((149, 0))]] == 149 * 150
        assert kept_entries(domains.basis_plan) == 0
        domains.basis_plan(2, 16)
        assert kept_entries(domains.basis_plan) == 1

    def test_one_store_drops_the_least_recently_read_first(self):
        """Past KEPT_BYTES the store drops its least recently read results
        first, so it never holds more, and a result read again stays."""
        built = []

        @domains._kept
        def table(i):
            built.append(i)
            return np.full(domains.KEPT_BYTES // 1024, float(i))  # 64 KiB

        domains._KEPT.clear()
        first = table(-1)
        for i in range(1, 300):
            table(i)
            assert table(-1) is first
            assert sum(size for _, size in domains._KEPT.values()) <= domains.KEPT_BYTES
        kept = [key[1] for key in domains._KEPT]
        assert 100 < len(kept) < 300
        assert kept == [*range(301 - len(kept), 300), -1]
        assert built == [-1, *range(1, 300)]
        table(1)
        assert built[-1] == 1 and [key[1] for key in domains._KEPT][-1] == 1

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
        monkeypatch.setattr(domains, "exact_solve", lambda f_exp, *rest: seen.append(f_exp) or solve(f_exp, *rest))
        solve_bounded(box, f, truncation=truncation)
        pairs, _, _ = f.integrals(box.center, truncation)
        unit = math.pi ** (box.dim / 2.0)
        coeffs = {}
        for alpha in rightinverse.multi_indices_up_to(box.dim, truncation):
            norm = math.sqrt(float(basis_norm_sq(alpha, Fraction(1))) * unit)
            c = float(pairs[alpha]) / norm
            if c != 0.0:
                coeffs[alpha] = Fraction(c)
        (f_exp,) = seen
        assert f_exp == HermiteExpansion(_weight(box), coeffs)
        assert len(f_exp.nums) == len(coeffs) > 1


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
        """x + y^2/3 on [-2, 2] x [-1, 1] peaks at the corners (2, +-1):
        sup^2 = 49/9, at two vertices of the sample grid."""
        box = BoxDomain(((-2.0, 2.0), (-1.0, 1.0)))
        poly = Polynomial(2, {(1, 0): 1, (0, 2): Fraction(1, 3)})
        report = embedding_check(SampledFunction.from_polynomial(poly, box))
        assert report.holds
        assert report.sup_sq == pytest.approx(49 / 9, rel=1e-12)

    def test_polynomial_sup_inside_a_cell(self):
        """1 - x^2 on [-1, 1] vanishes at the vertices; the cell's centre,
        one of its samples, reads its sup 1."""
        box = BoxDomain(((-1.0, 1.0),))
        poly = Polynomial(1, {(0,): 1, (2,): -1})
        assert embedding_check(SampledFunction.from_polynomial(poly, box)).sup_sq == 1.0

    def test_polynomial_sup_at_a_vertex_and_a_centre(self):
        """x (1 - y^2) on [-1, 1]^2 peaks at x = +-1, y = 0: an end of the
        affine axis and the centre of the quadratic one, so sup^2 reads 1
        exactly."""
        box = BoxDomain(((-1.0, 1.0),) * 2)
        poly = Polynomial(2, {(1, 0): 1, (1, 2): -1})
        assert embedding_check(SampledFunction.from_polynomial(poly, box)).sup_sq == 1.0

    def test_many_quadratic_axes_stay_small(self):
        """12 - |x|^2 on [-1, 1]^12 has 12 axes of power 2, so 3 samples on
        each: its 3^12 values, built one axis at a time, keep a warm check's
        tracemalloc peak under 24 MiB, and the sup is 12 at the centre."""
        box = BoxDomain(((-1.0, 1.0),) * 12)
        terms = {(0,) * 12: 12, **{tuple(2 * (i == j) for i in range(12)): -1 for j in range(12)}}
        f = SampledFunction.from_polynomial(Polynomial(12, terms), box)
        embedding_check(f)
        tracemalloc.start()
        try:
            report = embedding_check(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.sup_sq == 144.0 and report.holds
        assert peak <= 24 << 20, peak

    def test_wide_box_builds_no_dense_matrix(self, monkeypatch):
        """A cold check of 1 on [-40, 40] reads its moments by a rule of
        order 2,048 and allocates at most 4 MiB at its peak: the rule holds
        O(order) floats, where a 2,048 x 2,048 Jacobi matrix takes 32 MiB.
        The fixed-point step, a few ints at a time, replays its results
        recorded from a first build, since tracing its big-int steps takes
        about 20 s."""
        steps, newton = {}, domains._legendre_newton

        def replay(*args):
            if args not in steps:
                steps[args] = newton(*args)
            return steps[args]

        monkeypatch.setattr(domains, "_legendre_newton", replay)
        gauss_rule.__wrapped__(2048)
        domains._KEPT.clear()
        f = SampledFunction.constant(BoxDomain(((-40.0, 40.0),)), 1.0)
        tracemalloc.start()
        try:
            report = embedding_check(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.holds and [key[1] for key in domains._KEPT if key[0] is gauss_rule.__wrapped__] == [2048]
        assert peak <= 4 << 20, peak

    @pytest.mark.parametrize(
        "intervals, shape, seed, rel",
        [(((0.0, 1.0), (-1.0, 1.0)), (3, 5), 1, 0.0), (((-1.0, 1.0), (-0.5, 0.5)), (7, 6), 5, 1e-15)],
        ids=["dyadic", "non-dyadic"],
    )
    def test_grid_sup_is_the_largest_value(self, intervals, shape, seed, rel):
        """A grid is multilinear on each cell, so its sup is its largest
        value; a cell's far end, v_c + (v_(c+1) - v_c) / h * h, rounds
        unless the spacing is dyadic."""
        values = np.random.default_rng(seed).uniform(-1, 1, math.prod(shape))
        values[len(values) // 2] = -3.0
        report = embedding_check(SampledFunction.from_grid(BoxDomain(intervals), shape, values.tolist()))
        assert report.sup_sq == pytest.approx(9.0, rel=rel, abs=0.0)

    def test_grid_function(self):
        box = BoxDomain(((0.0, 1.0),))
        f = SampledFunction.from_grid(box, (5,), [0.0, 0.25, 0.5, 0.75, 1.0])
        assert sampled_values(f, [[0.5]]) == pytest.approx([0.5])
        assert sampled_values(f, [[0.3], [1.5]]).tolist() == pytest.approx([0.3, 0.0])  # zero outside
        assert embedding_check(f).holds

    def test_relative_tolerance_sees_an_inflated_weighted_norm(self, monkeypatch):
        """Each route's slack is EMBEDDING_TOL times its right-hand side, so
        a 2x inflation of ||f~||^2_w fails the L2 route on data scaled by
        1e-6, whose squared norms are far below the tolerance itself."""
        box = BoxDomain(((-1.0, 1.0), (-0.5, 0.5)))
        f = SampledFunction.from_grid(box, (7, 6), (1e-6 * np.random.default_rng(5).uniform(-1, 1, 42)).tolist())
        honest = embedding_check(f)
        assert honest.holds and honest.l2_sq < 1e-11
        integrals = SampledFunction.integrals
        monkeypatch.setattr(
            SampledFunction, "integrals", lambda self, x0, top: (lambda p, w, l2: (p, 2 * w, l2))(*integrals(self, x0, top))
        )
        report = embedding_check(f)
        assert report.weighted_sq == 2 * honest.weighted_sq and report.l2_holds is False and not report.holds

    def test_negative_weighted_norm_raises(self, monkeypatch):
        """x^4 on [-0.01, 0.01] with its weighted block negated reads
        ||f~||^2_w as -2.2e-19, below -QUAD_TOL ||f||^2_L2: no verdict on it."""
        blocks = domains.axis_blocks
        monkeypatch.setattr(domains, "axis_blocks", lambda *args: (lambda p, w, l: (p, -w, l))(*blocks(*args)))
        box = BoxDomain(((-0.01, 0.01),))
        with pytest.raises(QuadratureError, match=r"\|\|f~\|\|\^2_w = -2\.2\d*e-19 is below -QUAD_TOL"):
            embedding_check(SampledFunction.from_polynomial(Polynomial(1, {(4,): 1}), box))

    def test_nonconstant_polynomial_rejected(self):
        with pytest.raises(ValueError):
            embedding_check(Polynomial.variable(1, 0))

    def test_nonconstant_polynomial_rejected_before_its_norm(self, monkeypatch):
        """x^200's exact weighted norm is past the float range: the degree is
        read first, so the refusal names the polynomial, not an overflow."""
        monkeypatch.setattr(domains, "norm_sq", lambda *args: _raise(AssertionError("norm taken")))
        with pytest.raises(ValueError, match="non-constant polynomials have neither finite L2 nor sup norm"):
            embedding_check(Polynomial.monomial((200,)))


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

    @pytest.mark.parametrize("c1, c2", [(0, 0), (Fraction(-1, 3), Fraction(7, 5))])
    def test_weighted_integral_matches_mpmath(self, c1, c2):
        """The fixed rule over [1, 8] against a 30-digit mpmath.quad."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            lin = mpmath.mpf(-1) / 2 + mpmath.mpf(c1.numerator) / c1.denominator
            const = mpmath.mpf(2) / 3 + mpmath.mpf(c2.numerator) / c2.denominator
            exact = mpmath.quad(lambda x: (lin * x + x * mpmath.log(x) + const) ** 2 * mpmath.exp(-x * x), [1, 8])
            got = counterexample_report(1000.0, c1, c2).weighted_integral
            assert abs(got - exact) <= 1e-14 * exact

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


def test_bounded_ops_call_no_numpy_linalg(monkeypatch):
    """With every numpy.linalg function raising and no rule kept, a bounded
    solve, an embedding check and the suite still pass: the Gauss rules
    start from asymptotic roots, not Jacobi-matrix eigenvalues."""

    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg called")

    for name in np.linalg.__all__:
        if callable(getattr(np.linalg, name)) and not isinstance(getattr(np.linalg, name), type):
            monkeypatch.setattr(np.linalg, name, refuse)
    domains._KEPT.clear()
    box = BoxDomain(((-1.0, 1.0), (-0.5, 0.5)))
    assert solve_bounded(box, SampledFunction.constant(box, 1.0), truncation=12).passed
    assert embedding_check(SampledFunction.from_polynomial(Polynomial(2, {(1, 0): 1, (1, 2): -1}), box)).holds
    assert run_suite()[1]

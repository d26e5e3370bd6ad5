"""Minimal-norm solver, the shifted sweep, kernel enrichment, operator norm, scaled weights."""

import json
import math
import random
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from gauss_rinv import cli, rightinverse
from gauss_rinv.cli import EXIT_CHECK_FAILED, EXIT_OK, main
from gauss_rinv.hermite import (
    HermiteExpansion,
    WeightSpec,
    inner_product,
    monomial_to_hermite,
)
from gauss_rinv.polynomials import Polynomial, key_layout, random_polynomial
from gauss_rinv.rightinverse import (
    GramConditionError,
    InputLimitError,
    KernelFunction,
    default_directions,
    enrich,
    kernel_basis,
    multi_indices_up_to,
    operator_norm,
    shifted_laplacian,
    solve_min_norm,
)
from conftest import polynomials, rationals
from reference import (
    basis_norm_sq,
    float_blocks,
    gauss_hermite,
    harmonic_basis,
    harmonic_dimension,
    hermite_row,
    lowered,
    normal_equations,
)

one_1d = Polynomial.constant(1, 1)
one_2d = Polynomial.constant(2, 1)
# The caches of the shifted sweep: its a-free Lagrange bases, its pivots and
# their inverses.
SWEEP_CACHES = (rightinverse._lagrange_bases, rightinverse._shifted_pivots, rightinverse._shifted_inverse)


def basis_element(w: WeightSpec, alpha, coef=1) -> HermiteExpansion:
    return HermiteExpansion(w, {alpha: coef})


def triangular_coeffs(f: HermiteExpansion, a) -> HermiteExpansion:
    """The unique u of degree <= deg f with (lap + a) u = f at a != 0, top
    down: u_alpha = (f_alpha - (lap u)_alpha) / a, where (lap u)_alpha reads
    only the degree |alpha| + 2 already solved: a particular solution for
    the plane-wave enrichment."""
    a = Fraction(a)
    rest = dict(f.coeffs)  # f - lap u on the degrees not yet solved
    u = {}
    for d in range(f.degree(), -1, -1):
        for alpha in [key for key in rest if sum(key) == d]:
            c = rest.pop(alpha) / a
            if c:
                u[alpha] = c
                for beta, b in lowered(alpha):
                    rest[beta] = rest.get(beta, 0) - b * c
    return HermiteExpansion(f.weight, u)


def triangular_report(f: Polynomial, a) -> rightinverse.SolveReport:
    """solve_min_norm's unit-weight report with the triangular solution in
    place of the weak one: the input the plane-wave enrichment was built for."""
    rep = solve_min_norm(f, a)
    u = triangular_coeffs(monomial_to_hermite(f, rep.weight), a)
    norm_u = u.norm_sq()
    ratio = norm_u.ratio(rep.norm_f_sq)
    return rep._replace(
        solution=u, norm_u_sq=norm_u, norm_u_sq_float=norm_u.to_float(), ratio=ratio,
        ratio_float=float(ratio), bound_satisfied=ratio <= rep.bound,
    )


def column_solve_operator_norm(dim: int, a, degree: int) -> float:
    """Reference norm of the truncated right inverse operator_norm reports:
    one exact min-norm solve at truncation degree per basis element G_alpha
    (degree <= degree) in orthonormal coordinates, then the top float
    eigenvalue of q^T q."""
    a = Fraction(a)
    unit = Fraction(1)
    cols = multi_indices_up_to(dim, degree)
    rows = multi_indices_up_to(dim, degree + 2)
    row_pos = {g: i for i, g in enumerate(rows)}
    q = np.zeros((len(rows), len(cols)))
    for ci, alpha in enumerate(cols):
        norm_in = basis_norm_sq(alpha, unit)
        basis = HermiteExpansion(WeightSpec.unit(dim), {alpha: unit})
        column = rightinverse._min_norm_coeffs(basis, a, degree)
        for gamma, c in column.coeffs.items():
            norm_out = basis_norm_sq(gamma, unit)
            q[row_pos[gamma], ci] = float(c) * math.sqrt(float(norm_out / norm_in))
    return math.sqrt(max(np.linalg.eigvalsh(q.T @ q)[-1], 0.0))


# The shifts of perfbench's solve workload (perfbench/workloads.py SHIFTS).
BENCH_SHIFTS = (Fraction(-2), Fraction(-1), Fraction(-1, 2), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3))


class TestAssemble:
    """Columns of shifted_laplacian: (lap + a) applied to one basis element."""

    def test_h2_column(self):
        w = WeightSpec.unit(1)
        assert shifted_laplacian(basis_element(w, (2,)), 0) == basis_element(w, (0,), 8)

    def test_shift_diagonal(self):
        w = WeightSpec.unit(1)
        for k in range(4):
            column = shifted_laplacian(basis_element(w, (k,)), 5)
            assert column.coeffs[(k,)] == 5

    def test_tensor_column(self):
        w = WeightSpec.unit(2)
        column = shifted_laplacian(basis_element(w, (2, 0)), 0)
        assert column == basis_element(w, (0, 0), 8)

    def test_action_matches_symbolic_laplacian(self):
        rng = random.Random(11)
        w = WeightSpec.unit(2)
        for _ in range(10):
            p = random_polynomial(rng, 2, max_degree=6, max_terms=6)
            lhs = shifted_laplacian(monomial_to_hermite(p, w), Fraction(1, 2))
            rhs = monomial_to_hermite(p.laplacian() + p.scale(Fraction(1, 2)), w)
            assert lhs == rhs


class TestLevels:
    """The cached levels every assembly of lap + a reads."""

    def test_cold_cache_high_degree(self):
        """A level is built without its lower levels: on a cold cache the
        1-D degree-3999 level is one call, a 1-D a = 1 sweep from degree
        800 walks its 401 levels and their pivots from the bottom up, with
        an exact weak residual, and an a = 0 solve of G_3999 reads the
        pivots of its own level alone."""
        for cache in (rightinverse._level, *SWEEP_CACHES):
            cache.cache_clear()
        # the class of odd x: members and entries on packed keys, G_3999 and its lowered G_3997
        odd = key_layout(1).parity
        assert rightinverse._level(1, 3999, odd) == ((3999 << 32 | 3999,), (((0, 4 * 3999 * 3998),),))
        rightinverse._level.cache_clear()
        f = basis_element(WeightSpec.unit(1), (800,))
        u, residual_exact, *_ = rightinverse.exact_solve(f, Fraction(1))
        assert len(u.nums) == 402 and u.degree() == 802
        assert residual_exact
        assert rightinverse._shifted_pivots.cache_info().currsize == 401
        for cache in SWEEP_CACHES:
            cache.cache_clear()
        assert rightinverse.exact_solve(basis_element(WeightSpec.unit(1), (3999,)), Fraction(0))[1]
        assert rightinverse._shifted_pivots.cache_info().currsize == 1

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_triangular_walks_only_the_classes_of_f(self, dim, monkeypatch):
        """The sweep that replaced the triangular solve walks only f's parity
        classes: an even f asks for no odd level."""
        asked = set()
        level = rightinverse._level

        def spy(d, degree, parity):
            asked.add(parity)
            return level(d, degree, parity)

        monkeypatch.setattr(rightinverse, "_level", spy)
        f = basis_element(WeightSpec.unit(dim), (6,) + (0,) * (dim - 1))
        assert rightinverse.exact_solve(f, Fraction(2))[1]
        assert asked == {0}  # the even class: no parity bit set

    def test_zero_shift_walks_only_the_levels_of_f(self, monkeypatch):
        """At a = 0 the levels do not couple, and the sweep walks only f's
        own: the 1-D Hermite data G_0 + G_40 asks for levels 0 and 40 and
        the two they raise into, 2 and 42, and counts the work of levels 0
        and 40 alone, so the empty levels between are never walked."""
        asked = set()
        level = rightinverse._level

        def spy(d, degree, parity):
            asked.add(degree)
            return level(d, degree, parity)

        monkeypatch.setattr(rightinverse, "_level", spy)
        f = HermiteExpansion(WeightSpec.unit(1), {(0,): 1, (40,): 1})
        assert rightinverse.exact_solve(f, Fraction(0))[1]
        assert asked == {0, 2, 40, 42}
        work = rightinverse._level_work(1, 0, 0) + rightinverse._level_work(1, 40, 0)
        monkeypatch.setattr(rightinverse, "MAX_MIN_NORM_WORK", work)
        assert rightinverse.exact_solve(f, Fraction(0))[1]
        monkeypatch.setattr(rightinverse, "MAX_MIN_NORM_WORK", work - 1)
        with pytest.raises(InputLimitError, match=f"needs {work} units of work"):
            rightinverse.exact_solve(f, Fraction(0))


def monomial_route_residual_zero(report, f: Polynomial) -> bool:
    """Reference weak residual check on monomials: r = lap(u) + a u - f has
    no Hermite term of degree <= N, the report's truncation (so r = 0 at
    a = 0, where r has degree deg f = N)."""
    u = report.solution.to_polynomial()
    r = u.laplacian() + u.scale(report.a) - f
    return all(sum(alpha) > report.truncation for alpha in monomial_to_hermite(r, report.weight).coeffs)


class TestTowerSpectrum:
    """The exact residual check guards the tower spectrum the min-norm solve
    inverts L P by: the a = 0 pivot inverse of the 2-D degree-4 even level
    served as if its harmonic tower's mu_0 were off by one."""

    F = Polynomial(2, {(4, 0): 1, (2, 2): 1, (0, 4): 1})
    KEY = (2, 0, 1, 4, 0)  # (dim, c numerator, c denominator, degree, odd axes)

    @staticmethod
    def pivot_inverse(mus, pivots) -> tuple[tuple[int, ...], int]:
        """(Q, D) in lowest terms with Q(mu_k) / D = 1 / pivots[k], Q of
        degree below len(mus): Lagrange interpolation in Fractions."""
        q = [Fraction(0)] * len(mus)
        for k, (mu, s) in enumerate(zip(mus, pivots)):
            basis = [Fraction(1, s)]
            for j, other in enumerate(mus):
                if j != k:
                    basis = [(below - other * c) / (mu - other) for c, below in zip(basis + [0], [0] + basis)]
            q = [x + b for x, b in zip(q, basis)]
        den = math.lcm(*(x.denominator for x in q))
        return tuple(int(x * den) for x in q), den

    def corrupt(self, monkeypatch):
        mus = [8 * (k + 1) * (2 * 4 - 2 * k + 2) for k in range(3)]
        inverse = rightinverse._shifted_inverse
        assert inverse(*self.KEY) == self.pivot_inverse(mus, mus)
        bad = self.pivot_inverse(mus, [mus[0] + 1, *mus[1:]])
        monkeypatch.setattr(
            rightinverse, "_shifted_inverse", lambda *k: bad if k == self.KEY else inverse(*k)
        )

    def test_wrong_mu_fails_residual(self, monkeypatch):
        assert solve_min_norm(self.F).residual_exact
        self.corrupt(monkeypatch)
        assert not solve_min_norm(self.F).residual_exact

    def test_wrong_mu_exits_1(self, tmp_path, monkeypatch):
        f_path, out = tmp_path / "f.json", tmp_path / "report.json"
        f_path.write_text(json.dumps(self.F.to_json_dict()))
        argv = ["solve", "--out", str(out), "--dim", "2", "--f", str(f_path)]
        assert main(argv) == EXIT_OK
        self.corrupt(monkeypatch)
        assert main(argv) == EXIT_CHECK_FAILED
        assert json.loads(out.read_text())["results"]["solve"]["residual_exact"] is False


class TestResidualRoutes:
    """residual_exact (sparse Hermite action) against the monomial route."""

    WEIGHTS = (
        WeightSpec.unit(2),
        WeightSpec(1, Fraction(5, 2), (Fraction(-1, 3),)),
        WeightSpec(3, Fraction(1, 3), (Fraction(1), Fraction(0), Fraction(2, 5))),
    )

    def test_routes_agree_on_random_inputs(self):
        rng = random.Random(31)
        for w in self.WEIGHTS:
            for a in (0, Fraction(1, 2), -3):
                for _ in range(4):
                    f = random_polynomial(rng, w.dim, max_degree=5, max_terms=6)
                    rep = solve_min_norm(f, a, weight=w)
                    assert rep.residual_exact
                    assert monomial_route_residual_zero(rep, f)
                    u = rep.solution.to_polynomial()
                    assert shifted_laplacian(rep.solution, a).to_polynomial() == (
                        u.laplacian() + u.scale(a)
                    )

    @pytest.mark.parametrize("a", [0, Fraction(-1, 2), 2])
    def test_corrupted_solution_fails_both_routes(self, a, monkeypatch):
        """One wrong coefficient in u turns both residual verdicts False."""

        def corrupt(solver):
            def wrapped(*args):
                u = solver(*args)
                top = max(u.coeffs)
                return HermiteExpansion(u.weight, {**u.coeffs, top: u.coeffs[top] + Fraction(1, 7)})

            return wrapped

        monkeypatch.setattr(rightinverse, "_min_norm_coeffs", corrupt(rightinverse._min_norm_coeffs))
        rng = random.Random(32)
        for w in self.WEIGHTS:
            f = random_polynomial(rng, w.dim, max_degree=4, max_terms=5, nonzero=True)
            rep = solve_min_norm(f, a, weight=w)
            assert not rep.residual_exact
            assert not monomial_route_residual_zero(rep, f)


class TestSolveMinNorm:
    def test_constant_n1(self):
        rep = solve_min_norm(one_1d)
        assert rep.solution.coeffs == {(2,): Fraction(1, 8)}
        assert rep.ratio == Fraction(1, 8)
        assert rep.residual_exact and rep.bound_satisfied

    def test_constant_n2(self):
        rep = solve_min_norm(one_2d)
        assert rep.solution.coeffs == {
            (2, 0): Fraction(1, 16),
            (0, 2): Fraction(1, 16),
        }
        assert rep.ratio == Fraction(1, 16)

    @pytest.mark.parametrize("k", [1, 2, 3, 6])
    def test_hermite_data(self, k):
        rep = solve_min_norm(Polynomial(1, {(i,): c for i, c in hermite_row(k, 1)}))
        assert rep.ratio == Fraction(1, 4 * (k + 1) * (k + 2))
        assert rep.residual_exact

    def test_shift_without_enrichment(self):
        """At a = 1 the weak solution of f = 1 on V_0 is (G_2 + G_0) / 9,
        ratio 1 / (8 + a^2) = 1/9 < 1/8: no kernel enrichment is needed."""
        rep = solve_min_norm(one_1d, a=1)
        assert rep.solution.coeffs == {(2,): Fraction(1, 9), (0,): Fraction(1, 9)}
        assert rep.ratio == Fraction(1, 9) and rep.bound_satisfied and rep.enrichment == "none"

    def test_zero_data(self):
        rep = solve_min_norm(Polynomial.zero(2))
        assert rep.solution.is_zero() and rep.ratio == 0 and rep.residual_exact

    def test_negative_shift_triangular(self):
        """The triangular solution of (lap - 2) u = x^2 - 1 solves it
        strongly, so it meets the weak equation on V_2 too; the weak
        solution has the smaller norm."""
        f = Polynomial(1, {(2,): 1, (0,): -1})
        rep = solve_min_norm(f, a=Fraction(-2))
        u_tri = triangular_coeffs(monomial_to_hermite(f, rep.weight), -2)
        tri = u_tri.to_polynomial()
        assert (tri.laplacian() - tri.scale(2) - f).is_zero()
        assert rep.residual_exact and monomial_route_residual_zero(rep, f)
        assert rep.ratio < u_tri.norm_sq().ratio(rep.norm_f_sq)


class TestSolveVerdict:
    @pytest.mark.parametrize("component", ["residual_exact", "bound_satisfied"])
    def test_each_component_can_fail(self, component):
        rep = solve_min_norm(one_2d)
        assert rep.passed
        assert not rep._replace(**{component: False}).passed


class TestMinNormStructure:
    def test_kernel_orthogonality(self):
        """The a=0 solution is weighted-orthogonal to harmonic polynomials."""
        rng = random.Random(23)
        w = WeightSpec.unit(2)
        for _ in range(5):
            f = random_polynomial(rng, 2, max_degree=5, max_terms=6, nonzero=True)
            u = solve_min_norm(f).solution_polynomial()
            for h in harmonic_basis(2, f.total_degree() + 2):
                assert inner_product(u, h, w).is_zero()

    def test_bound_dominance_random(self):
        rng = random.Random(99)
        for n in (1, 2, 3):
            for _ in range(5):
                f = random_polynomial(rng, n, max_degree=8, max_terms=8, nonzero=True)
                rep = solve_min_norm(f)
                assert rep.residual_exact
                assert rep.ratio <= Fraction(1, 8 * n)

    def test_equality_iff_constant(self):
        assert solve_min_norm(one_1d).ratio == Fraction(1, 8)
        f = Polynomial(1, {(1,): 1, (0,): 1})
        assert solve_min_norm(f).ratio < Fraction(1, 8)

    def test_linearity_in_coefficient_space(self):
        rng = random.Random(5)
        f = random_polynomial(rng, 2, max_degree=4, max_terms=5)
        g = random_polynomial(rng, 2, max_degree=4, max_terms=5)
        combo = f.scale(3) + g.scale(Fraction(-1, 2))
        u_combo = solve_min_norm(combo).solution_polynomial()
        u_split = (
            solve_min_norm(f).solution_polynomial().scale(3)
            + solve_min_norm(g).solution_polynomial().scale(Fraction(-1, 2))
        )
        assert u_combo == u_split


LAMS = (Fraction(1), Fraction(1, 2), Fraction(3), Fraction(5, 3))
BIG_SHIFTS = (Fraction(10**30), Fraction(-1, 10**30), Fraction(7, 10**30), Fraction(-(10**30), 3))


def scaled_weight(dim: int, lam: Fraction, offset: Fraction) -> WeightSpec:
    return WeightSpec(dim, lam, tuple(offset * (j + 1) for j in range(dim)))


class TestShiftedSweep:
    """The weak solution at a != 0: the bottom-up block Thomas sweep of the
    normal equations P_N T T* w = f, u = T* w."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_class_block_normal_equations(self, dim):
        """The sweep equals the normal equations solved by solve_exact, for
        every N up to 6 (5 in 3-D), on unit and scaled off-center weights."""
        rng = random.Random(60 + dim)
        for w in (WeightSpec.unit(dim), scaled_weight(dim, Fraction(3, 2), Fraction(-2, 3))):
            for a in (Fraction(1), Fraction(-5, 2), Fraction(1, 3)):
                f = monomial_to_hermite(random_polynomial(rng, dim, max_degree=4, max_terms=4, nonzero=True), w)
                for top in range(f.degree(), (6, 6, 5)[dim - 1] + 1):
                    got = rightinverse._min_norm_coeffs(f, a, top).coeffs
                    assert got == normal_equations(f.coeffs, dim, w.lam, a, top)

    @settings(max_examples=40, deadline=None)
    @given(
        polynomials(max_degree=4),
        st.one_of(rationals().filter(bool), st.sampled_from(BIG_SHIFTS)),
        st.sampled_from(LAMS),
        st.sampled_from((Fraction(0), Fraction(1, 3), Fraction(-2))),
    )
    def test_weak_residual_bound_and_monotone(self, f, a, lam, offset):
        """The weak residual is exact, the exact ratio is at most 1/(8 n
        lam^2), and it does not decrease from N to N + 2."""
        f_exp = monomial_to_hermite(f, scaled_weight(f.dim, lam, offset))
        top = max(f_exp.degree(), 0)
        ratios = []
        for truncation in (top, top + 2):
            _, residual_exact, _, _, ratio = rightinverse.exact_solve(f_exp, a, truncation)
            assert residual_exact
            assert ratio <= Fraction(1, 8 * f.dim) / lam**2
            ratios.append(ratio)
        assert ratios[0] <= ratios[1]

    @settings(max_examples=30, deadline=None)
    @given(polynomials(max_degree=5), st.sampled_from(LAMS), st.sampled_from((Fraction(0), Fraction(2, 5))))
    def test_a_zero_is_the_min_norm_solve(self, f, lam, offset):
        """At a = 0 the sweep is one Horner per block of f: the same u for
        every N >= deg f, the class-block normal equations' u at N = deg f."""
        f_exp = monomial_to_hermite(f, scaled_weight(f.dim, lam, offset))
        u = rightinverse._min_norm_coeffs(f_exp)
        top = max(f_exp.degree(), 0)
        assert u.coeffs == normal_equations(f_exp.coeffs, f.dim, lam, 0, top)
        for extra in (2, 4):
            assert rightinverse._min_norm_coeffs(f_exp, Fraction(0), top + extra) == u

    @pytest.mark.parametrize("dim", [1, 2, 3, 10])
    @pytest.mark.parametrize("a", [1, Fraction(-7, 2)])
    def test_constant_data_at_degree_zero(self, dim, a):
        """On V_0, u = (lam^2 P + a) w for the constant w = 1 / (8 n lam^2 +
        a^2): the ratio is 1 / (8 n lam^2 + a^2), 1/81 for n = 10, a = 1."""
        for lam in (Fraction(1), Fraction(2, 3)):
            w = scaled_weight(dim, lam, Fraction(1, 2))
            rep = solve_min_norm(Polynomial.constant(dim, 5), a, weight=w)
            assert rep.residual_exact and rep.ratio == 1 / (8 * dim * lam**2 + Fraction(a) ** 2)

    @pytest.mark.parametrize("a", [1, -1])
    def test_constant_data_closed_form(self, a):
        """f = 1 in 1-D at a = +-1: the exact ratio rises with N = 0, 2, ...,
        8 from 1/9 to within 1e-10 of the N -> oo closed form 1 - 2 e^(-1/2)
        / (1 + e^(-1)) of the minimal-norm weak solution."""
        closed = 1.0 - 2.0 * math.exp(-0.5) / (1.0 + math.exp(-1.0))
        ratios = [solve_min_norm(one_1d, a, truncation=top).ratio for top in range(0, 9, 2)]
        assert ratios[0] == Fraction(1, 9)
        assert all(lo < hi for lo, hi in zip(ratios, ratios[1:]))
        assert abs(float(ratios[-1]) - closed) <= 1e-10

    def test_reflection_symmetry(self):
        """D = diag((-1)^floor(|alpha| / 2)) has D (lap + a) D = -(lap - a),
        so ratio(a, f) = ratio(-a, D f), exactly, on scaled off-center
        weights."""
        rng = random.Random(71)
        for i in range(24):
            dim = 1 + i % 3
            w = scaled_weight(dim, rng.choice(LAMS), Fraction(rng.randint(-3, 3), 4))
            a = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))
            f = monomial_to_hermite(random_polynomial(rng, dim, max_degree=5, max_terms=5, nonzero=True), w)
            assert rightinverse.exact_solve(f, a)[4] == rightinverse.exact_solve(cli._reflected(f), -a)[4]

    def test_a_zero_solution_is_the_same_for_every_truncation(self):
        """At a = 0 solve_min_norm gives the same solution and exact ratio at
        truncation deg f + 2j, j = 1, 2, as at deg f, on unit, scaled and
        off-center weights in n = 1-3, while the report's truncation moves."""
        rng = random.Random(29)
        for lam, offset in ((1, 0), (Fraction(5, 3), 0), (Fraction(1, 2), Fraction(-2, 3))):
            for dim in (1, 1, 2, 2, 3, 3):
                w = scaled_weight(dim, Fraction(lam), Fraction(offset))
                f = random_polynomial(rng, dim, max_degree=5, max_terms=5, nonzero=True)
                base = solve_min_norm(f, 0, weight=w)
                assert base.truncation == f.total_degree() and base.residual_exact
                for j in (1, 2):
                    rep = solve_min_norm(f, 0, weight=w, truncation=base.truncation + 2 * j)
                    assert rep.truncation == base.truncation + 2 * j
                    assert (rep.solution.den, rep.solution.nums) == (base.solution.den, base.solution.nums)
                    assert rep.ratio == base.ratio and rep.residual_exact

    def test_truncation_below_degree_raises(self):
        f = Polynomial(2, {(2, 1): 1})
        assert solve_min_norm(f, 1, truncation=5).truncation == 5
        with pytest.raises(ValueError, match="truncation 2 is below the degree 3 of the data"):
            solve_min_norm(f, 1, truncation=2)

    def test_negative_truncation_raises(self):
        """Zero data has degree -1, so N = -1 is not below it; it is refused by name."""
        for a in (0, 1):
            with pytest.raises(ValueError, match="truncation must be >= 0, got -1"):
                solve_min_norm(Polynomial.zero(2), a, truncation=-1)

    def test_dropped_coupling_fails_residual_and_exits_1(self, tmp_path, monkeypatch):
        """With the a^2 coupling term dropped from the pivot recursion
        (s_k = nu(m, k + 1) + c on every tower) the weak residual is false
        and `gauss-rinv solve` exits 1."""
        f = Polynomial(2, {(2, 0): 1, (1, 1): -2, (0, 2): Fraction(1, 3), (0, 0): 4})
        f_path, out = tmp_path / "f.json", tmp_path / "report.json"
        f_path.write_text(json.dumps(f.to_json_dict()))
        argv = ["solve", "--out", str(out), "--dim", "2", "--a", "1", "--f", str(f_path)]
        assert main(argv) == EXIT_OK

        def dropped(dim, c_num, c_den, degree, odd):
            c = Fraction(c_num, c_den)
            return tuple(rightinverse._nu(dim, degree - 2 * k, k + 1) + c for k in rightinverse._towers(dim, degree, odd))

        for cache in SWEEP_CACHES:
            cache.cache_clear()
        monkeypatch.setattr(rightinverse, "_shifted_pivots", dropped)
        try:
            assert not solve_min_norm(f, 1).residual_exact
            assert main(argv) == EXIT_CHECK_FAILED
            assert json.loads(out.read_text())["results"]["solve"]["residual_exact"] is False
        finally:
            for cache in SWEEP_CACHES:
                cache.cache_clear()


class TestKernelBasis:
    def test_positive_shift_trig(self):
        basis = kernel_basis(1, 1)
        kinds = {g.kind for g in basis}
        assert kinds == {"cos", "sin"}
        for g in basis:
            assert g.annihilation_defect(Fraction(1)) <= 1e-12

    def test_negative_shift_exponentials(self):
        basis = kernel_basis(-1, 1)
        assert {g.kind for g in basis} == {"exp"}
        vectors = sorted(g.wavevector[0] for g in basis)
        assert vectors == pytest.approx([-1.0, 1.0])

    def test_harmonic_basis_n2_degree2(self):
        basis = harmonic_basis(2, 2)
        degrees = sorted(h.total_degree() for h in basis)
        assert degrees == [0, 1, 1, 2, 2]
        for h in basis:
            assert h.laplacian().is_zero()
        # degree-2 span contains x1*x2 and x1^2 - x2^2
        span2 = [h for h in basis if h.total_degree() == 2]
        target = Polynomial(2, {(1, 1): 1})
        assert any(h == target or h == target.scale(-1) for h in span2) or len(span2) == 2

    def test_zero_shift_has_no_plane_waves(self):
        with pytest.raises(ValueError):
            kernel_basis(0, 2)

    def test_plane_wave_limit_both_sides(self):
        """10-D builds its 1044 waves; 11-D (2070) and 40-D raise before any is built."""
        assert len(kernel_basis(1, 10)) == rightinverse.MAX_PLANE_WAVES == 1044
        for dim, count in ((11, 2070), (40, 2 * (40 + 2**39))):
            with pytest.raises(InputLimitError, match=f"needs {count} plane waves, above MAX_PLANE_WAVES"):
                kernel_basis(1, dim)

    def test_directions_dedupe(self):
        assert default_directions(1) == [(1.0,)]
        dirs2 = default_directions(2)
        assert len(dirs2) == 4  # two axes + two diagonals up to sign


class TestEnrichment:
    """``enrich`` on the triangular solution, which it projects off the
    plane waves in ker(lap + a); no report path calls it."""

    def test_positive_shift_closed_form(self):
        rep = enrich(triangular_report(one_1d, 1), kernel_basis(1, 1))
        closed = 1.0 - 2.0 * math.exp(-0.5) / (1.0 + math.exp(-1.0))
        assert rep.ratio_float == pytest.approx(closed, abs=1e-12)
        assert rep.pre_enrichment_ratio == 1
        assert rep.bound_satisfied
        assert rep.ratio is None  # float after plane-wave enrichment

    def test_negative_shift_bound(self):
        rep = enrich(triangular_report(one_1d, -1), kernel_basis(-1, 1))
        assert rep.ratio_float <= 1 / 8 + 1e-12
        assert rep.residual_exact

    @pytest.mark.parametrize(
        "a", [Fraction(1, 2), Fraction(-1, 2), 1, -1, 2, -2, 3, -3]
    )
    def test_constant_data_closed_form_both_kinds(self, a):
        """u = 1/a projected off cos(kx) (a > 0) or cosh(kx) (a < 0, the
        span of e^{+-kx}) leaves ratio (1 - sech(a/2)) / a^2 either way."""
        a_float = float(a)
        closed = (1.0 - 1.0 / math.cosh(a_float / 2.0)) / a_float**2
        rep = enrich(triangular_report(one_1d, a), kernel_basis(a, 1))
        assert {g.kind for g, _ in rep.kernel_part} == ({"exp"} if a < 0 else {"cos", "sin"})
        assert rep.ratio_float == pytest.approx(closed, abs=1e-12)

    def test_empty_basis_is_identity(self):
        rep = solve_min_norm(one_1d, a=1)
        assert enrich(rep, []) is rep

    def test_projection_lowers_norm_generic(self):
        f = Polynomial(1, {(1,): 1, (0,): 2})
        rep = solve_min_norm(f, a=Fraction(1, 2))
        enriched = enrich(rep, kernel_basis(Fraction(1, 2), 1))
        assert enriched.ratio_float <= rep.ratio_float + 1e-15

    def test_enrichment_requires_matching_kernel(self):
        rep = solve_min_norm(one_1d, a=1)
        with pytest.raises(ValueError):
            enrich(rep, kernel_basis(2, 1))

    @pytest.mark.parametrize("a", [1, 10**6])
    def test_wavevector_off_by_relative_1e_6_raises(self, a):
        """The tolerance is relative to |a| (rounding leaves 1.2e-10 absolute
        at 2-D a = 10^6, see TestLargeShifts of test_cli), yet a wavevector
        scaled by 1 + 1e-6 is still caught."""
        scaled = [
            g._replace(wavevector=tuple(v * (1 + 1e-6) for v in g.wavevector))
            for g in kernel_basis(a, 2)
        ]
        with pytest.raises(ValueError, match="not annihilated by lap \\+ a"):
            enrich(solve_min_norm(one_2d, a=a), scaled)

    def test_gram_entry_overflow_both_sides(self):
        """1-D a < 0: the exp-exp diagonal entry is pi^(1/2) e^|a|, a float up
        to |a| = 709 and an overflow from 709.3 on."""
        assert enrich(triangular_report(one_1d, -709), kernel_basis(-709, 1)).passed
        for a in (Fraction(-7093, 10), -710, -800):
            with pytest.raises(GramConditionError, match=r"kernel Gram entry <exp\(.*\)> .* overflows a float"):
                enrich(triangular_report(one_1d, a), kernel_basis(a, 1))

    def test_pairing_overflow_both_sides(self):
        """At a = 10^7 the cos/sin wavevector has |k| = 3162.3: its pairing
        with x^50 is a float (k^50 ~ 1e175), with x^100 an overflow."""
        x = Polynomial.variable(1, 0)
        assert enrich(triangular_report(x**50, 10**7), kernel_basis(10**7, 1)).residual_exact
        with pytest.raises(OverflowError, match=r"plane-wave pairing <cos\(.*\), u> with \|k\| = 3162.28 "
                                                r"and u of degree 100 is not finite"):
            enrich(triangular_report(x**100, 10**7), kernel_basis(10**7, 1))

    def test_kernel_function_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown plane-wave kind 'tan'"):
            KernelFunction(kind="tan", wavevector=(1.0,))

    def test_gram_pairings_match_quadrature(self):
        g1 = KernelFunction(kind="cos", wavevector=(1.0,))
        g2 = KernelFunction(kind="sin", wavevector=(1.0,))
        w = WeightSpec.unit(1)
        quad = gauss_hermite(lambda x: np.cos(x[:, 0]) ** 2, w, order=40)
        gram, _ = rightinverse._kernel_gram([g1, g2])
        assert gram[0, 0] == pytest.approx(quad, rel=1e-12)
        assert gram[0, 1] == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("a", [Fraction(3, 2), Fraction(-3, 2)])
    def test_gram_matrix_matches_quadrature_2d(self, a):
        """Every entry of the 2-D Gram matrix (axes and diagonals; cos-cos,
        sin-sin, cos-sin or exp-exp) against tensor Gauss-Hermite quadrature."""
        basis = kernel_basis(a, 2)
        gram, _ = rightinverse._kernel_gram(basis)
        w = WeightSpec.unit(2)
        for i, g in enumerate(basis):
            for j, h in enumerate(basis):
                quad = gauss_hermite(
                    lambda x: np.array([g.evaluate(p) * h.evaluate(p) for p in x]), w, order=40
                )
                assert gram[i, j] == pytest.approx(quad, rel=1e-10, abs=1e-12)


class TestOperatorNorm:
    def test_n1_converged(self):
        assert operator_norm(1, 0, 20) == pytest.approx(1 / math.sqrt(8), abs=1e-10)

    def test_n2_converged(self):
        assert operator_norm(2, 0, 8) == pytest.approx(0.25, abs=1e-10)

    def test_constant_block_only(self):
        assert operator_norm(1, 0, 0) == pytest.approx(1 / math.sqrt(8), abs=1e-12)

    def test_monotone_in_degree(self):
        values = [operator_norm(1, 0, n) for n in (0, 2, 6, 12)]
        for lo, hi in zip(values, values[1:]):
            assert hi >= lo - 1e-14

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("a", [Fraction(1, 2), 1, 3])
    def test_unenriched_norm_even_in_shift(self, n, a):
        """Each tower's M_m = B_m B_m^T reads a^2 only: the same norm at a
        and -a, bit for bit."""
        assert operator_norm(n, a, 6) == operator_norm(n, -a, 6)

    def test_n3_degree_20(self):
        assert operator_norm(3, 0, 20) == pytest.approx(1 / math.sqrt(24), rel=1e-12)

    @pytest.mark.parametrize(
        "n, degree_max", [(1, 12), (2, 8), (3, 6)], ids=["n1", "n2", "n3"]
    )
    @pytest.mark.parametrize("a", [0, Fraction(1, 2), Fraction(-1, 2), 1, -1, 2, 3])
    def test_matches_column_solve_reference(self, n, degree_max, a):
        """The bisected norm equals the largest singular value of the
        solver's own min-norm inverse, column by column."""
        for degree in range(degree_max + 1):
            reference = column_solve_operator_norm(n, a, degree)
            assert operator_norm(n, a, degree) == pytest.approx(reference, rel=1e-12, abs=0)

    @pytest.mark.parametrize(
        "n, a, degree, value",
        [
            (1, 1, 8, 0.33712196956), (1, -1, 8, 0.33712196956), (1, 1, 40, 0.33712196956),
            (1, -1, 40, 0.33712196956), (1, 3, 40, 0.25732831740), (2, -2, 30, 0.23157118400),
            (3, 1, 16, 0.20174063939),
        ],
    )
    def test_shifted_values_match_the_lowered_block(self, n, a, degree, value):
        """The norms of ROADMAP item 3, each below 1/sqrt(8n), and within
        1e-12 of 1/sigma_min of lap + a from V_(degree + 2) onto V_degree,
        the least over its parity-class blocks built from the reference's
        lowered entries alone."""
        norm = operator_norm(n, a, degree)
        assert norm == pytest.approx(value, rel=1e-10, abs=0)
        sigma_min = min(np.linalg.svd(b, compute_uv=False)[-1] for b in float_blocks(n, degree, float(a)))
        assert norm == pytest.approx(1 / sigma_min, rel=1e-12, abs=0)
        assert norm < 1 / math.sqrt(8 * n)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_solve_ratio_within_the_norm(self, n):
        """The solve at truncation N is the operator opnorm measures: its
        exact ratio is at most the squared norm, for random data in n = 1-3
        and every shift of perfbench's solve workload."""
        rng = random.Random(300 + n)
        for a in BENCH_SHIFTS:
            for top in (2, 5):
                f = random_polynomial(rng, n, max_degree=top, max_terms=4)
                ratio = float(solve_min_norm(f, a, truncation=top).ratio)
                assert 0 < ratio <= operator_norm(n, a, top) ** 2 * (1 + 1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("a", [0, Fraction(1, 2), -1, 3])
    def test_norm_does_not_decrease_with_degree(self, n, a):
        """M_m at degree d is a leading block of M_m at d + 1 or the same,
        and new towers only join, so by Cauchy interlacing the norm does not
        decrease.  It holds in floats too: a pass's pivots at degree d are a
        prefix of those at d + 1."""
        values = [operator_norm(n, a, degree) for degree in range(24 if n == 1 else 12)]
        for lo, hi in zip(values, values[1:]):
            assert hi >= lo

    def test_block_limit_both_sides(self, monkeypatch):
        """1-D a != 0 at degree d has towers of d // 2 + 1 and (d + 1) // 2
        steps, each walked by 63 bisection passes: 756 entries at degree 11
        and 819 at 12."""
        monkeypatch.setattr(rightinverse, "MAX_TOWER_ENTRIES", 756)
        assert operator_norm(1, 1, 11) > 0
        with pytest.raises(InputLimitError, match="needs 819 tower entries, above MAX_TOWER_ENTRIES = 756"):
            operator_norm(1, 1, 12)

    def test_block_limit_admits_3d_degree_40(self):
        """3-D a != 0 at degree 40 is 41 towers of at most 21 steps, 441
        entries a pass; 1-D a != 0 at degree 126,984 is over the limit."""
        assert rightinverse._tower_entries(3, 40) == 441
        assert operator_norm(3, 1, 40) == pytest.approx(0.20174063939, rel=1e-10)
        with pytest.raises(InputLimitError, match="8000055 tower entries"):
            operator_norm(1, 1, 126_984)

    @pytest.mark.parametrize("n, a, degree", [(1, 1, 6), (2, Fraction(1, 2), 5), (3, -3, 4)])
    def test_wrong_spectrum_misses_the_reference(self, n, a, degree, monkeypatch):
        """With nu off by one in the dimension the norm misses the min-norm
        column-solve reference, taken before the fault is planted."""
        reference = column_solve_operator_norm(n, a, degree)
        assert operator_norm(n, a, degree) == pytest.approx(reference, rel=1e-12, abs=0)
        nu = rightinverse._nu
        monkeypatch.setattr(rightinverse, "_nu", lambda dim, m, k: nu(dim + 1, m, k))
        assert operator_norm(n, a, degree) != pytest.approx(reference, rel=1e-3, abs=0)

    def test_wrong_spectrum_fails_the_suite(self, monkeypatch, capsys):
        """With nu off by one in the dimension the suite's operator-norm
        criterion fails (the identity battery is left out, for time)."""
        nu = rightinverse._nu
        monkeypatch.setattr(cli, "run_identity_battery", lambda **kwargs: [])
        monkeypatch.setattr(rightinverse, "_nu", lambda dim, m, k: nu(dim + 1, m, k))
        for cache in SWEEP_CACHES:
            cache.cache_clear()
        try:
            assert main(["suite"]) == EXIT_CHECK_FAILED
        finally:
            for cache in SWEEP_CACHES:
                cache.cache_clear()
        criteria = {c["criterion"]: c for c in json.loads(capsys.readouterr().out)["results"]["criteria"]}
        assert criteria["operator-norm"]["pass"] is False
        assert criteria["operator-norm"]["n2_value"] == 1 / math.sqrt(24)

    def test_high_degree_shift_is_bounded(self):
        """1-D a = 1: sigma_min of the min-norm towers stays away from 0, so
        the norm at degrees 200 and 400, where the inverse of the square
        towers overflowed, is finite and below 1/sqrt(8)."""
        for degree in (200, 400):
            assert operator_norm(1, 1, 40) <= operator_norm(1, 1, degree) < 1 / math.sqrt(8)

    def test_shift_above_float_range(self):
        """The largest float as an int is a shift; one beyond it is an input limit."""
        top = int(sys.float_info.max)
        assert 0 < operator_norm(1, top, 4) <= operator_norm(1, 0, 4)
        assert operator_norm(1, top, 4) == pytest.approx(1 / sys.float_info.max, rel=1e-12)
        for a in (top + 2**971, -(10**400)):
            with pytest.raises(InputLimitError, match=r"a: \|a\| = 10\^.* is above the float range"):
                operator_norm(1, a, 4)
            with pytest.raises(InputLimitError, match="above the float range"):
                kernel_basis(a, 1)

    def test_dimension_above_float_range(self):
        """nu is read in floats, so a dimension that puts the largest nu,
        nu(degree, degree + 1) = 8 (degree + 1) (4 degree + dim), above the
        float range is an input limit, at a = 0 and a != 0 alike."""
        dim = int(sys.float_info.max) // 16
        assert operator_norm(dim, 0, 0) == 1 / math.sqrt(8 * dim) > 0
        for a, degree in [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2000)]:
            with pytest.raises(InputLimitError, match=r"nu\(degree, degree \+ 1\): .* above the float range"):
                operator_norm(4 * dim, a, degree)

    def test_shift_below_float_range(self):
        """An a whose float, or whose square, underflows gives the a = 0
        value, bit for bit: the norm is continuous in a."""
        for a in (Fraction(1, 10**400), Fraction(1, 10**200)):
            assert operator_norm(1, a, 4) == operator_norm(1, 0, 4)
        assert operator_norm(1, Fraction(1, 10**150), 4) == pytest.approx(operator_norm(1, 0, 4), rel=1e-15)


def walked_towers(dim: int, degree: int) -> list[tuple[int, int]]:
    """(m, K) of the towers P^k H_m, k <= K, of V_degree: those with H_m != 0."""
    return [(m, (degree - m) // 2) for m in range(degree + 1) if harmonic_dimension(dim, m)]


def spy_towers(monkeypatch, dim: int, a, degree: int) -> list[tuple[int, int]]:
    """(m, K + 1) of each tower operator_norm reads after its first call,
    the float-range check nu(degree, degree + 1): at a != 0 nu(m, k) for
    k = 0..K + 1, one call each; at a = 0 the tower's least value, the int
    nu(m, 1), which stands for its K + 1 steps."""
    calls = []
    nu = rightinverse._nu

    def spy(d, m, k):
        calls.append((m, k))
        return nu(d, m, k)

    monkeypatch.setattr(rightinverse, "_nu", spy)
    operator_norm(dim, a, degree)
    monkeypatch.undo()
    assert calls[0] == (degree, degree + 1)
    if not a:
        assert all(k == 1 for _, k in calls[1:])
        return [(m, (degree - m) // 2 + 1) for m, _ in calls[1:]]
    read: list[tuple[int, int]] = []
    for m, k in calls[1:]:
        if k == 0:
            read.append((m, 0))
        assert read[-1][0] == m and k == read[-1][1]
        read[-1] = (m, k + 1)
    return [(m, steps - 1) for m, steps in read]


class TestOperatorNormWork:
    """MAX_TOWER_ENTRIES, counted before any tower is walked, and the towers
    walked."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("shifted", [False, True])
    def test_shapes_count_the_blocks(self, dim, shifted, monkeypatch):
        """The closed-form count is the K + 1 steps of the towers read, at
        a = 0 and a != 0 alike (where each bisection pass walks them)."""
        for degree in range(11):
            read = spy_towers(monkeypatch, dim, int(shifted), degree)
            assert sum(steps for _, steps in read) == rightinverse._tower_entries(dim, degree)

    @pytest.mark.parametrize("dim, degree", [(40, 0), (25, 2), (8, 3)])
    @pytest.mark.parametrize("shifted", [False, True])
    def test_walk_is_the_counted_towers(self, dim, degree, shifted, monkeypatch):
        """Only the towers m <= degree are walked, each once, whatever the
        dimension."""
        read = spy_towers(monkeypatch, dim, int(shifted), degree)
        assert read == [(m, top + 1) for m, top in walked_towers(dim, degree)]

    def test_high_dimension_at_low_degree(self):
        """The dimension enters only through nu: 40-D and 1000-D at degrees
        0 and 1 are towers of one step, 1/sqrt(8 dim) at nu(0, 1) and
        1/sqrt(a^2 + 8 dim) at a != 0, each M_m the 1 x 1 a^2 + nu(m, 1)."""
        for dim in (40, 1000):
            for degree in (0, 1):
                assert operator_norm(dim, 0, degree) == 1 / math.sqrt(8 * dim)
                assert operator_norm(dim, -2, degree) == 1 / math.sqrt(4 + 8 * dim)

    def test_total_limit_both_sides(self, monkeypatch):
        """1-D counts degree + 1 entries a pass: a != 0, 63 passes, counts
        7,999,992 at degree 126,983 and 8,000,055 at 126,984; a = 0 counts
        8,000,000 at 7,999,999.  The count comes before any tower, so a huge
        degree is refused at once."""
        limit = rightinverse.MAX_TOWER_ENTRIES
        passes = rightinverse.BISECTION_PASSES
        assert passes * rightinverse._tower_entries(1, 126_983) == 7_999_992 <= limit == 8_000_000
        assert passes * rightinverse._tower_entries(1, 126_984) == 8_000_055
        assert rightinverse._tower_entries(1, 7_999_999) == limit

        def no_towers(*args):
            raise AssertionError("a tower was built")

        monkeypatch.setattr(rightinverse, "_nu", no_towers)
        with pytest.raises(InputLimitError, match="needs 8000055 tower entries"):
            operator_norm(1, 1, 126_984)
        with pytest.raises(InputLimitError, match="needs 8000001 tower entries"):
            operator_norm(1, 0, 8_000_000)
        for dim in (1, 3, 1000):
            with pytest.raises(InputLimitError, match="MAX_TOWER_ENTRIES = 8000000"):
                operator_norm(dim, 0, 10**100)

    def test_total_limit_counts_each_tower(self, monkeypatch):
        """2-D a = 0 at degree 4 has towers m = 0..4 of 3, 2, 2, 1, 1 steps,
        9 entries; degree 5 has 12."""
        monkeypatch.setattr(rightinverse, "MAX_TOWER_ENTRIES", 9)
        assert operator_norm(2, 0, 4) == 0.25
        with pytest.raises(InputLimitError, match="needs 12 tower entries"):
            operator_norm(2, 0, 5)

    def test_total_limit_admits_every_caller(self):
        """The degrees callers ask for in 1-D to 3-D are admitted: a = 0 up
        to 312,499, 490 and 66, and a != 0 up to the largest, 126,983 in 1-D
        and 710 from 2-D on, each in well under the 5 s allowed."""
        for dim, degree in [(1, 312_499), (2, 490), (3, 66)]:
            assert operator_norm(dim, 0, degree) == 1 / math.sqrt(8 * dim)
        for dim, degree, value in [(1, 126_983, 0.33712196956), (3, 710, 0.20174063939)]:
            entries = rightinverse.BISECTION_PASSES * rightinverse._tower_entries(dim, degree)
            assert entries <= rightinverse.MAX_TOWER_ENTRIES
            assert rightinverse.BISECTION_PASSES * rightinverse._tower_entries(dim, degree + 1) > rightinverse.MAX_TOWER_ENTRIES
            started = time.perf_counter()
            assert operator_norm(dim, 1, degree) == pytest.approx(value, rel=1e-10)
            assert time.perf_counter() - started < 5.0

    @pytest.mark.parametrize("dim, degree", [(1, 12), (1, 20), (2, 6), (2, 8), (3, 4), (3, 40)])
    def test_a_zero_is_resolved(self, dim, degree):
        """At a = 0 every tower singular value sqrt(nu(m, k)), k >= 1, is at
        least sqrt(8 dim), reached at nu(0, 1): the norm is 1/sqrt(8 dim) to
        the last bit, with no SVD to resolve."""
        for m, top in walked_towers(dim, degree):
            assert min(rightinverse._nu(dim, m, k) for k in range(1, top + 2)) >= 8 * dim
        assert operator_norm(dim, 0, degree) == 1 / math.sqrt(8 * dim)


class TestScaledSolve:
    def test_lambda_two(self):
        w = WeightSpec(dim=1, lam=Fraction(2))
        rep = solve_min_norm(one_1d, 0, weight=w)
        assert rep.ratio == Fraction(1, 32)
        # u = H_2(sqrt(2) x)/16 = x^2/2 - 1/8
        assert rep.solution_polynomial() == Polynomial(
            1, {(2,): Fraction(1, 2), (0,): Fraction(-1, 8)}
        )

    def test_unit_is_bit_identical(self):
        rep_scaled = solve_min_norm(one_1d, 0, weight=WeightSpec.unit(1))
        rep_plain = solve_min_norm(one_1d)
        assert rep_scaled.solution.coeffs == rep_plain.solution.coeffs
        assert rep_scaled.ratio == rep_plain.ratio
        assert rep_scaled.to_json_dict() == rep_plain.to_json_dict()

    def test_translation_equivariance(self):
        w = WeightSpec(dim=2, lam=Fraction(1), center=(Fraction(3), Fraction(0)))
        rep = solve_min_norm(one_2d, 0, weight=w)
        centered = solve_min_norm(one_2d)
        assert rep.ratio == centered.ratio == Fraction(1, 16)
        shifted = centered.solution_polynomial().shift([Fraction(-3), Fraction(0)])
        assert rep.solution_polynomial() == shifted

    def test_scaled_norm_against_quadrature(self):
        w = WeightSpec(dim=1, lam=Fraction(2))
        rep = solve_min_norm(one_1d, 0, weight=w)
        u = rep.solution_polynomial()
        quad = gauss_hermite(
            lambda x: np.array([float(u.evaluate(p)) ** 2 for p in x]), w, order=20
        )
        assert quad == pytest.approx(rep.norm_u_sq.to_float(), rel=1e-12)

    def test_scaled_bound_random(self):
        rng = random.Random(31)
        w = WeightSpec(dim=1, lam=Fraction(3, 2), center=(Fraction(1),))
        for _ in range(5):
            f = random_polynomial(rng, 1, max_degree=6, max_terms=5, nonzero=True)
            rep = solve_min_norm(f, 0, weight=w)
            assert rep.residual_exact
            assert rep.ratio <= Fraction(1, 8) / w.lam**2


def test_plane_wave_pairing_is_gaussian_moment():
    """The closed-form pairing on Hermite coefficients is the Gaussian
    moment integral x^2 e^{x/2} e^{-x^2} dx, here by quadrature."""
    g = KernelFunction(kind="exp", wavevector=(0.5,))
    p = Polynomial(1, {(2,): 1})
    w = WeightSpec.unit(1)
    quad = gauss_hermite(lambda x: x[:, 0] ** 2 * np.exp(0.5 * x[:, 0]), w, order=40)
    assert g.pair(monomial_to_hermite(p, w)) == pytest.approx(quad, rel=1e-12)


def test_min_norm_against_dense_pseudoinverse():
    """Independent oracle: the exact block solver agrees with numpy's
    least-squares minimal-norm solution in orthonormal coordinates."""
    rng = random.Random(77)
    for n, degree in ((1, 6), (2, 5), (3, 4)):
        f = random_polynomial(rng, n, max_degree=degree, max_terms=6, nonzero=True)
        w = WeightSpec.unit(n)
        f_exp = monomial_to_hermite(f, w)
        d = f.total_degree()
        rows = multi_indices_up_to(n, d)
        cols = multi_indices_up_to(n, d + 2)
        row_pos = {r: i for i, r in enumerate(rows)}
        norm = lambda alpha: math.sqrt(float(basis_norm_sq(alpha, Fraction(1))))
        a = np.zeros((len(rows), len(cols)))
        for ci, gamma in enumerate(cols):
            for j, g in enumerate(gamma):
                if g >= 2:
                    beta = tuple(e - 2 if i == j else e for i, e in enumerate(gamma))
                    if beta in row_pos:
                        # lap h_gamma picks up ||H_beta||/||H_gamma|| in
                        # orthonormal coordinates
                        a[row_pos[beta], ci] = 4 * g * (g - 1) * norm(beta) / norm(gamma)
        b = np.zeros(len(rows))
        for alpha, c in f_exp.coeffs.items():
            b[row_pos[alpha]] = float(c) * norm(alpha)
        x = np.linalg.lstsq(a, b, rcond=None)[0]
        assert float(np.linalg.norm(a @ x - b)) <= 1e-9 * max(1.0, float(np.linalg.norm(b)))
        exact = solve_min_norm(f)
        assert float(exact.norm_u_sq.value) == pytest.approx(float(x @ x), rel=1e-9)


def solution_at(rep, point) -> float:
    """Pointwise value of a report's full solution, kernel part included."""
    total = float(rep.solution_polynomial().evaluate([float(v) for v in point]))
    for g, c in rep.kernel_part:
        total += c * g.evaluate(point)
    return total


@pytest.mark.parametrize("a", [1, -1, Fraction(1, 2)])
def test_enriched_solution_satisfies_equation_pointwise(a):
    """Finite-difference oracle: the full enriched triangular solution
    (polynomial plus plane waves) still satisfies lap(u) + a*u = f
    analytically."""
    f = Polynomial(1, {(1,): 1, (0,): 2})
    rep = enrich(triangular_report(f, a), kernel_basis(a, 1))
    h = 1e-4
    for x in (-1.3, -0.25, 0.0, 0.6, 1.7):
        second = (solution_at(rep, [x + h]) - 2 * solution_at(rep, [x]) + solution_at(rep, [x - h])) / h**2
        residual = second + float(Fraction(a)) * solution_at(rep, [x]) - float(f.evaluate([x]))
        assert abs(residual) <= 1e-6


def test_enriched_solution_pointwise_2d():
    """Same oracle in two dimensions (axes + diagonal wave directions)."""
    f = Polynomial(2, {(1, 0): 1, (0, 0): -3})
    rep = enrich(triangular_report(f, 2), kernel_basis(2, 2))
    h = 1e-4
    for x, y in ((-0.8, 0.4), (0.0, 0.0), (1.1, -0.6)):
        lap = (
            solution_at(rep, [x + h, y])
            + solution_at(rep, [x - h, y])
            + solution_at(rep, [x, y + h])
            + solution_at(rep, [x, y - h])
            - 4 * solution_at(rep, [x, y])
        ) / h**2
        residual = lap + 2.0 * solution_at(rep, [x, y]) - float(f.evaluate([x, y]))
        assert abs(residual) <= 1e-5

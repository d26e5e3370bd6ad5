"""Minimal-norm solver, kernel enrichment, operator norm, scaled weights."""

import dataclasses
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from gauss_rinv import rightinverse
from gauss_rinv.hermite import (
    HermiteExpansion,
    WeightSpec,
    hermite_polynomial_1d,
    inner_product,
    integrate_gaussian,
    monomial_to_hermite,
)
from gauss_rinv.linalg import SingularMatrixError
from gauss_rinv.polynomials import Polynomial, random_polynomial
from gauss_rinv.rightinverse import (
    GramConditionError,
    InputLimitError,
    KernelFunction,
    apply_right_inverse,
    check_operator_norm_limits,
    default_directions,
    enrich,
    kernel_basis,
    multi_indices_up_to,
    operator_norm,
    right_inverse_coeffs,
    shifted_laplacian,
    solve_min_norm,
)
from harmonic_basis import harmonic_polynomial_basis

one_1d = Polynomial.constant(1, 1)
one_2d = Polynomial.constant(2, 1)


def basis_element(w: WeightSpec, alpha, coef=1) -> HermiteExpansion:
    return HermiteExpansion(w, {alpha: coef})


def column_solve_operator_norm(dim: int, a, degree: int) -> float:
    """Reference norm of the truncated right inverse: one exact solve per
    basis element G_alpha (degree <= degree) in orthonormal coordinates,
    then the top float eigenvalue of q^T q."""
    a = Fraction(a)
    unit = Fraction(1)
    cols = multi_indices_up_to(dim, degree)
    # the min-norm solve reaches degree + 2; the triangular one stays in cols
    rows = multi_indices_up_to(dim, degree + 2) if a == 0 else cols
    row_pos = {g: i for i, g in enumerate(rows)}
    q = np.zeros((len(rows), len(cols)))
    for ci, alpha in enumerate(cols):
        norm_in = HermiteExpansion.basis_norm_sq(alpha, unit)
        column = right_inverse_coeffs(HermiteExpansion(WeightSpec.unit(dim), {alpha: unit}), a)
        for gamma, c in column.coeffs.items():
            norm_out = HermiteExpansion.basis_norm_sq(gamma, unit)
            q[row_pos[gamma], ci] = float(c) * math.sqrt(float(norm_out / norm_in))
    return math.sqrt(max(np.linalg.eigvalsh(q.T @ q)[-1], 0.0))


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


def monomial_route_residual_zero(report, f: Polynomial) -> bool:
    """Reference residual check on monomials: lap(u) + a u - f == 0."""
    u = report.solution.to_polynomial()
    return (u.laplacian() + u.scale(report.a) - f).is_zero()


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
                top = max(u.nums)
                return HermiteExpansion(u.weight, {**u.coeffs, top: u.coeffs[top] + Fraction(1, 7)})

            return wrapped

        monkeypatch.setattr(rightinverse, "_min_norm_coeffs", corrupt(rightinverse._min_norm_coeffs))
        monkeypatch.setattr(
            rightinverse, "_triangular_coeffs", corrupt(rightinverse._triangular_coeffs)
        )
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
        rep = solve_min_norm(hermite_polynomial_1d(k))
        assert rep.ratio == Fraction(1, 4 * (k + 1) * (k + 2))
        assert rep.residual_exact

    def test_shift_without_enrichment(self):
        rep = solve_min_norm(one_1d, a=1)
        assert rep.solution.coeffs == {(0,): Fraction(1)}
        assert rep.ratio == 1 and not rep.bound_satisfied

    def test_zero_data(self):
        rep = solve_min_norm(Polynomial.zero(2))
        assert rep.solution.is_zero() and rep.ratio == 0 and rep.residual_exact

    def test_negative_shift_triangular(self):
        f = Polynomial(1, {(2,): 1, (0,): -1})
        rep = solve_min_norm(f, a=Fraction(-2))
        u = rep.solution_polynomial()
        assert (u.laplacian() - u.scale(2) - f).is_zero()


class TestSolveVerdict:
    @pytest.mark.parametrize("component", ["residual_exact", "bound_satisfied"])
    def test_each_component_can_fail(self, component):
        rep = solve_min_norm(one_2d)
        assert rep.passed
        assert not dataclasses.replace(rep, **{component: False}).passed


class TestMinNormStructure:
    def test_kernel_orthogonality(self):
        """The a=0 solution is weighted-orthogonal to harmonic polynomials."""
        rng = random.Random(23)
        w = WeightSpec.unit(2)
        for _ in range(5):
            f = random_polynomial(rng, 2, max_degree=5, max_terms=6, nonzero=True)
            u = solve_min_norm(f).solution_polynomial()
            for h in harmonic_polynomial_basis(2, f.total_degree() + 2):
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
        basis = harmonic_polynomial_basis(2, 2)
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

    def test_directions_dedupe(self):
        assert default_directions(1) == [(1.0,)]
        dirs2 = default_directions(2)
        assert len(dirs2) == 4  # two axes + two diagonals up to sign


class TestEnrichment:
    def test_positive_shift_closed_form(self):
        rep = apply_right_inverse(one_1d, a=1)
        closed = 1.0 - 2.0 * math.exp(-0.5) / (1.0 + math.exp(-1.0))
        assert rep.ratio_float == pytest.approx(closed, abs=1e-12)
        assert rep.pre_enrichment_ratio == 1
        assert rep.bound_satisfied
        assert rep.ratio is None  # float after plane-wave enrichment

    def test_negative_shift_bound(self):
        rep = apply_right_inverse(one_1d, a=-1)
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
        rep = apply_right_inverse(one_1d, a=a)
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
            dataclasses.replace(g, wavevector=tuple(v * (1 + 1e-6) for v in g.wavevector))
            for g in kernel_basis(a, 2)
        ]
        with pytest.raises(ValueError, match="not annihilated by lap \\+ a"):
            enrich(solve_min_norm(one_2d, a=a), scaled)

    def test_gram_entry_overflow_both_sides(self):
        """1-D a < 0: the exp-exp diagonal entry is pi^(1/2) e^|a|, a float up
        to |a| = 709 and an overflow from 709.3 on."""
        assert apply_right_inverse(one_1d, a=-709).passed
        for a in (Fraction(-7093, 10), -710, -800):
            with pytest.raises(GramConditionError, match=r"kernel Gram entry <exp\(.*\)> .* overflows a float"):
                apply_right_inverse(one_1d, a=a)

    def test_pairing_overflow_both_sides(self):
        """At a = 10^7 the cos/sin wavevector has |k| = 3162.3: its pairing
        with x^50 is a float (k^50 ~ 1e175), with x^100 an overflow."""
        x = Polynomial.variable(1, 0)
        assert apply_right_inverse(x**50, a=10**7).residual_exact
        with pytest.raises(OverflowError, match=r"plane-wave pairing <cos\(.*\), u> with \|k\| = 3162.28 "
                                                r"and u of degree 100 is not finite"):
            apply_right_inverse(x**100, a=10**7)

    def test_gram_pairings_match_quadrature(self):
        g1 = KernelFunction(kind="cos", wavevector=(1.0,))
        g2 = KernelFunction(kind="sin", wavevector=(1.0,))
        w = WeightSpec.unit(1)
        quad = integrate_gaussian(lambda x: np.cos(x[:, 0]) ** 2, w, order=40)
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
                quad = integrate_gaussian(
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
        """D = diag((-1)^floor(|alpha|/2)) has D lap D = -lap, so the
        inverse at -a is -D (inverse at a) D: the same norm, bit for bit."""
        assert operator_norm(n, a, 6) == operator_norm(n, -a, 6)

    def test_n3_degree_20(self):
        assert operator_norm(3, 0, 20) == pytest.approx(1 / math.sqrt(24), rel=1e-12)

    @pytest.mark.parametrize(
        "n, degree_max", [(1, 12), (2, 8), (3, 6)], ids=["n1", "n2", "n3"]
    )
    @pytest.mark.parametrize("a", [0, Fraction(1, 2), Fraction(-1, 2), 1, -1, 2, 3])
    def test_matches_column_solve_reference(self, n, degree_max, a):
        """1/sigma_min of the blocks equals the largest singular value of
        the solver's own inverse, column by column."""
        for degree in range(degree_max + 1):
            reference = column_solve_operator_norm(n, a, degree)
            assert operator_norm(n, a, degree) == pytest.approx(reference, rel=1e-12, abs=0)

    @pytest.mark.parametrize("n, a, degree", [(1, 1, 40), (2, 1, 22), (2, -2, 30), (3, 1, 16)])
    def test_tiny_sigma_min_matches_column_solve_reference(self, n, a, degree):
        """Where sigma_min of the block is far below eps * sigma_max (1e-30
        in 1-D at degree 40), the norm of the block inverse still matches
        the solver's own inverse to relative accuracy."""
        reference = column_solve_operator_norm(n, a, degree)
        assert operator_norm(n, a, degree) == pytest.approx(reference, rel=1e-13, abs=0)

    @pytest.mark.parametrize("n, degree", [(1, 30), (2, 16), (3, 10)])
    @pytest.mark.parametrize("a", [Fraction(1, 2), 1, 3])
    def test_block_inverse_sign_pattern(self, n, a, degree):
        """Each a != 0 parity block is upper triangular, and entry (beta,
        gamma) of its inverse has sign (-1)^((|gamma| - |beta|)/2): no
        product in an entry cancels another."""
        for (_, rows, _), block in zip(rightinverse._blocks(n, degree, True), built_blocks(n, a, degree)):
            assert not np.tril(block, -1).any()
            inverse = np.linalg.solve(block, np.eye(len(rows)))
            size = np.array([sum(beta) for beta in rows])
            sign = (-1.0) ** ((size[None, :] - size[:, None]) // 2)
            nonzero = inverse != 0
            assert not np.tril(nonzero, -1).any()
            assert np.all(np.sign(inverse[nonzero]) == sign[nonzero])

    def test_block_limit_both_sides(self, monkeypatch):
        """A 1-D parity block at a != 0 and degree d has d // 2 + 1 rows."""
        monkeypatch.setattr(rightinverse, "MAX_BLOCK_ENTRIES", 36)
        assert operator_norm(1, 1, 11) > 0
        with pytest.raises(InputLimitError, match="MAX_BLOCK_ENTRIES = 36"):
            operator_norm(1, 1, 12)
        monkeypatch.setattr(rightinverse, "MAX_BLOCK_ENTRIES", 231 * 253)
        assert operator_norm(3, 0, 41) > 0  # top block 231 x 253
        with pytest.raises(InputLimitError, match="253 x 276"):
            operator_norm(3, 0, 42)

    def test_block_limit_admits_3d_degree_40(self, monkeypatch):
        """3-D a != 0 at degree 40 needs a 1771 x 1771 block, within the limit."""
        assert 1771 * 1771 <= rightinverse.MAX_BLOCK_ENTRIES
        with pytest.raises(InputLimitError, match="2001 x 2001"):
            operator_norm(1, 1, 4000)
        monkeypatch.setattr(rightinverse, "MAX_BLOCK_ENTRIES", 1771 * 1771 - 1)
        with pytest.raises(InputLimitError, match="1771 x 1771"):
            operator_norm(3, 1, 40)

    def test_zero_sigma_min_both_sides(self):
        """1-D a = 1: the norm is 3.78e217 at degree 200; at degree 400 the
        inverse overflows a float."""
        assert math.isfinite(operator_norm(1, 1, 200))
        with pytest.raises(SingularMatrixError, match=r"operator_norm: the inverse of the 201 x 201 block"):
            operator_norm(1, 1, 400)

    def test_shift_above_float_range(self):
        """The largest float as an int is a shift; one beyond it is an input limit."""
        top = int(sys.float_info.max)
        assert 0 < operator_norm(1, top, 4) <= operator_norm(1, 0, 4)
        for a in (top + 2**971, -(10**400)):
            with pytest.raises(InputLimitError, match=r"a: \|a\| = 10\^.* is above the float range"):
                operator_norm(1, a, 4)
            with pytest.raises(InputLimitError, match="above the float range"):
                kernel_basis(a, 1)

    def test_shift_below_float_range(self):
        """a = 10^-400 is not 0: its inverse has entries 1/a, no float."""
        with pytest.raises(SingularMatrixError, match=r"operator_norm: a = 1/10+ rounds to the float 0\.0"):
            operator_norm(1, Fraction(1, 10**400), 4)


def built_blocks(dim: int, a, degree: int) -> list[np.ndarray]:
    """The float blocks of operator_norm, built the same way."""
    blocks = []
    for _, rows, cols in rightinverse._blocks(dim, degree, a != 0):
        pos = {beta: i for i, beta in enumerate(rows)}
        block = np.zeros((len(rows), len(cols)))
        for ci, gamma in enumerate(cols):
            for beta, b in rightinverse._lowered(gamma):
                block[pos[beta], ci] = math.sqrt(b)
        if a:
            np.fill_diagonal(block, abs(float(a)))
        blocks.append(block)
    return blocks


class TestOperatorNormWork:
    """The limit on all blocks together, and the spectral gap at a = 0."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("shifted", [False, True])
    def test_shapes_count_the_blocks(self, dim, shifted):
        for degree in range(11):
            built = sorted(
                (len(rows), len(cols))
                for _, rows, cols in rightinverse._blocks(dim, degree, shifted)
            )
            counted = sorted(
                (r, c) for r, c, k in rightinverse._block_shapes(dim, degree, shifted) for _ in range(k)
            )
            assert counted == built

    def test_total_limit_both_sides(self, monkeypatch):
        """2-D a = 0 holds 19,910,802 entries at degree 490 and 20,032,326
        at 491; the limit is checked before any block is built."""
        check_operator_norm_limits(2, 490, False)
        with pytest.raises(InputLimitError, match="20032326 block entries"):
            check_operator_norm_limits(2, 491, False)

        def no_blocks(*args):
            raise AssertionError("a block was built")

        monkeypatch.setattr(rightinverse, "_blocks", no_blocks)
        with pytest.raises(InputLimitError, match="MAX_TOTAL_ENTRIES = 20000000"):
            operator_norm(2, 0, 491)
        with pytest.raises(InputLimitError, match="MAX_TOTAL_ENTRIES"):
            operator_norm(1, 0, 312_500)

    def test_total_limit_counts_a_floor_per_block(self, monkeypatch):
        """1-D a = 0 has degree + 1 blocks of 1 x 1, each counted as 64."""
        monkeypatch.setattr(rightinverse, "MAX_TOTAL_ENTRIES", 64 * 13)
        assert operator_norm(1, 0, 12) > 0
        with pytest.raises(InputLimitError, match="896 block entries"):
            operator_norm(1, 0, 13)

    def test_total_limit_admits_every_caller(self):
        """3-D a != 0 at degree 40 (19,134,941 entries, 41 is over), 1-D
        a != 0 at degree 400, and the degrees of the suite, the scripts and
        the tests."""
        check_operator_norm_limits(3, 40, True)
        with pytest.raises(InputLimitError, match="MAX_TOTAL_ENTRIES"):
            check_operator_norm_limits(3, 41, True)
        for dim, degree, shifted in [
            (1, 400, True), (1, 4000 - 1, True), (2, 123, True), (3, 41, False), (3, 66, False),
        ]:
            check_operator_norm_limits(dim, degree, shifted)

    @pytest.mark.parametrize("dim, degree", [(1, 12), (1, 20), (2, 6), (2, 8), (3, 4), (3, 40)])
    def test_a_zero_is_resolved(self, dim, degree):
        """At a = 0 every block has sigma_min >= sqrt(8 dim), so 1/sigma_min
        needs no resolution check: the SVD's absolute error is far smaller."""
        for block in built_blocks(dim, 0, degree):
            sigma_min = np.linalg.svd(block, compute_uv=False)[-1]
            assert sigma_min >= math.sqrt(8 * dim) * (1 - 1e-12)


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
        quad = integrate_gaussian(
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
    quad = integrate_gaussian(lambda x: x[:, 0] ** 2 * np.exp(0.5 * x[:, 0]), w, order=40)
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
        norm = lambda alpha: math.sqrt(float(HermiteExpansion.basis_norm_sq(alpha, Fraction(1))))
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


@pytest.mark.parametrize("a", [1, -1, Fraction(1, 2)])
def test_enriched_solution_satisfies_equation_pointwise(a):
    """Finite-difference oracle: the full enriched solution (polynomial
    plus plane waves) still satisfies lap(u) + a*u = f analytically."""
    f = Polynomial(1, {(1,): 1, (0,): 2})
    rep = apply_right_inverse(f, a=a)
    h = 1e-4
    for x in (-1.3, -0.25, 0.0, 0.6, 1.7):
        second = (rep.evaluate([x + h]) - 2 * rep.evaluate([x]) + rep.evaluate([x - h])) / h**2
        residual = second + float(Fraction(a)) * rep.evaluate([x]) - float(f.evaluate([x]))
        assert abs(residual) <= 1e-6


def test_enriched_solution_pointwise_2d():
    """Same oracle in two dimensions (axes + diagonal wave directions)."""
    f = Polynomial(2, {(1, 0): 1, (0, 0): -3})
    rep = apply_right_inverse(f, a=2)
    h = 1e-4
    for x, y in ((-0.8, 0.4), (0.0, 0.0), (1.1, -0.6)):
        lap = (
            rep.evaluate([x + h, y])
            + rep.evaluate([x - h, y])
            + rep.evaluate([x, y + h])
            + rep.evaluate([x, y - h])
            - 4 * rep.evaluate([x, y])
        ) / h**2
        residual = lap + 2.0 * rep.evaluate([x, y]) - float(f.evaluate([x, y]))
        assert abs(residual) <= 1e-5

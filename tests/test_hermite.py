"""Weighted-space engine: conversions, exact integrals, quadrature, moments."""

import ast
import hashlib
import math
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gauss_rinv import domains, hermite
from gauss_rinv.domains import tensor_rule
from gauss_rinv.hermite import (
    GaussianScalar,
    HermiteExpansion,
    UnitMismatchError,
    WeightSpec,
    inner_product,
    monomial_to_hermite,
    norm_sq,
)
from gauss_rinv.polynomials import (
    MAX_DEGREE,
    DimensionMismatchError,
    InputLimitError,
    Polynomial,
    random_polynomial,
)
from gauss_rinv.rightinverse import KernelFunction

from conftest import polynomials
from reference import basis_norm_sq, gauss_hermite, hermite_row

SQRT_PI = math.sqrt(math.pi)

x = Polynomial.variable(1, 0)
one = Polynomial.constant(1, 1)


class TestMonomialToHermite:
    def test_x_squared(self):
        # H2 = 4t^2 - 2  =>  t^2 = (H2 + 2 H0)/4
        exp = monomial_to_hermite(x * x, WeightSpec.unit(1))
        assert exp.coeffs == {(2,): Fraction(1, 4), (0,): Fraction(1, 2)}

    def test_constant(self):
        exp = monomial_to_hermite(one, WeightSpec.unit(1))
        assert exp.coeffs == {(0,): Fraction(1)}

    def test_x_fourth(self):
        # H4 = 16t^4 - 48t^2 + 12  =>  t^4 = (H4 + 12 H2 + 12 H0)/16
        exp = monomial_to_hermite(x**4, WeightSpec.unit(1))
        assert exp.coeffs == {
            (4,): Fraction(1, 16),
            (2,): Fraction(3, 4),
            (0,): Fraction(3, 4),
        }

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            monomial_to_hermite(one, WeightSpec.unit(2))


class TestWeightSpec:
    def test_coerces_to_fractions_and_fills_zero_center(self):
        w = WeightSpec(dim=2, lam="3/2")
        assert w.lam == Fraction(3, 2) and type(w.lam) is Fraction
        assert w.center == (Fraction(0), Fraction(0))
        assert all(type(c) is Fraction for c in w.center)
        shifted = WeightSpec(2, 2, (1, "-1/3"))
        assert shifted.center == (Fraction(1), Fraction(-1, 3))
        assert all(type(c) is Fraction for c in shifted.center)

    @pytest.mark.parametrize(
        "args, error, match",
        [
            ((0,), ValueError, "dimension must be >= 1"),
            ((-1,), ValueError, "dimension must be >= 1"),
            ((1, 0), ValueError, "lambda must be positive"),
            ((1, Fraction(-1, 2)), ValueError, "lambda must be positive"),
            ((2, 1, (1,)), DimensionMismatchError, "center length 1 != dimension 2"),
            ((1, 1, (0, 0)), DimensionMismatchError, "center length 2 != dimension 1"),
        ],
    )
    def test_rejects_bad_dimension_lambda_or_center(self, args, error, match):
        with pytest.raises(error, match=match):
            WeightSpec(*args)

    def test_equal_specs_compare_and_hash_equal(self):
        a = WeightSpec(dim=2, lam=Fraction(1), center=(0, 0))
        b = WeightSpec.unit(2)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert WeightSpec(2, 2) != b
        assert repr(b) == "WeightSpec(dim=2, lam=Fraction(1, 1), center=(Fraction(0, 1), Fraction(0, 1)))"

    def test_unit_is_one_shared_instance_per_dim(self):
        for n in range(1, 5):
            assert WeightSpec.unit(n) is WeightSpec.unit(n) == WeightSpec(n)
        assert WeightSpec.unit.cache_info().maxsize is not None
        with pytest.raises(ValueError):
            WeightSpec.unit(0)


class TestExpansionValidation:
    def test_float_index_rejected(self):
        with pytest.raises(TypeError):
            HermiteExpansion(WeightSpec.unit(1), {(1.7,): 1})

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            HermiteExpansion(WeightSpec.unit(1), {(-1,): 1})

    def test_index_length_checked(self):
        with pytest.raises(DimensionMismatchError):
            HermiteExpansion(WeightSpec.unit(2), {(1,): 1})


@settings(max_examples=40, deadline=None)
@given(
    polynomials(max_degree=12, max_terms=6),
    st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 3), Fraction(5, 2)]),
    st.integers(min_value=-3, max_value=3),
)
def test_round_trip_any_weight(p, lam, c_num):
    """monomial -> scaled Hermite -> monomial is the exact identity."""
    center = tuple(Fraction(c_num, 2) for _ in range(p.dim))
    w = WeightSpec(dim=p.dim, lam=lam, center=center)
    assert monomial_to_hermite(p, w).to_polynomial() == p


class TestInnerProduct:
    def test_x_sq_against_one(self):
        val = inner_product(x * x, one, WeightSpec.unit(1))
        assert val.value == Fraction(1, 2) and val.pi_pow == Fraction(1, 2)

    def test_odd_symmetry(self):
        assert inner_product(x, one, WeightSpec.unit(1)).is_zero()

    def test_x_sq_against_x_sq(self):
        assert inner_product(x * x, x * x, WeightSpec.unit(1)).value == Fraction(3, 4)

    def test_h2_norm(self):
        # ||H_2||^2 = 2^2 * 2! = 8 in units sqrt(pi)
        h2 = Polynomial(1, {(i,): c for i, c in hermite_row(2, 1)})
        assert norm_sq(h2, WeightSpec.unit(1)).value == 8

    def test_zero_norm(self):
        assert norm_sq(Polynomial.zero(1), WeightSpec.unit(1)).is_zero()

    def test_total_mass_n2(self):
        val = norm_sq(Polynomial.constant(2, 1), WeightSpec.unit(2))
        assert val.value == 1 and val.pi_pow == 1

    def test_positive_definite(self):
        p = x**3 - x.scale(2) + one
        assert norm_sq(p, WeightSpec.unit(1)).value > 0


@settings(max_examples=25, deadline=None)
@given(polynomials(max_degree=8, max_terms=5))
def test_parseval(p):
    """norm_sq equals the coefficient-weighted sum of basis norms."""
    w = WeightSpec.unit(p.dim)
    exp = monomial_to_hermite(p, w)
    total = sum(
        c * c * basis_norm_sq(alpha, w.lam)
        for alpha, c in exp.coeffs.items()
    )
    assert norm_sq(p, w).value == total


@settings(max_examples=20, deadline=None)
@given(polynomials(max_degree=4, max_terms=4), polynomials(max_degree=4, max_terms=4))
def test_inner_product_matches_quadrature(p, q):
    """Exact Hermite inner products agree with tensor Gauss-Hermite."""
    if p.dim != q.dim:
        q = Polynomial.constant(p.dim, Fraction(1, 2))
    w = WeightSpec.unit(p.dim)
    exact = inner_product(p, q, w).to_float()
    quad = gauss_hermite(
        lambda x: np.array([float(p.evaluate(pt)) * float(q.evaluate(pt)) for pt in x]), w, order=12
    )
    assert quad == pytest.approx(exact, rel=1e-10, abs=1e-10)


def test_inner_product_scaled_weight_matches_quadrature():
    w = WeightSpec(dim=2, lam=Fraction(3, 2), center=(Fraction(1), Fraction(-1, 2)))
    p = Polynomial(2, {(2, 1): Fraction(1), (0, 0): Fraction(-1, 3)})
    q = Polynomial(2, {(1, 1): Fraction(2), (0, 2): Fraction(1, 5)})
    exact = inner_product(p, q, w).to_float()
    quad = gauss_hermite(
        lambda x: np.array([float(p.evaluate(pt)) * float(q.evaluate(pt)) for pt in x]), w, order=16
    )
    assert quad == pytest.approx(exact, rel=1e-10)


# lam values and per-axis center kinds of the cross-route pairs
PAIRING_LAMS = (Fraction(1), Fraction(1, 2), Fraction(2), Fraction(3), Fraction(5, 7))
PAIRING_CENTERS = ("zero", "off", "mixed")


def pairing_cases(seed: int, count: int):
    """Seeded (p, q, weight): n = 1-4, degree <= 8, every lam of
    PAIRING_LAMS, centers zero, off or mixed per axis; every tenth p and
    every tenth q zero."""
    rng = random.Random(seed)
    for i in range(count):
        n, lam, kind = rng.randint(1, 4), PAIRING_LAMS[i % 5], PAIRING_CENTERS[i % 3]
        center = tuple(
            Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            if kind == "off" or (kind == "mixed" and rng.random() < 0.5) else 0
            for _ in range(n)
        )
        p = Polynomial.zero(n) if i % 10 == 8 else random_polynomial(rng, n, max_degree=8, max_terms=6)
        q = Polynomial.zero(n) if i % 10 == 9 else random_polynomial(rng, n, max_degree=8, max_terms=6)
        yield p, q, WeightSpec(n, lam, center)


def parseval_route(p: Polynomial, q: Polynomial, w: WeightSpec) -> tuple:
    """<p, q>_w and ||p||^2_w through the Hermite coefficients and Parseval,
    as (value, pi_pow, lam) triples."""
    x, y = monomial_to_hermite(p, w), monomial_to_hermite(q, w)
    return tuple((s.value, s.pi_pow, s.lam) for s in (x.inner(y), x.norm_sq()))


def moment_route(p: Polynomial, q: Polynomial, w: WeightSpec) -> tuple:
    """The same two integrals from the Gaussian moments."""
    return tuple((s.value, s.pi_pow, s.lam) for s in (inner_product(p, q, w), norm_sq(p, w)))


def fraction_moment_row(top: int, p: int, q: int, cn: int, cd: int, factor=lambda k: k - 1):
    """_moment_row's (den, nums) from the recurrence in Fractions,
    m_k = c m_(k-1) + factor(k) q/(2p) m_(k-2), over the lcm of the
    denominators."""
    c, var = Fraction(cn, cd), Fraction(q, 2 * p)
    m = [Fraction(1), c]
    for k in range(2, top + 1):
        m.append(c * m[-1] + factor(k) * var * m[-2])
    m = m[: top + 1]
    den = math.lcm(*(v.denominator for v in m))
    return den, tuple(v.numerator * (den // v.denominator) for v in m)


class TestMomentPairing:
    """inner_product and norm_sq pair polynomials through Gaussian moments;
    HermiteExpansion.inner and norm_sq pair expansions by Parseval.  The two
    exact routes must agree to the bit."""

    def test_routes_agree_on_seeded_pairs(self):
        cases = list(pairing_cases(seed=33, count=600))
        assert any(p.is_zero() for p, _, _ in cases) and any(q.is_zero() for _, q, _ in cases)
        for p, q, w in cases:
            assert moment_route(p, q, w) == parseval_route(p, q, w), (p, q, w)

    def test_dimension_mismatch_messages(self):
        with pytest.raises(DimensionMismatchError, match="dimension mismatch: 1 vs 2"):
            inner_product(one, Polynomial.constant(2, 1), WeightSpec.unit(1))
        for call in (lambda: inner_product(one, one, WeightSpec.unit(2)), lambda: norm_sq(one, WeightSpec.unit(2))):
            with pytest.raises(DimensionMismatchError, match="polynomial dimension 1 != weight dimension 2"):
                call()

    def test_degree_above_limit_builds_no_row(self):
        half = Polynomial(2, {(MAX_DEGREE // 2 + 1, 0): 1})
        hermite._moment_row.cache_clear()
        for call in (lambda: inner_product(half, half, WeightSpec.unit(2)), lambda: norm_sq(half, WeightSpec.unit(2))):
            with pytest.raises(InputLimitError, match="MAX_DEGREE"):
                call()
        assert hermite._moment_row.cache_info().misses == 0

    @pytest.mark.parametrize("factor, agree", [(lambda k: k - 1, True), (lambda k: k, False)], ids=["k-1", "k"])
    def test_wrong_recurrence_factor_is_caught(self, monkeypatch, factor, agree):
        """The rows from the Fraction recurrence give the Parseval values;
        with the factor k in place of k - 1 the comparison fails."""
        monkeypatch.setattr(hermite, "_moment_row", lambda *key: fraction_moment_row(*key, factor=factor))
        cases = list(pairing_cases(seed=34, count=40))
        assert all(moment_route(*case) == parseval_route(*case) for case in cases) is agree


class TestGaussianScalar:
    def test_arithmetic_matches_validated_scalars(self):
        """Sums, products, scalings and weight units are built unchecked;
        they equal, and print as, the scalars __init__ builds."""
        a = GaussianScalar(Fraction(3, 4), Fraction(1, 2), Fraction(2))
        b = GaussianScalar("1/3", Fraction(1, 2), 2)
        for got, want in [
            (a + b, GaussianScalar(Fraction(13, 12), Fraction(1, 2), 2)),
            (a * b, GaussianScalar(Fraction(1, 4), 1, 2)),
            (a.scale("2/3"), GaussianScalar(Fraction(1, 2), Fraction(1, 2), 2)),
            (GaussianScalar.for_weight(Fraction(3, 4), WeightSpec(1, 2)), a),
        ]:
            assert got == want and (str(got), repr(got)) == (str(want), repr(want))
            assert all(type(v) is Fraction for v in (got.value, got.pi_pow, got.lam))
        with pytest.raises(UnitMismatchError):
            _ = a + GaussianScalar(1, Fraction(1, 2), 1)
        with pytest.raises(ValueError, match="lambda must be positive"):
            GaussianScalar(1, Fraction(1, 2), 0)

    def test_unit_check_by_identity_then_by_value(self):
        """Scalars holding the very same unit objects combine unchecked;
        equal but distinct units still combine, and a unit that differs in
        one part, the other shared, still raises with its message."""
        w = WeightSpec(2, Fraction(3, 2))
        a, b = GaussianScalar.for_weight(1, w), GaussianScalar.for_weight(2, w)
        assert a.pi_pow is b.pi_pow and a.lam is b.lam
        assert (a + b).value == 3 and a <= b and a.ratio(b) == Fraction(1, 2)
        c = GaussianScalar(2, Fraction(1), Fraction(3, 2))
        assert c.pi_pow is not a.pi_pow and c.lam is not a.lam
        assert (a + c).value == 3 and b == c
        for other, message in [
            (GaussianScalar._trusted(Fraction(1), a.pi_pow, Fraction(2)), "unit (pi/3/2)^1 vs (pi/2)^1"),
            (GaussianScalar._trusted(Fraction(1), Fraction(1, 2), a.lam), "unit (pi/3/2)^1 vs (pi/3/2)^1/2"),
        ]:
            for op in (lambda: a + other, lambda: a <= other, lambda: a.ratio(other), lambda: a == other):
                with pytest.raises(UnitMismatchError, match=re.escape(message)):
                    op()

    def test_unit_mismatch_comparison(self):
        a = GaussianScalar(1, Fraction(1, 2), 1)
        b = GaussianScalar(1, Fraction(1, 2), 2)
        with pytest.raises(UnitMismatchError):
            _ = a <= b

    def test_ratio_is_rational(self):
        a = GaussianScalar(Fraction(3, 4), Fraction(1, 2), 1)
        b = GaussianScalar(Fraction(1, 2), Fraction(1, 2), 1)
        assert a.ratio(b) == Fraction(3, 2)

    def test_product_adds_pi_powers(self):
        a = GaussianScalar(2, Fraction(1, 2), 1)
        assert (a * a).pi_pow == 1

    def test_json_form(self):
        s = GaussianScalar(Fraction(1, 2), Fraction(1, 2), Fraction(2))
        assert s.to_json_dict() == {"rational": "1/2", "pi_pow": 0.5, "lambda": "2"}

    def test_to_float(self):
        s = GaussianScalar(Fraction(1, 2), Fraction(1, 2), 1)
        assert s.to_float() == pytest.approx(SQRT_PI / 2)


UNIT = WeightSpec.unit(1)
SCALED = WeightSpec(dim=1, lam=Fraction(2), center=(Fraction(1, 2),))


class TestQuadrature:
    """Exact Gaussian moments against tensor Gauss-Hermite quadrature
    (``reference.gauss_hermite``) on the unit weight and on e^{-2 (x -
    1/2)^2}; the package's Gauss rule refuses order 0, and its tensor
    product puts the last axis fastest."""

    @pytest.mark.parametrize("order", [5, 13, 40])
    def test_degree_exactness(self, order):
        """norm_sq of x^k against either weight equals the order-point
        rule, which is exact for degree <= 2 order - 1."""
        for w in (UNIT, SCALED):
            for degree in range(0, 2 * order, 2):
                if degree > 24:
                    break
                exact = norm_sq(Polynomial(1, {(degree // 2,): 1}), w).to_float()
                quad = gauss_hermite(lambda x: x[:, 0] ** degree, w, order)
                assert quad == pytest.approx(exact, rel=1e-12)

    def test_invalid_order(self):
        with pytest.raises(ValueError, match="order >= 1"):
            domains.gauss_rule(0)

    def test_tensor_rule_last_axis_fastest(self):
        points, weights = tensor_rule(np.array([-1.0, 2.0]), np.array([3.0, 5.0]), 2)
        assert points.tolist() == [[-1.0, -1.0], [-1.0, 2.0], [2.0, -1.0], [2.0, 2.0]]
        assert weights.tolist() == [9.0, 15.0, 15.0, 25.0]


def test_parseval_extends_the_axis_norm_table(monkeypatch):
    """An axis degree past the end of the 2^a a! table extends it, at lam != 1."""
    monkeypatch.setattr(hermite, "_AXIS_NORMS", [1])
    lam = Fraction(3, 2)
    g = HermiteExpansion(WeightSpec(dim=1, lam=lam), {(200,): 1, (3,): Fraction(-2, 5)})
    expected = basis_norm_sq((200,), lam) + Fraction(4, 25) * basis_norm_sq((3,), lam)
    assert g.norm_sq().value == expected
    assert hermite._AXIS_NORMS == [2**a * math.factorial(a) for a in range(201)]


def _mp_legendre_root(mpmath, n: int, start: float):
    """The root of P_n next to ``start`` and its weight, at the working
    precision: two Newton steps from a float start reach it to about
    1e-32, and the weight is read at the first step's end, where it is
    within about 1e-29 of the root's."""
    x = mpmath.mpf(start)
    for _ in range(2):
        q, p = mpmath.mpf(0), mpmath.mpf(1)
        for k in range(n):
            q, p = p, ((2 * k + 1) * x * p - k * q) / (k + 1)
        dp = n * (q - x * p) / (1 - x * x)
        weight = 2 / ((1 - x * x) * dp * dp)
        x = x - p / dp
    return x, weight


def test_gauss_rule_bytes_are_pinned():
    """The rules of orders 1-160 (every Gram rule up to the 2-D truncation
    limit) and of the moment orders 256, 512, 1,024 and 2,048 keep the bytes
    they had when the nodes started from Jacobi-matrix eigenvalues: the
    fixed-point step takes any start near enough to the nearest float of its
    root."""
    digest = hashlib.sha256()
    for order in [*range(1, 161), 256, 512, 1024, 2048]:
        for part in domains.gauss_rule.__wrapped__(order):
            digest.update(part.astype("<f8").tobytes())
    assert digest.hexdigest() == "297884abcb681bae17e1080b02adbb2b823d9dafe902a0403b47617cbe5c5cb7"


def test_gauss_rule_matches_mpmath():
    """Orders 1-64 against a 40-digit reference: the largest node error and
    the largest relative weight error are within 4e-16 of those of numpy's
    leggauss at every order, the weights sum to 2, and the arrays are
    read-only."""
    mpmath = pytest.importorskip("mpmath")

    def errors(nodes, weights, roots):
        return (
            max(float(abs(mpmath.mpf(float(x)) - r)) for x, (r, _) in zip(nodes, roots)),
            max(float(abs(mpmath.mpf(float(w)) - v) / v) for w, (_, v) in zip(weights, roots)),
        )

    with mpmath.workdps(40):
        for order in range(1, 65):
            nodes, weights = domains.gauss_rule(order)
            half = order // 2  # the rule is symmetric: the roots >= 0 decide
            roots = [_mp_legendre_root(mpmath, order, x) for x in nodes[half:].tolist()]
            ours = errors(nodes[half:], weights[half:], roots)
            theirs = errors(*(arr[half:] for arr in np.polynomial.legendre.leggauss(order)), roots)
            assert ours[0] <= theirs[0] + 4e-16, (order, ours, theirs)
            assert ours[1] <= theirs[1] + 4e-16, (order, ours, theirs)
            assert (nodes == -nodes[::-1]).all() and (weights == weights[::-1]).all()
            assert math.fsum(weights) == pytest.approx(2.0, rel=1e-15)
            with pytest.raises(ValueError):
                nodes[0] = 0.0
            with pytest.raises(ValueError):
                weights[0] = 0.0


def test_gauss_rule_built_once_per_order(monkeypatch):
    """A rule takes its Newton steps, one per root >= 0, on its first call
    only, and every call returns the same arrays."""
    steps = []
    newton = domains._legendre_newton
    monkeypatch.setattr(domains, "_legendre_newton", lambda x, n: steps.append(n) or newton(x, n))
    domains._KEPT.clear()
    first = domains.gauss_rule(7)
    for _ in range(3):
        assert domains.gauss_rule(7) is first
    assert steps == [7] * 4


def test_exact_core_imports_no_numpy():
    """polynomials, hermite and adjoint hold no ``import numpy`` or ``from
    numpy`` at any nesting level.  rightinverse joins them once ROADMAP
    item 1 deletes its plane-wave functions, which import numpy inside."""
    for name in ("polynomials", "hermite", "adjoint"):
        tree = ast.parse(Path(hermite.__file__).with_name(f"{name}.py").read_text())
        found = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "numpy" for a in node.names)
            or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy"
        ]
        assert found == [], (name, found)


def test_import_leaves_numpy_polynomial_unloaded():
    """The quadrature rules are looked up at call time."""
    code = "import sys, gauss_rinv; print('numpy.polynomial' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def plane_wave_moment(p: Polynomial, k, kind: str) -> float:
    """integral p(x) {cos,sin,exp}(k.x) e^{-|x|^2} dx by the closed-form
    pairing of the plane wave with the Hermite coefficients of p."""
    expansion = monomial_to_hermite(p, WeightSpec.unit(p.dim))
    return KernelFunction(kind=kind, wavevector=tuple(k)).pair(expansion)


class TestGaussianMoment:
    """Gaussian moments of plane waves times polynomials, from Hermite coefficients."""

    def test_cos(self):
        assert plane_wave_moment(one, [1.0], "cos") == pytest.approx(
            SQRT_PI * math.exp(-0.25), rel=1e-14
        )

    def test_exp(self):
        assert plane_wave_moment(one, [1.0], "exp") == pytest.approx(
            SQRT_PI * math.exp(0.25), rel=1e-14
        )

    def test_sin_odd(self):
        """sin(k.x) is odd, so it pairs to exactly 0 with even data."""
        assert plane_wave_moment(one, [0.7], "sin") == 0.0
        even = Polynomial(2, {(2, 0): Fraction(1), (1, 1): Fraction(-1, 2), (0, 0): Fraction(1, 3)})
        assert plane_wave_moment(even, [0.8, -0.5], "sin") == 0.0

    @pytest.mark.parametrize("kind", ["cos", "sin", "exp"])
    def test_against_quadrature(self, kind):
        p = Polynomial(2, {(2, 0): Fraction(1), (1, 1): Fraction(-1, 2), (0, 0): Fraction(1, 3)})
        k = [0.8, -0.5]
        factor = {
            "cos": lambda t: math.cos(t),
            "sin": lambda t: math.sin(t),
            "exp": lambda t: math.exp(t),
        }[kind]
        closed = plane_wave_moment(p, k, kind)
        quad = gauss_hermite(
            lambda x: np.array([float(p.evaluate(pt)) * factor(k[0] * pt[0] + k[1] * pt[1]) for pt in x]),
            WeightSpec.unit(2),
            order=40,
        )
        assert quad == pytest.approx(closed, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("kind", ["cos", "sin", "exp"])
    def test_every_degree_mod_4_against_quadrature(self, kind):
        """Degrees 0..5 in both parities exercise every phase i^m."""
        p = Polynomial(
            2,
            {(5, 0): Fraction(1, 7), (1, 3): Fraction(-2, 3), (0, 3): Fraction(1),
             (2, 0): Fraction(-1, 2), (0, 1): Fraction(3, 4), (0, 0): Fraction(1, 5)},
        )
        k = [0.8, -0.5]
        factor = {"cos": math.cos, "sin": math.sin, "exp": math.exp}[kind]
        quad = gauss_hermite(
            lambda x: np.array([float(p.evaluate(pt)) * factor(k[0] * pt[0] + k[1] * pt[1]) for pt in x]),
            WeightSpec.unit(2),
            order=40,
        )
        assert quad == pytest.approx(plane_wave_moment(p, k, kind), rel=1e-10, abs=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            plane_wave_moment(one, [1.0], "tan")

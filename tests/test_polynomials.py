"""Exact polynomial arithmetic, calculus, and the wire format."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from gauss_rinv.polynomials import (
    DimensionMismatchError,
    Polynomial,
    dot,
    coordinate_vector,
    format_rational,
    parse_rational,
    random_polynomial,
    reduced,
)

from conftest import polynomials


x = Polynomial.variable(1, 0)
one = Polynomial.constant(1, 1)


class TestArithmetic:
    def test_add(self):
        assert x * x + one == Polynomial(1, {(2,): 1, (0,): 1})

    def test_mul_difference_of_squares(self):
        assert (x + one) * (x - one) == x * x - one

    def test_scale(self):
        assert (x * x).scale(Fraction(1, 8)) == Polynomial(1, {(2,): Fraction(1, 8)})

    def test_zero_terms_dropped(self):
        p = x - x
        assert p.is_zero() and p.terms == {}

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            x + Polynomial.constant(2, 1)

    def test_pow(self):
        assert x**4 == x * x * x * x


class TestValidation:
    def test_float_exponent_rejected(self):
        with pytest.raises(TypeError):
            Polynomial(1, {(1.7,): 1})

    def test_integral_float_exponent_rejected(self):
        with pytest.raises(TypeError):
            Polynomial(1, {(1.0,): 1})

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Polynomial(2, {(1, -1): 1})

    def test_numpy_int_exponent_accepted(self):
        np = pytest.importorskip("numpy")
        p = Polynomial(2, {(np.int64(2), np.int32(0)): 3})
        assert p == Polynomial(2, {(2, 0): 3})
        assert all(type(e) is int for e in next(iter(p.terms)))

    def test_json_float_exponent_rejected(self):
        with pytest.raises(TypeError):
            Polynomial.from_json_dict({"dim": 1, "terms": [{"exp": [1.5], "coef": "1"}]})

    @pytest.mark.parametrize(
        "data, error",
        [
            ({"dim": 2.5, "terms": []}, TypeError),
            ({"dim": "2", "terms": []}, TypeError),
            ({"dim": True, "terms": []}, TypeError),
            ({"dim": 0, "terms": []}, ValueError),
            ({"dim": 1}, TypeError),
            ({"dim": 1, "terms": 5}, TypeError),
            ({"dim": 1, "terms": [{"exp": [True], "coef": "1"}]}, TypeError),
            ({"dim": 1, "terms": [{"exp": [-1], "coef": "1"}]}, ValueError),
            ({"dim": 1, "terms": [{"exp": [1], "coef": "1/0"}]}, ValueError),
            (7, TypeError),
        ],
    )
    def test_json_wire_form_is_strict(self, data, error):
        with pytest.raises(error):
            Polynomial.from_json_dict(data)


class TestCalculus:
    def test_laplacian_radial_n3(self):
        # lap |x|^2 = 2n
        assert Polynomial.norm_squared(3).laplacian() == Polynomial.constant(3, 6)

    def test_gradient_radial(self):
        grad = Polynomial.norm_squared(2).gradient()
        expected = tuple(Polynomial.variable(2, j).scale(2) for j in range(2))
        assert grad == expected

    def test_laplacian_constant(self):
        assert Polynomial.constant(2, 7).laplacian().is_zero()

    def test_partial_out_of_range(self):
        with pytest.raises(IndexError):
            x.partial(1)


class TestCachedConstants:
    """|x|^2 and (x_1, ..., x_n): one shared instance per dim, equal to the
    validating construction, key order included."""

    def test_equal_to_validating_construction_and_shared(self):
        for n in range(1, 7):
            units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
            radial = Polynomial(n, {tuple(2 * e for e in key): Fraction(1) for key in units})
            coords = tuple(Polynomial(n, {key: Fraction(1)}) for key in units)
            for got, reference in ((Polynomial.norm_squared(n), radial), *zip(coordinate_vector(n), coords)):
                assert got == reference
                assert list(got.nums.items()) == list(reference.nums.items())
            assert Polynomial.norm_squared(n) is Polynomial.norm_squared(n)
            assert coordinate_vector(n) is coordinate_vector(n)

    def test_norm_squared_rejects_dimension_below_one(self):
        for n in (0, -1):
            with pytest.raises(ValueError):
                Polynomial.norm_squared(n)

    def test_caches_are_bounded(self):
        for cache in (Polynomial.norm_squared, coordinate_vector):
            assert cache.cache_info().maxsize is not None


def sorted_terms_rendering(p: Polynomial) -> str:
    """The corpus signature as built from the Fraction terms."""
    if p.is_zero():
        return "0"
    return " + ".join(f"{format_rational(c)}*x^{list(e)}" for e, c in p.sorted_terms())


def test_str_formats_from_ints_as_the_sorted_terms():
    """str() of seeded polynomials in n = 1-4, zero and constants among
    them, equals the rendering of sorted_terms and builds no ``terms``."""
    rng = random.Random(34)
    cases = []
    for i in range(200):
        n = 1 + i % 4
        p = random_polynomial(rng, n, max_degree=i % 7, max_terms=1 + i % 9, coeff_bound=1 + i % 20)
        cases += [p, p - p, Polynomial._trusted(n, *reduced(1 + i % 5, {0: i % 7 - 3}))]
    assert any(p.is_zero() for p in cases) and any(p.total_degree() == 0 for p in cases)
    assert any(num < 0 for p in cases for num in p.nums.values())
    for p in cases:
        text = str(p)
        assert p._terms is None
        assert text == sorted_terms_rendering(p)


def test_hash_is_computed_once_and_kept():
    """The hash slot stays empty until the first hash() and then holds the
    hash of the (dim, den, nums) value."""
    p = Polynomial(2, {(1, 0): Fraction(1, 2), (0, 0): 3})
    q = p + Polynomial.zero(2)
    assert not hasattr(p, "_hash") and not hasattr(q, "_hash")
    assert hash(p) == hash(q) == hash((2, 2, frozenset(p.nums.items())))
    assert p._hash == q._hash == hash(p)


class TestEvaluate:
    def test_exact_point(self):
        assert (x * x - one).evaluate([2]) == 3

    def test_hermite2_at_zero(self):
        h2 = Polynomial(1, {(2,): 4, (0,): -2})
        assert h2.evaluate([0]) == -2

    def test_origin(self):
        assert Polynomial.norm_squared(3).evaluate([0, 0, 0]) == 0

    def test_float_point(self):
        assert (x * x).evaluate([0.5]) == pytest.approx(0.25)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            (x * x).evaluate([1, 2])

    def test_shift(self):
        shifted = (x * x).shift([Fraction(1)])
        assert shifted == Polynomial(1, {(2,): 1, (1,): 2, (0,): 1})


class TestJson:
    def test_wire_form(self):
        p = Polynomial(1, {(2,): Fraction(1, 4), (0,): Fraction(-3)})
        assert p.to_json_dict() == {
            "dim": 1,
            "terms": [{"exp": [0], "coef": "-3"}, {"exp": [2], "coef": "1/4"}],
        }

    def test_round_trip(self):
        p = Polynomial(2, {(2, 1): Fraction(5, 7), (0, 0): Fraction(-2, 3)})
        assert Polynomial.from_json_dict(p.to_json_dict()) == p

    def test_graded_lex_deterministic(self):
        p = Polynomial(2, {(0, 2): 1, (1, 0): 1, (2, 0): 1, (0, 0): 1})
        exps = [t["exp"] for t in p.to_json_dict()["terms"]]
        assert exps == [[0, 0], [1, 0], [0, 2], [2, 0]]

    def test_parse_rational_rejects_zero_denominator(self):
        with pytest.raises(ValueError):
            parse_rational("1/0")

    def test_format_round_trip(self):
        for s in ("3", "-5/8", "0"):
            assert format_rational(parse_rational(s)) == s


@settings(max_examples=50, deadline=None)
@given(polynomials(), polynomials())
def test_product_rule(p, q):
    """d(pq) = p dq + q dp, exactly, in every variable."""
    if p.dim != q.dim:
        q = Polynomial(p.dim, {(0,) * p.dim: Fraction(1, 3)})
    for j in range(p.dim):
        assert (p * q).partial(j) == p * q.partial(j) + q * p.partial(j)


@settings(max_examples=50, deadline=None)
@given(polynomials(), polynomials())
def test_laplacian_product_formula(alpha, beta):
    """lap(ab) = b lap(a) + a lap(b) + 2 grad(a).grad(b)."""
    if alpha.dim != beta.dim:
        beta = Polynomial(alpha.dim, {(0,) * alpha.dim: 1})
    lhs = (alpha * beta).laplacian()
    rhs = (
        beta * alpha.laplacian()
        + alpha * beta.laplacian()
        + dot(alpha.gradient(), beta.gradient()).scale(2)
    )
    assert lhs == rhs


@settings(max_examples=50, deadline=None)
@given(polynomials())
def test_radial_derivative_identity(phi):
    """lap(grad(phi).x) = grad(lap(phi)).x + 2 lap(phi)."""
    coords = coordinate_vector(phi.dim)
    lhs = dot(phi.gradient(), coords).laplacian()
    rhs = dot(phi.laplacian().gradient(), coords) + phi.laplacian().scale(2)
    assert lhs == rhs

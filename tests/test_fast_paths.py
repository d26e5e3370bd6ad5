"""The exact core's fast paths against slower references and its invariant.

Results of ring, calculus and conversion operations are wrapped without
re-validation, so every such result must already meet the invariant the
trusted constructors rely on: int-tuple keys of length ``dim`` with no
negative entry, and nonzero ``Fraction`` values.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from gauss_rinv.hermite import (
    WeightSpec,
    hermite_polynomial_1d,
    monomial_to_hermite,
)
from gauss_rinv.polynomials import Polynomial
from gauss_rinv.rightinverse import shifted_laplacian

from conftest import polynomials, rationals


def assert_clean(terms: dict, dim: int) -> None:
    for key, value in terms.items():
        assert type(key) is tuple and len(key) == dim
        assert all(type(e) is int and e >= 0 for e in key)
        assert type(value) is Fraction and value != 0


def shift_by_products(p: Polynomial, offset) -> Polynomial:
    """Reference p(x + offset): multiply out (x_j + offset_j)^e per term."""
    result = Polynomial.zero(p.dim)
    for exps, coef in p.terms.items():
        factor = Polynomial.constant(p.dim, coef)
        for j, e in enumerate(exps):
            if e:
                axis = Polynomial.variable(p.dim, j) + Polynomial.constant(p.dim, offset[j])
                factor = factor * axis**e
        result = result + factor
    return result


@st.composite
def poly_and_offset(draw):
    p = draw(polynomials(max_degree=6))
    offset = [draw(rationals()) for _ in range(p.dim)]
    return p, offset


@st.composite
def weights(draw, dim: int):
    lam = draw(st.builds(Fraction, st.integers(1, 9), st.integers(1, 9)))
    center = tuple(draw(rationals(bound=5)) for _ in range(dim))
    return WeightSpec(dim, lam, center)


@settings(max_examples=60, deadline=None)
@given(poly_and_offset())
def test_shift_matches_product_route(case):
    p, offset = case
    assert p.shift(offset) == shift_by_products(p, offset)


@settings(max_examples=60, deadline=None)
@given(poly_and_offset())
def test_shift_round_trip(case):
    p, offset = case
    assert p.shift(offset).shift([-o for o in offset]) == p


@settings(max_examples=60, deadline=None)
@given(poly_and_offset(), st.data())
def test_shift_evaluates_at_moved_point(case, data):
    p, offset = case
    point = [data.draw(rationals()) for _ in range(p.dim)]
    moved = [v + o for v, o in zip(point, offset)]
    assert p.shift(offset).evaluate(point) == p.evaluate(moved)


@settings(max_examples=60, deadline=None)
@given(polynomials(max_degree=6))
def test_laplacian_matches_second_partials(p):
    reference = Polynomial.zero(p.dim)
    for j in range(p.dim):
        reference = reference + p.partial(j).partial(j)
    assert p.laplacian() == reference


@settings(max_examples=60, deadline=None)
@given(poly_and_offset(), polynomials(max_degree=3), rationals())
def test_polynomial_ops_keep_invariant(case, q, factor):
    p, offset = case
    if q.dim != p.dim:
        q = Polynomial.norm_squared(p.dim) - Polynomial.constant(p.dim, factor)
    results = [
        p + q, p - q, p - p, -p, p * q, p**2, p.scale(factor), p.scale(0),
        p.laplacian(), p.shift(offset), *p.gradient(),
    ]
    for r in results:
        assert r.dim == p.dim
        assert_clean(r.terms, p.dim)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_hermite_ops_keep_invariant(data):
    p = data.draw(polynomials(max_degree=5))
    w = data.draw(weights(p.dim))
    expansion = monomial_to_hermite(p, w)
    factor = data.draw(rationals())
    results = [
        expansion,
        expansion + expansion.scale(-1),
        expansion + monomial_to_hermite(Polynomial.constant(p.dim, 1), w),
        expansion.scale(factor),
        shifted_laplacian(expansion, factor),
        shifted_laplacian(expansion, 0),
    ]
    for r in results:
        assert r.weight == w
        assert_clean(r.coeffs, p.dim)
    back = expansion.to_polynomial()
    assert_clean(back.terms, p.dim)
    assert back == p


def test_hermite_polynomial_1d_keeps_invariant():
    for k in range(12):
        h = hermite_polynomial_1d(k)
        assert_clean(h.terms, 1)
        assert h.total_degree() == k


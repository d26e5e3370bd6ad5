"""The exact core's fast paths against slower references and its invariant.

Results of ring, calculus and conversion operations are wrapped without
re-validation, so every such result must already meet the invariant the
trusted constructors rely on: a positive int ``den``, packed int keys
of ``dim`` exponent fields (the packing of a multi-index with no negative
entry, so that its degree field is the sum of the others), nonzero int numerators, and no
common factor of ``den`` and the numerators; the ``terms`` and
``coeffs`` read from them are then nonzero, reduced ``Fraction`` values.

Every ring, calculus, conversion and Parseval operation, the min-norm
block solves and ``shifted_laplacian`` run on int numerators over one
common denominator; ``solve_exact`` must solve as the partial-pivoting
Fraction reference does, and ``nullspace_exact`` must span the kernel.
The min-norm solve applies (L P)^-1 by Horner from the tower spectrum;
the class-block normal equations it replaced, solved by ``solve_exact``,
are kept here as its oracle, and the towers it counts must annihilate
every level.
Their ``Fraction``-by-``Fraction`` forms, one ``Fraction`` operation per
step, are kept here as references; the kernels must match them exactly,
key order included.  Reports sort term maps before they serialize them,
so the order pin guards the kernels' own determinism, not report bytes:
off center, the one-pass conversions order their keys as a Fraction form
of the one-pass route and equal the two-pass route (shift, then the
Hermite rows) as maps, and a test below rebuilds inputs in reversed key
order and asks every serialized or summed result to stay the same.
The composed formal adjoint, one reduced ring operation per
step, is the reference of its one-pass stencil; since the adjoint feeds
only exact sums and sorted serializations, its key order is not compared.
So are the per-call assemblers the cached levels of
``lap + a`` replaced (class members by sorting, the float blocks over
every parity vector): members and float blocks must be equal.
"""

import inspect
import itertools
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gauss_rinv.adjoint import formal_adjoint
from gauss_rinv.hermite import (
    HermiteExpansion,
    WeightSpec,
    hermite_polynomial_1d,
    monomial_to_hermite,
)
from gauss_rinv import hermite, rightinverse
from gauss_rinv.linalg import SingularMatrixError, nullspace_exact, solve_exact
from gauss_rinv.polynomials import Polynomial, dot, key_layout, pack, random_polynomial, reduced, tensor_expand, unpack
from gauss_rinv.rightinverse import (
    KernelFunction,
    _level,
    _min_norm_coeffs,
    _tower_normal,
    _tower_polynomial,
    multi_indices_up_to,
    shifted_laplacian,
    solve_min_norm,
)

from conftest import polynomials, rationals
from harmonic_basis import harmonic_dimension
from tuple_reference import lowered, tuple_map


def assert_clean(terms: dict, dim: int) -> None:
    for key, value in terms.items():
        assert type(key) is tuple and len(key) == dim
        assert all(type(e) is int and e >= 0 for e in key)
        assert type(value) is Fraction and value != 0
        assert value.denominator > 0
        assert math.gcd(value.numerator, value.denominator) == 1


def assert_canonical(x, dim: int) -> None:
    """The (den, nums) invariant of a Polynomial or a HermiteExpansion."""
    assert type(x.den) is int and x.den > 0
    for key, num in x.nums.items():
        assert type(key) is int and key >= 0
        exps = unpack(key, dim)
        assert pack(exps) == key and key >> 32 * dim == sum(exps)
        assert type(num) is int and num != 0
    assert math.gcd(x.den, *x.nums.values()) == 1


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
        assert_canonical(r, p.dim)
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
        shifted_laplacian(expansion, factor),
        shifted_laplacian(expansion, 0),
    ]
    for r in results:
        assert r.weight == w
        assert_canonical(r, p.dim)
        assert_clean(r.coeffs, p.dim)
    back = expansion.to_polynomial()
    assert_canonical(back, p.dim)
    assert_clean(back.terms, p.dim)
    assert back == p


def test_hermite_polynomial_1d_keeps_invariant():
    for k in range(12):
        h = hermite_polynomial_1d(k)
        assert_clean(h.terms, 1)
        assert h.total_degree() == k



# ----------------------------------------------------------------------
# Fraction references of the int-numerator kernels
# ----------------------------------------------------------------------


def fraction_tensor_expand(terms, row) -> dict:
    """sum of coef * prod_j row(j, e_j), one Fraction product and sum per step;
    ``row(j, e)`` gives (index, Fraction) pairs."""
    out: dict = {}
    for exps, coef in terms.items():
        partial = [((), coef)]
        for j, e in enumerate(exps):
            partial = [(prefix + (i,), pc * c) for prefix, pc in partial for i, c in row(j, e)]
        for key, c in partial:
            prev = out.get(key)
            out[key] = c if prev is None else prev + c
    return {k: v for k, v in out.items() if v}


def fraction_binomial_row(e: int, offset: Fraction):
    if offset == 0:
        return ((e, Fraction(1)),)
    return tuple((i, math.comb(e, i) * offset ** (e - i)) for i in range(e + 1))


def monomial_in_hermite(m: int) -> list[Fraction]:
    """t^m over H_0..H_m by t H_k = H_{k+1}/2 + k H_{k-1}."""
    row = [Fraction(1)]
    for _ in range(m):
        nxt = [Fraction(0)] * (len(row) + 1)
        for k, c in enumerate(row):
            nxt[k + 1] += c / 2
            if k >= 1:
                nxt[k - 1] += c * k
        row = nxt
    return row


def hermite_in_monomials(k: int) -> list[Fraction]:
    """Monomial coefficients of H_k by H_{j+1} = 2t H_j - 2j H_{j-1}."""
    prev, cur = [Fraction(0)], [Fraction(1)]
    for j in range(k):
        nxt = [Fraction(0)] * (j + 2)
        for i, c in enumerate(cur):
            nxt[i + 1] += 2 * c
        for i, c in enumerate(prev):
            nxt[i] -= 2 * j * c
        prev, cur = cur, nxt
    return cur


def fraction_shift(p: Polynomial, offset) -> dict:
    return fraction_tensor_expand(p.terms, lambda j, e: fraction_binomial_row(e, offset[j]))


def fraction_monomial_row(m: int, lam: Fraction):
    """u^m over G_k(u), k ascending, by the recurrence of monomial_in_hermite."""
    h = monomial_in_hermite(m)
    return [(k, h[k] * lam ** ((k - m) // 2)) for k in range(m % 2, m + 1, 2)]


def fraction_hermite_row(k: int, lam: Fraction):
    """G_k(u) over u^i, i ascending, by the recurrence of hermite_in_monomials."""
    h = hermite_in_monomials(k)
    return [(i, c * lam ** ((i - k) // 2)) for i, c in enumerate(h) if c]


def fraction_monomial_to_hermite(p: Polynomial, w: WeightSpec) -> dict:
    """The two-pass route: shift to the center, then the Hermite rows."""
    terms = fraction_shift(p, w.center)
    return fraction_tensor_expand(terms, lambda j, m: fraction_monomial_row(m, w.lam))


def fraction_to_polynomial(coeffs: dict, w: WeightSpec) -> dict:
    """The two-pass route: the Hermite rows, then shift back from the center."""
    terms = fraction_tensor_expand(coeffs, lambda j, k: fraction_hermite_row(k, w.lam))
    return fraction_tensor_expand(terms, lambda j, e: fraction_binomial_row(e, -w.center[j]))


def fraction_composed_row(outer, inner) -> list:
    """sum_i c_i inner(i) over the pairs (i, c_i) of ``outer``, one Fraction
    product and sum per step; nonzero pairs, index ascending."""
    out: dict = {}
    for i, c in outer:
        for k, v in inner(i):
            out[k] = out.get(k, Fraction(0)) + c * v
    return sorted((k, v) for k, v in out.items() if v)


def one_pass_monomial_to_hermite(p: Polynomial, w: WeightSpec) -> dict:
    """The one-pass route: terms in ``nums`` order, each through the nested
    loop over its per-axis rows, each row x^m = (u + c)^m composed with the
    rows of u^i."""
    return fraction_tensor_expand(p.terms, lambda j, m: fraction_composed_row(
        fraction_binomial_row(m, w.center[j]), lambda i: fraction_monomial_row(i, w.lam)))


def one_pass_to_polynomial(coeffs: dict, w: WeightSpec) -> dict:
    """The one-pass route back: each row G_k(u) composed with the binomial
    rows of u^i = (x - c)^i."""
    return fraction_tensor_expand(coeffs, lambda j, k: fraction_composed_row(
        fraction_hermite_row(k, w.lam), lambda i: fraction_binomial_row(i, -w.center[j])))


def fraction_mul(p: Polynomial, q: Polynomial) -> dict:
    out: dict = {}
    for ea, ca in p.terms.items():
        for eb, cb in q.terms.items():
            key = tuple(a + b for a, b in zip(ea, eb))
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return {k: v for k, v in out.items() if v}


def fraction_inner(x: HermiteExpansion, y: HermiteExpansion) -> Fraction:
    total = Fraction(0)
    for alpha, c in x.coeffs.items():
        d = y.coeffs.get(alpha)
        if d is not None:
            total += c * d * HermiteExpansion.basis_norm_sq(alpha, x.weight.lam)
    return total


LAMS = (Fraction(1), Fraction(1, 2), Fraction(3), Fraction(7, 5), Fraction(2, 9))
# Large numerators, and large denominators coprime to each other and to 2,
# 3, 5 and 7, so that common denominators do not collapse.
BIG = (10007, 65537, 2**61 - 1, 3**41, 7**23)


def exact_coefficients() -> st.SearchStrategy[Fraction]:
    return st.one_of(
        st.builds(Fraction, st.integers(-16, 16).filter(bool), st.integers(1, 16)),
        st.builds(Fraction, st.integers(-(10**30), 10**30).filter(bool), st.sampled_from(BIG)),
        st.builds(Fraction, st.sampled_from(BIG), st.sampled_from(BIG)),
    )


@st.composite
def exact_polynomials(draw, dim: int, max_degree: int = 8, max_terms: int = 6):
    """Zero (no terms), single-term and multi-term polynomials of total
    degree up to ``max_degree``."""
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps, budget = [], draw(st.integers(0, max_degree))
        for _ in range(dim):
            e = draw(st.integers(0, budget))
            exps.append(e)
            budget -= e
        terms[tuple(exps)] = draw(exact_coefficients())
    return Polynomial(dim, terms)


@st.composite
def exact_weights(draw, dim: int):
    lam = draw(st.sampled_from(LAMS))
    center = draw(st.one_of(
        st.just((0,) * dim),
        st.tuples(*[st.sampled_from((0, Fraction(1, 3), Fraction(-5, 2), Fraction(7, 11)))] * dim),
    ))
    return WeightSpec(dim, lam, center)


def weight_by_composition(w: WeightSpec) -> Polynomial:
    """Reference lam*|x - c|^2: validated constructors and one ring
    operation per step."""
    x = [Polynomial.variable(w.dim, j) for j in range(w.dim)]
    out = Polynomial.zero(w.dim)
    for j in range(w.dim):
        shifted = x[j] - Polynomial.constant(w.dim, w.center[j])
        out = out + shifted * shifted
    return out.scale(w.lam)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_weight_polynomial_matches_composition(data):
    dim = data.draw(st.integers(1, 4))
    lam = abs(data.draw(exact_coefficients()))
    center = tuple(data.draw(st.one_of(st.just(0), exact_coefficients())) for _ in range(dim))
    w = WeightSpec(dim, lam, center)
    got, reference = w.polynomial(), weight_by_composition(w)
    assert got == reference and str(got) == str(reference)
    assert list(got.nums.items()) == list(reference.nums.items())
    assert_canonical(got, dim)


def assert_same_terms(got: dict, reference: dict, dim: int) -> None:
    assert list(got.items()) == list(reference.items())
    assert_clean(got, dim)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_shift_matches_fraction_reference(data):
    dim = data.draw(st.integers(1, 3))
    p = data.draw(exact_polynomials(dim))
    offset = [data.draw(st.one_of(st.just(Fraction(0)), exact_coefficients())) for _ in range(dim)]
    assert_same_terms(p.shift(offset).terms, fraction_shift(p, offset), dim)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_mul_matches_fraction_reference(data):
    dim = data.draw(st.integers(1, 3))
    p = data.draw(exact_polynomials(dim, max_degree=4))
    q = data.draw(exact_polynomials(dim, max_degree=4))
    assert_same_terms((p * q).terms, fraction_mul(p, q), dim)
    assert_same_terms((p * p).terms, fraction_mul(p, p), dim)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_conversions_match_fraction_reference(data):
    """Equal to the two-pass route as maps; in its key order at zero center,
    and in the one-pass route's key order off center."""
    dim = data.draw(st.integers(1, 3))
    p = data.draw(exact_polynomials(dim))
    w = data.draw(exact_weights(dim))
    expansion = monomial_to_hermite(p, w)
    back = expansion.to_polynomial()
    cases = [
        (expansion.coeffs, fraction_monomial_to_hermite(p, w), one_pass_monomial_to_hermite(p, w)),
        (back.terms, fraction_to_polynomial(expansion.coeffs, w), one_pass_to_polynomial(expansion.coeffs, w)),
    ]
    for got, two_pass, one_pass in cases:
        assert got == two_pass
        assert_same_terms(got, one_pass if any(w.center) else two_pass, dim)
    assert back == p


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_parseval_matches_fraction_reference(data):
    dim = data.draw(st.integers(1, 3))
    w = data.draw(exact_weights(dim))
    x = monomial_to_hermite(data.draw(exact_polynomials(dim)), w)
    y = monomial_to_hermite(data.draw(exact_polynomials(dim)), w)
    for got, reference in (
        (x.norm_sq().value, fraction_inner(x, x)),
        (x.inner(y).value, fraction_inner(x, y)),
        (y.inner(x).value, fraction_inner(x, y)),
    ):
        assert type(got) is Fraction and got == reference
        assert math.gcd(got.numerator, got.denominator) == 1
    assert x.norm_sq().value >= 0
    assert (x.norm_sq().value == 0) == x.is_zero()


def fraction_add(x: dict, y: dict, sign: int = 1) -> dict:
    out = dict(x)
    for key, c in y.items():
        out[key] = out.get(key, Fraction(0)) + sign * c
    return {k: v for k, v in out.items() if v}


def fraction_scale(x: dict, factor: Fraction) -> dict:
    return {k: v * factor for k, v in x.items()} if factor else {}


def fraction_partial(terms: dict, index: int) -> dict:
    out: dict = {}
    for exps, coef in terms.items():
        k = exps[index]
        if k:
            key = exps[:index] + (k - 1,) + exps[index + 1:]
            out[key] = out.get(key, Fraction(0)) + coef * k
    return out


def fraction_laplacian(terms: dict) -> dict:
    out: dict = {}
    for exps, coef in terms.items():
        for j, k in enumerate(exps):
            if k >= 2:
                key = exps[:j] + (k - 2,) + exps[j + 1:]
                out[key] = out.get(key, Fraction(0)) + coef * (k * (k - 1))
    return {k: v for k, v in out.items() if v}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ring_and_calculus_match_fraction_reference(data):
    dim = data.draw(st.integers(1, 3))
    p = data.draw(exact_polynomials(dim))
    q = data.draw(exact_polynomials(dim))
    factor = data.draw(st.one_of(st.just(Fraction(0)), st.integers(-3, 3), exact_coefficients()))
    cases = [
        (p + q, fraction_add(p.terms, q.terms)),
        (p - q, fraction_add(p.terms, q.terms, -1)),
        (q - q, {}),
        (-p, fraction_scale(p.terms, -1)),
        (p.scale(factor), fraction_scale(p.terms, Fraction(factor))),
        (p.laplacian(), fraction_laplacian(p.terms)),
        *((p.partial(j), fraction_partial(p.terms, j)) for j in range(dim)),
    ]
    for got, reference in cases:
        assert_canonical(got, dim)
        assert_same_terms(got.terms, reference, dim)


def test_equal_values_over_unreduced_denominators_compare_and_hash_alike():
    """x/2 + 1/3 reached through sums over 12 and 10, products over 6 and
    a pair over 36 reduces to one (den, nums) pair, with one hash."""
    x = Polynomial.variable(2, 0)
    one = Polynomial.constant(2, 1)
    direct = Polynomial(2, {(1, 0): Fraction(1, 2), (0, 0): Fraction(1, 3)})
    routes = [
        x.scale(Fraction(1, 2)) + one.scale(Fraction(1, 3)),
        x.scale(Fraction(5, 12)) + x.scale(Fraction(1, 12)) + one.scale(Fraction(1, 3)),
        x.scale(Fraction(7, 10)) - x.scale(Fraction(1, 5)) + one.scale(Fraction(1, 3)),
        (x.scale(3) + one.scale(2)).scale(Fraction(1, 6)),
        (x.scale(Fraction(3, 2)) + one) * one.scale(Fraction(1, 3)),
        (x.scale(Fraction(1, 6)) * one.scale(6)).scale(Fraction(1, 2)) + one.scale(Fraction(1, 3)),
        Polynomial._trusted(2, *reduced(36, {pack((1, 0)): 18, pack((0, 0)): 12})),
        Polynomial(2, {(1, 0): Fraction(9, 18), (0, 0): "4/12"}),
    ]
    for p in routes:
        assert (p.den, p.nums) == (6, {pack((1, 0)): 3, pack((0, 0)): 2})
        assert p == direct and hash(p) == hash(direct)
        assert_canonical(p, 2)
    assert len(set(routes)) == 1
    assert direct != direct.scale(Fraction(1, 2)) and direct != direct + one
    w = WeightSpec(2, Fraction(1, 2))
    assert all(monomial_to_hermite(p, w) == monomial_to_hermite(direct, w) for p in routes)


def fraction_random_polynomial(rng, dim, max_degree, max_terms=10, coeff_bound=16, nonzero=False):
    """The same draws in the same order, summed one Fraction at a time."""
    n_terms = rng.randint(1, max_terms)
    terms: dict = {}
    for _ in range(n_terms):
        degree = rng.randint(0, max_degree)
        exps = [0] * dim
        for _ in range(degree):
            exps[rng.randrange(dim)] += 1
        num = rng.randint(-coeff_bound, coeff_bound)
        den = rng.randint(1, coeff_bound)
        key = tuple(exps)
        terms[key] = terms.get(key, Fraction(0)) + Fraction(num, den)
    p = Polynomial(dim, terms)
    if nonzero and p.is_zero():
        return Polynomial.constant(dim, Fraction(1, rng.randint(1, coeff_bound)))
    return p


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_degree": 6, "max_terms": 8},
        {"max_degree": 4, "max_terms": 6, "nonzero": True},
        {"max_degree": 2, "max_terms": 12, "coeff_bound": 3},
        {"max_degree": 0, "max_terms": 2, "coeff_bound": 1, "nonzero": True},
    ],
)
def test_random_polynomial_matches_fraction_loop(kwargs):
    for seed in range(200):
        dim = 1 + seed % 3
        rng, ref_rng = random.Random(seed), random.Random(seed)
        got = random_polynomial(rng, dim, **kwargs)
        reference = fraction_random_polynomial(ref_rng, dim, **kwargs)
        assert_canonical(got, dim)
        assert_same_terms(got.terms, reference.terms, dim)
        assert rng.getstate() == ref_rng.getstate()


# Zero and nonzero centers; Fraction(0.2) has a 2^54 denominator, like the
# bounded solver's float box centers.
ROW_CENTERS = (Fraction(0), Fraction(-5, 2), Fraction(1, 3), Fraction(7, 11), Fraction(0.2))


def test_hermite_rows_match_recurrences():
    """Each axis row, centered or not, equals the three-term recurrences it
    replaced (after the shift, off center), for every lam of LAMS and degree
    up to 12, and each round trip gives back its input."""
    for lam in LAMS:
        for c in ROW_CENTERS:
            w = WeightSpec(1, lam, (c,))
            for m in range(13):
                monomial = Polynomial(1, {(m,): 1})
                expansion = monomial_to_hermite(monomial, w)
                basis = HermiteExpansion(w, {(m,): 1})
                back = basis.to_polynomial()
                cases = [
                    (expansion.coeffs, fraction_monomial_to_hermite(monomial, w)),
                    (back.terms, fraction_to_polynomial({(m,): Fraction(1)}, w)),
                ]
                for got, reference in cases:
                    assert got == reference
                    if c == 0:
                        assert_same_terms(got, reference, 1)
                    assert_clean(got, 1)
                assert expansion.to_polynomial() == monomial
                assert monomial_to_hermite(back, w) == basis


def test_cold_high_degree_rows_stay_shallow():
    """Cold centered rows of degree 400, each built from the rows below it,
    need no frame per degree: both build with 300 frames to spare above the
    caller's, and composing the one with the others gives back x^400."""
    key = (3, 2, -5, 7)
    for row in (hermite._centered_monomial_row, hermite._centered_hermite_row):
        row.cache_clear()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 300)
    try:
        den, pairs = hermite._centered_monomial_row(400, *key)
        hermite._centered_hermite_row(400, *key)
    finally:
        sys.setrecursionlimit(limit)
    back = tensor_expand(den, dict(pairs), lambda k: hermite._centered_hermite_row(k, *key))
    assert back == (1, {400: 1})


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_results_do_not_depend_on_input_key_order(data):
    """Inputs rebuilt with their keys in reverse order give the same
    strings, JSON, exact norms and products, lap + a, min-norm reports on
    off-center weights, and plane-wave pairings."""
    dim = data.draw(st.integers(1, 3))
    p = data.draw(exact_polynomials(dim, max_degree=5))
    q = data.draw(exact_polynomials(dim, max_degree=5))
    w = data.draw(exact_weights(dim))
    unit = WeightSpec.unit(dim)
    a = data.draw(st.sampled_from((Fraction(0), Fraction(1, 2), Fraction(-3))))

    def reversed_poly(x: Polynomial) -> Polynomial:
        return Polynomial._trusted(x.dim, x.den, dict(reversed(x.nums.items())))

    def reversed_exp(x: HermiteExpansion) -> HermiteExpansion:
        return HermiteExpansion._trusted(x.weight, x.den, dict(reversed(x.nums.items())))

    def results(p: Polynomial, q: Polynomial, expand) -> list:
        x, y, u = expand(p, w), expand(q, w), expand(p, unit)
        wave = KernelFunction(kind="cos", wavevector=(1.0,) * dim)
        return [
            str(p), p.to_json_dict(), str(x.to_polynomial()), x.to_json_dict(),
            x.norm_sq(), x.inner(y), y.inner(x),
            shifted_laplacian(x, a).to_json_dict(),
            solve_min_norm(p, weight=w).to_json_dict(),
            wave.pair(u),
        ]

    expected = results(p, q, monomial_to_hermite)
    assert results(reversed_poly(p), reversed_poly(q), monomial_to_hermite) == expected
    assert results(p, q, lambda x, v: reversed_exp(monomial_to_hermite(x, v))) == expected


def composed_adjoint(psi: Polynomial, w: Polynomial, a=0) -> Polynomial:
    """Reference adjoint of lap + a: lap psi + psi |grad w|^2 - psi lap w
    - 2 grad psi . grad w + a psi, one reduced ring operation per step."""
    grad_w = w.gradient()
    out = (
        psi.laplacian()
        + psi * dot(grad_w, grad_w)
        - psi * w.laplacian()
        - dot(psi.gradient(), grad_w).scale(2)
    )
    if a:
        out = out + psi.scale(a)
    return out


ADJOINT_SHIFTS = (Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(3), Fraction(10**20))


@st.composite
def adjoint_weights(draw, dim: int) -> Polynomial:
    """The radial weight, a scaled or off-center lam |x - c|^2, or a general
    polynomial weight drawn as the corpus's weight-expansion cases draw it."""
    kind = draw(st.sampled_from(("radial", "spec", "general")))
    if kind == "radial":
        return Polynomial.norm_squared(dim)
    if kind == "spec":
        return draw(exact_weights(dim)).polynomial()
    rng = random.Random(draw(st.integers(0, 2**32)))
    return random_polynomial(rng, dim, max_degree=4, max_terms=6, nonzero=True)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_adjoint_stencil_matches_composed_reference(data):
    dim = data.draw(st.integers(1, 3))
    psi = data.draw(exact_polynomials(dim))
    w = data.draw(adjoint_weights(dim))
    a = data.draw(st.sampled_from(ADJOINT_SHIFTS))
    got, reference = formal_adjoint(psi, w, a), composed_adjoint(psi, w, a)
    assert (got.den, got.nums) == (reference.den, reference.nums)
    assert_canonical(got, dim)


# ----------------------------------------------------------------------
# Fraction references of the exact solves and of lap + a
# ----------------------------------------------------------------------


def fraction_solve_exact(matrix, rhs) -> list[Fraction]:
    """Dense Fraction Gaussian elimination, partial pivoting on magnitude."""
    n = len(matrix)
    if n == 0:
        return []
    aug = [[Fraction(v) for v in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: abs(aug[r][col]))
        if aug[pivot_row][col] == 0:
            raise SingularMatrixError(f"singular at column {col}")
        if pivot_row != col:
            aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivot = aug[col][col]
        for r in range(col + 1, n):
            factor = aug[r][col] / pivot
            if factor == 0:
                continue
            row_r, row_c = aug[r], aug[col]
            for c in range(col, n + 1):
                row_r[c] -= factor * row_c[c]
    x = [Fraction(0)] * n
    for row in range(n - 1, -1, -1):
        acc = aug[row][n]
        for c in range(row + 1, n):
            acc -= aug[row][c] * x[c]
        x[row] = acc / aug[row][row]
    return x


def fraction_det(matrix) -> Fraction:
    rows = [[Fraction(v) for v in row] for row in matrix]
    det = Fraction(1)
    for col in range(len(rows)):
        pivot_row = next((r for r in range(col, len(rows)) if rows[r][col]), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, len(rows)):
            factor = rows[r][col] / rows[col][col]
            rows[r] = [v - factor * w for v, w in zip(rows[r], rows[col])]
    return det


def reference_class_members(dim: int, degree: int, parity: tuple[int, ...]) -> list:
    """Multi-indices of the given total degree and per-axis parity, sorted."""
    residual = degree - sum(parity)
    if residual < 0 or residual % 2:
        return []
    half = residual // 2
    return sorted(
        tuple(p + 2 * q for p, q in zip(parity, quot))
        for quot in itertools.product(range(half + 1), repeat=dim)
        if sum(quot) == half
    )


def reference_min_norm_block(dim: int, degree: int, parity: tuple[int, ...]):
    """(rows, K, columns): columns (gamma, L // N_gamma, ((row, b), ...))."""
    rows = tuple(reference_class_members(dim, degree, parity))
    pos = {alpha: i for i, alpha in enumerate(rows)}
    norms = [
        (gamma, math.prod(2**g * math.factorial(g) for g in gamma))
        for gamma in reference_class_members(dim, degree + 2, parity)
    ]
    common = math.lcm(*(n for _, n in norms))
    columns = tuple(
        (gamma, common // n, tuple((pos[beta], b) for beta, b in lowered(gamma)))
        for gamma, n in norms
    )
    matrix = [[0] * len(rows) for _ in rows]
    for _, scale, column in columns:
        for ai, b_a in column:
            for bi, b_b in column:
                matrix[ai][bi] += scale * b_a * b_b
    return rows, tuple(map(tuple, matrix)), columns


def reference_float_blocks(dim: int, degree: int, shift: float) -> list:
    """(parity, block) over every parity vector: lap + shift from the class
    members of degree <= degree + 2 onto those of degree <= degree, in
    orthonormal coordinates, from the tuple reference of _lowered alone."""
    out = []
    for parity in itertools.product((0, 1), repeat=dim):
        rows, cols = (
            [m for k in range(sum(parity), top + 1, 2) for m in reference_class_members(dim, k, parity)]
            for top in (degree, degree + 2)
        )
        if not rows:
            continue
        pos = {beta: i for i, beta in enumerate(rows)}
        block = np.zeros((len(rows), len(cols)))
        for ci, gamma in enumerate(cols):
            if gamma in pos:
                block[pos[gamma], ci] = shift
            for beta, b in lowered(gamma):
                block[pos[beta], ci] = math.sqrt(b)
        out.append((parity, block))
    return out


def packed_parity(parity: tuple[int, ...]) -> int:
    """The parity class key & PAR of a 0/1 parity vector."""
    return pack(parity) & key_layout(len(parity)).parity


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_levels_match_class_members(dim):
    for degree in range(15):
        for parity in itertools.product((0, 1), repeat=dim):
            members, entries = _level(dim, degree, packed_parity(parity))
            members = [unpack(gamma, dim) for gamma in members]
            assert members == reference_class_members(dim, degree, parity)
            below = reference_class_members(dim, degree - 2, parity)
            assert [[(below[i], b) for i, b in column] for column in entries] == [
                list(lowered(gamma)) for gamma in members
            ]


def class_block_min_norm_coeffs(f: HermiteExpansion) -> HermiteExpansion:
    """The class-block normal equations the tower solve replaced, as an
    oracle: per (degree, parity) block, ``solve_exact`` of K y = f's
    numerators with the int K of ``reference_min_norm_block``, then
    u_gamma = (L / N_gamma) (B^T y)_gamma over f's denominator."""
    dim = f.weight.dim
    blocks: dict = {}
    for alpha, num in tuple_map(f)[1].items():
        blocks.setdefault((sum(alpha), tuple(e % 2 for e in alpha)), {})[alpha] = num
    u = {}
    for (deg, parity), rhs in sorted(blocks.items()):
        rows, matrix, columns = reference_min_norm_block(dim, deg, parity)
        y = solve_exact(matrix, [rhs.get(alpha, 0) for alpha in rows])
        for gamma, scale, column in columns:
            u[gamma] = scale * sum(b * y[i] for i, b in column) / f.den
    return HermiteExpansion(f.weight, u)


def assert_same_solution(got: HermiteExpansion, expected: HermiteExpansion) -> None:
    assert got.den == expected.den
    assert list(got.nums.items()) == list(expected.nums.items())


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_min_norm_block_matches_reference(dim):
    """Each (degree, parity) block, on a full right-hand side, solves as the
    class-block oracle does, in value and key order, over the reference
    members."""
    rng = random.Random(dim)
    for degree in range(13):
        for parity in itertools.product((0, 1), repeat=dim):
            rows = tuple(reference_class_members(dim, degree, parity))
            assert _level(dim, degree, packed_parity(parity))[0] == tuple(map(pack, rows))
            if rows:
                nums = {pack(alpha): rng.choice((-1, 1)) * rng.getrandbits(64) for alpha in rows}
                f = HermiteExpansion._trusted(WeightSpec.unit(dim), *reduced(rng.choice(BIG), nums))
                assert_same_solution(_min_norm_coeffs(f), class_block_min_norm_coeffs(f))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_min_norm_matches_bareiss_oracle(data):
    """The tower solve equals the class-block solve, in value and key order,
    in 1-D to 4-D on unit, scaled and off-center weights."""
    dim = data.draw(st.integers(1, 4))
    p = data.draw(exact_polynomials(dim, max_degree=(12, 12, 10, 8)[dim - 1]))
    f = monomial_to_hermite(p, data.draw(exact_weights(dim)))
    assert_same_solution(_min_norm_coeffs(f), class_block_min_norm_coeffs(f))


def reference_lap_raise(v: dict) -> dict:
    """L P v over multi-indices: P G_beta = sum_j G_(beta + 2 e_j), then lap
    by the tuple reference of _lowered, one term at a time."""
    raised: dict = {}
    for beta, x in v.items():
        for j in range(len(beta)):
            gamma = beta[:j] + (beta[j] + 2,) + beta[j + 1 :]
            raised[gamma] = raised.get(gamma, 0) + x
    out: dict = {}
    for gamma, y in raised.items():
        for beta, b in lowered(gamma):
            out[beta] = out.get(beta, 0) + b * y
    return {k: x for k, x in out.items() if x}


def apply_polynomial(coeffs, v: dict) -> dict:
    """sum_i coeffs[i] (L P)^i v."""
    out: dict = {}
    power = v
    for c in coeffs:
        for key, x in power.items():
            out[key] = out.get(key, 0) + c * x
        power = reference_lap_raise(power)
    return {k: x for k, x in out.items() if x}


def without_root(coeffs, mu: int) -> list[int]:
    """c(x) / (mu - x) by synthetic division; the remainder must be 0."""
    quotient, carry = [], 0
    for c in reversed(coeffs[1:]):
        carry = c + carry * mu if quotient else c
        quotient.append(carry)
    quotient = [-q for q in reversed(quotient)]
    assert coeffs[0] == mu * quotient[0]
    return quotient


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_tower_polynomial_annihilates_its_level(dim):
    """c(L P) v == 0 for a random v on every (degree, parity) level up to
    degree 9, and with any one of c's roots mu_k taken out it is not: the
    towers counted are exactly the towers present, fewer in 1-D."""
    rng = random.Random(100 + dim)
    for degree in range(10):
        for parity in itertools.product((0, 1), repeat=dim):
            rows = reference_class_members(dim, degree, parity)
            if not rows:
                continue
            v = {alpha: rng.randint(-(10**6), 10**6) or 1 for alpha in rows}
            coeffs = _tower_polynomial(dim, degree, sum(parity))
            top = (degree - sum(parity)) // 2
            towers = range(top + 1) if dim > 1 else (top,)
            assert len(coeffs) == len(towers) + 1
            assert apply_polynomial(coeffs, v) == {}
            for k in towers:
                mu = 8 * (k + 1) * (2 * degree - 2 * k + dim)
                assert apply_polynomial(without_root(list(coeffs), mu), v) != {}


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("shift", [0.0, 0.5, 3.0])
def test_float_blocks_match_reference(dim, shift):
    """The towers operator_norm reads, from ``_nu``, have the spectra of
    the parity-class blocks of ``reference_float_blocks``, built from the
    tuple reference of _lowered alone: the eigenvalues of each tower's
    tridiagonal M_m = B_m B_m^T, repeated dim H_m times, are the squared
    singular values of lap + shift from V_(degree + 2) onto V_degree."""
    for degree in range(11):
        blocks = [block for _, block in reference_float_blocks(dim, degree, shift)]
        expected = np.sort(np.concatenate([np.linalg.svd(b, compute_uv=False) ** 2 for b in blocks]))
        towers = []
        for m in range(degree + 1):
            rows = _tower_normal(dim, m, (degree - m) // 2, shift * shift, 1.0)
            normal = np.diag([diag for diag, _ in rows])
            beside = np.sqrt([off for _, off in rows[1:]])
            normal += np.diag(beside, 1) + np.diag(beside, -1)
            towers.extend(list(np.linalg.eigvalsh(normal)) * harmonic_dimension(dim, m))
        got = np.sort(towers)
        assert len(got) == len(expected) == len(multi_indices_up_to(dim, degree))
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-13 * expected[-1])


def fraction_min_norm_coeffs(f_coeffs: dict, dim: int, lam: Fraction) -> dict:
    """M w = f with M = B R^{-1} B^T assembled one Fraction at a time per
    (degree, parity) block, R the basis norms at ``lam``; u = R^{-1} B^T w."""
    blocks: dict = {}
    for alpha, c in f_coeffs.items():
        blocks.setdefault((sum(alpha), tuple(e % 2 for e in alpha)), {})[alpha] = c
    u: dict = {}
    for (deg, parity), rhs_map in sorted(blocks.items()):
        rows = reference_class_members(dim, deg, parity)
        pos = {alpha: i for i, alpha in enumerate(rows)}
        rhs = [rhs_map.get(alpha, Fraction(0)) for alpha in rows]
        columns = [
            (gamma, HermiteExpansion.basis_norm_sq(gamma, lam),
             [(pos[beta], b) for beta, b in lowered(gamma)])
            for gamma in reference_class_members(dim, deg + 2, parity)
        ]
        matrix = [[Fraction(0)] * len(rows) for _ in rows]
        for _, r_gamma, column in columns:
            for ai, b_a in column:
                for bi, b_b in column:
                    matrix[ai][bi] += b_a * b_b / r_gamma
        w = fraction_solve_exact(matrix, rhs)
        for gamma, r_gamma, column in columns:
            u[gamma] = sum((b * w[ai] for ai, b in column), Fraction(0)) / r_gamma
    return {k: v for k, v in u.items() if v != 0}


def fraction_shifted_laplacian(expansion: HermiteExpansion, a: Fraction) -> dict:
    out = {gamma: a * c for gamma, c in expansion.coeffs.items()} if a else {}
    for gamma, c in expansion.coeffs.items():
        for beta, b in lowered(gamma):
            out[beta] = out.get(beta, Fraction(0)) + b * c
    return {k: v for k, v in out.items() if v}


SHIFTS = (Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(1), Fraction(-1), Fraction(3))


@st.composite
def solve_cases(draw):
    """A polynomial of degree <= 12 (<= 10 in 3-D) with a weight of LAMS,
    centered or off-center."""
    dim = draw(st.integers(1, 3))
    p = draw(exact_polynomials(dim, max_degree=10 if dim == 3 else 12, max_terms=4))
    return p, draw(exact_weights(dim))


@settings(max_examples=40, deadline=None)
@given(solve_cases(), st.sampled_from(LAMS))
def test_min_norm_matches_fraction_reference(case, other_lam):
    p, w = case
    f = monomial_to_hermite(p, w)
    reference = fraction_min_norm_coeffs(f.coeffs, w.dim, w.lam)
    assert_same_terms(_min_norm_coeffs(f).coeffs, reference, w.dim)
    report = solve_min_norm(p, 0, weight=w)
    assert_same_terms(report.solution.coeffs, reference, w.dim)
    assert report.residual_exact
    # lam cancels from every block
    assert fraction_min_norm_coeffs(f.coeffs, w.dim, other_lam) == reference


@pytest.mark.parametrize("dim, degree", [(1, 12), (2, 12), (3, 10)])
def test_min_norm_matches_fraction_reference_at_top_degree(dim, degree):
    """Every (degree, parity) block up to the largest one, full right-hand
    sides over large coprime denominators."""
    f_coeffs = {
        alpha: Fraction((-1) ** i * (BIG[i % 5] + i), BIG[(i + 2) % 5])
        for i, alpha in enumerate(multi_indices_up_to(dim, degree))
    }
    for lam in (Fraction(1), Fraction(2, 9)):
        reference = fraction_min_norm_coeffs(f_coeffs, dim, lam)
        got = _min_norm_coeffs(HermiteExpansion(WeightSpec(dim, lam), f_coeffs))
        assert_same_terms(got.coeffs, reference, dim)


@settings(max_examples=40, deadline=None)
@given(solve_cases())
def test_shifted_laplacian_matches_fraction_reference(case):
    p, w = case
    expansion = monomial_to_hermite(p, w)
    for a in SHIFTS:
        got = shifted_laplacian(expansion, a)
        assert got.weight == w
        assert_same_terms(got.coeffs, fraction_shifted_laplacian(expansion, a), w.dim)


def assert_solves(matrix, rhs) -> None:
    """solve_exact agrees with the Fraction reference and solves the system."""
    got = solve_exact(matrix, rhs)
    assert got == fraction_solve_exact(matrix, rhs)
    assert all(type(v) is Fraction for v in got)
    assert [sum(v * x for v, x in zip(row, got)) for row in matrix] == list(rhs)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_solve_exact_matches_fraction_reference(data):
    n = data.draw(st.integers(1, 7))
    entry = st.one_of(st.integers(-3, 3), st.just(Fraction(0)), exact_coefficients())
    matrix = [[data.draw(entry) for _ in range(n)] for _ in range(n)]
    rhs = [data.draw(entry) for _ in range(n)]
    if fraction_det(matrix) == 0:
        with pytest.raises(SingularMatrixError):
            solve_exact(matrix, rhs)
    else:
        assert_solves(matrix, rhs)


ZERO_PIVOT_SYSTEMS = [
    ([[0, 1], [1, 0]], [2, 3]),
    ([[0, 0, 1], [0, 1, 0], [1, 0, 0]], [Fraction(1, 3), 5, Fraction(-7, 2)]),
    # the pivot of column 1 becomes zero after the first step
    ([[1, 1, 0], [1, 1, 1], [0, 1, 1]], [1, 2, 3]),
    ([[Fraction(0), Fraction(2, 3)], [Fraction(5, 7), Fraction(1, 2)]], [Fraction(1, 10007), 1]),
    (
        [[0, Fraction(1, 3**41), 2], [Fraction(-1, 2**61 - 1), 0, 1], [1, 1, 0]],
        [1, 0, Fraction(3, 10007)],
    ),
]


@pytest.mark.parametrize("matrix, rhs", ZERO_PIVOT_SYSTEMS)
def test_solve_exact_swaps_rows_on_zero_pivot(matrix, rhs):
    assert_solves(matrix, rhs)


def test_solve_exact_empty_system():
    assert solve_exact([], []) == []


@pytest.mark.parametrize(
    "matrix",
    [
        [[0]],
        [[1, 2], [2, 4]],
        [[Fraction(1, 3), Fraction(1, 2)], [Fraction(2, 3), 1]],
        [[1, 0, 1], [0, 0, 0], [2, 5, 1]],
        [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
        [[0, 1, 1], [0, 2, 3], [0, 4, 5]],
    ],
)
def test_solve_exact_raises_on_singular(matrix):
    with pytest.raises(SingularMatrixError):
        solve_exact(matrix, [1] * len(matrix))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_nullspace_exact_spans_the_kernel(data):
    """On small-int rectangular matrices: every vector lies in the kernel
    with exact zero residuals, there are n_cols - rank of them, and each has
    1 in its own free column (one that depends on the columns before it)
    and 0 in the others, so they are independent."""
    n_rows, n_cols = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 7))
    matrix = [[data.draw(st.integers(-2, 2)) for _ in range(n_cols)] for _ in range(n_rows)]
    a = np.array(matrix, dtype=float)
    ranks = [0] + [int(np.linalg.matrix_rank(a[:, : c + 1])) for c in range(n_cols)]
    free = [c for c in range(n_cols) if ranks[c + 1] == ranks[c]]
    basis = nullspace_exact(matrix, n_cols)
    assert len(basis) == n_cols - ranks[-1] == len(free)
    for i, vec in enumerate(basis):
        assert all(type(v) is Fraction for v in vec)
        assert [sum(x * v for x, v in zip(row, vec)) for row in matrix] == [0] * n_rows
        assert [vec[c] for c in free] == [int(j == i) for j in range(len(free))]

"""The exact core's fast paths against the reference kernels and its invariant.

Results of ring, calculus and conversion operations are wrapped without
re-validation, so every such result must already meet the invariant the
trusted constructors rely on: a positive int ``den``, packed int keys
of ``dim`` exponent fields (the packing of a multi-index with no negative
entry, so that its degree field is the sum of the others), nonzero int numerators, and no
common factor of ``den`` and the numerators; the ``terms`` and
``coeffs`` read from them are then nonzero, reduced ``Fraction`` values.

Every ring, calculus, shift, conversion and Parseval operation, the
formal adjoint's one-pass stencil, ``shifted_laplacian`` and the a = 0
min-norm solve must match its kernel in ``reference`` (tuple keys, one
``Fraction`` operation per step, its own Hermite rows) exactly, key order
included.  Reports sort term maps before they serialize them, so the
order pin guards the kernels' own determinism, not report bytes: off
center, the one-pass conversions order their keys as the reference's
one-pass route, and equal the two-pass route (shift, then the zero-center
rows) as maps; a test below rebuilds inputs in reversed key order and asks
every serialized or summed result to stay the same.  The min-norm solve
applies (L P)^-1 by Horner from the tower spectrum; the reference solves
the class-block normal equations it replaced, and the towers it counts
must annihilate every level.  ``solve_exact`` must solve as the
partial-pivoting Fraction reference here does, and ``nullspace_exact``
must span the kernel.  So are the per-call assemblers the cached levels
of ``lap + a`` replaced (class members by sorting, the float blocks over
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
    monomial_to_hermite,
)
from gauss_rinv import hermite
from gauss_rinv.linalg import SingularMatrixError, nullspace_exact, solve_exact
from gauss_rinv.polynomials import Polynomial, key_layout, pack, random_polynomial, reduced, tensor_expand, unpack
from gauss_rinv.rightinverse import (
    KernelFunction,
    _lagrange_bases,
    _level,
    _min_norm_coeffs,
    _shifted_inverse,
    _tower_normal,
    multi_indices_up_to,
    shifted_laplacian,
    solve_min_norm,
)

import reference as ref
from conftest import (
    BIG,
    LAMS,
    adjoint_weights,
    exact_coefficients,
    exact_polynomials,
    exact_weights,
    polynomials,
    rationals,
)


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
    w = data.draw(exact_weights(p.dim))
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


# ----------------------------------------------------------------------
# the kernels against the reference
# ----------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_weight_polynomial_matches_composition(data):
    dim = data.draw(st.integers(1, 4))
    lam = abs(data.draw(exact_coefficients()))
    center = tuple(data.draw(st.one_of(st.just(0), exact_coefficients())) for _ in range(dim))
    w = WeightSpec(dim, lam, center)
    got = w.polynomial()
    ref.same(got, ref.weight_polynomial(dim, lam, w.center))
    assert_canonical(got, dim)


def assert_same_terms(got, reference: dict, dim: int) -> None:
    """Equal to the reference, key order included, and clean."""
    ref.same(got, reference)
    assert_clean(reference, dim)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_shift_matches_fraction_reference(data):
    dim = data.draw(st.integers(1, 3))
    p = data.draw(exact_polynomials(dim))
    offset = [data.draw(st.one_of(st.just(Fraction(0)), exact_coefficients())) for _ in range(dim)]
    assert_same_terms(p.shift(offset), ref.shift(p.terms, offset), dim)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_mul_matches_fraction_reference(data):
    dim = data.draw(st.integers(1, 4))
    p = data.draw(exact_polynomials(dim, max_degree=6))
    q = data.draw(exact_polynomials(dim, max_degree=6))
    assert_same_terms(p * q, ref.mul(p.terms, q.terms), dim)
    assert_same_terms(p * p, ref.mul(p.terms, p.terms), dim)


def conversions_match(p: Polynomial, w: WeightSpec) -> bool:
    """Both directions equal the reference's one-pass route, key order
    included, and the two-pass route (shift, then the zero-center rows) as
    maps; the way back starts from the reference's own coefficients."""
    x, h = monomial_to_hermite(p, w), ref.to_hermite(p.terms, w.lam, w.center)
    back, terms = x.to_polynomial(), ref.to_monomials(h, w.lam, w.center)
    zero = (0,) * w.dim
    return (
        list(x.coeffs.items()) == list(h.items()) and x.coeffs == ref.to_hermite(ref.shift(p.terms, w.center), w.lam, zero)
        and list(back.terms.items()) == list(terms.items())
        and terms == ref.shift(ref.to_monomials(h, w.lam, zero), [-c for c in w.center])
    )


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_conversions_match_fraction_reference(data):
    dim = data.draw(st.integers(1, 4))
    p = data.draw(exact_polynomials(dim))
    w = data.draw(exact_weights(dim))
    assert conversions_match(p, w)
    x = monomial_to_hermite(p, w)
    assert_clean(x.coeffs, dim)
    assert x.to_polynomial() == p
    assert x.degree() == p.total_degree()


@pytest.mark.parametrize("name", ["_centered_monomial_row", "_centered_hermite_row"])
def test_a_row_fault_fails_the_conversion_reference(monkeypatch, name):
    """One numerator of one row off by one: the comparison must fail."""
    row = getattr(hermite, name)

    def faulty(k, *args):
        den, pairs = row(k, *args)
        return (den, ((pairs[0][0], pairs[0][1] + 1), *pairs[1:])) if k == 3 else (den, pairs)

    p, w = Polynomial(2, {(3, 1): 1, (0, 2): Fraction(-2, 3)}), WeightSpec(2, Fraction(2), (Fraction(1, 3), 0))
    assert conversions_match(p, w)
    monkeypatch.setattr(hermite, name, faulty)
    try:
        assert not conversions_match(p, w)
    finally:
        row.cache_clear()


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_parseval_matches_fraction_reference(data):
    dim = data.draw(st.integers(1, 4))
    w = data.draw(exact_weights(dim))
    x = monomial_to_hermite(data.draw(exact_polynomials(dim)), w)
    y = monomial_to_hermite(data.draw(exact_polynomials(dim)), w)
    for got, reference in (
        (x.norm_sq().value, ref.inner(x.coeffs, x.coeffs, w.lam)),
        (x.inner(y).value, ref.inner(x.coeffs, y.coeffs, w.lam)),
        (y.inner(x).value, ref.inner(x.coeffs, y.coeffs, w.lam)),
    ):
        assert type(got) is Fraction and got == reference
        assert math.gcd(got.numerator, got.denominator) == 1
    assert x.norm_sq().value >= 0
    assert (x.norm_sq().value == 0) == x.is_zero()


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_ring_and_calculus_match_fraction_reference(data):
    dim = data.draw(st.integers(1, 4))
    p = data.draw(exact_polynomials(dim))
    q = data.draw(exact_polynomials(dim))
    factor = data.draw(st.one_of(st.just(Fraction(0)), st.integers(-3, 3), exact_coefficients()))
    cases = [
        (p + q, ref.add(p.terms, q.terms)),
        (p - q, ref.add(p.terms, q.terms, -1)),
        (q - q, {}),
        (-p, ref.scale(p.terms, -1)),
        (p.scale(factor), ref.scale(p.terms, Fraction(factor))),
        (p.laplacian(), ref.laplacian(p.terms)),
        *((p.partial(j), ref.partial(p.terms, j)) for j in range(dim)),
    ]
    for got, reference in cases:
        assert_canonical(got, dim)
        assert_same_terms(got, reference, dim)
    assert p.total_degree() == max(map(sum, p.terms), default=-1)


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
        assert_canonical(got, dim)
        assert_same_terms(got, ref.random_polynomial(ref_rng, dim, **kwargs), dim)
        assert rng.getstate() == ref_rng.getstate()


# Zero and nonzero centers; Fraction(0.2) has a 2^54 denominator, like the
# bounded solver's float box centers.
ROW_CENTERS = (Fraction(0), Fraction(-5, 2), Fraction(1, 3), Fraction(7, 11), Fraction(0.2))


def test_hermite_rows_match_recurrences():
    """Each axis row, centered or not, equals the reference's, from the
    three-term recurrences, key order included, for every lam of LAMS and
    degree up to 12, and each round trip gives back its input."""
    for lam in LAMS:
        for c in ROW_CENTERS:
            w = WeightSpec(1, lam, (c,))
            for m in range(13):
                monomial = Polynomial(1, {(m,): 1})
                expansion = monomial_to_hermite(monomial, w)
                basis = HermiteExpansion(w, {(m,): 1})
                back = basis.to_polynomial()
                assert_same_terms(expansion, ref.to_hermite({(m,): Fraction(1)}, lam, (c,)), 1)
                assert_same_terms(back, ref.to_monomials({(m,): Fraction(1)}, lam, (c,)), 1)
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


ADJOINT_SHIFTS = (Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(3), Fraction(-3), Fraction(10**20))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_adjoint_stencil_matches_composed_reference(data):
    """The one-pass stencil equals the reference's lap psi + V psi - 2 grad w
    . grad psi + a psi, in its term order."""
    dim = data.draw(st.integers(1, 4))
    psi = data.draw(exact_polynomials(dim))
    w = data.draw(adjoint_weights(dim))
    a = data.draw(st.sampled_from(ADJOINT_SHIFTS))
    got = formal_adjoint(psi, w, a)
    ref.same(got, ref.formal_adjoint(dim, psi.terms, w.terms, a))
    assert_canonical(got, dim)


# ----------------------------------------------------------------------
# the exact solves and lap + a
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


def packed_parity(parity: tuple[int, ...]) -> int:
    """The parity class key & PAR of a 0/1 parity vector."""
    return pack(parity) & key_layout(len(parity)).parity


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_levels_match_class_members(dim):
    for degree in range(15):
        for parity in itertools.product((0, 1), repeat=dim):
            members, entries = _level(dim, degree, packed_parity(parity))
            members = [unpack(gamma, dim) for gamma in members]
            assert members == ref.class_members(dim, degree, parity)
            below = ref.class_members(dim, degree - 2, parity)
            assert [[(below[i], b) for i, b in column] for column in entries] == [
                list(ref.lowered(gamma)) for gamma in members
            ]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_min_norm_block_matches_reference(dim):
    """Each (degree, parity) block, on a full right-hand side, solves as the
    reference's class-block solve does, in value and key order, over the
    reference members."""
    rng = random.Random(dim)
    for degree in range(13):
        for parity in itertools.product((0, 1), repeat=dim):
            rows = tuple(ref.class_members(dim, degree, parity))
            assert _level(dim, degree, packed_parity(parity))[0] == tuple(map(pack, rows))
            if rows:
                nums = {pack(alpha): rng.choice((-1, 1)) * rng.getrandbits(64) for alpha in rows}
                f = HermiteExpansion._trusted(WeightSpec.unit(dim), *reduced(rng.choice(BIG), nums))
                assert_same_terms(_min_norm_coeffs(f), ref.min_norm(f.coeffs, dim, 1), dim)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_min_norm_matches_bareiss_oracle(data):
    """The tower solve, and the a = 0 report's solution, equal the reference's
    class-block solve at the weight's own lam, in value and key order, in
    1-D to 4-D on unit, scaled and off-center weights."""
    dim = data.draw(st.integers(1, 4))
    p = data.draw(exact_polynomials(dim, max_degree=(12, 12, 10, 8)[dim - 1]))
    w = data.draw(exact_weights(dim))
    f = monomial_to_hermite(p, w)
    reference = ref.min_norm(f.coeffs, dim, w.lam)
    assert_same_terms(_min_norm_coeffs(f), reference, dim)
    report = solve_min_norm(p, 0, weight=w)
    assert_same_terms(report.solution, reference, dim)
    assert report.residual_exact


def reference_lap_raise(v: dict) -> dict:
    """L P v over multi-indices: P G_beta = sum_j G_(beta + 2 e_j), then the
    reference's lap on Hermite coefficients."""
    raised: dict = {}
    for beta, x in v.items():
        for j in range(len(beta)):
            gamma = beta[:j] + (beta[j] + 2,) + beta[j + 1 :]
            raised[gamma] = raised.get(gamma, 0) + x
    return ref.shifted_laplacian(raised, 0)


def apply_polynomial(coeffs, v: dict) -> dict:
    """sum_i coeffs[i] (L P)^i v."""
    out: dict = {}
    power = v
    for c in coeffs:
        for key, x in power.items():
            out[key] = out.get(key, 0) + c * x
        power = reference_lap_raise(power)
    return {k: x for k, x in out.items() if x}


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_pivot_inverse_inverts_its_level(dim):
    """The a = 0 pivot inverse (Q, D) of ``_shifted_inverse`` gives
    Q(L P)(L P v) == D v for a random v on every (degree, parity) level up
    to degree 9, and each tower's ``_lagrange_bases`` B_k gives B_k(L P) v
    != 0: the towers counted are exactly the towers present, fewer in 1-D."""
    rng = random.Random(100 + dim)
    for degree in range(10):
        for parity in itertools.product((0, 1), repeat=dim):
            rows = ref.class_members(dim, degree, parity)
            if not rows:
                continue
            v = {alpha: rng.randint(-(10**6), 10**6) or 1 for alpha in rows}
            coeffs, den = _shifted_inverse(dim, 0, 1, degree, sum(parity))
            bases = _lagrange_bases(dim, degree, sum(parity))
            top = (degree - sum(parity)) // 2
            assert len(coeffs) == len(bases) == (top + 1 if dim > 1 else 1)
            assert apply_polynomial(coeffs, reference_lap_raise(v)) == {alpha: den * x for alpha, x in v.items()}
            for basis, _ in bases:
                assert apply_polynomial(basis, v) != {}


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("shift", [0.0, 0.5, 3.0])
def test_float_blocks_match_reference(dim, shift):
    """The towers operator_norm reads, from ``_nu``, have the spectra of
    the parity-class blocks of ``reference.float_blocks``, built from the
    reference's lowered entries alone: the eigenvalues of each tower's
    tridiagonal M_m = B_m B_m^T, repeated dim H_m times, are the squared
    singular values of lap + shift from V_(degree + 2) onto V_degree."""
    for degree in range(11):
        blocks = ref.float_blocks(dim, degree, shift)
        expected = np.sort(np.concatenate([np.linalg.svd(b, compute_uv=False) ** 2 for b in blocks]))
        towers = []
        for m in range(degree + 1):
            rows = _tower_normal(dim, m, (degree - m) // 2, shift * shift, 1.0)
            normal = np.diag([diag for diag, _ in rows])
            beside = np.sqrt([off for _, off in rows[1:]])
            normal += np.diag(beside, 1) + np.diag(beside, -1)
            towers.extend(list(np.linalg.eigvalsh(normal)) * ref.harmonic_dimension(dim, m))
        got = np.sort(towers)
        assert len(got) == len(expected) == len(multi_indices_up_to(dim, degree))
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-13 * expected[-1])


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
    """lam cancels from every block: the a = 0 report's solution equals the
    reference's class-block solve at any other lam too."""
    p, w = case
    report = solve_min_norm(p, 0, weight=w)
    assert_same_terms(report.solution, ref.min_norm(monomial_to_hermite(p, w).coeffs, w.dim, other_lam), w.dim)
    assert report.residual_exact


@pytest.mark.parametrize("dim, degree", [(1, 12), (2, 12), (3, 10)])
def test_min_norm_matches_fraction_reference_at_top_degree(dim, degree):
    """Every (degree, parity) block up to the largest one, full right-hand
    sides over large coprime denominators."""
    f_coeffs = {
        alpha: Fraction((-1) ** i * (BIG[i % 5] + i), BIG[(i + 2) % 5])
        for i, alpha in enumerate(multi_indices_up_to(dim, degree))
    }
    for lam in (Fraction(1), Fraction(2, 9)):
        got = _min_norm_coeffs(HermiteExpansion(WeightSpec(dim, lam), f_coeffs))
        assert_same_terms(got, ref.min_norm(f_coeffs, dim, lam), dim)


@settings(max_examples=40, deadline=None)
@given(solve_cases())
def test_shifted_laplacian_matches_fraction_reference(case):
    p, w = case
    expansion = monomial_to_hermite(p, w)
    for a in SHIFTS:
        got = shifted_laplacian(expansion, a)
        assert got.weight == w
        assert_same_terms(got, ref.shifted_laplacian(expansion.coeffs, a), w.dim)


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

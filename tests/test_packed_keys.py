"""The packed exponent keys of the exact core against a tuple-keyed reference.

Every multi-index of ``Polynomial.nums`` and ``HermiteExpansion.nums`` is
one int, ``|e| << W*n | e_0 << W*(n-1) | ... | e_(n-1)`` (see the
``polynomials`` module docstring).  The kernels on these keys must give
the same ``(den, terms)``, key order included, as the same kernels on
tuple keys (``tuple_reference``); int order must be graded-lex order;
pack and unpack must be inverse up to the largest degree a field holds;
and no operation may build a key whose fields wrap.
"""

import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gauss_rinv
from gauss_rinv import polynomials, rightinverse
from gauss_rinv.adjoint import formal_adjoint
from gauss_rinv.hermite import HermiteExpansion, WeightSpec, monomial_to_hermite
from gauss_rinv.polynomials import (
    FIELD_BITS,
    MAX_DEGREE,
    InputLimitError,
    Polynomial,
    key_layout,
    pack,
    random_polynomial,
    unpack,
)

import tuple_reference as ref
from conftest import rationals

LAMS = (Fraction(1), Fraction(2), Fraction(1, 3), Fraction(7, 5))
CENTERS = (Fraction(0), Fraction(1, 3), Fraction(-5, 2))


@st.composite
def polys(draw, dim: int, max_degree: int = 6, max_terms: int = 5) -> Polynomial:
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps, budget = [], draw(st.integers(0, max_degree))
        for _ in range(dim):
            e = draw(st.integers(0, budget))
            exps.append(e)
            budget -= e
        terms[tuple(exps)] = draw(rationals())
    return Polynomial(dim, terms)


@st.composite
def weights(draw, dim: int) -> WeightSpec:
    center = draw(st.tuples(*[st.sampled_from(CENTERS)] * dim))
    return WeightSpec(dim, draw(st.sampled_from(LAMS)), center)


@st.composite
def adjoint_weights(draw, dim: int) -> Polynomial:
    """The radial weight, a scaled off-center lam |x - c|^2, or a general
    polynomial weight."""
    kind = draw(st.sampled_from(("radial", "spec", "general")))
    if kind == "radial":
        return Polynomial.norm_squared(dim)
    if kind == "spec":
        return draw(weights(dim)).polynomial()
    return random_polynomial(random.Random(draw(st.integers(0, 2**32))), dim, max_degree=4, max_terms=6, nonzero=True)


def same(got, expected: ref.IntMap) -> None:
    """(den, terms) equal, key order included."""
    den, nums = ref.tuple_map(got)
    assert den == expected[0]
    assert list(nums.items()) == list(expected[1].items())


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_ring_and_calculus_match_tuple_reference(data):
    dim = data.draw(st.integers(1, 4))
    p, q = data.draw(polys(dim)), data.draw(polys(dim))
    tp, tq = ref.tuple_map(p), ref.tuple_map(q)
    same(p * q, ref.mul(tp, tq))
    same(p + q, ref.add(tp, tq))
    same(p - q, ref.add(tp, tq, -1))
    same(p.laplacian(), ref.laplacian(tp))
    for j in range(dim):
        same(p.partial(j), ref.partial(tp, j))
    assert p.total_degree() == max(map(sum, tp[1]), default=-1)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_formal_adjoint_matches_tuple_reference(data):
    dim = data.draw(st.integers(1, 4))
    psi, w = data.draw(polys(dim)), data.draw(adjoint_weights(dim))
    a = data.draw(st.sampled_from((Fraction(0), Fraction(1, 2), Fraction(-3))))
    same(formal_adjoint(psi, w, a), ref.formal_adjoint(dim, ref.tuple_map(psi), ref.tuple_map(w), a))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_conversions_and_parseval_match_tuple_reference(data):
    dim = data.draw(st.integers(1, 4))
    p, q = data.draw(polys(dim)), data.draw(polys(dim))
    w = data.draw(weights(dim))
    x, y = monomial_to_hermite(p, w), monomial_to_hermite(q, w)
    tx = ref.to_hermite(ref.tuple_map(p), w)
    same(x, tx)
    same(x.to_polynomial(), ref.to_monomials(tx, w))
    assert x.inner(y).value == ref.inner(tx, ref.tuple_map(y), w.lam)
    assert x.norm_sq().value == ref.inner(tx, tx, w.lam)
    assert x.degree() == max(map(sum, tx[1]), default=-1)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(polys))
def test_int_order_is_graded_lex_order(p):
    keys = [unpack(k, p.dim) for k in sorted(p.nums)]
    assert keys == [e for e, _ in p.sorted_terms()]
    assert keys == sorted(p.terms, key=lambda e: (sum(e), e))
    assert [d["exp"] for d in p.to_json_dict()["terms"]] == [list(e) for e in keys]


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_pack_and_unpack_are_inverse_at_zero_and_max_degree(dim):
    layout = key_layout(dim)
    cases = [(0,) * dim]
    for j in range(dim):
        cases.append(tuple(MAX_DEGREE if i == j else 0 for i in range(dim)))
    cases.append((MAX_DEGREE - 3 * (dim - 1),) + (3,) * (dim - 1))
    for exps in cases:
        key = pack(exps)
        assert unpack(key, dim) == layout.fields.unpack(key.to_bytes(layout.fields.size, "big")) == exps
        assert key >> layout.degree_shift == sum(exps) <= MAX_DEGREE
        assert key & layout.parity == pack(tuple(e % 2 for e in exps)) & layout.parity
    for (shift, step), j in zip(layout.axes, range(dim)):
        assert step == pack(tuple(int(i == j) for i in range(dim)))
        assert pack((0,) * j + (5,) + (0,) * (dim - j - 1)) >> shift & MAX_DEGREE == 5


def test_squaring_past_max_degree_raises_and_names_the_limit():
    """x^(2^31) is a valid polynomial; its square would wrap a field."""
    p = Polynomial.monomial((2**31,))
    assert p.total_degree() == 2**31
    limit = rf"above MAX_DEGREE = {MAX_DEGREE}"
    with pytest.raises(InputLimitError, match=limit):
        p * p
    with pytest.raises(InputLimitError, match=limit):
        p**2
    high = Polynomial.monomial((MAX_DEGREE - 1, 0))
    assert high.laplacian().total_degree() == MAX_DEGREE - 3
    with pytest.raises(InputLimitError, match=limit):
        formal_adjoint(high, Polynomial.norm_squared(2))
    top = formal_adjoint(Polynomial.monomial((MAX_DEGREE - 2, 0)), Polynomial.norm_squared(2))
    assert top.total_degree() == MAX_DEGREE


@pytest.mark.parametrize("exps", [(2**FIELD_BITS,), (2**31, 2**31), (10**30, 0, 1)])
def test_validating_constructors_refuse_degrees_past_the_limit(exps):
    dim = len(exps)
    with pytest.raises(InputLimitError, match="MAX_DEGREE"):
        Polynomial(dim, {exps: 1})
    with pytest.raises(InputLimitError, match="MAX_DEGREE"):
        HermiteExpansion(WeightSpec.unit(dim), {exps: 1})
    with pytest.raises(InputLimitError, match="MAX_DEGREE"):
        Polynomial.from_json_dict({"dim": dim, "terms": [{"exp": list(exps), "coef": "1"}]})


def test_solve_over_the_limit_exits_2_without_traceback(tmp_path):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"dim": 1, "terms": [{"exp": [2**32], "coef": "1"}]}))
    run = subprocess.run(
        [sys.executable, "-m", "gauss_rinv", "solve", "--dim", "1", "--f", str(path)],
        capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 2
    assert "Traceback" not in run.stderr and "MAX_DEGREE = 4294967295" in run.stderr


def test_errors_have_one_home():
    """SingularMatrixError lives in linalg, its only raiser, and
    InputLimitError in polynomials; the exact core imports without linalg."""
    from gauss_rinv import linalg

    assert issubclass(linalg.SingularMatrixError, ArithmeticError)
    assert not hasattr(rightinverse, "SingularMatrixError")
    assert rightinverse.InputLimitError is polynomials.InputLimitError
    code = "import sys, gauss_rinv; print('gauss_rinv.linalg' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "False"
    assert gauss_rinv.Polynomial is Polynomial

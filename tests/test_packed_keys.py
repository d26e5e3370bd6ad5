"""The packed exponent keys of the exact core.

Every multi-index of ``Polynomial.nums`` and ``HermiteExpansion.nums`` is
one int, ``|e| << W*n | e_0 << W*(n-1) | ... | e_(n-1)`` (see the
``polynomials`` module docstring).  Int order must be graded-lex order;
pack and unpack must be inverse up to the largest degree a field holds;
no operation may build a key whose fields wrap; and the kernels on wide
keys, exponents far past the draws of ``test_fast_paths``, must give the
values and key order of the tuple-keyed kernels in ``reference``.
"""

import json
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
    unpack,
)

import reference as ref
from conftest import adjoint_weights, exact_polynomials, exact_weights

# Total degrees up to 2^30 fill each field far past the fast-path draws;
# products and adjoints stay below MAX_DEGREE.
WIDE = 2**30


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_ring_and_calculus_match_tuple_reference(data):
    dim = data.draw(st.integers(1, 4))
    p, q = (data.draw(exact_polynomials(dim, max_degree=WIDE, max_terms=4)) for _ in range(2))
    ref.same(p * q, ref.mul(p.terms, q.terms))
    ref.same(p - q, ref.add(p.terms, q.terms, -1))
    ref.same(p.laplacian(), ref.laplacian(p.terms))
    for j in range(dim):
        ref.same(p.partial(j), ref.partial(p.terms, j))
    assert p.total_degree() == max(map(sum, p.terms), default=-1)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_formal_adjoint_matches_tuple_reference(data):
    dim = data.draw(st.integers(1, 4))
    psi, w = data.draw(exact_polynomials(dim, max_degree=WIDE)), data.draw(adjoint_weights(dim))
    a = data.draw(st.sampled_from((Fraction(0), Fraction(1, 2), Fraction(-3))))
    ref.same(formal_adjoint(psi, w, a), ref.formal_adjoint(dim, psi.terms, w.terms, a))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_conversions_and_parseval_match_tuple_reference(data):
    """Total degree up to 12, past the fast-path draws: the conversion
    rows are dense off center, so this is as wide as they go cheaply."""
    dim = data.draw(st.integers(1, 4))
    p, q = (data.draw(exact_polynomials(dim, max_degree=12, max_terms=3)) for _ in range(2))
    w = data.draw(exact_weights(dim))
    x, y = monomial_to_hermite(p, w), monomial_to_hermite(q, w)
    h = ref.to_hermite(p.terms, w.lam, w.center)
    ref.same(x, h)
    ref.same(x.to_polynomial(), ref.to_monomials(h, w.lam, w.center))
    assert x.inner(y).value == ref.inner(h, y.coeffs, w.lam)
    assert x.degree() == max(map(sum, h), default=-1)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(exact_polynomials))
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

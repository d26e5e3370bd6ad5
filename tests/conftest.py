import random
import subprocess
import sys
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import strategies as st

from gauss_rinv.hermite import WeightSpec
from gauss_rinv.polynomials import Polynomial, random_polynomial


@cache
def rationals(bound: int = 16) -> st.SearchStrategy[Fraction]:
    return st.builds(
        Fraction,
        st.integers(min_value=-bound, max_value=bound),
        st.integers(min_value=1, max_value=bound),
    )


@st.composite
def polynomials(draw, dim: int | None = None, max_degree: int = 4, max_terms: int = 5):
    d = dim if dim is not None else draw(st.integers(min_value=1, max_value=3))
    n_terms = draw(st.integers(min_value=1, max_value=max_terms))
    terms = {}
    for _ in range(n_terms):
        exps = []
        budget = max_degree
        for _ in range(d):
            e = draw(st.integers(min_value=0, max_value=budget))
            exps.append(e)
            budget -= e
        terms[tuple(exps)] = draw(rationals())
    return Polynomial(d, terms)


# Large numerators, and large denominators coprime to each other and to 2,
# 3, 5 and 7, so that common denominators do not collapse.
BIG = (10007, 65537, 2**61 - 1, 3**41, 7**23)
LAMS = (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(1, 3), Fraction(3), Fraction(7, 5), Fraction(2, 9))
CENTERS = (Fraction(0), Fraction(1, 3), Fraction(-5, 2), Fraction(7, 11))


@cache
def exact_coefficients() -> st.SearchStrategy[Fraction]:
    """Nonzero: small, large over BIG, or BIG over BIG; built once, so that
    hypothesis validates it once."""
    return st.one_of(
        st.builds(Fraction, st.integers(-16, 16).filter(bool), st.integers(1, 16)),
        st.builds(Fraction, st.integers(-(10**30), 10**30).filter(bool), st.sampled_from(BIG)),
        st.builds(Fraction, st.sampled_from(BIG), st.sampled_from(BIG)),
    )


@st.composite
def exact_polynomials(draw, dim: int, max_degree: int = 8, max_terms: int = 6) -> Polynomial:
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
def exact_weights(draw, dim: int) -> WeightSpec:
    """lam |x - c|^2: lam from LAMS or p/q with p, q <= 9; c zero, from
    CENTERS per axis, or a small rational per axis."""
    lam = draw(st.one_of(st.sampled_from(LAMS), st.builds(Fraction, st.integers(1, 9), st.integers(1, 9))))
    center = draw(st.one_of(
        st.just((0,) * dim),
        st.tuples(*[st.sampled_from(CENTERS)] * dim),
        st.tuples(*[rationals(bound=5)] * dim),
    ))
    return WeightSpec(dim, lam, center)


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


@pytest.fixture
def unit_1d():
    return WeightSpec.unit(1)


@pytest.fixture(scope="session")
def suite_runs():
    """Two runs of `gauss-rinv suite` in fresh interpreters, shared by the
    determinism tests of the CLI and of the acceptance criteria."""
    cmd = [sys.executable, "-m", "gauss_rinv", "suite"]
    return tuple(subprocess.run(cmd, capture_output=True, check=True) for _ in range(2))

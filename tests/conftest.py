import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from gauss_rinv.polynomials import Polynomial


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


@pytest.fixture
def unit_1d():
    from gauss_rinv.hermite import WeightSpec

    return WeightSpec.unit(1)


@pytest.fixture(scope="session")
def suite_runs():
    """Two runs of `gauss-rinv suite` in fresh interpreters, shared by the
    determinism tests of the CLI and of the acceptance criteria."""
    cmd = [sys.executable, "-m", "gauss_rinv", "suite"]
    return tuple(subprocess.run(cmd, capture_output=True, check=True) for _ in range(2))

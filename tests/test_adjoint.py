"""Formal adjoint, commutator routes, and the exact identity checkers.

The frozen scalar values below were derived by hand from the adjoint
formula and the Gaussian moments (integral x^2 e^{-x^2} = sqrt(pi)/2,
integral x^4 e^{-x^2} = 3 sqrt(pi)/4) and are cross-checked against the
independent quadrature oracle where a float route exists.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from gauss_rinv import adjoint
from gauss_rinv.adjoint import (
    SHIFT_CYCLE,
    check_adjoint_norm_split,
    check_adjointness,
    check_coercivity,
    check_commutator_pairing,
    check_duality,
    commutator,
    formal_adjoint,
    run_identity_battery,
    run_identity_case,
)
from gauss_rinv.cli import EXIT_CHECK_FAILED, main
from gauss_rinv.hermite import WeightSpec
from gauss_rinv.polynomials import Polynomial, dot, random_polynomial

from conftest import polynomials

x = Polynomial.variable(1, 0)
one = Polynomial.constant(1, 1)
radial_1d = Polynomial.norm_squared(1)


class TestFormalAdjoint:
    def test_x_squared(self):
        # lap(psi) + 4x^2 psi - 2 psi - 4x psi' with psi = x^2
        assert formal_adjoint(x * x, radial_1d) == Polynomial(
            1, {(4,): 4, (2,): -10, (0,): 2}
        )

    def test_constant(self):
        assert formal_adjoint(one, radial_1d) == Polynomial(1, {(2,): 4, (0,): -2})

    def test_zero(self):
        assert formal_adjoint(Polynomial.zero(2), Polynomial.norm_squared(2)).is_zero()

    def test_shift_included(self):
        assert formal_adjoint(one, radial_1d, Fraction(3)) == Polynomial(
            1, {(2,): 4, (0,): 1}
        )


class TestCommutator:
    @pytest.mark.parametrize("method", ["direct", "expanded", "reduced"])
    def test_x_squared_all_routes(self, method):
        assert commutator(x * x, radial_1d, method) == Polynomial(1, {(2,): 40, (0,): -16})

    def test_constant_reduced(self):
        assert commutator(one, radial_1d, "reduced") == Polynomial.constant(1, 8)

    def test_zero(self):
        assert commutator(Polynomial.zero(3), Polynomial.norm_squared(3), "direct").is_zero()

    def test_reduced_requires_radial_weight(self):
        with pytest.raises(ValueError):
            commutator(one, Polynomial(1, {(4,): 1}), "reduced")

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            commutator(one, radial_1d, "sideways")


@settings(max_examples=40, deadline=None)
@given(polynomials(max_degree=6, max_terms=5))
def test_commutator_three_way_agreement(psi):
    radial = Polynomial.norm_squared(psi.dim)
    direct = commutator(psi, radial, "direct")
    assert direct == commutator(psi, radial, "expanded")
    assert direct == commutator(psi, radial, "reduced")


@settings(max_examples=30, deadline=None)
@given(polynomials(max_degree=3, max_terms=3), polynomials(max_degree=4, max_terms=4))
def test_expanded_route_for_general_weights(weight, psi):
    """The general-weight expansion agrees with the literal composition
    beyond the radial case (pointwise polynomial identity)."""
    if weight.dim != psi.dim:
        psi = Polynomial(weight.dim, {(0,) * weight.dim: Fraction(1, 2)})
    assert commutator(psi, weight, "direct") == commutator(psi, weight, "expanded")


class TestPairingIdentity:
    def test_x_squared(self):
        # <x^2, 40x^2 - 16> = 40*(3/4) - 16*(1/2) = 22 = 8*(3/4) + 8*2
        report = check_commutator_pairing(x * x)
        assert report.passed and report.lhs.value == 22

    def test_constant_n2(self):
        report = check_commutator_pairing(Polynomial.constant(2, 1))
        assert report.passed and report.lhs.value == 16

    def test_zero(self):
        report = check_commutator_pairing(Polynomial.zero(1))
        assert report.passed and report.lhs.is_zero()


class TestNormSplit:
    def test_x_squared(self):
        # ||adj(x^2)||^2 = 26 = ||lap(x^2)||^2 + 22 = 4 + 22
        report = check_adjoint_norm_split(x * x)
        assert report.passed
        assert report.lhs.value == 26

    def test_constant(self):
        # ||4x^2 - 2||^2 = ||H_2||^2 = 8 = 0 + <1, 8>
        report = check_adjoint_norm_split(one)
        assert report.passed and report.lhs.value == 8

    def test_zero(self):
        report = check_adjoint_norm_split(Polynomial.zero(1), a=Fraction(5))
        assert report.passed and report.lhs.is_zero()

    def test_scaled_weight(self):
        w = WeightSpec(dim=1, lam=Fraction(2), center=(Fraction(1, 2),))
        report = check_adjoint_norm_split(x * x - x, a=Fraction(-1), weight=w)
        assert report.passed


class TestCoercivity:
    def test_x_squared(self):
        report = check_coercivity(x * x)
        assert report.passed and report.lhs.value == 26 and report.rhs.value == 6

    def test_constant_saturates(self):
        report = check_coercivity(one)
        assert report.passed and report.lhs.value == report.rhs.value == 8

    def test_zero(self):
        assert check_coercivity(Polynomial.zero(2)).passed


class TestDuality:
    def test_constant_data(self):
        # |<1, x^2>|^2 = 1/4 <= (1/8)*26 = 13/4 (units pi)
        report = check_duality(one, x * x)
        assert report.passed
        assert report.lhs.value == Fraction(1, 4)
        assert report.rhs.value == Fraction(13, 4)

    def test_saturation_at_constants(self):
        report = check_duality(one, one)
        assert report.passed and report.lhs.value == report.rhs.value == 1

    def test_zero_data(self):
        assert check_duality(Polynomial.zero(1), x * x).passed


class TestAdjointness:
    def test_example(self):
        report = check_adjointness(one, x * x)
        assert report.passed and report.lhs.value == 2

    def test_odd_pair(self):
        report = check_adjointness(x, x)
        assert report.passed and report.lhs.is_zero()

    def test_zero(self):
        assert check_adjointness(x, Polynomial.zero(1)).passed

    def test_scaled_weight(self):
        w = WeightSpec(dim=2, lam=Fraction(3), center=(Fraction(0), Fraction(1)))
        psi = Polynomial(2, {(1, 1): 1, (0, 0): Fraction(-1, 4)})
        u = Polynomial(2, {(2, 0): Fraction(1, 3), (0, 1): 2})
        assert check_adjointness(psi, u, w).passed


def test_coercivity_and_duality_across_shift_cycle():
    """The bound is uniform in the constant shift a."""
    rng = random.Random(7)
    for a in SHIFT_CYCLE:
        psi = random_polynomial(rng, 2, max_degree=4, max_terms=5)
        f = random_polynomial(rng, 2, max_degree=4, max_terms=5)
        assert check_coercivity(psi, a).passed
        assert check_duality(f, psi, a).passed


def test_identity_case_is_deterministic():
    a = run_identity_case("duality", 12345)
    b = run_identity_case("duality", 12345)
    assert a == b and a["pass"]


def test_small_battery_all_pass():
    cases = run_identity_battery(seed=3, cases_per_identity=6, weight_cases=4)
    assert len(cases) == 6 * 6 + 4
    assert all(c["pass"] for c in cases)
    ids = [c["id"] for c in cases]
    assert len(set(ids)) == len(ids)


def wrong_factor_adjoint(psi, w, a=0):
    """The formal adjoint with 3 in place of 2 on grad(psi).grad(w)."""
    return formal_adjoint(psi, w, a) - dot(psi.gradient(), w.gradient())


def failures(cases: list[dict]) -> dict[str, int]:
    """Failed cases per identity."""
    out: dict[str, int] = {}
    for case in cases:
        out[case["identity"]] = out.get(case["identity"], 0) + (not case["pass"])
    return out


class TestCorpusVerdictsCanFail:
    """A wrong formal adjoint fails the corpus verdicts that rest on it,
    seed 7, 10 cases per identity."""

    def test_wrong_gradient_factor(self, monkeypatch):
        monkeypatch.setattr(adjoint, "formal_adjoint", wrong_factor_adjoint)
        failed = failures(run_identity_battery(seed=7, cases_per_identity=10, weight_cases=0))
        for identity in ("commutator-three-way", "adjoint-norm-split", "adjointness"):
            assert failed[identity] == 10
        # the wrong factor adds -4 lap(psi) to the commutator, which vanishes
        # at the one harmonic psi, 14/13 x z
        assert failed["commutator-pairing"] == 9

    def test_zero_adjoint(self, monkeypatch):
        monkeypatch.setattr(adjoint, "formal_adjoint", lambda psi, w, a=0: Polynomial.zero(psi.dim))
        failed = failures(run_identity_battery(seed=7, cases_per_identity=10, weight_cases=0))
        assert failed["coercivity"] == 10

    def test_verify_exits_1(self, monkeypatch, capsys):
        monkeypatch.setattr(adjoint, "formal_adjoint", wrong_factor_adjoint)
        assert main(["verify", "--seed", "7", "--cases", "10", "--weight-cases", "1"]) == EXIT_CHECK_FAILED
        assert '"pass": false' in capsys.readouterr().out

"""CLI surface: subcommands, exit codes, validation, determinism."""

import dataclasses
import json
import math
import re
import shlex
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from gauss_rinv import cli, domains, rightinverse
from gauss_rinv.cli import (
    EXIT_CHECK_FAILED,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_SPEC,
    SpecValidationError,
    load_polynomial,
    main,
)
from gauss_rinv.hermite import HermiteExpansion
from gauss_rinv.polynomials import Polynomial
from gauss_rinv.reporting import dump_json


def run_cli(*argv, **kwargs) -> tuple[int, dict | None]:
    """Invoke main() in-process and parse the report from a temp file."""
    out = kwargs.pop("tmp_path", None)
    args = list(argv)
    if out is not None:
        path = out / "report.json"
        args = ["--out", str(path), *args] if args[0].startswith("--") else [args[0], "--out", str(path), *args[1:]]
        code = main(args)
        report = json.loads(path.read_text()) if path.exists() else None
        return code, report
    code = main(args)
    return code, None


class TestSolveCommand:
    def test_constant_data_ratio(self, tmp_path):
        code, report = run_cli("solve", "--dim", "1", "--a", "0", "--f", "const:1", tmp_path=tmp_path)
        assert code == EXIT_OK
        solve = report["results"]["solve"]
        assert solve["ratio"] == "1/8"
        assert solve["bound"] == "1/8"
        assert solve["residual_exact"] is True
        assert report["pass"] is True

    def test_polynomial_file(self, tmp_path):
        # f = x^2 = (H2 + 2 H0)/4: u2 = (1/2)/8, u4 = (1/4)/48, so
        # ||u||^2 = 1/32 + 1/96 = 1/24 against ||f||^2 = 3/4 -> ratio 1/18
        poly_path = tmp_path / "f.json"
        poly_path.write_text(json.dumps(Polynomial(1, {(2,): 1}).to_json_dict()))
        code, report = run_cli("solve", "--dim", "1", "--f", str(poly_path), tmp_path=tmp_path)
        assert code == EXIT_OK
        assert report["results"]["solve"]["ratio"] == "1/18"

    def test_echo_is_the_parsed_f(self, tmp_path, capsys, monkeypatch):
        """One file read through a relative and an absolute path gives one
        report, its echo the polynomial's canonical JSON."""
        poly = Polynomial(2, {(3, 1): Fraction(2, 3), (0, 2): Fraction(-5)})
        (tmp_path / "f.json").write_text(json.dumps(poly.to_json_dict()))
        monkeypatch.chdir(tmp_path)
        outputs = []
        for path in ("f.json", str(tmp_path / "f.json")):
            assert main(["solve", "--dim", "2", "--f", path]) == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["spec"]["f"] == poly.to_json_dict()

    def test_malformed_rational_exits_2(self, capsys):
        assert main(["solve", "--dim", "1", "--a", "1/0", "--f", "const:1"]) == EXIT_SPEC
        assert "a" in capsys.readouterr().err

    def test_enriched_shift(self, tmp_path):
        """a = 1 is no longer enriched: the weak solution on V_0 has the
        exact ratio 1/9 < 1/8, and the enrichment keys read their a = 0
        values."""
        code, report = run_cli("solve", "--dim", "1", "--a", "1", "--f", "const:1", tmp_path=tmp_path)
        assert code == EXIT_OK
        solve = report["results"]["solve"]
        assert solve["ratio"] == "1/9" and solve["bound_satisfied"] is True
        assert solve["pre_enrichment_ratio"] is None and solve["enrichment"] == "none"
        assert solve["solution"]["kernel"] == [] and solve["gram_condition"] is None

    def test_shift_bound_violation_exits_1(self, tmp_path, monkeypatch):
        """At a != 0 the verdict includes the bound: -x y^3 at a = -2 meets
        it (ratio 0.01725 <= 1/16), and with 3 G_(1,5) - 10 G_(3,3) + 3
        G_(5,1) (lap of it is 0, so P_4 (lap - 2) of it is 0) added to the
        solution the weak residual stays exact, the ratio goes above 1/16
        and the solve exits 1."""
        poly_path = tmp_path / "f.json"
        poly_path.write_text(json.dumps({"dim": 2, "terms": [{"exp": [1, 3], "coef": "-1"}]}))
        argv = ("solve", "--dim", "2", "--a", "-2", "--f", str(poly_path))
        code, report = run_cli(*argv, tmp_path=tmp_path)
        assert code == EXIT_OK
        assert report["results"]["solve"]["ratio_float"] == pytest.approx(0.01725, abs=5e-6)
        solver = rightinverse._min_norm_coeffs
        harmonic = {(1, 5): 3, (3, 3): -10, (5, 1): 3}

        def planted(f, a, top):
            u = solver(f, a, top)
            return HermiteExpansion(u.weight, {k: u.coeffs.get(k, 0) + harmonic.get(k, 0) for k in {*u.coeffs, *harmonic}})

        monkeypatch.setattr(rightinverse, "_min_norm_coeffs", planted)
        code, report = run_cli(*argv, tmp_path=tmp_path)
        assert code == EXIT_CHECK_FAILED
        solve = report["results"]["solve"]
        assert solve["residual_exact"] is True and solve["bound_satisfied"] is False

    def test_scaled_shift_within_bound_exits_0(self, tmp_path):
        """At lambda = 2 and a = 1 the weak solution of f = 1 on V_0 has the
        exact ratio 1 / (8 lambda^2 + a^2) = 1/33 <= 1/32."""
        code, report = run_cli(
            "solve", "--dim", "1", "--lambda", "2", "--a", "1", "--f", "const:1", tmp_path=tmp_path
        )
        assert code == EXIT_OK
        assert report["results"]["solve"]["ratio"] == "1/33"

    def test_enriched_shift_within_bound_exits_0(self, tmp_path):
        code, report = run_cli("solve", "--dim", "1", "--a", "1", "--f", "const:1", tmp_path=tmp_path)
        assert code == EXIT_OK
        assert report["results"]["solve"]["bound_satisfied"] is True

    def test_solve_accepts_weight_flags(self, tmp_path):
        code, report = run_cli(
            "solve", "--dim", "1", "--lambda", "2", "--f", "const:1", tmp_path=tmp_path
        )
        assert code == EXIT_OK
        assert report["results"]["solve"]["ratio"] == "1/32"

    def test_shifted_solve_over_work_limit_exits_2(self, tmp_path, capsys):
        """At a != 0 the work limit counts the sweep: every level of the
        class from the bottom to N, both passes, each level j + 1 times.
        x1^8 in 12-D, which a = 0 admits at 198,564 units, counts 1,867,200
        at a = 1 and exits 2 before any level is built; the 10-D solve of a
        constant at a = 1, which the plane waves failed after 5.5 s, counts
        240 and meets the bound."""
        poly_path = tmp_path / "f.json"
        poly_path.write_text(json.dumps(Polynomial.monomial((8,) + (0,) * 11).to_json_dict()))
        started = time.perf_counter()
        assert main(["solve", "--dim", "12", "--a", "1", "--f", str(poly_path)]) == EXIT_SPEC
        assert time.perf_counter() - started < 1.0
        err = capsys.readouterr().err
        assert "the min-norm solve in 12-D needs 1867200 units of work" in err and "MAX_MIN_NORM_WORK" in err
        code, report = run_cli("solve", "--dim", "10", "--a", "1", "--f", "const:1", tmp_path=tmp_path)
        assert code == EXIT_OK and report["results"]["solve"]["ratio"] == "1/81"

    def test_min_norm_block_over_limit_exits_2(self, tmp_path, capsys):
        """x1^2 in 1000-D: its degree-2 all-even block reaches a level of
        500,500 members of 1000 ints each; the solve stops before it builds
        any level and names the limit."""
        poly_path = tmp_path / "f.json"
        poly_path.write_text(json.dumps(Polynomial.monomial((2,) + (0,) * 999).to_json_dict()))
        started = time.perf_counter()
        assert main(["solve", "--dim", "1000", "--f", str(poly_path)]) == EXIT_SPEC
        assert time.perf_counter() - started < 1.0
        err = capsys.readouterr().err
        assert "the min-norm solve in 1000-D needs 504502000 units of work" in err
        assert "MAX_MIN_NORM_WORK = 1000000" in err

    def test_min_norm_work_at_limit_accepted(self, tmp_path, capsys, monkeypatch):
        """x1^8 in 12-D, whose 1,365-row degree-8 block a row limit refused,
        solves with an exact residual; x^2 y^2 in 3-D counts 3 (18 + 6 +
        10) + 3 (6 + 3 + 6) + 3 (1 + 1 + 3) = 162 units over its three
        blocks, and a limit of 162 admits it where 161 does not."""
        poly_path = tmp_path / "f.json"
        poly_path.write_text(json.dumps(Polynomial.monomial((8,) + (0,) * 11).to_json_dict()))
        code, report = run_cli("solve", "--dim", "12", "--f", str(poly_path), tmp_path=tmp_path)
        assert code == EXIT_OK
        assert report["results"]["solve"]["residual_exact"] is True
        poly_path.write_text(json.dumps(Polynomial.monomial((2, 2, 0)).to_json_dict()))
        monkeypatch.setattr(rightinverse, "MAX_MIN_NORM_WORK", 162)
        assert run_cli("solve", "--dim", "3", "--f", str(poly_path), tmp_path=tmp_path)[0] == EXIT_OK
        monkeypatch.setattr(rightinverse, "MAX_MIN_NORM_WORK", 161)
        assert main(["solve", "--dim", "3", "--f", str(poly_path)]) == EXIT_SPEC
        assert "needs 162 units of work" in capsys.readouterr().err

    def test_high_degree_conversion_over_work_limit_exits_2(self, tmp_path, capsys, monkeypatch):
        """x^100000 in 1-D: converting it to Hermite coefficients would build
        every cold row up to 100,000, a chain of calls past the recursion
        limit.  Its 5,000,150,000 units of work are refused before the first
        row is built, naming the limit, with no traceback.  x^1000 counts
        501,500, within the limit: a limit one below refuses it."""
        path = tmp_path / "f.json"
        path.write_text(json.dumps(Polynomial.monomial((100_000,)).to_json_dict()))
        argv = [sys.executable, "-m", "gauss_rinv", "solve", "--dim", "1", "--f", str(path)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=10)
        assert proc.returncode == EXIT_SPEC and "Traceback" not in proc.stderr
        assert "needs 5000150000 units of work" in proc.stderr and "MAX_MIN_NORM_WORK = 1000000" in proc.stderr
        path.write_text(json.dumps(Polynomial.monomial((1000,)).to_json_dict()))
        assert 501_500 <= rightinverse.MAX_MIN_NORM_WORK
        monkeypatch.setattr(rightinverse, "MAX_MIN_NORM_WORK", 501_499)
        assert main(["solve", "--dim", "1", "--f", str(path)]) == EXIT_SPEC
        assert "coefficients in 1-D needs 501500 units of work" in capsys.readouterr().err


class TestScaledSolve:
    def test_lambda_two(self, tmp_path):
        code, report = run_cli(
            "solve", "--dim", "1", "--lambda", "2", "--f", "const:1", tmp_path=tmp_path
        )
        assert code == EXIT_OK
        assert report["results"]["solve"]["ratio"] == "1/32"

    def test_center(self, tmp_path):
        code, report = run_cli(
            "solve", "--dim", "2", "--center", "3,0", "--f", "const:1", tmp_path=tmp_path
        )
        assert code == EXIT_OK
        assert report["results"]["solve"]["ratio"] == "1/16"


class TestVerifyCommand:
    def test_small_corpus(self, tmp_path):
        code, report = run_cli("verify", "--cases", "4", "--weight-cases", "2", tmp_path=tmp_path)
        assert code == EXIT_OK
        cases = report["results"]
        assert isinstance(cases, list)
        assert len(cases) == 6 * 4 + 2
        assert all(c["pass"] for c in cases)
        assert {"id", "seed", "identity", "lhs", "rhs", "pass"} <= set(cases[0])


class TestOpnormCommand:
    def test_reference_value(self, tmp_path):
        code, report = run_cli("opnorm", "--dim", "1", "--degree", "12", tmp_path=tmp_path)
        assert code == EXIT_OK
        entry = report["results"]["opnorm"]
        assert entry["value"] == pytest.approx(entry["reference_bound"], abs=1e-10)

    def test_shift_value_is_unenriched_and_even_in_a(self, tmp_path):
        """At a = 1 opnorm reports the norm of the min-norm inverse that
        solve applies, within 1/sqrt(8), and the same at a = -1 bit for bit:
        each tower's M_m reads a^2 only."""
        values = []
        for a in ("1", "-1"):
            code, report = run_cli("opnorm", "--dim", "1", f"--a={a}", "--degree", "8", tmp_path=tmp_path)
            assert code == EXIT_OK
            values.append(report["results"]["opnorm"]["value"])
        assert values[0] == values[1] == cli.operator_norm(1, 1, 8)
        assert values[0] == pytest.approx(0.33712196956, rel=1e-10)

    @pytest.mark.parametrize("degree", ["20", "40"])
    def test_n3_reference_value(self, tmp_path, degree):
        code, report = run_cli("opnorm", "--dim", "3", "--degree", degree, tmp_path=tmp_path)
        assert code == EXIT_OK
        assert report["results"]["opnorm"]["value"] == pytest.approx(1 / math.sqrt(24), rel=1e-12)

    def test_block_over_limit_exits_2(self, capsys, monkeypatch):
        """1-D a != 0 visits 756 tower entries at degree 11 and 819 at 12:
        degree + 1 a pass, 63 passes."""
        monkeypatch.setattr(rightinverse, "MAX_TOWER_ENTRIES", 756)
        assert main(["opnorm", "--dim", "1", "--a", "1", "--degree", "11"]) == EXIT_OK
        capsys.readouterr()
        assert main(["opnorm", "--dim", "1", "--a", "1", "--degree", "12"]) == EXIT_SPEC
        assert "MAX_TOWER_ENTRIES = 756" in capsys.readouterr().err

    def test_high_degree_shift_exits_0(self, capsys):
        """1-D a = 1 at degrees 200 and 400, where the inverse of the
        square towers overflowed a float, is within 1/sqrt(8)."""
        for degree in ("200", "400"):
            assert main(["opnorm", "--dim", "1", "--a", "1", "--degree", degree]) == EXIT_OK
        assert not capsys.readouterr().err.startswith("numeric failure")

    def test_total_over_limit_exits_2(self, capsys):
        """A huge --degree is refused from the closed-form count, at once."""
        for dim in ("1", "3", "1000"):
            for a in ("0", "1"):
                started = time.perf_counter()
                assert main(["opnorm", "--dim", dim, f"--a={a}", "--degree", str(10**30)]) == EXIT_SPEC
                assert time.perf_counter() - started < 1.0
                assert "above MAX_TOWER_ENTRIES = 8000000" in capsys.readouterr().err

    def test_shift_value_meets_the_bound(self, tmp_path):
        """1-D a = 1 at degree 40: the norm of the min-norm inverse,
        0.33712196956, below 1/sqrt(8), with no resolution fields."""
        code, report = run_cli("opnorm", "--dim", "1", "--a", "1", "--degree", "40", tmp_path=tmp_path)
        entry = report["results"]["opnorm"]
        assert code == EXIT_OK
        assert entry["value"] == pytest.approx(0.33712196956, rel=1e-10)
        assert not {"svd_resolution", "value_is_lower_bound"} & set(entry)

    def test_value_over_bound_fails(self, tmp_path, monkeypatch):
        over = 1.0 / math.sqrt(8.0) * (1 + 1e-9)
        monkeypatch.setattr(cli, "operator_norm", lambda *args, **kwargs: over)
        code, report = run_cli("opnorm", "--dim", "1", "--degree", "4", tmp_path=tmp_path)
        assert code == EXIT_CHECK_FAILED
        assert report["results"]["opnorm"]["value"] == over


class TestBoundedCommand:
    def test_constant(self, tmp_path):
        code, report = run_cli(
            "bounded", "--box=-1,1", "--f", "const:1", "--degree", "12", tmp_path=tmp_path
        )
        assert code == EXIT_OK
        entry = report["results"]["bounded"]
        assert entry["bound_satisfied"] and entry["bessel_holds"]
        assert 0.0 < entry["projection_defect_rel"] < 1.0

    def test_default_degree_defect(self, tmp_path):
        code, report = run_cli("bounded", "--box=-1,1", "--f", "const:1", tmp_path=tmp_path)
        assert code == EXIT_OK
        entry = report["results"]["bounded"]
        assert entry["bessel_holds"] is True
        assert entry["projection_defect_rel"] == pytest.approx(0.0203, abs=5e-5)

    def test_degree_limit_1d(self, tmp_path, capsys):
        code, _ = run_cli("bounded", "--box=-1,1", "--f", "const:1", "--degree", "148", tmp_path=tmp_path)
        assert code == EXIT_OK
        assert main(["bounded", "--box=-1,1", "--f", "const:1", "--degree", "149"]) == EXIT_SPEC
        assert "above the degree limit 148" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "box, degree, limit",
        [
            ("--box=-1,1;-1,1", "148", "degree limit 147"),
            ("--box=-1,1", "1000000", "MAX_TENSOR_ENTRIES"),
            ("--box=-1,1;-1,1", "200", "MAX_TENSOR_ENTRIES"),
            ("--box=-1,1;-1,1;-1,1", "30", "MAX_TENSOR_ENTRIES"),
        ],
    )
    def test_over_limit_exits_2(self, capsys, box, degree, limit):
        assert main(["bounded", box, "--f", "const:1", "--degree", degree]) == EXIT_SPEC
        err = capsys.readouterr().err
        assert err.startswith("spec error:") and limit in err

    def test_grid_data(self, tmp_path):
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps({"shape": [9], "values": [0.5] * 9}))
        code, report = run_cli(
            "bounded", "--box=0,1", "--f", f"expr-grid:{grid_path}", "--degree", "8", tmp_path=tmp_path
        )
        assert code == EXIT_OK

    def test_bad_box(self, capsys):
        assert main(["bounded", "--box=oops", "--f", "const:1"]) == EXIT_SPEC

    def test_poly_echo_does_not_depend_on_the_path(self, tmp_path, monkeypatch, capsys):
        """One file read through a relative and an absolute path gives the
        same bytes: the echo is the parsed polynomial, not the path."""
        poly = Polynomial(1, {(2,): Fraction(1, 3), (0,): -2})
        (tmp_path / "p.json").write_text(json.dumps(poly.to_json_dict()))
        monkeypatch.chdir(tmp_path)
        outputs = []
        for path in ("p.json", str(tmp_path / "p.json")):
            assert main(["bounded", "--box=-1,1", "--f", f"poly:{path}", "--degree", "6"]) == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["spec"]["f"] == poly.to_json_dict()

    def test_const_and_grid_echo_as_parsed(self, tmp_path):
        _, report = run_cli("bounded", "--box=0,1", "--f", "const:2/4", "--degree", "4", tmp_path=tmp_path)
        assert report["spec"]["f"] == "1/2"
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps({"shape": [3], "values": [1, 0.5, 2]}))
        _, report = run_cli("bounded", "--box=0,1", "--f", f"expr-grid:{grid_path}", "--degree", "4", tmp_path=tmp_path)
        assert report["spec"]["f"] == {"shape": [3], "values": [1.0, 0.5, 2.0]}


class TestCounterexampleCommand:
    def test_default(self, tmp_path):
        code, report = run_cli("counterexample", tmp_path=tmp_path)
        assert code == EXIT_OK
        entry = report["results"]["counterexample"]
        assert entry["u1_closed"] == "1/6" and entry["strictly_increasing"]

    def test_r_below_one(self, capsys):
        assert main(["counterexample", "--R", "0.5"]) == EXIT_SPEC


class TestSchema:
    @pytest.mark.parametrize("argv", [["solve", "--f", "const:1"], ["opnorm"]], ids=["solve", "opnorm"])
    def test_dimension_below_one_exits_2(self, argv, capsys):
        assert main([*argv, "--dim", "0"]) == EXIT_SPEC
        assert capsys.readouterr().err == "spec error at dimension: must be >= 1, got 0\n"

    def test_polynomial_from_json_rejects_bad_terms(self, tmp_path):
        for i, data in enumerate(
            (
                {"dim": 1, "terms": [{"exp": [0], "coef": "1/0"}]},
                {"dim": 2, "terms": [{"exp": [1], "coef": "1"}]},
            )
        ):
            path = tmp_path / f"f{i}.json"
            path.write_text(json.dumps(data))
            with pytest.raises(SpecValidationError) as info:
                load_polynomial(str(path), data["dim"])
            assert info.value.location == "f"

    def test_load_polynomial_const(self):
        assert load_polynomial("const:3/4", 2) == Polynomial.constant(2, "3/4")


class TestRemovedSurface:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--json-schema"],
            ["scaled-solve", "--dim", "1", "--f", "const:1"],
            ["solve", "--dim", "1", "--f", "const:1", "--seed", "1"],
            ["solve", "--dim", "1", "--f", "const:1", "--quad-order", "8"],
            ["opnorm", "--dim", "1", "--seed", "1"],
            ["bounded", "--box=-1,1", "--f", "const:1", "--quad-order", "8"],
            ["counterexample", "--seed", "1"],
            ["verify", "--quad-order", "8"],
            ["suite", "--quad-order", "0"],
            ["solve", "--dim", "1", "--degree", "2", "--f", "const:1"],
            ["bounded", "--box=-1,1", "--f", "const:1", "--quad-tol", "1e-10"],
            ["suite", "--seed", "42"],
        ],
    )
    def test_flag_or_command_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2

    @pytest.mark.parametrize(
        "argv", [["solve", "--f", "const:1"], ["opnorm"]], ids=["solve", "opnorm"]
    )
    def test_enrich_axes_rejected(self, argv, capsys):
        """--enrich is gone: argparse rejects it whatever its value."""
        for policy in ("axes", "auto", "none"):
            with pytest.raises(SystemExit) as info:
                main([*argv, "--dim", "1", "--a", "1", "--enrich", policy])
            assert info.value.code == 2
            assert "unrecognized arguments: --enrich" in capsys.readouterr().err

    def test_spec_echo_has_no_ignored_keys(self, tmp_path):
        _, report = run_cli("solve", "--dim", "1", "--f", "const:1", tmp_path=tmp_path)
        assert not {"seed", "quad_order", "threads", "enrichment"} & set(report["spec"])
        _, report = run_cli("verify", "--cases", "1", "--weight-cases", "1", tmp_path=tmp_path)
        assert set(report["spec"]) == {"seed", "cases_per_identity", "weight_cases"}


class TestSpecEcho:
    def test_each_subcommand_echoes_what_it_reads(self, tmp_path):
        """The spec echo lists exactly the arguments each subcommand reads."""
        cases = {
            ("solve", "--dim", "1", "--f", "const:1"): {"dimension", "a", "weight", "f"},
            ("verify", "--cases", "1", "--weight-cases", "1"): {"seed", "cases_per_identity", "weight_cases"},
            ("opnorm", "--dim", "1"): {"dimension", "a", "degree"},
            ("bounded", "--box=0,1", "--f", "const:1", "--degree", "4"): {"box", "a", "f", "degree"},
            ("counterexample", "--R", "10"): {"R", "c1", "c2"},
            ("suite",): {"seed", "cases_per_identity", "weight_cases", "bound_cases"},
        }
        for argv, keys in cases.items():
            code, report = run_cli(*argv, tmp_path=tmp_path)
            assert code == EXIT_OK, argv
            assert set(report["spec"]) == keys, argv
        _, report = run_cli(
            "solve", "--dim", "2", "--lambda", "1/2", "--center", "1,2", "--f", "const:1", tmp_path=tmp_path
        )
        assert report["spec"]["weight"] == {"lambda": "1/2", "center": ["1", "2"]}
        _, report = run_cli("bounded", "--box=0,1", "--f", "const:1", "--degree", "4", tmp_path=tmp_path)
        assert report["spec"]["box"] == "0,1" and report["results"]["bounded"]["x0"] == [0.5]

    def test_negative_rationals_in_equals_form(self, tmp_path, capsys, monkeypatch):
        """argparse takes "-1/2" after a space for an option; after "=" it is
        the value, and the spec echoes it.  Each help string shows that form."""
        code, report = run_cli("solve", "--dim", "1", "--a=-1/2", "--f", "const:1", tmp_path=tmp_path)
        assert code == EXIT_OK and report["spec"]["a"] == "-1/2"
        code, report = run_cli("solve", "--dim", "2", "--center=-1/2,0", "--f", "const:1", tmp_path=tmp_path)
        assert code == EXIT_OK and report["spec"]["weight"]["center"] == ["-1/2", "0"]
        code, report = run_cli("counterexample", "--c1=-1/3", tmp_path=tmp_path)
        assert code == EXIT_OK and report["spec"]["c1"] == "-1/3"
        with pytest.raises(SystemExit) as info:
            main(["solve", "--dim", "1", "--a", "-1/2", "--f", "const:1"])
        assert info.value.code == 2
        assert "expected one argument" in capsys.readouterr().err
        helps = {
            ("solve", "--a"): "--a=-1/2",
            ("solve", "--center"): "--center=-1/2,0",
            ("opnorm", "--a"): "--a=-1/2",
            ("bounded", "--a"): "--a=-1/2",
            ("counterexample", "--c1"): "--c1=-1/3",
            ("counterexample", "--c2"): "--c2=-1/3",
        }
        monkeypatch.setenv("COLUMNS", "200")  # one line per option
        for (command, option), form in helps.items():
            with pytest.raises(SystemExit):
                main([command, "--help"])
            lines = capsys.readouterr().out.splitlines()
            (line,) = [line for line in lines if line.startswith(f"  {option} ")]
            assert form in line, (command, option)


class TestBadInputExits2:
    """Malformed input ends with exit 2 and the location on stderr."""

    def _write(self, tmp_path, name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    def test_solve_terms_not_a_list(self, tmp_path, capsys):
        path = self._write(tmp_path, "t.json", {"dim": 1, "terms": 5})
        assert main(["solve", "--dim", "1", "--f", path]) == EXIT_SPEC
        err = capsys.readouterr().err
        assert err.startswith("spec error at f: invalid polynomial")
        assert err.count("f:") == 1

    def test_grid_size_mismatch(self, tmp_path, capsys):
        path = self._write(tmp_path, "g.json", {"shape": [3], "values": [1, 2, 3, 4, 5]})
        assert main(["bounded", "--box=0,1", "--f", f"expr-grid:{path}"]) == EXIT_SPEC
        assert "spec error at f:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "shape, values", [([1], [1.0]), ([0], []), ([3], [1.0, math.nan, 2.0]), ([-5], [1.0, 2.0, 3.0])]
    )
    def test_grid_degenerate_or_non_finite(self, tmp_path, shape, values):
        """Such grids used to crash the interpolant or stall the adaptive
        quadrature; numpy's reshape read the shape [-5] as an inferred axis."""
        path = self._write(tmp_path, "g.json", {"shape": shape, "values": values})
        assert main(["bounded", "--box=0,1", "--f", f"expr-grid:{path}"]) == EXIT_SPEC

    def test_bounded_power_over_rule_order_exits_2(self, tmp_path, capsys):
        """On [-1, 1] at N = 30, x^2021's Gaussian moments ask for 2,049
        nodes (a rule of order 4,096, 5.8 s), and x^100000's for a rule of
        order 131,072 and a (p + 1)^2 index table of 74.5 GiB.  Each is
        refused within a second, naming MAX_RULE_ORDER, with no traceback."""
        for power, nodes in ((2021, 2049), (100_000, 100_028)):
            path = self._write(tmp_path, "p.json", Polynomial.monomial((power,)).to_json_dict())
            started = time.perf_counter()
            assert main(["bounded", "--box=-1,1", "--f", f"poly:{path}"]) == EXIT_SPEC
            assert time.perf_counter() - started < 1.0
            err = capsys.readouterr().err
            assert f"ask for a Gauss rule of {nodes} nodes, above MAX_RULE_ORDER = 2048" in err
            assert "Traceback" not in err

    def test_bounded_sparse_polynomial_over_tensor_limit_exits_2(self, tmp_path, capsys):
        """The 600 terms x_j^e (j <= 6, e <= 100) would fill a dense 101^6
        tensor of 7.72 TiB: refused within a second, naming the limit."""
        terms = [{"exp": [e if k == j else 0 for k in range(6)], "coef": "1"} for j in range(6) for e in range(1, 101)]
        path = self._write(tmp_path, "p.json", {"dim": 6, "terms": terms})
        started = time.perf_counter()
        assert main(["bounded", "--box=" + ";".join(["-1,1"] * 6), "--degree", "0", "--f", f"poly:{path}"]) == EXIT_SPEC
        assert time.perf_counter() - started < 1.0
        err = capsys.readouterr().err
        assert "1061520150601 entries, above MAX_TENSOR_ENTRIES = 32768" in err and "Traceback" not in err

    def test_grid_slope_overflow(self, tmp_path, capsys):
        """1e308 to -1e308 over a spacing of 2 is a slope of -inf: exit 2
        naming it, with no numpy warning on the way."""
        path = self._write(tmp_path, "g.json", {"shape": [2], "values": [1e308, -1e308]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["bounded", "--box=-1,1", "--f", f"expr-grid:{path}"]) == EXIT_SPEC
        assert "invalid grid" in (err := capsys.readouterr().err) and "non-finite grid slope -inf on axis 0" in err

    @pytest.mark.parametrize("box", ["-40,40", "-1e200,1e200", "-19,19;-0.5,0.5"])
    def test_bounded_box_over_diameter_limit(self, box, capsys):
        """A box whose diameter constant e^{|U|^2} overflows a float is
        refused, naming |U| and MAX_DIAMETER, before the solve."""
        assert main(["bounded", f"--box={box}", "--degree", "4", "--f", "const:1"]) == EXIT_SPEC
        err = capsys.readouterr().err
        assert err.startswith("spec error: box diameter |U| = ") and "above MAX_DIAMETER = 26.64" in err

    def test_grid_not_an_object(self, tmp_path, capsys):
        path = self._write(tmp_path, "g.json", 7)
        assert main(["bounded", "--box=0,1", "--f", f"expr-grid:{path}"]) == EXIT_SPEC
        assert "spec error at f:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "data",
        [
            {"dim": True, "terms": []},
            {"dim": 2.5, "terms": []},
            {"dim": "2", "terms": []},
            {"dim": 1, "terms": [{"exp": [True], "coef": "1"}]},
        ],
    )
    def test_solve_rejects_loose_wire_form(self, tmp_path, data):
        path = self._write(tmp_path, "p.json", data)
        assert main(["solve", "--dim", "1", "--f", path]) == EXIT_SPEC


class TestNumericFailureExits3:
    def test_bounded_nan_integrand(self, tmp_path, capsys):
        """1e308 x^3 - 1e308 x^2 evaluates to inf - inf = NaN on [-2, 2]."""
        path = tmp_path / "p.json"
        big = 10**308
        path.write_text(json.dumps(Polynomial(1, {(3,): big, (2,): -big}).to_json_dict()))
        assert main(["bounded", "--box=-2,2", "--degree", "2", "--f", f"poly:{path}"]) == EXIT_NUMERIC
        assert "numeric failure: non-finite" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    def test_bounded_huge_box(self, capsys):
        """10^153 on [-13, 13], inside MAX_DIAMETER, has finite data norms,
        but ||u||^2_L2 leaves the float range: exit 3 naming the integral,
        and no numpy warning.  (A box past MAX_DIAMETER, such as [-1e200,
        1e200], exits 2 before the solve.)"""
        assert main(["bounded", "--box=-13,13", "--degree", "4", "--f", f"const:{10**153}"]) == EXIT_NUMERIC
        assert "numeric failure: non-finite ||u||^2_L2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "box, exp, degree, factor, message",
        [("-0.01,0.01", 4, 30, -1.0, "is below -QUAD_TOL ||f||^2_L2"), ("-1,1", 40, 4, 1e40, "is above ||f||^2_L2")],
        ids=["negative", "above-l2"],
    )
    def test_bounded_weighted_norm_out_of_range(self, tmp_path, capsys, monkeypatch, box, exp, degree, factor, message):
        """With the weighted block of ||f~||^2_w planted negated (x^4 on
        [-0.01, 0.01]) or scaled by 1e40 (x^40 on [-1, 1]), a weighted norm
        below 0 or above the L2 norm exits 3 naming ||f~||^2_w instead of
        passing or failing the bound on a wrong number."""
        blocks = domains.axis_blocks
        monkeypatch.setattr(domains, "axis_blocks", lambda *args: (lambda p, w, l: (p, factor * w, l))(*blocks(*args)))
        path = tmp_path / "p.json"
        path.write_text(json.dumps(Polynomial(1, {(exp,): 1}).to_json_dict()))
        assert main(["bounded", f"--box={box}", "--degree", str(degree), "--f", f"poly:{path}"]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: ||f~||^2_w = ") and message in err


    def test_bounded_ratio_past_the_int_to_str_limit(self, capsys):
        """At a = 1/(10^200 - 1) the bounded report's exact weighted_ratio
        has over 4,300 digits, Python's int-to-str limit: exit 3 naming its
        digits and the limit, with no traceback, and the limit unchanged."""
        limit = sys.get_int_max_str_digits()
        assert main(["bounded", "--box=-1,1", "--f", "const:1", f"--a=1/{'9' * 200}"]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: a rational of about ") and "Traceback" not in err
        assert f"exceeds Python's int-to-str limit of {limit} digits" in err
        assert sys.get_int_max_str_digits() == limit

    def test_int_to_str_failure_names_the_report_field(self, capsys):
        """The same bounded report names the field whose rational has no
        decimal string: the JSON key weighted_ratio."""
        assert main(["bounded", "--box=-1,1", "--f", "const:1", f"--a=1/{'9' * 200}"]) == EXIT_NUMERIC
        assert capsys.readouterr().err.endswith(", in the report field 'weighted_ratio'\n")

    def test_report_scalars_name_their_field(self):
        """A solve report's and a counterexample report's exact scalars past
        the int-to-str limit name their JSON keys too."""
        huge = Fraction(1, 10**5000)
        solve = rightinverse.solve_min_norm(Polynomial.constant(1, 1))
        cases = {
            "ratio": solve._replace(ratio=huge),
            "norm_u_sq": solve._replace(norm_u_sq=solve.norm_u_sq.scale(huge)),
            "u1_closed": dataclasses.replace(domains.counterexample_report(10.0), u1_closed=huge),
        }
        for key, report in cases.items():
            with pytest.raises(OverflowError, match=f"in the report field '{key}'$"):
                report.to_json_dict()

    def test_solve_coefficient_past_the_int_to_str_limit(self, tmp_path, capsys):
        """x^6 / (7...7) + 3 at a = 1/(3...3), 1,500 digits each: a Hermite
        coefficient of the solution passes the int-to-str limit, exit 3."""
        path = tmp_path / "p.json"
        path.write_text(json.dumps(Polynomial(1, {(6,): Fraction(1, int("7" * 1500)), (0,): 3}).to_json_dict()))
        assert main(["solve", "--dim", "1", "--f", str(path), f"--a=1/{'3' * 1500}"]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: a rational of about ") and "int-to-str limit" in err

    def test_solve_coefficient_failure_names_the_solution_field(self, tmp_path, capsys):
        """The same solve names the nested field whose coefficient has no
        decimal string: the solution's Hermite coefficients, solution.hermite."""
        path = tmp_path / "p.json"
        path.write_text(json.dumps(Polynomial(1, {(6,): Fraction(1, int("7" * 1500)), (0,): 3}).to_json_dict()))
        assert main(["solve", "--dim", "1", "--f", str(path), f"--a=1/{'3' * 1500}"]) == EXIT_NUMERIC
        assert capsys.readouterr().err.endswith(", in the report field 'solution.hermite'\n")


class TestLargeShifts:
    """Shifts at the ends of the float range end with a report or a named stage."""

    @pytest.mark.parametrize("dim", ["1", "2", "3"])
    @pytest.mark.parametrize("a", ["1000000", "10000000"])
    def test_large_shift_reports(self, tmp_path, dim, a):
        """The exact ratio 1 / (8 n + a^2) of a constant, with no enrichment."""
        code, report = run_cli("solve", "--dim", dim, "--a", a, "--f", "const:1", tmp_path=tmp_path)
        solve = report["results"]["solve"]
        assert code == EXIT_OK and solve["enrichment"] == "none"
        assert solve["ratio"] == f"1/{8 * int(dim) + int(a) ** 2}"

    def test_shift_above_float_range_exits_2(self, tmp_path, capsys):
        """opnorm reads a as a float and refuses one above the float range;
        the exact sweep of solve takes it."""
        top = str(int(sys.float_info.max))
        code, report = run_cli("opnorm", "--dim", "1", "--a", top, tmp_path=tmp_path)
        assert code == EXIT_OK and report["results"]["opnorm"]["value"] > 0
        capsys.readouterr()
        assert main(["opnorm", "--dim", "1", "--a", str(10**400)]) == EXIT_SPEC
        err = capsys.readouterr().err
        assert err.startswith("spec error: a: |a| = 10^400.00 is above the float range")
        code, report = run_cli("solve", "--dim", "1", "--a", str(10**400), "--f", "const:1", tmp_path=tmp_path)
        assert code == EXIT_OK and report["results"]["solve"]["ratio"] == f"1/{8 + 10**800}"

    @staticmethod
    def _enriched_solve(monkeypatch):
        """Route the CLI's solve through the plane-wave enrichment kept in
        rightinverse, so its float overflows reach main."""
        solver = cli.solve_min_norm

        def enriched(f, a=0, weight=None, truncation=None):
            report = solver(f, a, weight=weight, truncation=truncation)
            return rightinverse.enrich(report, rightinverse.kernel_basis(a, f.dim))

        monkeypatch.setattr(cli, "solve_min_norm", enriched)

    def test_gram_overflow_exits_3_naming_the_entry(self, tmp_path, capsys, monkeypatch):
        """The sweep solves a = -800 exactly; the e^|a| Gram entry of the
        plane waves overflows a float from |a| = 709.3 on, and when that
        reaches main it exits 3 naming the entry."""
        code, report = run_cli("solve", "--dim", "1", "--a=-800", "--f", "const:1", tmp_path=tmp_path)
        solve = report["results"]["solve"]
        assert code == EXIT_OK and solve["residual_exact"] is True and solve["bound_satisfied"] is True
        assert solve["ratio"] == f"1/{8 + 800**2}"
        self._enriched_solve(monkeypatch)
        assert main(["solve", "--dim", "1", "--a=-709", "--f", "const:1", "--out", str(tmp_path / "r.json")]) == EXIT_OK
        capsys.readouterr()
        assert main(["solve", "--dim", "1", "--a=-800", "--f", "const:1"]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: kernel Gram entry <exp(") and "overflows a float" in err

    def test_pairing_overflow_exits_3_naming_the_pairing(self, tmp_path, capsys, monkeypatch):
        """The sweep solves x^100 at a = 10^7 exactly; the plane waves there
        have |k| = 3162.3, so the pairing of u with cos(k x) is a float at
        degree 50 and overflows at degree 100, and main exits 3 naming it."""
        paths = {}
        for degree in (50, 100):
            paths[degree] = tmp_path / f"x{degree}.json"
            paths[degree].write_text(json.dumps({"dim": 1, "terms": [{"exp": [degree], "coef": "1"}]}))
        code, report = run_cli("solve", "--dim", "1", "--a", "10000000", "--f", str(paths[100]), tmp_path=tmp_path)
        solve = report["results"]["solve"]
        assert code == EXIT_OK and solve["residual_exact"] is True and solve["bound_satisfied"] is True
        self._enriched_solve(monkeypatch)
        out = str(tmp_path / "r.json")
        for degree, code in ((50, EXIT_OK), (100, EXIT_NUMERIC)):
            capsys.readouterr()
            assert main(["solve", "--dim", "1", "--a", "10000000", "--f", str(paths[degree]), "--out", out]) == code
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: plane-wave pairing <cos(3162.27766017), u>")
        assert "with |k| = 3162.28" in err
        assert "u of degree 102 is not finite" in err


class TestFloatFlags:
    """A float input outside its range exits 2 before any quadrature: a NaN
    --R would fail inside the counterexample, and one above MAX_R would
    overflow its square integral.  The quadrature tolerance of ``bounded``
    is the constant domains.QUAD_TOL, so no value of --quad-tol is taken."""

    BOUNDED = ["bounded", "--box=-1,1", "--f", "const:1", "--degree", "4"]

    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "-1e-300", "1e300"])
    def test_quad_tol_rejected(self, value, capsys):
        with pytest.raises(SystemExit) as info:
            main([*self.BOUNDED, f"--quad-tol={value}"])
        assert info.value.code == 2
        assert "unrecognized arguments: --quad-tol" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0.999"])
    def test_r_rejected(self, value, capsys):
        assert main(["counterexample", f"--R={value}"]) == EXIT_SPEC
        assert "spec error at R: must be finite and >= 1, got" in capsys.readouterr().err

    def test_limits_accepted(self, tmp_path):
        out = ["--out", str(tmp_path / "r.json")]
        assert main(["counterexample", "--R=1", *out]) == EXIT_OK
        assert main(["counterexample", "--R=1e101", *out]) == EXIT_OK

    def test_r_above_max_r_exits_2(self, capsys):
        assert main(["counterexample", "--R=1.0000000000000001e101"]) == EXIT_SPEC
        assert capsys.readouterr().err.startswith("spec error: R: R = 1.0000000000000001e+101 is above MAX_R")


@pytest.mark.filterwarnings("error")
class TestExactInputsOutOfFloatRange:
    """An exact input whose float is needed ends cleanly when that float
    overflows: exit 2 naming the input, or exit 3 naming the stage and the
    report quantity.  The value below the limit runs, and neither side warns."""

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (["solve", "--dim", "1", "--f", "const:{}"], EXIT_NUMERIC,
             "numeric failure: solve_min_norm: norm_u_sq_float, the float of ||u||^2_w, is out of"),
            (["solve", "--dim", "1", "--lambda", "{}", "--f", "const:1"], EXIT_NUMERIC,
             "numeric failure: solve_min_norm: norm_u_sq_float, the float of ||u||^2_w, is out of"),
            (["bounded", "--box=-1,1", "--f", "const:{}", "--degree", "4"], EXIT_SPEC,
             "spec error: f.const: |f.const| = 10^400.00 is above the float range"),
            (["counterexample", "--c2", "{}"], EXIT_SPEC,
             "spec error: c2: |c2| = 10^400.00 is above the float range"),
        ],
        ids=["solve-f", "solve-lambda", "bounded-f", "counterexample-c2"],
    )
    def test_overflow_named_and_representable_runs(self, tmp_path, capsys, argv, code, message):
        out = ["--out", str(tmp_path / "r.json")]
        small = "1000" if argv[0] == "counterexample" else str(10**100)
        assert main([arg.format(small) for arg in argv] + out) == EXIT_OK
        capsys.readouterr()
        assert main([arg.format(10**400) for arg in argv]) == code
        assert capsys.readouterr().err.startswith(message)


def test_counterexample_large_affine_constants(tmp_path, capsys):
    """Large affine constants pass without a warning; at c1 = 10^200 the
    growth integral of u^2 leaves the float range, and exit 3 names it."""
    out = ["--out", str(tmp_path / "r.json")]
    for argv in (["--c2", "100000"], ["--c1", "-1000000", "--c2", "7"], ["--c2", str(10**100)]):
        assert main(["counterexample", *argv, *out]) == EXIT_OK
    capsys.readouterr()
    assert main(["counterexample", "--c1", str(10**200)]) == EXIT_NUMERIC
    assert "numeric failure: counterexample: the growth integral of u^2 over [1, 10.0] at c1 = 1e+200" in (
        capsys.readouterr().err
    )


class TestCountsBelowOne:
    """A verdict over zero cases is no verdict: counts below 1 exit 2, and
    so does a degree below 0, at its flag."""

    @pytest.mark.parametrize(
        "argv, location",
        [
            (["verify", "--cases", "-3", "--weight-cases", "-1"], "--cases"),
            (["verify", "--cases", "1", "--weight-cases", "0"], "--weight-cases"),
            (["verify", "--cases", "0", "--weight-cases", "0"], "--cases"),
            (["verify", "--cases", "2", "--weight-cases", "-2"], "--weight-cases"),
            (["opnorm", "--dim", "1", "--degree", "-1"], "--degree"),
            (["bounded", "--box=-1,1", "--f", "const:1", "--degree", "-1"], "--degree"),
        ],
    )
    def test_rejected(self, argv, location, capsys):
        assert main(argv) == EXIT_SPEC
        assert f"spec error at {location}:" in capsys.readouterr().err


class TestReporting:
    def test_non_finite_float_raises(self):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                dump_json({"x": [1, value]})

    def test_exact_and_numpy_values(self):
        text = dump_json({"r": Fraction(-3, 4), "f": 0.1})
        assert text.endswith("}\n")
        assert json.loads(text) == {"r": "-3/4", "f": 0.1}

    def test_unknown_type_raises(self):
        """Reports build every float as a Python float: a numpy scalar is
        refused like any other foreign type."""
        np = pytest.importorskip("numpy")
        for value in (object(), np.bool_(True), np.int64(5)):
            with pytest.raises(TypeError):
                dump_json({"x": value})


# One fresh interpreter: the exact subcommands, opnorm at a = 0 and a = 1
# among them, must not load numpy, nor dataclasses and the inspect, ast and tokenize it
# imports (the exact core's records are NamedTuples), and the float layer
# must still load on demand through the package afterwards.  The float runs
# then load numpy's core and linalg only: the one Gauss rule, Gauss-Legendre,
# is the package's own and the sup estimate of embedding_check contracts
# the data with its powers at cell ends and equispaced points, on grid and
# power-2 polynomial data alike, so numpy.random and numpy.polynomial stay out.
NUMPY_FREE_PROGRAM = """
import contextlib, io, json, os, sys, tempfile
import gauss_rinv, gauss_rinv.cli as cli
runs = (
    ["solve", "--dim", "2", "--f", "const:1"],
    ["solve", "--dim", "2", "--lambda", "3", "--center", "1/2,-2/3", "--f", "const:1"],
    ["solve", "--dim", "1", "--a", "1", "--f", "const:1"],
    ["verify", "--cases", "3", "--weight-cases", "1"],
    ["opnorm", "--dim", "3", "--degree", "12"],
)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in runs]
assert codes == [0, 0, 0, 0, 0], codes
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(["opnorm", "--dim", "1", "--a", "1"])
assert "numpy" not in sys.modules, "an exact subcommand loaded numpy"
stdlib = sorted(name for name in ("dataclasses", "inspect", "ast", "tokenize") if name in sys.modules)
assert not stdlib, stdlib
from gauss_rinv import BoxDomain
assert gauss_rinv.solve_bounded is gauss_rinv.domains.solve_bounded
assert BoxDomain is gauss_rinv.domains.BoxDomain
try:
    gauss_rinv.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("gauss_rinv.no_such_name resolved")
tmp = tempfile.mkdtemp()
poly, grid = os.path.join(tmp, "poly.json"), os.path.join(tmp, "grid.json")
with open(poly, "w") as fh:
    json.dump({"dim": 2, "terms": [{"exp": [2, 1], "coef": "3/2"}, {"exp": [0, 0], "coef": "-1"}]}, fh)
with open(grid, "w") as fh:
    json.dump({"shape": [3, 4], "values": [0.5, -1, 2, 0, 1, 1.5, -0.25, 3, 2, 0, 1, -2]}, fh)
box = "--box=-1,1;-0.5,0.5"
floats = (
    ["bounded", box, "--f", "const:1", "--degree", "4"],
    ["bounded", box, "--f", "poly:" + poly, "--degree", "4"],
    ["bounded", box, "--f", "expr-grid:" + grid, "--degree", "4"],
    ["counterexample"],
)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in floats]
assert codes == [0, 0, 0, 0], codes
domains = gauss_rinv.domains
f = domains.SampledFunction.from_grid(domains.BoxDomain(((0.0, 1.0), (-1.0, 2.0))), (2, 3), [1, -2, 0.5, 3, 0, -1])
assert domains.embedding_check(f).holds
box = domains.BoxDomain(((-1.0, 1.0), (-0.5, 0.5)))
p = domains.SampledFunction.from_polynomial(gauss_rinv.Polynomial(2, {(1, 0): 1, (1, 2): -1}), box)
assert domains.embedding_check(p).holds
loaded = sorted(name for name in ("numpy.random", "numpy.polynomial") if name in sys.modules)
assert not loaded, loaded
print(json.dumps([code, json.loads(out.getvalue())["results"]["opnorm"]["value"]]))
"""


def test_exact_subcommands_run_without_numpy():
    proc = subprocess.run([sys.executable, "-c", NUMPY_FREE_PROGRAM], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    code, value = json.loads(proc.stdout)
    assert code == EXIT_OK  # the a = 1 norm, 0.337, is within 1/sqrt(8)
    assert value == rightinverse.operator_norm(1, 1, 8)


class TestSuiteDeterminism:
    def test_reduced_suite_byte_identical(self, suite_runs):
        """Repeated runs of the fixed-parameter suite emit byte-identical, passing reports."""
        first, second = suite_runs
        assert first.stdout == second.stdout
        assert json.loads(first.stdout)["pass"] is True


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples_run_and_meet_their_comments(tmp_path):
    """Every `gauss-rinv` line of README's example block exits 0 in-process
    and its report holds each number its comment states: a quoted rational
    is the solve's exact ratio, `-> 1/sqrt(k)` the operator norm, and
    `v < 1/sqrt(k)` a norm that reads v to four places and stays below."""
    block = README.read_text().split("```sh\ngauss-rinv ", 1)[1].split("```", 1)[0]
    lines = [line for line in ("gauss-rinv " + block).splitlines() if line.startswith("gauss-rinv ")]
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps({"dim": 2, "terms": [{"exp": [2, 1], "coef": "1"}, {"exp": [0, 1], "coef": "-1/3"}]}))
    claims = []
    for line in lines:
        command, _, comment = line.partition("#")
        args = [str(poly) if arg == "path/to/poly.json" else arg for arg in shlex.split(command)[1:]]
        code, report = run_cli(*args, tmp_path=tmp_path)
        assert code == EXIT_OK and report["pass"] is True, line
        results = report["results"]
        for ratio in re.findall(r'"(-?\d+/\d+)"', comment):
            claims.append(ratio)
            assert results["solve"]["ratio"] == ratio, line
        for bound in re.findall(r"-> 1/sqrt\((\d+)\)", comment):
            claims.append(bound)
            assert results["opnorm"]["value"] == pytest.approx(1 / math.sqrt(int(bound)), rel=1e-12), line
        for value, bound in re.findall(r"(\d\.\d+) < 1/sqrt\((\d+)\)", comment):
            claims.append(value)
            norm = results["opnorm"]["value"]
            assert f"{norm:.4f}" == value and norm < 1 / math.sqrt(int(bound)), line
    assert len(lines) == 11
    assert claims == ["1/8", "1/9", "4/33", "1/32", "8", "0.2017"]

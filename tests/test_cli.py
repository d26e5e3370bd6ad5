"""CLI surface: subcommands, exit codes, validation, determinism."""

import json
import math
import subprocess
import sys

import pytest

from gauss_rinv import cli
from gauss_rinv.cli import (
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_SPEC,
    PROBLEM_SPEC_SCHEMA,
    ProblemSpec,
    SpecValidationError,
    load_polynomial,
    main,
    polynomial_from_json,
)
from gauss_rinv.polynomials import Polynomial


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

    def test_malformed_rational_exits_2(self, capsys):
        assert main(["solve", "--dim", "1", "--a", "1/0", "--f", "const:1"]) == EXIT_SPEC
        assert "a" in capsys.readouterr().err

    def test_degree_overflow_exits_2(self, tmp_path):
        poly_path = tmp_path / "f.json"
        poly_path.write_text(json.dumps(Polynomial(1, {(4,): 1}).to_json_dict()))
        code = main(["solve", "--dim", "1", "--degree", "2", "--f", str(poly_path)])
        assert code == EXIT_SPEC

    def test_enriched_shift(self, tmp_path):
        code, report = run_cli("solve", "--dim", "1", "--a", "1", "--f", "const:1", tmp_path=tmp_path)
        assert code == EXIT_OK
        solve = report["results"]["solve"]
        assert solve["pre_enrichment_ratio"] == "1"
        assert solve["ratio_float"] < 0.125

    def test_solve_accepts_weight_flags(self, tmp_path):
        code, report = run_cli(
            "solve", "--dim", "1", "--lambda", "2", "--f", "const:1", tmp_path=tmp_path
        )
        assert code == EXIT_OK
        assert report["results"]["solve"]["ratio"] == "1/32"


class TestScaledSolve:
    def test_lambda_two(self, tmp_path):
        code, report = run_cli(
            "scaled-solve", "--dim", "1", "--lambda", "2", "--f", "const:1", tmp_path=tmp_path
        )
        assert code == EXIT_OK
        assert report["results"]["scaled_solve"]["ratio"] == "1/32"

    def test_center(self, tmp_path):
        code, report = run_cli(
            "scaled-solve", "--dim", "2", "--center", "3,0", "--f", "const:1", tmp_path=tmp_path
        )
        assert code == EXIT_OK
        assert report["results"]["scaled_solve"]["ratio"] == "1/16"


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
        assert entry["bound_satisfied"] and entry["projection_adequate"]

    def test_grid_data(self, tmp_path):
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps({"shape": [9], "values": [0.5] * 9}))
        code, report = run_cli(
            "bounded", "--box=0,1", "--f", f"expr-grid:{grid_path}", "--degree", "8", tmp_path=tmp_path
        )
        assert code == EXIT_OK

    def test_bad_box(self, capsys):
        assert main(["bounded", "--box=oops", "--f", "const:1"]) == EXIT_SPEC


class TestCounterexampleCommand:
    def test_default(self, tmp_path):
        code, report = run_cli("counterexample", tmp_path=tmp_path)
        assert code == EXIT_OK
        entry = report["results"]["counterexample"]
        assert entry["u1_closed"] == "1/6" and entry["strictly_increasing"]

    def test_r_below_one(self, capsys):
        assert main(["counterexample", "--R", "0.5"]) == EXIT_SPEC


class TestSchema:
    def test_flag_prints_schema(self, capsys):
        assert main(["--json-schema"]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["title"] == "ProblemSpec"
        assert data == PROBLEM_SPEC_SCHEMA

    def test_problem_spec_validation(self):
        with pytest.raises(SpecValidationError):
            ProblemSpec(dimension=0)
        with pytest.raises(SpecValidationError):
            ProblemSpec(dimension=1, enrichment="everything")

    def test_polynomial_from_json_rejects_bad_terms(self):
        with pytest.raises(SpecValidationError):
            polynomial_from_json({"dim": 1, "terms": [{"exp": [0], "coef": "1/0"}]})
        with pytest.raises(SpecValidationError):
            polynomial_from_json({"dim": 2, "terms": [{"exp": [1], "coef": "1"}]})

    def test_load_polynomial_const(self):
        assert load_polynomial("const:3/4", 2) == Polynomial.constant(2, "3/4")

    def test_document_round_trip(self):
        spec = ProblemSpec.from_json_dict(
            {
                "dimension": 2,
                "a": "1/2",
                "weight": {"lambda": "2", "center": ["1", "-1/3"]},
                "f": "const:1",
                "truncation": 6,
                "enrichment": "axes",
                "quad_order": 24,
                "seed": 7,
            }
        )
        assert ProblemSpec.from_json_dict(spec.to_json_dict()).to_json_dict() == spec.to_json_dict()

    def test_document_rejects_bad_fields(self):
        with pytest.raises(SpecValidationError):
            ProblemSpec.from_json_dict({"dimension": 1, "a": "1/0"})
        with pytest.raises(SpecValidationError):
            ProblemSpec.from_json_dict({"dimension": 1, "a": "0", "mystery": 1})
        with pytest.raises(SpecValidationError):
            ProblemSpec.from_json_dict({"a": "0"})
        with pytest.raises(SpecValidationError):
            ProblemSpec.from_json_dict({"dimension": True, "a": "0"})


class TestThreadFanout:
    def test_env_cap_does_not_change_report(self, tmp_path):
        import os
        import subprocess

        cmd = [
            sys.executable, "-m", "gauss_rinv",
            "verify", "--cases", "3", "--weight-cases", "2",
        ]
        plain = subprocess.run(cmd, capture_output=True, check=True)
        env = dict(os.environ, GAUSS_RINV_THREADS="4")
        fanned = subprocess.run(cmd, capture_output=True, check=True, env=env)
        a = json.loads(plain.stdout)
        b = json.loads(fanned.stdout)
        assert a["results"] == b["results"]
        assert b["spec"]["threads"] == 4


class TestSuiteDeterminism:
    def test_reduced_suite_byte_identical(self, tmp_path):
        """Repeated seeded runs emit byte-identical reports."""
        cmd = [
            sys.executable,
            "-m",
            "gauss_rinv",
            "suite",
            "--seed",
            "42",
            "--cases",
            "3",
            "--weight-cases",
            "2",
            "--bound-cases",
            "4",
        ]
        first = subprocess.run(cmd, capture_output=True, check=True)
        second = subprocess.run(cmd, capture_output=True, check=True)
        assert first.stdout == second.stdout
        assert json.loads(first.stdout)["pass"] is True

"""CLI surface: subcommands, exit codes, validation, determinism."""

import json
import math
import sys
import time
from fractions import Fraction

import pytest

from gauss_rinv import cli, rightinverse
from gauss_rinv.cli import (
    EXIT_CHECK_FAILED,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_SPEC,
    SpecValidationError,
    load_polynomial,
    main,
)
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
        code, report = run_cli("solve", "--dim", "1", "--a", "1", "--f", "const:1", tmp_path=tmp_path)
        assert code == EXIT_OK
        solve = report["results"]["solve"]
        assert solve["pre_enrichment_ratio"] == "1"
        assert solve["ratio_float"] < 0.125

    def test_shift_bound_violation_exits_1(self, tmp_path):
        """At a != 0 the verdict includes the bound: -x y^3 at a = -2 is
        enriched to ratio ~0.0652, above 1/16."""
        poly_path = tmp_path / "f.json"
        poly_path.write_text(json.dumps({"dim": 2, "terms": [{"exp": [1, 3], "coef": "-1"}]}))
        code, report = run_cli("solve", "--dim", "2", "--a", "-2", "--f", str(poly_path), tmp_path=tmp_path)
        assert code == EXIT_CHECK_FAILED
        solve = report["results"]["solve"]
        assert solve["residual_exact"] is True and solve["bound_satisfied"] is False
        assert solve["ratio_float"] == pytest.approx(0.06515, abs=1e-5)

    def test_unenriched_shift_exits_1(self, tmp_path):
        """A scaled weight is not enriched, so u = 1 at a = 1 keeps ratio 1 > 1/32."""
        code, report = run_cli(
            "solve", "--dim", "1", "--lambda", "2", "--a", "1", "--f", "const:1", tmp_path=tmp_path
        )
        assert code == EXIT_CHECK_FAILED
        assert report["results"]["solve"]["ratio"] == "1"

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

    def test_plane_waves_over_limit_exit_2(self, capsys):
        """12-D a != 0 would enrich with 4120 plane waves, above MAX_PLANE_WAVES."""
        assert main(["solve", "--dim", "12", "--a", "1", "--f", "const:1"]) == EXIT_SPEC
        assert "4120 plane waves, above MAX_PLANE_WAVES = 1044" in capsys.readouterr().err

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
        """At a = 1 opnorm reports the norm of the un-enriched (triangular)
        inverse, which is the same at a = -1."""
        values = []
        for a in ("1", "-1"):
            code, report = run_cli("opnorm", "--dim", "1", f"--a={a}", "--degree", "8", tmp_path=tmp_path)
            assert code == EXIT_CHECK_FAILED
            values.append(report["results"]["opnorm"]["value"])
        assert values[0] == values[1] == cli.operator_norm(1, 1, 8)
        assert values[0] == pytest.approx(3419.31, rel=1e-6)

    @pytest.mark.parametrize("degree", ["20", "40"])
    def test_n3_reference_value(self, tmp_path, degree):
        code, report = run_cli("opnorm", "--dim", "3", "--degree", degree, tmp_path=tmp_path)
        assert code == EXIT_OK
        assert report["results"]["opnorm"]["value"] == pytest.approx(1 / math.sqrt(24), rel=1e-12)

    def test_block_over_limit_exits_2(self, capsys, monkeypatch):
        """1-D a != 0 holds 72 tower entries at degree 11 and 85 at 12."""
        monkeypatch.setattr(rightinverse, "MAX_TOWER_ENTRIES", 72)
        assert main(["opnorm", "--dim", "1", "--a", "1", "--degree", "11"]) == EXIT_CHECK_FAILED
        capsys.readouterr()
        assert main(["opnorm", "--dim", "1", "--a", "1", "--degree", "12"]) == EXIT_SPEC
        assert "MAX_TOWER_ENTRIES = 72" in capsys.readouterr().err

    def test_zero_sigma_min_exits_3(self, capsys):
        assert main(["opnorm", "--dim", "1", "--a", "1", "--degree", "200"]) == EXIT_CHECK_FAILED
        capsys.readouterr()
        assert main(["opnorm", "--dim", "1", "--a", "1", "--degree", "400"]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "operator_norm: the inverse of the 201 x 201 block" in err

    def test_total_over_limit_exits_2(self, capsys):
        """A huge --degree is refused from the closed-form count, at once."""
        for dim in ("1", "3", "1000"):
            for a in ("0", "1"):
                started = time.perf_counter()
                assert main(["opnorm", "--dim", dim, f"--a={a}", "--degree", str(10**30)]) == EXIT_SPEC
                assert time.perf_counter() - started < 1.0
                assert "above MAX_TOWER_ENTRIES = 8000000" in capsys.readouterr().err

    def test_tiny_sigma_min_value_is_resolved(self, tmp_path):
        """1-D a = 1 at degree 40: sigma_min of the block is 1e-30, below
        eps * sigma_max, yet the norm is the true 1.0058652016e30 (to 17
        digits from a 60-digit mpmath SVD of the exact block inverse)."""
        code, report = run_cli("opnorm", "--dim", "1", "--a", "1", "--degree", "40", tmp_path=tmp_path)
        entry = report["results"]["opnorm"]
        assert code == EXIT_CHECK_FAILED
        assert entry["value"] == pytest.approx(1.0058652016026719e30, rel=1e-13)
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
        "shape, values", [([1], [1.0]), ([0], []), ([3], [1.0, math.nan, 2.0])]
    )
    def test_grid_degenerate_or_non_finite(self, tmp_path, shape, values):
        """Such grids used to crash the interpolant or stall the adaptive quadrature."""
        path = self._write(tmp_path, "g.json", {"shape": shape, "values": values})
        assert main(["bounded", "--box=0,1", "--f", f"expr-grid:{path}"]) == EXIT_SPEC

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
        """On [-1e200, 1e200] the Hermite values of the Gram rule overflow:
        exit 3 naming the integral, and no numpy warning."""
        assert main(["bounded", "--box=-1e200,1e200", "--degree", "4", "--f", "const:1"]) == EXIT_NUMERIC
        assert "numeric failure: non-finite ||u||^2_L2" in capsys.readouterr().err


class TestLargeShifts:
    """Shifts at the ends of the float range end with a report or a named stage."""

    @pytest.mark.parametrize("dim", ["1", "2", "3"])
    @pytest.mark.parametrize("a", ["1000000", "10000000"])
    def test_large_shift_reports(self, tmp_path, dim, a):
        code, report = run_cli("solve", "--dim", dim, "--a", a, "--f", "const:1", tmp_path=tmp_path)
        assert code == EXIT_OK and report["results"]["solve"]["enrichment"].startswith("plane-waves")

    def test_shift_above_float_range_exits_2(self, tmp_path, capsys):
        top = str(int(sys.float_info.max))
        code, report = run_cli("opnorm", "--dim", "1", "--a", top, tmp_path=tmp_path)
        assert code == EXIT_OK and report["results"]["opnorm"]["value"] > 0
        for argv in (["opnorm", "--dim", "1"], ["solve", "--dim", "1", "--f", "const:1"]):
            capsys.readouterr()
            assert main([*argv, "--a", str(10**400)]) == EXIT_SPEC
            err = capsys.readouterr().err
            assert err.startswith("spec error: a: |a| = 10^400.00 is above the float range")

    def test_gram_overflow_exits_3_naming_the_entry(self, capsys):
        assert main(["solve", "--dim", "1", "--a=-709", "--f", "const:1"]) == EXIT_OK
        capsys.readouterr()
        assert main(["solve", "--dim", "1", "--a=-800", "--f", "const:1"]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: kernel Gram entry <exp(") and "overflows a float" in err

    def test_pairing_overflow_exits_3_naming_the_pairing(self, tmp_path, capsys):
        """At a = 10^7, |k| = 3162.3: k^50 is a float, k^100 overflows."""
        for degree, code in ((50, EXIT_OK), (100, EXIT_NUMERIC)):
            path = tmp_path / f"x{degree}.json"
            path.write_text(json.dumps({"dim": 1, "terms": [{"exp": [degree], "coef": "1"}]}))
            capsys.readouterr()
            out = str(tmp_path / "r.json")
            assert main(["solve", "--dim", "1", "--a", "10000000", "--f", str(path), "--out", out]) == code
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: plane-wave pairing <cos(3162.27766017), u>")
        assert "with |k| = 3162.28" in err
        assert "u of degree 100 is not finite" in err


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
        np = pytest.importorskip("numpy")
        text = dump_json({"r": Fraction(-3, 4), "b": np.bool_(True), "i": np.int64(5), "f": 0.1})
        assert text.endswith("}\n")
        assert json.loads(text) == {"r": "-3/4", "b": True, "i": 5, "f": 0.1}

    def test_unknown_type_raises(self):
        with pytest.raises(TypeError):
            dump_json({"x": object()})


class TestSuiteDeterminism:
    def test_reduced_suite_byte_identical(self, suite_runs):
        """Repeated runs of the fixed-parameter suite emit byte-identical, passing reports."""
        first, second = suite_runs
        assert first.stdout == second.stdout
        assert json.loads(first.stdout)["pass"] is True

"""Batch front-end: one runner per subcommand, deterministic JSON reports.

Subcommands: solve | verify | opnorm | bounded | counterexample | suite.
Each subparser names its runner (``set_defaults(run=...)``).  A runner
validates its own arguments, calls the library once and returns the spec
echo (the arguments it read, as read; the data of ``solve`` and
``bounded`` as parsed), the results and the verdict.  The solve, bounded
and counterexample verdicts are their reports' ``passed`` properties, read
by the suite's criteria too.
Reports are deterministic given the arguments (``--seed`` included, on
``verify``; ``suite`` runs at fixed values and reads only ``--out``):
exact quantities serialize as rational strings, floats as Python's
shortest round-trip repr, and timing goes to stderr so repeated runs emit
byte-identical JSON.  Exit codes: 0 all checks pass,
1 a check failed, 2 invalid input, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import time
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import __version__
from .adjoint import run_identity_battery
from .domains import (
    BoxDomain,
    SampledFunction,
    counterexample_report,
    embedding_check,
    solve_bounded,
)
from .hermite import WeightSpec, integrate_gaussian
from .polynomials import (
    Polynomial,
    format_rational,
    parse_rational,
    random_polynomial,
)
from .reporting import dump_json
from .rightinverse import (
    InputLimitError,
    apply_right_inverse,
    input_float,
    operator_norm,
    solve_min_norm,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_SPEC = 2
EXIT_NUMERIC = 3


class SpecValidationError(ValueError):
    """Problem-spec validation failure, with the offending location."""

    def __init__(self, location: str, message: str):
        super().__init__(f"{location}: {message}")
        self.location = location


def _rational_field(value, location: str) -> Fraction:
    try:
        return parse_rational(str(value))
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecValidationError(location, f"invalid rational {value!r} ({exc})")


def load_polynomial(arg: str, dimension: int) -> Polynomial:
    """Resolve --f arguments: 'const:<rational>' or a polynomial JSON path."""
    if arg.startswith("const:"):
        value = _rational_field(arg[len("const:") :], "f.const")
        return Polynomial.constant(dimension, value)
    data = _read_json(arg)
    try:
        return Polynomial.from_json_dict(data)
    except (TypeError, ValueError) as exc:
        raise SpecValidationError("f", f"invalid polynomial in {arg!r}: {exc}")


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SpecValidationError("f", f"cannot read {path!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise SpecValidationError("f", f"malformed JSON in {path!r}: {exc}")


# ----------------------------------------------------------------------
# the bundled acceptance battery
# ----------------------------------------------------------------------


# The suite's quadrature oracle for the enriched ratio: a Gauss-Hermite rule
# of this order, whose gap from the closed form is at most ORACLE_GAP_TOL.
QUAD_ORDER = 40
ORACLE_GAP_TOL = 1e-10
# The suite's fixed corpus: the master seed of the identity battery and of
# the random bound data, cases per identity, random polynomial weights, and
# random data for the bound.  ``verify`` runs the battery at other values.
SUITE_SEED = 42
SUITE_CASES_PER_IDENTITY = 200
SUITE_WEIGHT_CASES = 50
SUITE_BOUND_CASES = 100


def _enriched_ratio_quadrature() -> float:
    """Oracle for the a=1 constant-data enriched ratio, by quadrature.

    ratio = 1 - <1, cos>^2 / (||1||^2 ||cos||^2) with all three integrals
    against e^{-x^2} from one Gauss-Hermite call.
    """
    # columns 1, cos x and cos^2 x at the (m, 1) nodes
    mass, pair, cos_sq = integrate_gaussian(
        lambda x: np.cos(x) ** np.arange(3), WeightSpec.unit(1), QUAD_ORDER
    )
    return float(1.0 - pair * pair / (mass * cos_sq))


def run_suite() -> tuple[list[dict], bool]:
    """One-command reproduction of the full acceptance battery."""
    results: list[dict] = []

    def record(criterion: str, passed: bool, **details):
        entry = {"criterion": criterion, "pass": bool(passed)}
        entry.update(details)
        results.append(entry)

    # sharp bound at constant data, every dimension
    for n in (1, 2, 3):
        rep = solve_min_norm(Polynomial.constant(n, 1))
        record(
            f"sharp-bound-n{n}",
            rep.ratio == Fraction(1, 8 * n) and rep.residual_exact,
            ratio=format_rational(rep.ratio),
            bound=format_rational(rep.bound),
        )

    # bound dominance over seeded random data
    rng = random.Random(SUITE_SEED)
    worst = Fraction(0)
    dominated = True
    equality_only_const = True
    for i in range(SUITE_BOUND_CASES):
        n = 1 + i % 3
        f = random_polynomial(rng, n, max_degree=8, max_terms=10, nonzero=True)
        rep = solve_min_norm(f)
        dominated = dominated and rep.passed
        if rep.ratio == rep.bound and f.total_degree() > 0:
            equality_only_const = False
        worst = max(worst, rep.ratio * Fraction(8 * n))
    record(
        "bound-dominance",
        dominated and equality_only_const,
        cases=SUITE_BOUND_CASES,
        worst_normalized_ratio=format_rational(worst),
    )

    # operator norm of the truncated right inverse
    op1 = operator_norm(1, 0, 20)
    op2 = operator_norm(2, 0, 8)
    record(
        "operator-norm",
        abs(op1 - 1 / math.sqrt(8)) <= 1e-10 and abs(op2 - 0.25) <= 1e-10,
        n1_value=op1,
        n2_value=op2,
    )

    # kernel-enriched solves for nonzero shift
    rep_pos = apply_right_inverse(Polynomial.constant(1, 1), a=1)
    closed = 1.0 - 2.0 * math.exp(-0.5) / (1.0 + math.exp(-1.0))
    quad = _enriched_ratio_quadrature()
    rep_neg = apply_right_inverse(Polynomial.constant(1, 1), a=-1)
    record(
        "kernel-enrichment",
        abs(rep_pos.ratio_float - closed) <= 1e-10
        and abs(closed - quad) <= ORACLE_GAP_TOL
        and rep_pos.bound_satisfied
        and rep_pos.pre_enrichment_ratio == 1
        and rep_neg.bound_satisfied,
        ratio_pos=rep_pos.ratio_float,
        closed_form=closed,
        quadrature=quad,
        unenriched_ratio=format_rational(rep_pos.pre_enrichment_ratio),
        ratio_neg=rep_neg.ratio_float,
    )

    # exact identity battery
    cases = run_identity_battery(
        seed=SUITE_SEED,
        cases_per_identity=SUITE_CASES_PER_IDENTITY,
        weight_cases=SUITE_WEIGHT_CASES,
    )
    record(
        "identity-battery",
        all(c["pass"] for c in cases),
        total=len(cases),
        failures=[c["id"] for c in cases if not c["pass"]],
    )

    # scaled weight: 1/(8 n lam^2) at lam = 2
    rep_s = solve_min_norm(Polynomial.constant(1, 1), 0, weight=WeightSpec(dim=1, lam=Fraction(2)))
    record("scaled-weight", rep_s.ratio == Fraction(1, 32), ratio=format_rational(rep_s.ratio))

    # bounded domain
    box = BoxDomain(((-1.0, 1.0),))
    rep_b = solve_bounded(box, SampledFunction.constant(box, 1.0), a=0, truncation=30)
    record(
        "bounded-domain",
        rep_b.passed,
        norm_u_l2=rep_b.norm_u_l2,
        bound_value=rep_b.bound_value,
        projection_defect_rel=rep_b.projection_defect_rel,
    )

    # counterexample
    record("counterexample", counterexample_report(1000.0, 0, 0).passed)

    # embeddings
    emb_const = embedding_check(Polynomial.constant(1, 1))
    pi_mass = math.pi**0.5
    equality_witness = abs(emb_const.weighted_sq - pi_mass * emb_const.sup_sq) <= 1e-12
    box01 = BoxDomain(((0.0, 1.0),))
    emb_chi = embedding_check(SampledFunction.constant(box01, 1.0))
    cut = BoxDomain(((-2.0, 2.0), (-1.0, 1.0)))
    poly = Polynomial(2, {(1, 0): Fraction(1), (0, 2): Fraction(1, 3)})
    emb_poly = embedding_check(SampledFunction.from_polynomial(poly, cut))
    record(
        "embeddings",
        emb_const.holds and equality_witness and emb_chi.holds and emb_poly.holds,
        const=emb_const.to_json_dict(),
        indicator=emb_chi.to_json_dict(),
        polynomial_cutoff=emb_poly.to_json_dict(),
    )

    return results, all(r["pass"] for r in results)


# ----------------------------------------------------------------------
# subcommand runners: each validates its arguments, calls the library once
# and returns (spec echo, results, verdict)
# ----------------------------------------------------------------------


def _at_least(minimum: int, location: str, value: int) -> None:
    if value < minimum:
        raise SpecValidationError(location, f"must be >= {minimum}, got {value}")


def _solve(args) -> tuple[dict, dict, bool]:
    _at_least(1, "dimension", args.dim)
    a = _rational_field(args.a, "a")
    lam = _rational_field(args.lam, "weight.lambda")
    if lam <= 0:
        raise SpecValidationError("weight.lambda", f"must be positive, got {lam}")
    center = (
        tuple(_rational_field(v, "weight.center") for v in args.center.split(","))
        if args.center
        else (Fraction(0),) * args.dim
    )
    if len(center) != args.dim:
        raise SpecValidationError("weight.center", f"length {len(center)} != dimension {args.dim}")
    f = load_polynomial(args.f, args.dim)
    if f.dim != args.dim:
        raise SpecValidationError("f", f"dimension {f.dim} != --dim {args.dim}")
    report = apply_right_inverse(f, a, weight=WeightSpec(dim=args.dim, lam=lam, center=center))
    spec = {"dimension": args.dim, "a": a, "weight": {"lambda": lam, "center": [*center]}, "f": f.to_json_dict()}
    return spec, {"solve": report.to_json_dict()}, report.passed


def _verify(args) -> tuple[dict, list, bool]:
    _at_least(1, "--cases", args.cases)
    _at_least(1, "--weight-cases", args.weight_cases)
    spec = {"seed": args.seed, "cases_per_identity": args.cases, "weight_cases": args.weight_cases}
    results = run_identity_battery(
        seed=args.seed, cases_per_identity=args.cases, weight_cases=args.weight_cases
    )
    return spec, results, all(c["pass"] for c in results)


def _opnorm(args) -> tuple[dict, dict, bool]:
    _at_least(1, "dimension", args.dim)
    a = _rational_field(args.a, "a")
    _at_least(0, "--degree", args.degree)
    value = operator_norm(args.dim, a, args.degree)
    target = 1.0 / math.sqrt(8.0 * args.dim)
    spec = {"dimension": args.dim, "a": a, "degree": args.degree}
    results = {"dim": args.dim, "a": a, "degree": args.degree, "value": value, "reference_bound": target}
    # The norm is a float singular value: allow 1e-12 relative.
    return spec, {"opnorm": results}, value <= target * (1 + 1e-12)


def _load_bounded_f(arg: str, box: BoxDomain) -> tuple[SampledFunction, object]:
    """The data of a --f descriptor and its echo as parsed: a constant's
    rational, a polynomial's canonical JSON, a grid's shape and values."""
    if arg.startswith("const:"):
        value = _rational_field(arg[len("const:") :], "f.const")
        return SampledFunction.constant(box, input_float(value, "f.const")), value
    if arg.startswith("poly:"):
        poly = load_polynomial(arg[len("poly:") :], box.dim)
        if poly.dim != box.dim:
            raise SpecValidationError("f", f"polynomial dimension {poly.dim} != box dimension {box.dim}")
        return SampledFunction.from_polynomial(poly, box), poly.to_json_dict()
    if arg.startswith("expr-grid:"):
        path = arg[len("expr-grid:") :]
        data = _read_json(path)
        if not isinstance(data, dict) or "shape" not in data or "values" not in data:
            raise SpecValidationError("f", f"grid file {path!r} needs an object with 'shape' and 'values'")
        try:
            f = SampledFunction.from_grid(box, data["shape"], data["values"])
            shape = [int(num) for num in data["shape"]]
        except (TypeError, ValueError) as exc:
            raise SpecValidationError("f", f"invalid grid in {path!r}: {exc}")
        return f, {"shape": shape, "values": np.asarray(data["values"], dtype=float).ravel().tolist()}
    raise SpecValidationError("f", f"unrecognized data descriptor {arg!r}")


def _bounded(args) -> tuple[dict, dict, bool]:
    try:
        box = BoxDomain.from_string(args.box)
    except (ValueError, IndexError) as exc:
        raise SpecValidationError("box", f"cannot parse {args.box!r}: {exc}")
    a = _rational_field(args.a, "a")
    _at_least(0, "--degree", args.degree)
    f, echo = _load_bounded_f(args.f, box)
    report = solve_bounded(box, f, a=a, truncation=args.degree)
    spec = {"box": args.box, "a": a, "f": echo, "degree": args.degree}
    return spec, {"bounded": report.to_json_dict()}, report.passed


def _counterexample(args) -> tuple[dict, dict, bool]:
    c1 = _rational_field(args.c1, "c1")
    c2 = _rational_field(args.c2, "c2")
    if not (math.isfinite(args.R) and args.R >= 1.0):
        raise SpecValidationError("R", f"must be finite and >= 1, got {args.R}")
    report = counterexample_report(args.R, c1, c2)
    spec = {"R": args.R, "c1": c1, "c2": c2}
    return spec, {"counterexample": report.to_json_dict()}, report.passed


def _suite(args) -> tuple[dict, dict, bool]:
    spec = {
        "seed": SUITE_SEED,
        "cases_per_identity": SUITE_CASES_PER_IDENTITY,
        "weight_cases": SUITE_WEIGHT_CASES,
        "bound_cases": SUITE_BOUND_CASES,
    }
    results, passed = run_suite()
    return spec, {"criteria": results}, passed


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gauss-rinv",
        description="Right inverse of lap + a on Gaussian-weighted L2: solvers and exact identity checks.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the JSON report to this path instead of stdout")
    sub = parser.add_subparsers(dest="command")

    p_solve = sub.add_parser(
        "solve", parents=[common], help="minimal-norm solve of (lap+a)u = f under the weight lam*|x-x0|^2"
    )
    p_solve.add_argument("--dim", type=int, required=True)
    p_solve.add_argument("--a", default="0", help="rational shift, e.g. 1, -2, 1/2")
    p_solve.add_argument("--lambda", dest="lam", default="1", help="rational weight scale")
    p_solve.add_argument("--center", default="", help="comma-separated rational weight center")
    p_solve.add_argument("--f", required=True, help="const:<rational> or polynomial JSON path")
    p_solve.set_defaults(run=_solve)

    p_verify = sub.add_parser("verify", parents=[common], help="run the exact identity corpus")
    p_verify.add_argument("--seed", type=int, default=42, help="master seed of the corpus")
    p_verify.add_argument("--cases", type=int, default=200, help="cases per identity")
    p_verify.add_argument("--weight-cases", type=int, default=50)
    p_verify.set_defaults(run=_verify)

    p_opnorm = sub.add_parser("opnorm", parents=[common], help="1/sigma_min of the truncated lap + a")
    p_opnorm.add_argument("--dim", type=int, required=True)
    p_opnorm.add_argument("--a", default="0")
    p_opnorm.add_argument("--degree", type=int, default=8)
    p_opnorm.set_defaults(run=_opnorm)

    p_bounded = sub.add_parser("bounded", parents=[common], help="bounded-domain solve with the diameter constant")
    p_bounded.add_argument("--box", required=True, help="'lo1,hi1;lo2,hi2;...'")
    p_bounded.add_argument("--f", required=True, help="const:<v> | poly:<path> | expr-grid:<path>")
    p_bounded.add_argument("--a", default="0")
    p_bounded.add_argument("--degree", type=int, default=30)
    p_bounded.set_defaults(run=_bounded)

    p_ce = sub.add_parser("counterexample", parents=[common], help="unweighted-L2 failure demonstration")
    p_ce.add_argument("--R", type=float, default=1000.0)
    p_ce.add_argument("--c1", default="0")
    p_ce.add_argument("--c2", default="0")
    p_ce.set_defaults(run=_counterexample)

    p_suite = sub.add_parser(
        "suite", parents=[common], help="full acceptance battery at its fixed seed and case counts, one command"
    )
    p_suite.set_defaults(run=_suite)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.command:
        parser.print_help()
        return EXIT_SPEC

    started = time.perf_counter()
    try:
        spec, results, passed = args.run(args)
    except SpecValidationError as exc:
        sys.stderr.write(f"spec error at {exc}\n")
        return EXIT_SPEC
    except InputLimitError as exc:
        sys.stderr.write(f"spec error: {exc}\n")
        return EXIT_SPEC
    except ArithmeticError as exc:  # Gram, singular block or SVD, quadrature, overflow, zero division
        sys.stderr.write(f"numeric failure: {exc}\n")
        return EXIT_NUMERIC

    report = {
        "spec": spec,
        "subcommand": args.command,
        "results": results,
        "pass": passed,
        "version": __version__,
    }
    text = dump_json(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    elapsed = time.perf_counter() - started
    sys.stderr.write(f"gauss-rinv {args.command}: {'pass' if passed else 'FAIL'} ({elapsed:.2f}s)\n")
    return EXIT_OK if passed else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())

"""Seeded input generators and known-answer checks for the four workloads.

Each generator draws plain data (exponent tuples, rational coefficients,
boxes, grid values) from its own ``random.Random``, so the inputs depend
only on the seed and on this file, never on the package's own random
helpers.  The data is then turned into package objects before the timed
phase, so the program receives only the generated inputs.

Every op calls the package through a module attribute looked up at call
time (``rightinverse.solve_min_norm``), so the tracer's wrappers are
reached when they are installed.

Inputs are stratified: a fixed template of op kinds, dimensions and
degrees is repeated, and the seed draws the data inside each slot.  The
mix, and so the cost of a run, stays the same from seed to seed.  The
number of repetitions is the pass length in seconds times a fixed rate,
set so that a pass takes about that long at the parent of the commit that
added the benchmark.  A run therefore does a fixed amount of work for a
given (seed, seconds), and its times can be compared between commits.

A check returns ``OK``, ``DEFECT`` for a float bound verdict at a != 0
that the current construction is known to miss (ROADMAP item 4), or
``FAIL`` for any other missed known answer.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from gauss_rinv import adjoint, cli, domains, rightinverse
from gauss_rinv.hermite import WeightSpec
from gauss_rinv.polynomials import Polynomial

OK, DEFECT, FAIL = "ok", "defect", "fail"


@dataclass
class Op:
    """One timed request: ``run`` calls the package, the rest read its output."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], str]
    canonical: Callable[[object], object]


def _repeats(rate_per_second: float, seconds: float) -> int:
    return max(1, round(rate_per_second * seconds))


def random_terms(rng: random.Random, dim: int, degree: int, n_terms: int) -> dict:
    """A sparse rational polynomial of total degree exactly ``degree``.

    Term i has total degree ``degree - degree * i // n_terms`` (so 12, 10,
    8, ... for six terms of degree 12), split over the axes at random;
    repeated exponents merge.  A fixed degree ladder keeps the cost of a
    slot steady from seed to seed.  Coefficients are p/q with
    1 <= |p|, q <= 16.
    """
    terms: dict[tuple[int, ...], Fraction] = {}
    for i in range(n_terms):
        exps = [0] * dim
        for _ in range(degree - degree * i // n_terms):
            exps[rng.randrange(dim)] += 1
        key = tuple(exps)
        coef = Fraction(rng.choice((-1, 1)) * rng.randint(1, 16), rng.randint(1, 16))
        terms[key] = terms.get(key, Fraction(0)) + coef
    terms = {k: v for k, v in terms.items() if v}
    if not any(sum(k) == degree for k in terms):
        terms[(degree,) + (0,) * (dim - 1)] = Fraction(1)
    return terms


# ----------------------------------------------------------------------
# battery: the exact identity corpus
# ----------------------------------------------------------------------

# Cases per identity in one repetition, in the corpus's own proportions
# (200 cases of each identity to 50 weight-expansion cases).
BATTERY_MIX = tuple((identity, 4) for identity in adjoint.CORPUS_IDENTITIES) + (("weight-expansion", 1),)
BATTERY_RATE = 7.0  # repetitions of BATTERY_MIX per second of a pass


def battery(seed: int, seconds: float) -> list[Op]:
    """adjoint.run_identity_case over all 7 corpus identities.

    Case seeds follow the corpus's own derivation from a master seed, so
    with k repetitions the ops are exactly the cases of
    ``gauss-rinv verify --seed <seed> --cases 4k --weight-cases k``.
    """
    reps = _repeats(BATTERY_RATE, seconds)
    ops = []
    for offset, (identity, per_rep) in enumerate(BATTERY_MIX):
        base = seed * 1_000_003 + offset * 10_007
        for i in range(per_rep * reps):
            ops.append(Op(
                label=identity,
                run=lambda identity=identity, s=base + i: adjoint.run_identity_case(identity, s),
                check=lambda case: OK if case["pass"] is True else FAIL,
                canonical=lambda case: case,
            ))
    return ops


# ----------------------------------------------------------------------
# solve: right-inverse requests
# ----------------------------------------------------------------------

# (kind, dimension, degree) slots of one repetition.  Degrees up to 12
# (10 in three dimensions, where one solve would otherwise take a third of
# the run) give blocks from 1 to about 20 rows, so block-solve changes
# show in the tail and conversion changes in the median.  The mix is a
# chosen stratification, not measured traffic: the only request mix in the
# repository, ``gauss-rinv suite``, makes 105 polynomial solves of which 2
# have a != 0, too few for the known bound violations of the plane-wave
# enrichment to show in every pass.  Here 6 of 24 requests have a != 0, so
# they show in the failure count of each run.
SOLVE_TEMPLATE = (
    ("min_norm", 1, 4), ("min_norm", 1, 8), ("min_norm", 1, 12),
    ("min_norm", 2, 4), ("min_norm", 2, 8), ("min_norm", 2, 12),
    ("min_norm", 3, 4), ("min_norm", 3, 7), ("min_norm", 3, 10),
    ("right_inverse", 1, 3), ("right_inverse", 1, 6),
    ("right_inverse", 2, 3), ("right_inverse", 2, 6),
    ("right_inverse", 3, 3), ("right_inverse", 3, 6),
    ("scaled", 1, 8), ("scaled", 1, 12), ("scaled", 2, 6), ("scaled", 2, 8), ("scaled", 3, 4),
    ("operator_norm", 1, 12), ("operator_norm", 2, 6), ("operator_norm", 2, 8), ("operator_norm", 3, 4),
)
SOLVE_RATE = 2.5
SHIFTS = (Fraction(-2), Fraction(-1), Fraction(-1, 2), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3))
SCALES = (Fraction(1, 2), Fraction(2), Fraction(3))


def _solve_canonical(report) -> dict:
    return {
        "coeffs": report.solution.to_json_dict()["coeffs"],
        "kernel": [[g.describe(), c] for g, c in report.kernel_part],
        "ratio": report.ratio,
        "ratio_float": report.ratio_float,
        "norm_u_sq_float": report.norm_u_sq_float,
        "residual_exact": report.residual_exact,
        "bound_satisfied": report.bound_satisfied,
        "enrichment": report.enrichment,
    }


def _exact_bound_check(dim: int, lam: Fraction):
    bound = Fraction(1, 8 * dim) / lam**2

    def check(report) -> str:
        return OK if report.residual_exact and report.ratio <= bound else FAIL

    return check


def _shift_check(report) -> str:
    if not report.residual_exact:
        return FAIL
    return OK if report.bound_satisfied else DEFECT


def _operator_norm_check(dim: int):
    bound = 1.0 / math.sqrt(8.0 * dim)

    def check(value) -> str:
        # a = 0: every min-norm ratio is <= 1/(8n), so the norm is <= 1/sqrt(8n);
        # the tolerance covers the float SVD only
        return OK if 0.0 < value <= bound * (1.0 + 1e-12) else FAIL

    return check


def solve(seed: int, seconds: float) -> list[Op]:
    """solve_min_norm at a = 0, apply_right_inverse at a != 0, scaled and
    off-center weights, and small operator_norm calls."""
    rng = random.Random(f"solve-{seed}")
    ops = []
    for _ in range(_repeats(SOLVE_RATE, seconds)):
        for kind, n, degree in SOLVE_TEMPLATE:
            label = f"{kind} n={n} deg={degree}"
            if kind == "operator_norm":
                ops.append(Op(
                    label,
                    run=lambda n=n, d=degree: rightinverse.operator_norm(n, 0, d),
                    check=_operator_norm_check(n),
                    canonical=repr,
                ))
                continue
            f = Polynomial(n, random_terms(rng, n, degree, n_terms=6))
            if kind == "min_norm":
                run = lambda f=f: rightinverse.solve_min_norm(f)
                check = _exact_bound_check(n, Fraction(1))
            elif kind == "right_inverse":
                run = lambda f=f, a=rng.choice(SHIFTS): rightinverse.apply_right_inverse(f, a)
                check = _shift_check
            else:
                lam = rng.choice(SCALES)
                center = tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n))
                w = WeightSpec(dim=n, lam=lam, center=center)
                run = lambda f=f, w=w: rightinverse.solve_min_norm(f, 0, weight=w)
                check = _exact_bound_check(n, lam)
            ops.append(Op(label, run, check, _solve_canonical))
    return ops


# ----------------------------------------------------------------------
# bounded: bounded-domain solves and embeddings
# ----------------------------------------------------------------------

BOXES = {
    "1s": ((-1.0, 1.0),),
    "1o": ((0.25, 1.5),),
    "2s": ((-1.0, 1.0), (-0.5, 0.5)),
    "2o": ((0.0, 1.0), (-0.25, 0.75)),
}
# (kind, box, data, a != 0, truncation N) slots of one repetition.  Off-center
# boxes give Fraction(float) coefficients with long denominators to the
# exact layers; constant data on a symmetric box is dominated by the
# float quadrature.  Like the solve mix, this is a chosen stratification,
# not measured traffic; two of the 18 slots have a != 0.
BOUNDED_TEMPLATE = (
    ("solve", "1s", "const", False, 10), ("solve", "1s", "poly", False, 10),
    ("solve", "1s", "grid", False, 6), ("solve", "1s", "const", False, 16),
    ("solve", "1o", "const", False, 6), ("solve", "1o", "poly", False, 6),
    ("solve", "1o", "grid", False, 4),
    ("solve", "2s", "const", False, 3), ("solve", "2s", "poly", False, 3),
    ("solve", "2o", "const", False, 2), ("solve", "2o", "poly", False, 2),
    ("solve", "1s", "poly", True, 8), ("solve", "2s", "poly", True, 2),
    ("embedding", "1s", "const", False, 0), ("embedding", "1o", "poly", False, 0),
    ("embedding", "1s", "grid", False, 0), ("embedding", "2s", "const", False, 0),
    ("embedding", "2o", "poly", False, 0),
)
BOUNDED_RATE = 1.5
GRID_POINTS = 9


def _sampled(rng: random.Random, box, data: str):
    if data == "const":
        return domains.SampledFunction.constant(box, rng.uniform(0.5, 2.0))
    if data == "poly":
        poly = Polynomial(box.dim, random_terms(rng, box.dim, 3, n_terms=3))
        return domains.SampledFunction.from_polynomial(poly, box)
    shape = [GRID_POINTS] * box.dim
    values = [rng.uniform(-1.0, 1.0) for _ in range(math.prod(shape))]
    return domains.SampledFunction.from_grid(box, shape, values)


def _bounded_check(report) -> str:
    if not report.residual_exact:
        return FAIL
    if report.bound_satisfied:
        return OK
    return DEFECT if report.a != 0 else FAIL


def _bounded_canonical(report) -> dict:
    out = report.to_json_dict()
    out["coeffs"] = report.solution.to_json_dict()["coeffs"]
    return out


def bounded(seed: int, seconds: float) -> list[Op]:
    """solve_bounded and embedding_check on 1-D and 2-D boxes with
    constant, polynomial and grid data.

    Truncations are kept small enough that one op takes tens of
    milliseconds, so a run holds enough ops for its tail percentiles.
    """
    rng = random.Random(f"bounded-{seed}")
    ops = []
    for _ in range(_repeats(BOUNDED_RATE, seconds)):
        for kind, box_key, data, shifted, degree in BOUNDED_TEMPLATE:
            box = domains.BoxDomain(BOXES[box_key])
            f = _sampled(rng, box, data)
            if kind == "embedding":
                ops.append(Op(
                    f"embedding {box_key} {data}",
                    run=lambda f=f: domains.embedding_check(f),
                    check=lambda rep: OK if rep.holds else FAIL,
                    canonical=lambda rep: rep.to_json_dict(),
                ))
                continue
            a = rng.choice(SHIFTS) if shifted else Fraction(0)
            ops.append(Op(
                f"solve {box_key} {data} a={a} N={degree}",
                run=lambda box=box, f=f, a=a, d=degree: domains.solve_bounded(box, f, a=a, truncation=d),
                check=_bounded_check,
                canonical=_bounded_canonical,
            ))
    return ops


# ----------------------------------------------------------------------
# suite: the one-command paper reproduction
# ----------------------------------------------------------------------

def _run_suite() -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["suite"])
    return code, out.getvalue()


def _suite_check(result) -> str:
    code, text = result
    return OK if code == 0 and json.loads(text).get("pass") is True else FAIL


def suite(seed: int, seconds: float) -> list[Op]:
    """One ``gauss-rinv suite`` at its default arguments, stdout captured.

    The suite is the paper's reproduction command; its default seed is part
    of what it reproduces, so the benchmark seed does not change its inputs.
    It lasts about 10 s whatever ``seconds`` is.
    """
    return [Op("suite", run=_run_suite, check=_suite_check, canonical=lambda result: result[1])]


WORKLOADS: dict[str, Callable[[int, float], list[Op]]] = {
    "battery": battery,
    "solve": solve,
    "bounded": bounded,
    "suite": suite,
}


def canonical_text(op: Op, output) -> str:
    """The op's output in a stable text form, for the output digest."""
    value = op.canonical(output)
    return value if isinstance(value, str) else json.dumps(value, sort_keys=True, default=str)

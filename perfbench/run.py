"""Benchmark of gauss_rinv: time to verdict on four seeded workloads.

    python3 perfbench/run.py --workload battery --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  With ``--trace 0`` the last line
of stdout is the end-to-end result; with ``--trace 1`` it holds the
per-layer metrics of a traced run and the tracing overhead, and the
spans are written to ``perfbench/out/spans-<workload>.jsonl.gz``.
``--self-check`` runs one untraced and two traced runs of the seed and
checks that their output digests agree and that the exact per-layer
counts repeat.

Every measured run happens in a fresh interpreter (worker.py), as every
CLI call does, with ``GAUSS_RINV_THREADS`` removed from its environment.
The line before the result records the environment and the digest of
the workload's canonical outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
TIME_LIMIT_S = 170.0
SETUP_RUNS = 11
WORKLOADS = ("battery", "solve", "bounded", "suite")  # the keys of workloads.WORKLOADS
PASSES = 2  # fresh-interpreter passes over the same ops in one run
# The speed probe runs after the import, so the import is timed alone.
SETUP_SNIPPET = (
    "import time; t = time.perf_counter(); import gauss_rinv; "
    "d = time.perf_counter() - t; import speed; print(d * speed.speed_factor())"
)
# Counters that are exact functions of the inputs and must repeat exactly.
EXACT_COUNTERS = ("calls", "rows_sum", "rows_max", "den_bits_max", "evals", "terms_out",
                  "bytes", "bound_met_share")
END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("GAUSS_RINV_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join((str(SRC), str(BENCH)))
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv: list[str], deadline: float) -> str:
    """Run a child interpreter to completion and return its stdout."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before the next child could start")
    try:
        proc = subprocess.run(
            [sys.executable, *argv], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped it
        raise BenchError(f"child exceeded the time limit: {argv[:2]}") from exc
    if proc.returncode != 0:
        raise BenchError(f"child failed with code {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def measure_setup(deadline: float) -> float:
    """Median import time of gauss_rinv in fresh interpreters, corrected for
    the CPU speed (first run discarded)."""
    times = [float(run_child(["-c", SETUP_SNIPPET], deadline).split()[-1])
             for _ in range(SETUP_RUNS + 1)]
    return statistics.median(times[1:])


def run_worker(args, deadline: float, spans: Path | None = None, raw: bool = False) -> dict:
    """One pass of the workload in a fresh interpreter, sized to last about
    ``--seconds`` divided by the number of passes.  ``spans`` traces the
    pass; ``raw`` runs it without the speed probe."""
    argv = [str(BENCH / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds / PASSES)]
    if spans is not None:
        argv += ["--spans", str(spans)]
    if raw:
        argv.append("--raw")
    return json.loads(run_child(argv, deadline).splitlines()[-1])


def percentile(sorted_values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    pos = (len(sorted_values) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def git_sha() -> str | None:
    """HEAD of the checkout, read from its own .git directory only."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _with_units(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def measure(args, deadline: float) -> tuple[dict, dict]:
    """The run the command line asked for: (info line, result line)."""
    if not args.trace:
        setup_s = measure_setup(deadline)
        passes = [run_worker(args, deadline) for _ in range(PASSES)]
        first = passes[0]
        same = all(p["digest"] == first["digest"] for p in passes)
        # Each op's latency is the faster of its two passes after the speed
        # correction; wall_s is the sum of these per-op minima, not the wall
        # time of either pass (that is pass_wall_s, uncorrected).
        ms = [min(times) for times in zip(*(p["latencies_ms"] for p in passes))]
        wall_s = sum(ms) / 1000.0
        ms.sort()
        values = {
            "setup_s": setup_s, "wall_s": wall_s, "ops_per_s": len(ms) / wall_s,
            "op_p50_ms": percentile(ms, 0.50),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        }
        info = {k: first[k] for k in ("digest", "errors", "known_defects", "failures")}
        info["pass_wall_s"] = [p["wall_s"] for p in passes]
        # mean speed factor of each pass: runs under different contention show here
        info["pass_speed_factor"] = [p["speed_factor"] for p in passes]
        info["raw_wall_s"] = sum(min(t) for t in zip(*(p["raw_ms"] for p in passes))) / 1000.0
        # The tail percentiles move by 10-20 % from seed to seed on the battery
        # (heavy-tailed case costs), too much for a bound: printed, not gated.
        info["tail"] = {f"op_p{q}_ms": {"value": percentile(ms, q / 100), "unit": "ms"}
                        for q in (90, 99)}
        return info, {"correct": same and all(p["correct"] for p in passes),
                      "attempted": first["attempted"], "failed": first["failed"],
                      "metrics": _with_units(values, END_TO_END_UNITS)}

    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}.jsonl.gz"
    plain = run_worker(args, deadline, raw=True)
    traced = run_worker(args, deadline, spans)
    same = plain["digest"] == traced["digest"]
    # each pass's wall time at the reference speed, as in speed.py
    overhead = (traced["wall_s"] * traced["speed_factor"]) / (plain["wall_s"] * plain["speed_factor"])
    layers = dict(traced["layers"], **{"trace.overhead": overhead})
    units = dict(tracer.metric_names(), **{"trace.overhead": "ratio"})
    info = {"digest": traced["digest"], "untraced_digest": plain["digest"],
            "spans": traced["spans"], "spans_path": str(spans.relative_to(ROOT)),
            "pass_speed_factor": [plain["speed_factor"], traced["speed_factor"]],
            "skipped_targets": traced["skipped_targets"],
            "broken_counters": traced["broken_counters"], "failures": traced["failures"]}
    return info, {"correct": plain["correct"] and traced["correct"] and same,
                  "attempted": traced["attempted"], "failed": traced["failed"],
                  "metrics": _with_units(layers, units)}


def self_check(args, deadline: float) -> tuple[dict, bool]:
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}.jsonl.gz"
    plain = run_worker(args, deadline, raw=True)
    first = run_worker(args, deadline, spans)
    second = run_worker(args, deadline, spans)
    digests_match = plain["digest"] == first["digest"] == second["digest"]
    exact = [k for k in first["layers"] if k.rsplit(".", 1)[1] in EXACT_COUNTERS]
    differing = [k for k in exact if first["layers"][k] != second["layers"][k]]
    report = {"digests_match": digests_match, "exact_counters": len(exact),
              "counters_differing": differing, "skipped_targets": first["skipped_targets"],
              "broken_counters": first["broken_counters"]}
    return report, digests_match and not differing


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "gauss_rinv" / "__init__.py").is_file():
        sys.stderr.write(f"no gauss_rinv sources under {SRC}; run from a source checkout\n")
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        if args.self_check:
            report, passed = self_check(args, deadline)
            print(json.dumps(dict(report, env=environment())))
            return 0 if passed else 1
        info, result = measure(args, deadline)
    except BenchError as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    print(json.dumps(dict(info, workload=args.workload, seed=args.seed, env=environment())))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

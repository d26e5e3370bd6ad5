"""Run one pass of a workload in a fresh interpreter; print the result as JSON.

run.py starts this script once per pass, with ``src`` on PYTHONPATH.  The
inputs are generated first; the timed phase then runs every op once, in
order, timing each; the known-answer checks and the output digest come
after the timed phase, with the tracer (if any) already removed.  An
untraced pass also corrects each op's time for the machine's CPU speed
(speed.py), unless ``--raw`` is given; a traced pass reports raw times.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spans", help="trace the run and write its spans here as JSONL")
    parser.add_argument("--raw", action="store_true", help="run no speed probe; report raw times")
    args = parser.parse_args()

    import gauss_rinv

    if not Path(gauss_rinv.__file__).resolve().is_relative_to(SRC):
        sys.stderr.write(f"gauss_rinv imported from {gauss_rinv.__file__}, not from {SRC}\n")
        return 2

    import workloads
    from speed import SpeedLog, speed_factor
    from tracer import Tracer

    ops = workloads.WORKLOADS[args.workload](args.seed, args.seconds)
    tracer = Tracer() if args.spans else None
    speed = None if tracer or args.raw else SpeedLog()
    outputs: list[object] = [None] * len(ops)
    errors: dict[int, str] = {}
    times: list[tuple[float, float]] = []

    # without the running probe, the speed is taken just before and after the timed phase
    bracket = [] if speed else [speed_factor()]
    if tracer:
        tracer.install()
    start = perf_counter()
    try:
        with speed or contextlib.nullcontext():
            for i, op in enumerate(ops):
                if tracer:
                    tracer.op = i
                t0 = perf_counter()
                try:
                    outputs[i] = op.run()
                except Exception as exc:  # an op that raises counts as failed; the run goes on
                    errors[i] = f"{type(exc).__name__}: {exc}"
                times.append((t0, perf_counter()))
        wall = perf_counter() - start
    finally:
        if tracer:
            tracer.uninstall()
    if not speed:
        bracket.append(speed_factor())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    verdicts = {workloads.OK: 0, workloads.DEFECT: 0, workloads.FAIL: 0}
    failures: list[str] = []
    digest = hashlib.sha256()
    for i, op in enumerate(ops):
        reason = errors.get(i)
        if reason:
            verdict, text = workloads.FAIL, f"error: {reason}"
        else:
            try:
                verdict = op.check(outputs[i])
            except Exception as exc:  # output no longer has the shape the check reads
                verdict, reason = workloads.FAIL, f"unreadable output: {type(exc).__name__}: {exc}"
            # The digest is a fingerprint, not a gate: an output it cannot read
            # changes the digest but not the verdict.
            try:
                text = workloads.canonical_text(op, outputs[i])
            except Exception as exc:
                text = f"unreadable output: {type(exc).__name__}: {exc}"
        verdicts[verdict] += 1
        if verdict != workloads.OK and len(failures) < 5:
            failures.append(f"{verdict} #{i} {op.label}" + (f" ({reason})" if reason else ""))
        digest.update(text.encode("utf-8"))
        digest.update(b"\n")

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "attempted": len(ops),
        "failed": len(ops) - verdicts[workloads.OK],
        "errors": len(errors),
        "known_defects": verdicts[workloads.DEFECT],
        "correct": verdicts[workloads.FAIL] == 0,
        "failures": failures,
        "digest": digest.hexdigest(),
        "wall_s": wall,
        "raw_ms": [(t1 - t0) * 1000.0 for t0, t1 in times],
        "latencies_ms": [(speed.corrected(t0, t1) if speed else t1 - t0) * 1000.0 for t0, t1 in times],
        "peak_rss_mb": peak_rss_mb,
        "speed_factor": speed.mean_factor() if speed else sum(bracket) / len(bracket),
    }
    if tracer:
        result["layers"] = tracer.metrics()
        result["skipped_targets"] = tracer.skipped
        result["broken_counters"] = sorted(tracer.broken_counters)
        result["spans"] = tracer.write_jsonl(args.spans, start)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One timed run of one workload, in a fresh interpreter.

Usage (from run.py, not by hand):

    python3 skybench/worker.py --workload W --seed N --seconds S --mode setup|plain|traced

``setup`` imports skyburst, builds the job list, prints ``ready`` and exits;
run.py times it.  ``plain`` and ``traced`` run warm-up jobs, then timed jobs
in a closed loop (one caller, each job starting after the previous one ends)
until S seconds of jobs have run or the list is exhausted, and print one JSON
result line.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import shutil
import sys
import tempfile
import time
from fractions import Fraction

import workloads
from tracer import SUBMODULES, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".skybench")
REFERENCE_EVERY_S = 0.2   # job time between two timings of the reference loop


def load_package():
    """Import skyburst from the checkout's own src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    import skyburst

    if os.path.dirname(os.path.dirname(os.path.abspath(skyburst.__file__))) != SRC:
        raise ImportError(f"skyburst imported from {skyburst.__file__}, not from {SRC}")
    for sub in SUBMODULES:
        importlib.import_module(f"skyburst.{sub}")
    return skyburst


def job_lists(workload: str, seed: int, seconds: float):
    timed = workloads.timed_blocks(workload, random.Random(seed), seconds)
    warm = workloads.warmup_jobs(workload, random.Random(f"warm-up {seed}"))
    return timed, warm


def _run_job(runner, tracer, typed, job_id, job):
    """Time one job, then check its output outside the timed region."""
    if tracer is not None:
        tracer.start_job(job_id)
    t0 = time.perf_counter()
    try:
        output = runner.run(job) if tracer is None else tracer.span("job", runner.run, job)
    except typed:
        return time.perf_counter() - t0, "refused"
    except Exception as exc:  # a crash: neither a typed refusal nor an answer
        elapsed = time.perf_counter() - t0
        print(f"skybench: job {job!r} crashed: {exc!r}", file=sys.stderr)
        return elapsed, "crashed"
    elapsed = time.perf_counter() - t0
    if runner.refused(output):
        return elapsed, "refused"
    if tracer is None:
        right = runner.check(job, output)
    else:
        with tracer.paused():
            right = runner.check(job, output)
    return elapsed, "ok" if right else "wrong"


def reference_ms() -> float:
    """One time of a fixed loop that uses no skyburst code.

    Taken every REFERENCE_EVERY_S of job time, so run.py can tell how fast
    the machine ran while the jobs did.  Its three parts (sums of small
    fractions, a harmonic sum whose terms grow to a few hundred bits, and
    plain integer bytecode) together slow down and speed up with the machine
    in step with the workloads' job times; each part alone over- or
    under-shoots them.
    """
    t0 = time.perf_counter()
    for _ in range(6):
        acc = Fraction(0)
        for k in range(1, 60):
            acc += Fraction(1, k)
    acc = Fraction(0)
    for k in range(1, 300):
        acc += Fraction(1, k)
    total = 0
    for i in range(20000):
        total += i * i % 7
    return 1000 * (time.perf_counter() - t0)


def known_defects(sb, typed) -> dict:
    """Outcome of each of workloads.KNOWN_DEFECTS: ok, wrong or refused."""
    outcomes = {}
    for n, w in workloads.KNOWN_DEFECTS:
        try:
            right = workloads.zeros_ok(sb.zeros.zeros_of(n, w))
        except typed:
            outcomes[f"zeros_of({n}, {w})"] = "refused"
            continue
        outcomes[f"zeros_of({n}, {w})"] = "ok" if right else "wrong"
    return outcomes


def _typed_errors(sb):
    e = sb.errors
    return (e.PoleError, e.DomainError, e.ExistenceError, e.ConvergenceError, e.TrackingError)


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    sb = load_package()
    timed, warm = job_lists(workload, seed, seconds)
    typed = _typed_errors(sb)
    reference = []
    os.makedirs(WORK, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
    try:
        runner = workloads.Runner(workload, sb, scratch)
        tracer = None
        for job in warm:
            _run_job(runner, None, typed, -1, job)
        runner.bytes_out = 0
        if traced:
            tracer = Tracer(typed, workloads.zeros_ok)
            tracer.install(sb)

        times, outcomes = [], []
        measured = next_reference = 0.0
        # whole blocks only: a block started before the time is up is finished
        for block in timed:
            if measured >= seconds:
                break
            for job in block:
                if measured >= next_reference:
                    reference.append((measured, reference_ms()))
                    next_reference = measured + REFERENCE_EVERY_S
                elapsed, outcome = _run_job(runner, tracer, typed, len(times), job)
                measured += elapsed
                times.append(elapsed)
                outcomes.append(outcome)
        reference.append((measured, reference_ms()))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {
        "workload": workload,
        "seed": seed,
        "times": times,
        "outcomes": outcomes,
        "bytes_out": runner.bytes_out,
        "peak_rss_mb": peak_rss_mb,
        "numpy": sys.modules["numpy"].__version__ if "numpy" in sys.modules else None,
        "reference": reference,   # (job time so far, reference loop ms)
    }
    if not traced:
        result["known_defects"] = known_defects(sb, typed)
    if tracer is not None:
        tracer.uninstall()
        spans_path = os.path.join(WORK, f"spans-{workload}-{seed}.csv")
        tracer.write_spans(spans_path)
        result["trace"] = {
            "per_layer": tracer.per_layer_metrics(len(times), runner.bytes_out),
            "layer_shares": tracer.layer_self_shares(),
            "spans": {name: [tracer.calls[name], tracer.total[name], tracer.self_time[name]] for name in tracer.calls},
            "spans_file": os.path.relpath(spans_path, ROOT),
            "spans_kept": len(tracer.spans),
            "spans_dropped": tracer.dropped_spans,
        }
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        load_package()
        job_lists(args.workload, args.seed, args.seconds)
        print("ready", flush=True)
        return 0
    result = run(args.workload, args.seed, args.seconds, args.mode == "traced")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

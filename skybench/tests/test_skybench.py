"""Self-test of the benchmark: every workload at a tiny size, metric names and
units against BENCHMARK.json, the dominant layer of each workload, the output
checks, and the refusal to run outside a checkout.

Run from the repository root:  python3 -m pytest -q skybench/tests
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import skyburst  # noqa: E402
import skyburst.cli  # noqa: E402
import workloads  # noqa: E402
from tracer import SUBMODULES, WRAPPED, Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

TINY = "0.3"   # a few jobs; zero_paths runs its first block, the two cliff windows


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join("skybench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)


def test_end_to_end_metrics_for_every_workload():
    proc = bench("--workload", "all", "--seed", "3", "--seconds", TINY)
    results = last_json(proc)
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert set(results) == set(workloads.NAMES)
    for name, result in results.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        assert all(v["value"] > 0 for v in result["metrics"].values()), name
    # the human-readable lines carry the failure fractions with their units
    for line in ("fail_frac", "wrong_frac", "job_tail_ms"):
        assert proc.stdout.count("\n" + line) == len(workloads.NAMES)
    # every workload times only inputs the package gets right
    for name, result in results.items():
        assert result["correct"] and result["failed"] == 0, name
    # the known wrong answers, kept out of the workloads, are still reported
    assert proc.stdout.count('"zeros_of(60, 61/2)": "wrong"') == len(workloads.NAMES)


def _layer_self_times(metrics):
    """Self seconds per job summed by layer (the metric name up to its last two parts)."""
    layers = {}
    for name, m in metrics.items():
        if name.endswith(".self_s"):
            layer = name.rsplit(".", 2)[0]
            layers[layer] = layers.get(layer, 0.0) + m["value"]
    return layers


@pytest.mark.parametrize(
    "workload, dominant",
    [
        ("exact_sweep", "scalarfield"),
        ("moment_routes", "moments"),
        ("zeros_scan", "zeros"),
        # a tiny run is the first block: the n=17 and n=18 windows below omega=2
        ("zero_paths", "zeros"),
    ],
)
def test_per_layer_metrics_and_dominant_layer(workload, dominant):
    result = last_json(bench("--workload", workload, "--seed", "3", "--seconds", TINY, "--trace", "1"))
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    layers = _layer_self_times(result["metrics"])
    assert max(layers, key=layers.get) == dominant, layers
    if workload == "zero_paths":
        # matching and symmetrising, not root finding, carry the cliff windows
        trace_self = result["metrics"]["zeros.trace.self_s"]["value"]
        assert trace_self > 0.5 * sum(layers.values()), layers


def test_job_times_follow_the_nearest_reference_timings():
    # the machine runs at half speed for the first second of job time, then at full speed
    reference = [(0.2 * i, run.REFERENCE_MS * (2 if i < 5 else 1)) for i in range(16)]
    scaled = run.at_reference_speed({"times": [0.1] * 30, "reference": reference})
    assert scaled[:3] == [pytest.approx(0.05)] * 3
    assert scaled[-10:] == [pytest.approx(0.1)] * 10


def test_tail_is_the_nearest_rank_percentile():
    times = list(range(200, 0, -1))
    assert run.tail(times, 90) == (180, 20)
    assert run.tail(times[:40], 75) == (190, 10)


def test_zero_paths_lead_windows_are_the_matcher_cliff():
    blocks = workloads.timed_blocks("zero_paths", random.Random(0), 1)
    lead = blocks[0]
    assert [n for n, _, _ in lead] == [17, 18]
    assert all(end < 2 for _, _, end in lead)
    assert all(workloads._exhaustive(n, start, end) for n, start, end in lead)
    others = [job for block in blocks[1:] for job in block if job[0] not in (17, 18)]
    assert others and not any(workloads._exhaustive(*job) for job in others)


def test_warmup_keys_are_disjoint_from_timed_keys():
    for name in workloads.NAMES:
        timed = {job for block in workloads.timed_blocks(name, random.Random(5), 30) for job in block}
        warm = set(workloads.warmup_jobs(name, random.Random(5)))
        assert timed.isdisjoint(warm)
        if name == "zero_paths":
            assert {n for n, _, _ in warm}.isdisjoint({n for n, _, _ in timed})
        else:
            timed_dens = {Fraction(job[1]).denominator for job in timed}
            warm_dens = {Fraction(job[1]).denominator for job in warm}
            assert timed_dens.isdisjoint(warm_dens)


def test_same_seed_same_jobs():
    for name in workloads.NAMES:
        a = workloads.timed_blocks(name, random.Random(9), 2)
        b = workloads.timed_blocks(name, random.Random(9), 2)
        assert a == b


def test_zeros_check_flags_known_defects_and_passes_a_good_set():
    assert workloads.zeros_ok(skyburst.zeros_of(9, Fraction(9, 2)))
    assert not workloads.zeros_ok(skyburst.zeros_of(60, Fraction(61, 2)))   # NaN roots
    assert not workloads.zeros_ok(skyburst.zeros_of(30, Fraction(21, 2)))   # 9 of 11 in (-1, 0)


def test_paths_check_rejects_tampered_output(tmp_path):
    out = tmp_path / "t.csv"
    assert skyburst.cli.main(["trajectory", "--n", "6", "--omega-start", "2.5",
                              "--omega-end", "3.375", "--out", str(out)]) == 0
    text = out.read_text()
    assert workloads.paths_ok(text, 6)
    rows = text.splitlines()
    # a jump inside a segment
    k = next(i for i in range(len(rows) - 1, 0, -1) if rows[i][0].isdigit())
    parts = rows[k].split(",")
    jumped = rows[:k] + [",".join(parts[:2] + [str(float(parts[2]) + 0.5)] + parts[3:])] + rows[k + 1:]
    assert not workloads.paths_ok("\n".join(jumped) + "\n", 6)
    # a wrong tag count
    retagged = text.replace("neg_unit", "complex_offaxis", 1)
    assert not workloads.paths_ok(retagged, 6)
    assert not workloads.paths_ok(text.replace("2.5", "nan", 1), 6)


def test_tracer_replaces_every_binding_and_restores_them():
    originals = {name: getattr(getattr(skyburst, home), attr) for name, (home, attr) in WRAPPED.items()}
    tracer = Tracer((ValueError, RuntimeError), workloads.zeros_ok)
    tracer.install(skyburst)
    try:
        modules = [skyburst] + [getattr(skyburst, m) for m in SUBMODULES]
        for module in modules:
            for value in vars(module).values():
                assert not any(value is fn for fn in originals.values()), module.__name__
        skyburst.run_identity_suite(2, omegas=(Fraction(1, 3),))
        assert tracer.calls["scalarfield.pochhammer"] > 0
        assert tracer.calls["recurrences.run_identity_suite"] == 1
    finally:
        tracer.uninstall()
    assert skyburst.skypoly.construct is originals["skypoly.construct"]
    assert skyburst.zeros.construct is originals["skypoly.construct"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "exact_sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()

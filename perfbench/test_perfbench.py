"""Self-tests of the benchmark: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _inputs(item):
    if isinstance(item, workloads.Invocation):
        return item.argv
    basis = item.V.basis if item.V is not None else ()
    mats = [M for tup in (item.T, item.S, *basis) for M in tup.matrices]
    return (workloads.jr.space_to_json(item.space), item.T.p, [M.tobytes() for M in mats])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    first, second = workloads.build(workload), workloads.build(workload)
    assert first.keys() == second.keys()
    assert all(_inputs(first[k]) == _inputs(second[k]) for k in first)
    runs = [workloads.cycles(workload, seed) for seed in (7, 7, 8)]
    a, b, c = ([next(it) for _ in range(4)] for it in runs)
    assert a == b and a != c
    assert all(sorted(k.split("/")[0] for k in cycle) == sorted(workloads.slot_variants(workload)) for cycle in a)


def test_checker_flags_perturbed_value_and_dropped_orbit():
    key = "linf-n6/0"
    recorded = reference.load()["exact_scoring"][key]
    answer = workloads.solve(workloads.build("exact_scoring")[key])
    assert reference.mismatches(recorded, answer) == []
    perturbed = dict(answer, value=answer["value"] * (1 + 1e-9))
    assert [m.split(":")[0] for m in reference.mismatches(recorded, perturbed)] == ["value"]
    many = reference.load()["exact_many_orbits"]["linf-n7/0"]
    dropped = dict(many, orbits=many["orbits"] - 1)
    assert [m.split(":")[0] for m in reference.mismatches(many, dropped)] == ["orbits"]


def test_percentiles_come_with_sample_counts():
    summary = run.percentiles([4.0, 1.0, 3.0, 2.0, 5.0])
    assert summary == {"p50": 3.0, "p90": pytest.approx(4.6), "n": 5}


def test_measure_scales_cpu_time_by_the_surrounding_calibration_passes(monkeypatch):
    passes = iter([2.0, 4.0, 6.0])  # calibration CPU s before, between and after two problems
    monkeypatch.setattr(run.calibrate, "pass_cpu_s", lambda: next(passes))
    clock = iter([0.0, 1.0, 1.0, 4.0])
    keys, outcomes, ref, cpu, wall = run.measure({"a": 1, "b": 2}, iter([["a", "b"]]), 0.0, lambda item: [item], lambda: next(clock))
    assert keys == ["a", "b"] and outcomes == [[1], [2]] and cpu == [1.0, 3.0] and len(wall) == 2
    assert ref == pytest.approx([1.0 * run.calibrate.REF_S / 3.0, 3.0 * run.calibrate.REF_S / 5.0])


def test_tracer_intercepts_solver_calls_and_restores_them():
    radius_module = sys.modules["jointradius.radius"]
    original = radius_module.orbit_dedup
    tracer = spans.Tracer()
    problem = workloads.build("exact_many_orbits")["linf-n4/0"]
    with tracer.installed():
        tracer.span("problem", workloads.solve)(problem)
    assert radius_module.orbit_dedup is original and tracer.skipped == []
    calls = tracer.calls()
    assert calls["radius.orbit_dedup"] == 1 and calls["lp.hull_membership"] == 1
    assert calls["optuples.aggregate"] == tracer.counts["spaces.admissible_pairs.pairs_out"] == 64
    self_ns = tracer.self_times_ns()
    total = sum(end - start for name, start, end, parent, _ in tracer.spans if parent < 0)
    assert sum(self_ns.values()) == total


def test_metric_tables_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END.items())
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(spans.PER_LAYER.items())
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_printed_metric_is_in_benchmark_json(trace, section):
    proc = _run("--workload", "exact_scoring", "--seed", "3", "--seconds", "0.5", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == listed
    if trace == 0:
        assert "(n=" in proc.stdout


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "exact_scoring", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

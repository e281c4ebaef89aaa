"""jointradius benchmark: runs one workload and checks every answer.

    python3 perfbench/run.py --workload exact_scoring --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Load model: one process and one caller in a closed loop; the next problem
starts when the previous pipeline has returned.  `cli_problems` runs one
child process at a time; setup_s is timed in fresh processes, one at a
time, after the measured loop.  A run measures whole cycles (every slot of
the workload once, see workloads.py) until `--seconds` of wall time have
passed, then checks every answer against reference.json outside the timed
region.

Times are reference-speed CPU times.  The CPU time (user + system) of the
process doing the work, this one for library problems and the child for a
CLI invocation, is scaled by the speed of the core measured around each
problem (calibrate.py).  On a shared host the wall time of the same work
also holds the time spent waiting for a core, and the CPU time changes with
the load other tenants put on the core; the scaled time is steady under
both.  The benchmark and its children are pinned to one core, so the
calibration measures the core that does the work, and BLAS runs on one
thread, so no idle pool thread spins.  Raw CPU and wall-clock figures are
printed for information.

With `--trace 0` the last line of standard output is a JSON object with
the end-to-end metrics; with `--trace 1` each problem runs once untraced
and once with wrappers installed (spans.py), and the object holds the
per-layer metrics.  Spans go to perfbench/out/.  `--workload all` runs
each workload in turn as a child process.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread: the load model has one caller and no extra threads.  Set
# before numpy is imported here or in a CLI child, which inherits it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import calibrate  # noqa: E402  (imports numpy)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

SETUP_PROBES = 7  # separate processes; setup_s is their median
CHILD_TIMEOUT_S = 170

# end_to_end metric name -> unit, in the order BENCHMARK.json lists them.
END_TO_END = {
    "problems_per_ref_s": "1/s",
    "ref_ms_p50": "ms",
    "ref_ms_p90": "ms",
    "setup_s": "s",
    "success_frac": "frac",
    "peak_rss_mb": "MB",
}


def _die(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _use_checkout_library() -> str | None:
    """Put this checkout's src/ first on sys.path; an error message if absent."""
    package = ROOT / "src" / "jointradius"
    if not (package / "__init__.py").is_file() or not (ROOT / "problems").is_dir():
        return f"no jointradius sources under {ROOT}: expected src/jointradius and problems/"
    sys.path.insert(0, str(ROOT / "src"))
    import jointradius

    if Path(jointradius.__file__).resolve().parent != package.resolve():
        return f"imported jointradius from {jointradius.__file__}, not from this checkout"
    return None


def percentiles(values) -> dict:
    """Median and 90th percentile (linear interpolation) with the sample count."""
    import numpy as np

    p50, p90 = np.percentile(values, [50, 90])
    return {"p50": float(p50), "p90": float(p90), "n": len(values)}


def _peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss * 1024 / 1e6  # ru_maxrss is in KiB


def children_cpu_s() -> float:
    """User + system CPU seconds of every child process reaped so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


# -- one problem ------------------------------------------------------------


def _solve(solve, pb):
    try:
        return solve(pb)
    except Exception:  # a raising pipeline is a failed problem, not a crash
        return {"error": traceback.format_exc(limit=3)}


def _cli_in_process(main, inv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(inv.argv))
    return (code, out.getvalue(), err.getvalue())


# -- setup ------------------------------------------------------------------


def setup(workloads, workload: str, seed: int):
    """Generate the inputs and warm up on the workload's first problem.

    The warm-up problem does not depend on the seed, so neither does the
    work counted in setup_s.
    """
    items = workloads.build(workload)
    warm = next(iter(items.values()))
    if workload == "cli_problems":
        workloads.run_cli(warm, ROOT)
    else:
        _solve(workloads.solve, warm)
    return items, workloads.cycles(workload, seed)


def probe_setup(workload: str, seed: int) -> tuple[float, float, float]:
    """(reference-speed CPU s, CPU s, wall s) of a fresh process's setup.

    The setup runs from the start of the process to the end of its
    warm-up.  Its CPU time is the probe's own, interpreter start-up
    included, plus that of the child it runs to warm up `cli_problems`.
    The probe reports it on its "ready" line with the CPU time of a
    calibration pass made right after.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--setup-probe"]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.close()
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    fields = line.split()
    if len(fields) != 3 or fields[0] != "ready" or code != 0:
        raise RuntimeError(f"setup probe failed with exit code {code}")
    cpu, cal = float(fields[1]), float(fields[2])
    return cpu * calibrate.REF_S / cal, cpu, elapsed


# -- measurement ------------------------------------------------------------


def measure(items, schedule, seconds: float, run_one, cpu_clock=time.process_time):
    """Whole cycles until `seconds` of wall time have passed.

    Returns keys, outcomes and, per problem, the reference-speed CPU s, the
    raw CPU s read from `cpu_clock` and the wall s.  A calibration pass
    runs between problems; a problem's CPU time is scaled by the mean of
    the passes before and after it.  run_one(item) returns a list of
    outcomes to check for that problem.
    """
    keys, outcomes, ref, cpu, wall = [], [], [], [], []
    start = time.perf_counter()
    before = calibrate.pass_cpu_s()
    for cycle in schedule:
        for key in cycle:
            c0, t0 = cpu_clock(), time.perf_counter()
            results = run_one(items[key])
            wall.append(time.perf_counter() - t0)
            cpu.append(cpu_clock() - c0)
            after = calibrate.pass_cpu_s()
            ref.append(cpu[-1] * 2.0 * calibrate.REF_S / (before + after))
            before = after
            keys.append(key)
            outcomes.append(results)
        if time.perf_counter() - start >= seconds:
            return keys, outcomes, ref, cpu, wall
    raise AssertionError("schedule ended")


def check(workloads, reference, workload: str, keys, outcomes, items) -> tuple[int, int, int, int]:
    """(attempted, failed, multistart answers, shortfalls) over every outcome.

    Failures are described on stderr.  A multi-start answer below the
    sampled bound is a shortfall: the library declares those results
    non-exhaustive, so it is counted and reported but not failed.
    """
    expected = reference.load()[workload]
    oracle = {}
    attempted = failed = multistart = shortfalls = 0
    for key, results in zip(keys, outcomes):
        for result in results:
            attempted += 1
            try:
                if workload == "cli_problems":
                    answer = workloads.cli_answer(key.split("/")[0], *result)
                else:
                    answer = result
                problems = [answer["error"]] if "error" in answer else reference.mismatches(expected[key], answer)
                if not problems and workload != "cli_problems":
                    if key not in oracle:
                        oracle[key] = reference.oracle_violation(items[key], answer["value"])
                    if not items[key].space.is_smooth_lp:
                        problems = [oracle[key]] if oracle[key] else []
                    else:
                        multistart += 1
                        shortfalls += oracle[key] is not None
            except Exception:
                problems = [traceback.format_exc(limit=3)]
            if problems:
                failed += 1
                if failed <= 10:
                    print(f"FAIL {workload} {key}: {'; '.join(problems)}", file=sys.stderr)
    short = sorted(k for k, v in oracle.items() if v and items[k].space.is_smooth_lp)
    if short:
        print(f"multi-start shortfall below sampled_radius on {', '.join(short)}")
    return attempted, failed, multistart, shortfalls


def run_untraced(workloads, workload, items, schedule, seconds):
    if workload == "cli_problems":
        run_one = lambda inv: [workloads.run_cli(inv, ROOT)]  # noqa: E731
        cpu_clock = children_cpu_s  # the CLI processes, reaped one at a time
        rss_of = resource.RUSAGE_CHILDREN  # the CLI processes, before any setup probe
    else:
        run_one = lambda pb: [_solve(workloads.solve, pb)]  # noqa: E731
        cpu_clock = time.process_time
        rss_of = resource.RUSAGE_SELF
    return (*measure(items, schedule, seconds, run_one, cpu_clock), _peak_rss_mb(rss_of))


def run_traced(workloads, spans, workload, items, schedule, seconds):
    """Each problem untraced and traced, alternating which pass goes first.

    Returns the tracer, the summed wall times of each kind of pass, the
    keys and outcomes, and the wall time of the loop.  For the CLI the
    library runs in process through `cli.main`, after one child process
    whose extra wall time over the untraced in-process pass is the
    start-up cost.
    """
    tracer = spans.Tracer()
    totals = {"untraced": 0.0, "traced": 0.0, "child": 0.0}
    if workload == "cli_problems":
        import jointradius.cli as cli

        plain = lambda inv: _cli_in_process(cli.main, inv)  # noqa: E731
        traced = lambda inv: _cli_in_process(tracer.span("cli.main", cli.main), inv)  # noqa: E731
    else:
        plain = lambda pb: _solve(workloads.solve, pb)  # noqa: E731
        traced = lambda pb: _solve(tracer.span("problem", workloads.solve), pb)  # noqa: E731

    def run_one(item):
        outcomes = []
        if workload == "cli_problems":
            t0 = time.perf_counter()
            outcomes.append(workloads.run_cli(item, ROOT))
            totals["child"] += time.perf_counter() - t0
        tracer.problem += 1
        passes = [("untraced", plain), ("traced", traced)]
        for label, fn in passes if tracer.problem % 2 == 0 else passes[::-1]:
            t0 = time.perf_counter()
            with tracer.installed() if label == "traced" else contextlib.nullcontext():
                outcomes.append(fn(item))
            totals[label] += time.perf_counter() - t0
        return outcomes

    keys, outcomes, _, _, wall = measure(items, schedule, seconds, run_one)
    return tracer, totals, keys, outcomes, sum(wall)


# -- reporting --------------------------------------------------------------


def _print_result(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> None:
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))


def _print_shares(tracer) -> None:
    roots = sum(end - start for name, start, end, parent, _ in tracer.spans if parent < 0)
    shares = sorted(tracer.self_times_ns().items(), key=lambda kv: -kv[1])
    print("self-time shares of traced problem time:")
    for name, ns in shares:
        if ns >= 0.005 * roots:
            print(f"  {name:34s} {100.0 * ns / roots:6.1f} %")


def run_workload(workloads, args) -> int:
    import reference
    import spans

    items, schedule = setup(workloads, args.workload, args.seed)
    if args.setup_probe:
        cpu = time.process_time() + children_cpu_s()
        print(f"ready {cpu!r} {calibrate.pass_cpu_s(3)!r}", flush=True)
        return 0
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    if args.trace:
        tracer, totals, keys, outcomes, wall = run_traced(workloads, spans, args.workload, items, schedule, args.seconds)
        problems = len(keys)
        overhead = totals["traced"] / totals["untraced"] - 1.0
        startup_ms = 1e3 * (totals["child"] - totals["untraced"]) / problems if totals["child"] else 0.0
        attempted, failed, multistart, shortfalls = check(workloads, reference, args.workload, keys, outcomes, items)
        metrics, bases = spans.per_layer_metrics(tracer, problems, overhead, startup_ms, multistart, shortfalls)
        path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        tracer.write(path)
        print(f"{problems} problems in {wall:.2f} s, each run untraced and traced; {len(tracer.spans)} spans -> {path.relative_to(ROOT)}")
        if tracer.skipped:
            print(f"hooks not installed (attribute missing): {', '.join(tracer.skipped)}")
        _print_shares(tracer)
        for name, value in metrics.items():
            print(f"{name:36s} {value:14.6g} {spans.PER_LAYER[name]:14s} ({bases[name]})")
        units = spans.PER_LAYER
    else:
        keys, outcomes, ref, cpu, wall, rss = run_untraced(workloads, args.workload, items, schedule, args.seconds)
        attempted, failed, _, _ = check(workloads, reference, args.workload, keys, outcomes, items)
        setup_ref, setup_cpu, setup_wall = zip(*(probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)))
        lat = percentiles([1e3 * s for s in ref])
        metrics = {
            "problems_per_ref_s": len(keys) / sum(ref),
            "ref_ms_p50": lat["p50"],
            "ref_ms_p90": lat["p90"],
            "setup_s": statistics.median(setup_ref),
            "success_frac": 1.0 - failed / attempted,
            "peak_rss_mb": rss,
        }
        print(f"problems_per_ref_s {metrics['problems_per_ref_s']:12.6g} 1/s  ({len(keys)} problems in {sum(ref):.3f} reference CPU s)")
        print(f"ref_ms_p50         {lat['p50']:12.6g} ms   (n={lat['n']})")
        print(f"ref_ms_p90         {lat['p90']:12.6g} ms   (n={lat['n']})")
        print(f"setup_s            {metrics['setup_s']:12.6g} s    (median of n={len(setup_ref)}: {', '.join(f'{t:.3f}' for t in setup_ref)})")
        print(f"success_frac       {metrics['success_frac']:12.6g} frac (fail_frac {failed}/{attempted})")
        print(f"peak_rss_mb        {rss:12.6g} MB")
        for label, times, setups in (("raw CPU", cpu, setup_cpu), ("wall clock", wall, setup_wall)):
            summary = percentiles([1e3 * s for s in times])
            print(
                f"{label}, for information: {len(keys) / sum(times):.4g} problems/s, p50 {summary['p50']:.4g} ms, "
                f"p90 {summary['p90']:.4g} ms (n={summary['n']}), setup median {statistics.median(setups):.4g} s"
            )
        units = END_TO_END
    _print_result(failed == 0, attempted, failed, metrics, units)
    return 0 if failed == 0 else 1


def run_all(workloads, args) -> int:
    worst = 0
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        sys.stdout.flush()
        worst = max(worst, subprocess.run(cmd, cwd=ROOT, timeout=CHILD_TIMEOUT_S + 60).returncode)
    return worst


def main(argv=None) -> int:
    problem = _use_checkout_library()
    if problem:
        return _die(problem)
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # inherited by every child
    if args.workload == "all":
        return run_all(workloads, args)
    return run_workload(workloads, args)


if __name__ == "__main__":
    sys.exit(main())

"""Recorded answers for every benchmark problem, and the check against them.

`python3 perfbench/reference.py` records `reference.json` from the library
in this checkout; record it only from a commit whose answers are trusted.
A run's answer matches when its value is within REL_TOL relative of the
recorded one and every other field (orbit count, smoothness and
orthogonality verdicts, CLI exit code) is identical.  Library answers must
also dominate an independent sampled lower bound on the radius.
"""

from __future__ import annotations

import json
import sys
import zlib
from pathlib import Path

PATH = Path(__file__).with_name("reference.json")
REL_TOL = 1e-12
ORACLE_SAMPLES = 2000


def load() -> dict:
    return json.loads(PATH.read_text(encoding="utf-8"))


def mismatches(expected: dict, got: dict) -> list[str]:
    """One line per recorded field the answer does not reproduce."""
    out = []
    for field, want in expected.items():
        have = got.get(field)
        if field == "value":
            ok = type(have) is float and abs(have - want) <= REL_TOL * abs(want)
        else:
            ok = have == want
        if not ok:
            out.append(f"{field}: expected {want!r}, got {have!r}")
    return out


def oracle_violation(pb, value: float) -> str | None:
    """Compare with `sampled_radius`, a lower bound that avoids the solvers."""
    import jointradius as jr

    sampled = jr.sampled_radius(pb.T, pb.space, samples=ORACLE_SAMPLES, seed=zlib.crc32(pb.key.encode()))
    if sampled > value * (1.0 + REL_TOL):
        return f"sampled_radius {sampled!r} exceeds the value {value!r}"
    return None


def record(root: Path) -> dict:
    import workloads

    out = {}
    for workload in workloads.WORKLOADS:
        answers = {}
        for key, item in workloads.build(workload).items():
            if workload == "cli_problems":
                answers[key] = workloads.cli_answer(key.split("/")[0], *workloads.run_cli(item, root))
            else:
                answers[key] = workloads.solve(item)
                problem = oracle_violation(item, answers[key]["value"])
                if problem:
                    print(f"{workload} {key}: {problem}", file=sys.stderr)
        out[workload] = answers
        print(f"{workload}: {len(answers)} answers recorded", file=sys.stderr)
    return out


if __name__ == "__main__":
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    reference = record(root)
    PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")

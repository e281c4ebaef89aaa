"""Seeded inputs and the per-problem pipeline for each benchmark workload.

A problem is named by a slot and a variant, and its inputs are generated
from that name alone, so `reference.json` can hold one recorded answer per
problem.  The run seed only chooses, for each cycle, the order of the slots
and the variant used for each slot.  A cycle visits every slot once and a
run measures whole cycles, so every seed runs the same mix of problem
shapes while the inputs themselves differ.

Slots differ in cost, so a run's sorted latencies form one block per slot
(or per group of slots of equal cost).  The slot lists are chosen so that
the median and the 90th percentile fall inside a block, not on the edge
between two, whatever the number of cycles; at an edge a percentile jumps
between neighbouring slots from run to run.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import zlib
from dataclasses import dataclass

import numpy as np

import jointradius as jr

WORKLOADS = ("smooth_multistart", "exact_scoring", "exact_many_orbits", "cli_problems")

VARIANTS = 8  # recorded variants per slot (per seeded CLI command)
SMOOTH_STARTS = 8
RADIUS_SEED = 0  # multi-start seed handed to the library, fixed per problem


@dataclass(frozen=True)
class Problem:
    key: str
    space: jr.SpaceDescriptor
    T: jr.OperatorTuple
    S: jr.OperatorTuple  # direction for gateaux_one_sided and orth_scalar
    V: jr.TupleSubspace | None  # tested with orth_subspace when present


@dataclass(frozen=True)
class Invocation:
    key: str
    argv: tuple  # arguments after `python -m jointradius.cli`


def _rng(workload: str, slot: str, variant: int) -> np.random.Generator:
    return np.random.default_rng([zlib.crc32(f"{workload}/{slot}".encode()), variant])


def _dense(rng, d: int, n: int, field: str, p: float) -> jr.OperatorTuple:
    """Gaussian tuple; not `jr.random_tuple`, so that no library change moves the inputs."""
    mats = []
    for _ in range(d):
        M = rng.standard_normal((n, n))
        if field == jr.COMPLEX:
            M = M + 1j * rng.standard_normal((n, n))
        mats.append(M)
    return jr.OperatorTuple(tuple(mats), p=p, field=field)


def _p(rng) -> float:
    return float(rng.uniform(1.3, 4.0))


# -- smooth_multistart ------------------------------------------------------

_STRUCTURED = ("continuum", "diag-pm", "rank-one")
_SMOOTH_SLOTS = tuple(f"{f}-r{r:g}" for f in (jr.REAL, jr.COMPLEX) for r in (1.5, 2.0, 3.0)) + _STRUCTURED


def _structured_smooth(slot: str, variant: int):
    """Tuples whose attaining sets are known: continua, two orbits, one orbit."""
    if slot == "continuum" and variant % 2 == 0:  # identity on complex l_2(n): every unit vector attains
        n = 2 + variant % 3
        return jr.SpaceDescriptor(jr.COMPLEX, n, jr.LpNorm(2.0)), np.eye(n)
    if slot == "continuum":  # nilpotent shift on complex l_2(2): a one-parameter continuum
        return jr.SpaceDescriptor(jr.COMPLEX, 2, jr.LpNorm(2.0)), np.array([[0.0, 1.0], [0.0, 0.0]])
    if slot == "diag-pm":  # diag(1, -1) on real l_2: the two orbits of e_1 and e_2
        return jr.SpaceDescriptor(jr.REAL, 2, jr.LpNorm(2.0)), np.diag([1.0, -1.0])
    # diag(1, 0, 0) on complex l_3: the single orbit of e_1
    return jr.SpaceDescriptor(jr.COMPLEX, 3, jr.LpNorm(3.0)), np.diag([1.0, 0.0, 0.0])


def _smooth_problem(slot: str, variant: int):
    rng = _rng("smooth_multistart", slot, variant)
    if slot in _STRUCTURED:
        space, M = _structured_smooth(slot, variant)
        T = jr.OperatorTuple((M,), p=_p(rng), field=space.field)
    else:
        field, r = slot.split("-r")
        n, d = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        space = jr.SpaceDescriptor(field, n, jr.LpNorm(float(r)))
        T = _dense(rng, d, n, field, _p(rng))
    return space, T, _dense(rng, T.d, T.n, space.field, T.p), None


# -- exact_scoring ----------------------------------------------------------

_SCORING_SLOTS = tuple(f"{norm}-n{n}" for n in range(6, 11) for norm in ("linf", "l1")) + ("polygon",)


def _ellipse_polygon(rng, k: int) -> jr.Polyhedral:
    """Centrally symmetric 2k-gon with vertices on a random ellipse.

    Points on an ellipse are in convex position, so every vertex is extreme;
    jittered angles keep neighbouring vertices apart.  Facet normals u solve
    <u, v_i> = <u, v_{i+1}> = 1 and are the extreme points of the dual ball.
    """
    theta = (np.arange(k) + rng.uniform(0.15, 0.85, k)) * np.pi / k
    a, b = rng.uniform(0.5, 2.0, 2)
    phi = rng.uniform(0.0, np.pi)
    rot = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
    half = np.column_stack([a * np.cos(theta), b * np.sin(theta)]) @ rot.T
    verts = np.vstack([half, -half])
    edges = np.stack([verts[:k], verts[1 : k + 1]], axis=1)  # k edges of one half
    normals = np.linalg.solve(edges, np.ones((k, 2, 1)))[:, :, 0]
    duals = np.vstack([normals, -normals])
    return jr.Polyhedral(tuple(map(tuple, verts)), tuple(map(tuple, duals)))


def _scoring_problem(slot: str, variant: int):
    rng = _rng("exact_scoring", slot, variant)
    if slot == "polygon":
        space = jr.SpaceDescriptor(jr.REAL, 2, _ellipse_polygon(rng, int(rng.integers(6, 41))))
    else:
        norm, n = slot.split("-n")
        r = math.inf if norm == "linf" else 1.0
        space = jr.SpaceDescriptor(jr.REAL, int(n), jr.LpNorm(r))
    T = _dense(rng, int(rng.integers(1, 4)), space.dim, jr.REAL, _p(rng))
    return space, T, _dense(rng, T.d, T.n, jr.REAL, T.p), None


# -- exact_many_orbits ------------------------------------------------------

# Costs grow about fourfold per dimension and l_inf costs more than l_1.
_ORBIT_SLOTS = ("linf-n4", "l1-n5", "linf-n6", "l1-n7", "linf-n7")


def _signed_permutation(rng, n: int) -> np.ndarray:
    return np.eye(n)[rng.permutation(n)] * rng.choice([-1.0, 1.0], n)


def _orbit_problem(slot: str, variant: int):
    """Signed-permutation tuples: every admissible extreme pair attains."""
    rng = _rng("exact_many_orbits", slot, variant)
    norm, n = slot.split("-n")
    n = int(n)
    space = jr.SpaceDescriptor(jr.REAL, n, jr.LpNorm(math.inf if norm == "linf" else 1.0))
    kind = variant % 3
    if kind == 0:  # (I, D) with D a random +-1 diagonal
        mats = (np.eye(n), np.diag(rng.choice([-1.0, 1.0], n)))
    elif kind == 1:
        mats = (_signed_permutation(rng, n),)
    else:
        mats = (_signed_permutation(rng, n), _signed_permutation(rng, n))
    T = jr.OperatorTuple(mats, p=_p(rng), field=jr.REAL)
    if rng.random() < 0.5:
        return space, T, _dense(rng, T.d, n, jr.REAL, T.p), None
    basis = tuple(_dense(rng, T.d, n, jr.REAL, T.p) for _ in range(int(rng.integers(2, 4))))
    return space, T, basis[0], jr.TupleSubspace(basis)


# -- cli_problems -----------------------------------------------------------

# The README's commands, smooth ones limited to SMOOTH_STARTS starts.  The
# README's `gateaux` example pairs a real problem with a complex direction
# and must exit 1 with a one-line message; the valid complex pairing runs
# beside it.  Seeded commands take the variant as `--seed`.
_CLI = {
    "radius": (("radius", "problems/linf2_exact.json", "--pretty"), False),
    "subdiff": (("subdiff", "problems/linf2_exact.json"), False),
    "smooth": (("smooth", "problems/hilbert_smooth.json", "--starts", str(SMOOTH_STARTS)), True),
    "orth": (("orth", "problems/orth_case.json", "--starts", str(SMOOTH_STARTS)), True),
    "extremes": (("extremes", "problems/linf2_exact.json"), False),
    "verify": (("verify", "problems/linf2_exact.json", "--samples", "20000"), True),
    "gateaux-real-complex": (
        ("gateaux", "problems/linf2_exact.json", "--direction", "problems/identity2.json"),
        False,
    ),
    "gateaux-complex": (
        (
            "gateaux",
            "problems/hilbert_smooth.json",
            "--direction",
            "problems/identity2.json",
            "--starts",
            str(SMOOTH_STARTS),
        ),
        True,
    ),
}


def _invocation(slot: str, variant: int) -> Invocation:
    argv, seeded = _CLI[slot]
    if seeded:
        argv = argv + ("--seed", str(variant))
    return Invocation(f"{slot}/{variant}", argv)


# -- registry ---------------------------------------------------------------

_SLOTS = {
    "smooth_multistart": (_SMOOTH_SLOTS, _smooth_problem),
    "exact_scoring": (_SCORING_SLOTS, _scoring_problem),
    "exact_many_orbits": (_ORBIT_SLOTS, _orbit_problem),
}


def slot_variants(workload: str) -> dict[str, int]:
    """Number of recorded variants of each slot."""
    if workload == "cli_problems":
        return {slot: VARIANTS if seeded else 1 for slot, (_, seeded) in _CLI.items()}
    return {slot: VARIANTS for slot in _SLOTS[workload][0]}


def build(workload: str) -> dict:
    """Every problem (or CLI invocation) of a workload, by key."""
    out = {}
    for slot, count in slot_variants(workload).items():
        for v in range(count):
            if workload == "cli_problems":
                item = _invocation(slot, v)
            else:
                space, T, S, V = _SLOTS[workload][1](slot, v)
                item = Problem(f"{slot}/{v}", space, T, S, V)
            out[item.key] = item
    return out


def cycles(workload: str, seed: int):
    """Endless seeded sequence of cycles; each lists every slot once.

    Each slot deals its variants from a shuffled deck, so a run repeats a
    variant only after it has used all of them.
    """
    variants = slot_variants(workload)
    slots = sorted(variants)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    decks = {slot: [] for slot in slots}
    while True:
        cycle = []
        for i in rng.permutation(len(slots)):
            deck = decks[slots[i]]
            if not deck:
                deck.extend(int(v) for v in rng.permutation(variants[slots[i]]))
            cycle.append(f"{slots[i]}/{deck.pop()}")
        yield cycle


def solve(pb: Problem) -> dict:
    """One pass of the pipeline; returns the answer the reference records.

    Library names are looked up on the package at call time, so the traced
    run's wrappers see these calls.
    """
    rr = jr.radius(pb.T, pb.space, starts=SMOOTH_STARTS, seed=RADIUS_SEED)
    jr.generators(pb.T, pb.space, rr)
    sm = jr.smoothness(pb.T, pb.space, rr)
    jr.gateaux_one_sided(pb.T, pb.S, pb.space, rr)
    if pb.V is None:
        orth = jr.orth_scalar(pb.T, pb.S, pb.space, rr)
    else:
        orth = jr.orth_subspace(pb.T, pb.V, pb.space, rr)
    return {
        "value": float(rr.value),
        "orbits": len(rr.attaining.orbits),
        "smooth": sm.verdict,
        "orthogonal": bool(orth.orthogonal),
    }


def run_cli(inv: Invocation, root) -> tuple:
    """Run one invocation as a child process: (exit code, stdout, stderr)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(root / "src"), env.get("PYTHONPATH"))))
    proc = subprocess.Popen(
        [sys.executable, "-m", "jointradius.cli", *inv.argv],
        cwd=root,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    return proc.returncode, stdout, stderr


def cli_answer(slot: str, code: int, stdout: str, stderr: str) -> dict:
    """The recorded fields of one CLI invocation's outcome."""
    if code != 0:
        return {"exit": code, "message_lines": len([ln for ln in stderr.splitlines() if ln.strip()])}
    out = json.loads(stdout)
    command = slot.split("-")[0]
    if command == "radius":
        return {"exit": 0, "value": out["value"], "orbits": len(out["orbits"])}
    if command == "subdiff":
        return {"exit": 0, "value": out["value"], "orbits": len(out["generators"])}
    if command == "smooth":
        return {"exit": 0, "smooth": out["smooth"]}
    if command == "orth":
        return {"exit": 0, "orthogonal": out["orthogonal"]}
    if command == "extremes":
        return {"exit": 0, "extremes": [len(out["primal"]), len(out["dual"])]}
    if command == "verify":
        bound_ok = out["sampled_radius"] <= out["value"] * (1.0 + 1e-12)
        return {"exit": 0, "value": out["value"], "passed": out["passed"], "oracle_bound": bound_ok}
    return {"exit": 0, "orbits": len(out["c_values"])}  # gateaux

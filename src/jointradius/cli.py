"""Command-line front end.

Reads a problem file (space + tuple, plus optional direction/against/
subspace sections), dispatches to the solvers, and writes machine-readable
JSON to standard output.  Diagnostics go to standard error.  Exit codes:
0 success, 1 usage, I/O or schema errors or numbers out of range in the
input (OverflowError, e.g. an integer literal past the float range),
2 mathematical errors (zero radius, dependent direction).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    DependentDirection,
    EmptyBasis,
    InvalidCertificate,
    InvalidDescriptor,
    JointRadiusError,
    ZeroRadius,
)
from .optuples import OperatorTuple, _entry_to_json, tuple_from_json
from .oracle import audit
from .orth import TupleSubspace, orth_scalar, orth_subspace
from .radius import DEFAULT_STARTS, _check_tuple, radius
from .spaces import SpaceDescriptor, extreme_points, space_from_json
from .subdiff import gateaux_one_sided, generators, smoothness

MATH_ERRORS = (ZeroRadius, DependentDirection, EmptyBasis, InvalidCertificate)


@dataclass(frozen=True)
class ProblemFile:
    space: SpaceDescriptor
    tuple: OperatorTuple
    raw: dict


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def parse(path: str, p_override: float | None = None) -> ProblemFile:
    raw = _load_json(path)
    if not (isinstance(raw, dict) and all(isinstance(raw.get(k), dict) for k in ("space", "tuple"))):
        raise InvalidDescriptor("problem file must be an object with 'space' and 'tuple' objects")
    space = space_from_json(raw["space"])
    tup_obj = dict(raw["tuple"])
    if p_override is not None:
        tup_obj["p"] = p_override
    tup = tuple_from_json(tup_obj, field=space.field)
    _check_tuple(tup, space)
    return ProblemFile(space, tup, raw)


def _section(problem: ProblemFile, section: str, flag_path: str | None):
    """JSON of an auxiliary section: the --<section> file, else the problem
    file's section, given inline or as a path to another JSON file.

    A --direction or --against file may also be a problem file that holds
    the tuple under the section name.
    """
    if flag_path is not None:
        obj = _load_json(flag_path)
        if section != "subspace" and isinstance(obj, dict):
            obj = obj.get(section, obj)
    else:
        obj = problem.raw.get(section)
        if isinstance(obj, str):
            obj = _load_json(obj)
    if obj is None:
        raise JointRadiusError(f"command needs a '{section}' section or --{section}")
    return obj


def _aux_tuple(problem: ProblemFile, section: str, flag_path: str | None) -> OperatorTuple:
    obj = _section(problem, section, flag_path)
    S = tuple_from_json(obj, field=problem.space.field, default_p=problem.tuple.p)
    problem.tuple._check_compatible(S)
    return S


def _vector_json(v, field: str):
    return [_entry_to_json(c, field) for c in np.asarray(v)]


def _pair_json(pair, field: str) -> dict:
    return {"x": _vector_json(pair.x, field), "x_star": _vector_json(pair.x_star, field)}


def _generator_json(gen, field: str) -> dict:
    return {**_pair_json(gen.pair, field), "alpha": _vector_json(gen.alpha, field)}


def _orbits_json(rr, field):
    return [
        {**_pair_json(o.representative, field), "value": float(o.value)}
        for o in rr.attaining.orbits
    ]


def _radius(problem: ProblemFile, args):
    """radius() with the multi-start and attaining-tolerance flags."""
    return radius(
        problem.tuple, problem.space, starts=args.starts, seed=args.seed, attain_tol=args.tol
    )


def _emit(obj, pretty: bool) -> None:
    layout = {"indent": 2} if pretty else {"separators": (",", ":")}
    try:
        text = json.dumps(obj, sort_keys=True, allow_nan=False, **layout)
    except ValueError as exc:  # NaN or +-inf somewhere in obj
        raise JointRadiusError("non-finite numeric in output; refusing to serialize") from exc
    print(text)


def _cmd_radius(problem, args):
    rr = _radius(problem, args)
    return {
        "value": float(rr.value),
        "method": rr.method,
        "exhaustive": rr.exhaustive,
        "degenerate": rr.degenerate,
        "orbits": _orbits_json(rr, problem.space.field),
    }


def _cmd_subdiff(problem, args):
    rr = _radius(problem, args)
    gens = generators(problem.tuple, problem.space, rr)
    return {
        "value": float(rr.value),
        "exhaustive": rr.exhaustive,
        "generators": [_generator_json(g, problem.space.field) for g in gens],
    }


def _cmd_gateaux(problem, args):
    S = _aux_tuple(problem, "direction", args.direction)
    rr = _radius(problem, args)
    rep = gateaux_one_sided(problem.tuple, S, problem.space, rr)
    return {
        "g_plus": rep.g_plus,
        "g_minus": rep.g_minus,
        "c_values": list(rep.c_values),
        "exhaustive": rep.exhaustive,
    }


def _cmd_smooth(problem, args):
    rr = _radius(problem, args)
    rep = smoothness(problem.tuple, problem.space, rr)
    out = {"smooth": rep.verdict, "exhaustive": rep.exhaustive}
    if rep.generator is not None:
        out["derivative_basis"] = _generator_json(rep.generator, problem.space.field)
    return out


def _cmd_orth(problem, args):
    rr = _radius(problem, args)
    if args.subspace is not None or "subspace" in problem.raw:
        obj = _section(problem, "subspace", args.subspace)
        items = obj.get("basis") if isinstance(obj, dict) else obj
        if not isinstance(items, list):
            raise InvalidDescriptor("'subspace' must be a list of tuples or an object with a 'basis' list")
        basis = tuple(tuple_from_json(it, problem.space.field, problem.tuple.p) for it in items)
        res = orth_subspace(problem.tuple, TupleSubspace(basis), problem.space, rr)
    else:
        S = _aux_tuple(problem, "against", args.against)
        res = orth_scalar(problem.tuple, S, problem.space, rr)
    out = {"orthogonal": res.orthogonal, "approximate": res.approximate}
    if res.certificate is not None:
        out["certificate"] = {
            "weights": [
                {"orbit_index": j, "t": t} for j, t in res.certificate.weights
            ],
            "residual": res.certificate.residual,
        }
    else:
        out["certificate"] = None
    return out


def _cmd_extremes(problem, args):
    if problem.space.is_smooth_lp:
        return {"unbounded": True}
    primal, dual = extreme_points(problem.space)
    return {
        "unbounded": False,
        "primal": primal.tolist(),
        "dual": dual.tolist(),
    }


def _cmd_verify(problem, args):
    rr = _radius(problem, args)
    gens = generators(problem.tuple, problem.space, rr) if rr.value > 0 and not rr.degenerate else []
    report = audit(
        problem.tuple, problem.space, rr, gens, seed=args.seed, starts=args.starts, samples=args.samples
    )
    rows = [
        {"name": c.name, "status": c.status, "measured": c.measured, "bound": c.bound}
        for c in report.checks
    ]
    print(f"{'check':32s} {'status':8s} {'measured':>14s} {'bound':>14s}", file=sys.stderr)
    for c in report.checks:
        print(
            f"{c.name:32s} {c.status:8s} {c.measured:14.6e} {c.bound:14.6e}",
            file=sys.stderr,
        )
    return {
        "value": float(rr.value),
        "sampled_radius": report.sampled_radius,
        "passed": report.passed,
        "checks": rows,
    }


COMMANDS = {
    "radius": _cmd_radius,
    "subdiff": _cmd_subdiff,
    "gateaux": _cmd_gateaux,
    "smooth": _cmd_smooth,
    "orth": _cmd_orth,
    "extremes": _cmd_extremes,
    "verify": _cmd_verify,
}


class _Parser(argparse.ArgumentParser):
    """Raises usage errors, so that they exit 1 with one `error:` line like schema errors."""

    def error(self, message):
        raise JointRadiusError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="jointradius",
        description="Joint numerical radius toolkit for operator tuples.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("input", help="problem JSON file")
    parser.add_argument("--p", type=float, default=None, help="override the aggregation exponent")
    parser.add_argument("--starts", type=int, default=DEFAULT_STARTS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tol", type=float, default=None, help="attaining tolerance")
    parser.add_argument("--samples", type=int, default=10_000)
    parser.add_argument("--pretty", action="store_true")
    parser.add_argument("--direction", default=None, help="direction tuple JSON (gateaux)")
    parser.add_argument("--against", default=None, help="tuple JSON to test orthogonality against")
    parser.add_argument("--subspace", default=None, help="basis JSON for subspace orthogonality")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        problem = parse(args.input, p_override=args.p)
        _emit(COMMANDS[args.command](problem, args), args.pretty)
    except MATH_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (JointRadiusError, OSError, json.JSONDecodeError, KeyError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

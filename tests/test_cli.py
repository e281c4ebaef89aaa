import itertools
import json
import math
import os
import re
import shlex

import numpy as np
import pytest

import jointradius.oracle
from jointradius import COMPLEX, REAL, TupleSubspace, gateaux_one_sided, orth_scalar, orth_subspace, radius
from jointradius import cli
from jointradius.cli import main
from jointradius.optuples import tuple_from_json
from conftest import near_duplicate_polygon

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROBLEMS = os.path.join(ROOT, "problems")
README = os.path.join(ROOT, "README.md")
LINF2 = {"field": "real", "dim": 2, "norm": {"kind": "lp", "r": "inf"}}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def prob(name):
    return os.path.join(PROBLEMS, name)


def write_problem(tmp_path, obj, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


class TestRadiusCommand:
    def test_exact_example(self, capsys):
        code, out, _ = run(capsys, "radius", prob("linf2_exact.json"))
        assert code == 0
        data = json.loads(out)
        assert data["value"] == 1.0
        assert data["method"] == "ExactEnumeration"
        assert data["exhaustive"] is True
        assert len(data["orbits"]) == 2

    def test_octahedron_is_l1(self, capsys, tmp_path):
        # the l_1(3) ball as a polyhedral descriptor gives the bytes of the same tuple on real l_1(3)
        with open(prob("octahedron_exact.json"), encoding="utf-8") as fh:
            obj = json.load(fh)
        obj["space"]["norm"] = {"kind": "lp", "r": 1}
        code, out, _ = run(capsys, "radius", prob("octahedron_exact.json"))
        assert (code, out) == run(capsys, "radius", write_problem(tmp_path, obj))[:2]
        assert code == 0
        data = json.loads(out)
        assert data["value"] == 3.0 and len(data["orbits"]) == 3

    def test_smooth_example(self, capsys):
        code, out, _ = run(capsys, "radius", prob("hilbert_smooth.json"), "--starts", "16")
        assert code == 0
        data = json.loads(out)
        assert data["value"] == pytest.approx(1.0, abs=1e-8)
        assert data["method"] == "MultiStart"

    def test_deterministic_bytes(self, capsys):
        args = ("radius", prob("hilbert_smooth.json"), "--starts", "12", "--seed", "3")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_pretty_is_same_data(self, capsys):
        _, compact, _ = run(capsys, "radius", prob("linf2_exact.json"))
        _, pretty, _ = run(capsys, "radius", prob("linf2_exact.json"), "--pretty")
        assert json.loads(compact) == json.loads(pretty)

    def test_p_override(self, capsys):
        code, out, _ = run(capsys, "radius", prob("linf2_exact.json"), "--p", "3")
        assert code == 0
        assert json.loads(out)["value"] == 1.0

    @pytest.mark.parametrize("r", ["inf", 2], ids=["exact", "smooth"])
    def test_loose_tol_reports_more_orbits(self, capsys, tmp_path, r):
        # the second orbit sits 1e-6 below the first, outside both defaults
        space = {"field": "real", "dim": 2, "norm": {"kind": "lp", "r": r}}
        tup = {"d": 1, "p": 2, "matrices": [[[1, 0], [0, -(1 - 1e-6)]]]}
        path = write_problem(tmp_path, {"space": space, "tuple": tup})
        counts = []
        for tol in ((), ("--tol", "1e-4")):
            code, out, _ = run(capsys, "radius", path, "--starts", "8", *tol)
            assert code == 0
            counts.append(len(json.loads(out)["orbits"]))
        assert counts[1] > counts[0]


def _tuple_at_p(path, section, field, p):
    """The tuple under `section` of a JSON file (the whole file when it has no such key), at exponent p."""
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    return tuple_from_json({**obj.get(section, obj), "p": p}, field=field)


class TestPOverride:
    """--p sets the exponent of every tuple a command reads, not only the problem's."""

    def test_gateaux_direction(self, capsys):
        code, out, err = run(
            capsys, "gateaux", prob("hilbert_smooth.json"), "--direction", prob("identity2.json"), "--starts", "8", "--p", "3"
        )
        assert code == 0, err
        space = cli.parse(prob("hilbert_smooth.json")).space
        T, S = (_tuple_at_p(prob(name), "tuple", COMPLEX, 3.0) for name in ("hilbert_smooth.json", "identity2.json"))
        rep = gateaux_one_sided(T, S, space, radius(T, space, starts=8))
        assert json.loads(out) == {
            "g_plus": rep.g_plus, "g_minus": rep.g_minus, "c_values": list(rep.c_values), "exhaustive": rep.exhaustive
        }

    def test_orth_against_tuple(self, capsys, monkeypatch):
        monkeypatch.chdir(ROOT)  # "against" references a repo-relative path
        code, out, err = run(capsys, "orth", prob("orth_case.json"), "--starts", "8", "--p", "3")
        assert code == 0, err
        space = cli.parse(prob("orth_case.json")).space
        T, S = (_tuple_at_p(prob(name), "tuple", COMPLEX, 3.0) for name in ("orth_case.json", "identity2.json"))
        res = orth_scalar(T, S, space, radius(T, space, starts=8))
        data = json.loads(out)
        assert (data["orthogonal"], data["approximate"]) == (res.orthogonal, res.approximate)
        assert data["certificate"]["residual"] == res.certificate.residual
        assert [(w["orbit_index"], w["t"]) for w in data["certificate"]["weights"]] == list(res.certificate.weights)

    def test_orth_subspace_basis(self, capsys, tmp_path):
        basis = [{"d": 1, "p": 2, "matrices": [[[0, 1], [0, 0]]]}, {"d": 1, "p": 2, "matrices": [[[0, 0], [1, 1]]]}]
        tup = {"d": 1, "p": 2, "matrices": [[[1, 0], [0, -1]]]}
        path = write_problem(tmp_path, {"space": LINF2, "tuple": tup, "subspace": basis})
        code, out, err = run(capsys, "orth", path, "--p", "3")
        assert code == 0, err
        space = cli.parse(path).space
        T = tuple_from_json({**tup, "p": 3}, field=REAL)
        V = TupleSubspace(tuple(tuple_from_json({**b, "p": 3}, field=REAL) for b in basis))
        res = orth_subspace(T, V, space, radius(T, space))
        data = json.loads(out)
        assert (data["orthogonal"], data["approximate"]) == (res.orthogonal, res.approximate)
        cert = data["certificate"]
        assert cert == (
            None
            if res.certificate is None
            else {
                "residual": res.certificate.residual,
                "weights": [{"orbit_index": j, "t": t} for j, t in res.certificate.weights],
            }
        )


class TestOtherCommands:
    def test_subdiff(self, capsys):
        code, out, _ = run(capsys, "subdiff", prob("linf2_exact.json"))
        assert code == 0
        gens = json.loads(out)["generators"]
        assert len(gens) == 2
        assert gens[0]["alpha"] == [1.0]

    def test_smooth_verdicts(self, capsys):
        code, out, _ = run(capsys, "smooth", prob("linf2_exact.json"))
        assert code == 0
        assert json.loads(out)["smooth"] == "NotSmooth"
        code, out, _ = run(capsys, "smooth", prob("hilbert_smooth.json"))
        assert code == 0
        data = json.loads(out)
        assert data["smooth"] == "Smooth"
        assert "derivative_basis" in data

    def test_gateaux_with_direction_flag(self, capsys, tmp_path):
        direction = write_problem(
            tmp_path, {"d": 1, "p": 2, "matrices": [[[1, 0], [0, 0]]]}, "dir.json"
        )
        code, out, _ = run(
            capsys, "gateaux", prob("linf2_exact.json"), "--direction", direction
        )
        assert code == 0
        data = json.loads(out)
        assert data["g_plus"] == pytest.approx(1.0, abs=1e-12)
        assert data["g_minus"] == pytest.approx(1.0, abs=1e-12)

    def test_orth_example(self, capsys, monkeypatch):
        monkeypatch.chdir(ROOT)  # "against" references a repo-relative path
        code, out, _ = run(capsys, "orth", prob("orth_case.json"))
        assert code == 0
        data = json.loads(out)
        assert data["orthogonal"] is True
        assert data["approximate"] is True
        assert sum(w["t"] for w in data["certificate"]["weights"]) == pytest.approx(1.0)

    def test_not_orth_example(self, capsys):
        # diag(1, 0) on complex l_2 has one orbit and f(I) = 1: not orthogonal to span{I}, exit 0
        code, out, err = run(capsys, "orth", prob("not_orth_case.json"), "--starts", "8")
        assert (code, err) == (0, "")
        assert json.loads(out) == {"approximate": True, "certificate": None, "orthogonal": False}

    def test_direction_flag_may_name_a_problem_file(self, capsys, tmp_path):
        direction = {"d": 1, "p": 2, "matrices": [[[1, 0], [0, 0]]]}
        outs = []
        for obj in (direction, {"space": LINF2, "direction": direction}):
            path = write_problem(tmp_path, obj, "dir.json")
            code, out, _ = run(capsys, "gateaux", prob("linf2_exact.json"), "--direction", path)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_subspace_section_shapes(self, capsys, tmp_path):
        basis = [
            {"d": 1, "p": 2, "matrices": [[[0, 1], [0, 0]]]},
            {"d": 1, "p": 2, "matrices": [[[0, 0], [1, 1]]]},
        ]
        base = {"space": LINF2, "tuple": {"d": 1, "p": 2, "matrices": [[[1, 0], [0, 0]]]}}
        listed = write_problem(tmp_path, basis, "list.json")
        wrapped = write_problem(tmp_path, {"basis": basis}, "wrapped.json")
        argvs = [
            (write_problem(tmp_path, {**base, "subspace": basis}, "inline_list.json"),),
            (write_problem(tmp_path, {**base, "subspace": {"basis": basis}}, "inline.json"),),
            (write_problem(tmp_path, {**base, "subspace": wrapped}, "by_path.json"),),
            (write_problem(tmp_path, base, "base.json"), "--subspace", listed),
            (write_problem(tmp_path, base, "base.json"), "--subspace", wrapped),
        ]
        outs = []
        for argv in argvs:
            code, out, err = run(capsys, "orth", *argv)
            assert code == 0, err
            outs.append(out)
        assert len(set(outs)) == 1

    def test_extremes(self, capsys):
        code, out, _ = run(capsys, "extremes", prob("linf2_exact.json"))
        assert code == 0
        data = json.loads(out)
        assert data["unbounded"] is False
        assert len(data["primal"]) == 4

    @pytest.mark.parametrize("r", [1, "inf"])
    def test_extremes_print_no_negative_zero(self, capsys, tmp_path, r):
        space = {"field": "real", "dim": 3, "norm": {"kind": "lp", "r": r}}
        tup = {"d": 1, "matrices": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]]}
        code, out, _ = run(capsys, "extremes", write_problem(tmp_path, {"space": space, "tuple": tup}))
        assert code == 0
        assert "-0.0" not in out

    def test_extremes_unbounded(self, capsys):
        code, out, _ = run(capsys, "extremes", prob("hilbert_smooth.json"))
        assert code == 0
        assert json.loads(out)["unbounded"] is True

    def test_verify(self, capsys):
        code, out, err = run(
            capsys, "verify", prob("linf2_exact.json"), "--samples", "2000"
        )
        assert code == 0
        data = json.loads(out)
        assert data["passed"] is True
        assert data["sampled_radius"] <= data["value"] + 1e-12
        assert "check" in err  # human-readable table on stderr

    def test_failed_audit_exits_3(self, capsys):
        # 4 starts on complex l_1e4 end below the sampled radius: the report is written, and the exit code says so
        code, out, err = run(capsys, "verify", prob("failed_audit.json"), "--starts", "4", "--samples", "2000")
        assert code == 3
        data = json.loads(out)
        assert data["passed"] is False and data["sampled_radius"] > data["value"]
        assert [c["name"] for c in data["checks"] if c["status"] != "pass"] == ["sampled_radius_dominated"]
        assert "error:" not in err and "sampled_radius_dominated" in err

    def test_verify_passes_starts_to_audit(self, capsys, monkeypatch):
        seen = []
        original = jointradius.oracle.radius

        def recording(*args, **kwargs):
            seen.append(kwargs.get("starts"))
            return original(*args, **kwargs)

        monkeypatch.setattr(jointradius.oracle, "radius", recording)
        code, _, _ = run(
            capsys, "verify", prob("linf2_exact.json"), "--samples", "200", "--starts", "3"
        )
        assert code == 0
        assert seen and set(seen) == {3}


    def test_verify_draws_the_sampled_radius_once(self, capsys, monkeypatch):
        drawn = []
        original = jointradius.oracle.sampled_radius

        def recording(*args, **kwargs):
            drawn.append((kwargs.get("samples"), original(*args, **kwargs)))
            return drawn[-1][1]

        monkeypatch.setattr(jointradius.oracle, "sampled_radius", recording)
        code, out, _ = run(capsys, "verify", prob("linf2_exact.json"), "--samples", "300")
        assert code == 0
        assert [samples for samples, _ in drawn] == [300]
        assert json.loads(out)["sampled_radius"] == drawn[0][1]


def _scaled_problem(tmp_path, c: float) -> str:
    """T = c ([[1, 2], [3, 4]], [[0, 1], [1, 0]]) at p = 80 on real l_inf."""
    A, B = [[1, 2], [3, 4]], [[0, 1], [1, 0]]
    tup = {"d": 2, "p": 80, "matrices": [[[c * v for v in row] for row in M] for M in (A, B)]}
    other = {"d": 2, "p": 80, "matrices": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]}
    obj = {"space": LINF2, "tuple": tup, "direction": other, "against": other}
    return write_problem(tmp_path, obj, f"scaled_{c:g}.json")


SCALES = [1e5, 1e-5, 1e150, 1e-150]


@pytest.mark.filterwarnings("error")  # a numpy overflow warning would be a second stderr line
class TestScale:
    @pytest.mark.parametrize("c", SCALES)
    def test_radius_and_smooth(self, capsys, tmp_path, c):
        path = _scaled_problem(tmp_path, c)
        code, out, err = run(capsys, "radius", path)
        assert code == 0 and err == ""
        data = json.loads(out)
        assert data["value"] == pytest.approx(7 * c, rel=1e-12)
        assert len(data["orbits"]) == 1 and not data["degenerate"]
        code, out, err = run(capsys, "smooth", path)
        assert code == 0 and err == ""
        assert json.loads(out)["smooth"] == "Smooth"

    @pytest.mark.parametrize("c", SCALES)
    @pytest.mark.parametrize("command", ["gateaux", "orth"])
    def test_gateaux_and_orth_are_scale_free(self, capsys, tmp_path, c, command):
        # the derivative toward a fixed S does not depend on the scale of T
        code, out, err = run(capsys, command, _scaled_problem(tmp_path, 1.0))
        assert code == 0 and err == ""
        unit = json.loads(out)
        code, out, err = run(capsys, command, _scaled_problem(tmp_path, c))
        assert code == 0 and err == ""
        data = json.loads(out)
        if command == "gateaux":
            assert data["g_plus"] == pytest.approx(unit["g_plus"], rel=1e-12)
            assert data["g_minus"] == pytest.approx(unit["g_minus"], rel=1e-12)
        else:
            assert data["orthogonal"] == unit["orthogonal"]

    @pytest.mark.parametrize("c", SCALES)
    def test_verify_passes(self, capsys, tmp_path, c):
        code, out, _ = run(capsys, "verify", _scaled_problem(tmp_path, c), "--samples", "500")
        assert code == 0
        data = json.loads(out)
        assert data["passed"]
        assert 0.9 * data["value"] <= data["sampled_radius"] <= data["value"]

    def test_huge_against_takes_the_verdict_of_the_scaled_tuple(self, capfd, tmp_path):
        # capfd, not capsys: LAPACK writes its errors to file descriptor 1
        code, out, err = run(capfd, "orth", prob("huge_against.json"))
        assert (code, err) == (0, "") and out.count("\n") == 1
        data = json.loads(out)
        with open(prob("huge_against.json"), encoding="utf-8") as fh:
            obj = json.load(fh)
        obj["against"]["matrices"] = [[[v * 2.0**-1000 for v in row] for row in M] for M in obj["against"]["matrices"]]
        code, out, err = run(capfd, "orth", write_problem(tmp_path, obj))
        assert (code, err) == (0, "")
        small = json.loads(out)
        assert data["orthogonal"] and small["orthogonal"]
        assert data["certificate"]["weights"] == small["certificate"]["weights"]

    def test_huge_subspace_basis(self, capfd, tmp_path):
        with open(prob("huge_against.json"), encoding="utf-8") as fh:
            obj = json.load(fh)
        S = obj.pop("against")
        obj["subspace"] = [S, {**S, "matrices": [np.transpose(M).tolist() for M in S["matrices"]]}]
        code, out, err = run(capfd, "orth", write_problem(tmp_path, obj))
        assert (code, err) == (0, "") and json.loads(out)["orthogonal"]

    def test_huge_direction_gateaux_is_one_error_line(self, capfd, tmp_path):
        # two of the four c-values are +-2e308: past the float range, so the output is refused
        with open(prob("huge_against.json"), encoding="utf-8") as fh:
            direction = json.load(fh)["against"]
        path = write_problem(tmp_path, direction, "direction.json")
        code, out, err = run(capfd, "gateaux", prob("huge_against.json"), "--direction", path)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.filterwarnings("error")  # a numpy overflow warning would be an extra stderr line
class TestLargeR:
    """|x_i|^r leaves the float range for r >= about 1e3 unless x is rescaled first."""

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("r", [1e3, 1e4])
    @pytest.mark.parametrize("command", ["radius", "smooth", "verify"])
    def test_exits_zero_without_warnings(self, capsys, tmp_path, command, r, field):
        space = {"field": field, "dim": 2, "norm": {"kind": "lp", "r": r}}
        tup = {"d": 2, "p": 3, "matrices": [[[1, 2], [3, 4]], [[0, 1], [1, 0]]]}
        path = write_problem(tmp_path, {"space": space, "tuple": tup})
        # verify's audit solves 20 more problems, so it gets fewer starts; at 2 starts some audits fail, and
        # verify then exits 3 with its report
        starts = "2" if command == "verify" else "8"
        code, out, err = run(capsys, command, path, "--starts", starts, "--samples", "2000")
        assert "Warning" not in err
        data = json.loads(out)
        assert code == (3 if command == "verify" and not data["passed"] else 0), err
        if command == "radius":
            assert math.isfinite(data["value"]) and len(data["orbits"]) == 1


def _malformed(space=None, norm=None, tuple_=None, **top):
    """The linf2_exact problem with some fields replaced."""
    tup = {"d": 1, "p": 2, "matrices": [[[1, 0], [0, 0]]], **(tuple_ or {})}
    sp = {**LINF2, "norm": {**LINF2["norm"], **(norm or {})}, **(space or {})}
    return {"space": sp, "tuple": tup, **top}


_OTHER_P = {"d": 1, "p": 3, "matrices": [[[1, 0], [0, 0]]]}
SQUARE = {"kind": "polyhedral", "dual_extremes": [[1, 0], [-1, 0], [0, 1], [0, -1]]}
MALFORMED = {
    "r-null": _malformed(norm={"r": None}),
    "p-null": _malformed(tuple_={"p": None}),
    "matrices-null": _malformed(tuple_={"matrices": None}),
    "entry-null": _malformed(tuple_={"matrices": [[[1, None], [0, 0]]]}),
    "tuple-list": _malformed(tuple=[1]),
    "primal-extremes-null": _malformed(space={"norm": {**SQUARE, "primal_extremes": None}}),
    "top-level-string": "space tuple",
    "dim-fraction": _malformed(space={"dim": 2.5}),
    "dim-bool": _malformed(space={"dim": True}),
    "d-fraction": _malformed(tuple_={"d": 1.5}),
    "d-bool": _malformed(tuple_={"d": True}),
}


@pytest.fixture
def no_solve(monkeypatch):
    """The calls to `cli.radius`, each of which fails the test."""
    calls = []

    def refuse(*args, **kwargs):
        calls.append(args)
        raise AssertionError("radius called before the second input was checked")

    monkeypatch.setattr(cli, "radius", refuse)
    return calls


class TestErrorPaths:
    @pytest.mark.parametrize("name", MALFORMED)
    def test_malformed_field_is_one_error_line(self, capsys, tmp_path, name):
        code, out, err = run(capsys, "radius", write_problem(tmp_path, MALFORMED[name]))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("subspace", [5, {"basis": 5}, {"tuples": []}])
    def test_malformed_subspace_is_one_error_line(self, capsys, tmp_path, no_solve, subspace):
        path = write_problem(tmp_path, _malformed(subspace=subspace))
        code, out, err = run(capsys, "orth", path)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert no_solve == []

    def test_number_out_of_range_is_one_error_line(self, capsys, tmp_path):
        # JSON 1e999 parses as inf, which is not an integer
        path = tmp_path / "huge_dim.json"
        path.write_text(
            '{"space": {"field": "real", "dim": 1e999, "norm": {"kind": "lp", "r": "inf"}},'
            ' "tuple": {"d": 1, "p": 2, "matrices": [[[1, 0], [0, 1]]]}}'
        )
        code, out, err = run(capsys, "radius", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_integer_past_the_float_range_is_one_error_line(self, capsys, tmp_path):
        # a JSON integer literal is exact; float() of it raises OverflowError
        path = write_problem(tmp_path, _malformed(tuple_={"p": 10**400}))
        code, out, err = run(capsys, "radius", path)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_missing_file(self, capsys):
        code, out, err = run(capsys, "radius", "/nonexistent/problem.json")
        assert code == 1
        assert out == ""
        assert "error" in err

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, _ = run(capsys, "radius", str(path))
        assert code == 1

    def test_missing_sections(self, capsys, tmp_path):
        path = write_problem(tmp_path, {"space": {"field": "real", "dim": 2, "norm": {"kind": "lp", "r": 2}}})
        code, _, _ = run(capsys, "radius", path)
        assert code == 1

    def test_p_one_rejected(self, capsys):
        code, _, _ = run(capsys, "radius", prob("linf2_exact.json"), "--p", "1")
        assert code == 1

    def test_complex_entry_in_real_space(self, capsys, tmp_path):
        path = write_problem(
            tmp_path,
            {
                "space": {"field": "real", "dim": 2, "norm": {"kind": "lp", "r": "inf"}},
                "tuple": {"d": 1, "p": 2, "matrices": [[[[1, 1], 0], [0, 1]]]},
            },
        )
        code, _, _ = run(capsys, "radius", path)
        assert code == 1

    def test_dimension_mismatch(self, capsys, tmp_path):
        path = write_problem(
            tmp_path,
            {
                "space": {"field": "real", "dim": 3, "norm": {"kind": "lp", "r": "inf"}},
                "tuple": {"d": 1, "p": 2, "matrices": [[[1, 0], [0, 0]]]},
            },
        )
        code, _, _ = run(capsys, "radius", path)
        assert code == 1

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_matrix_entry(self, capsys, tmp_path, bad):
        tup = {"d": 1, "p": 2, "matrices": [[[1, bad], [0, 0]]]}
        path = write_problem(tmp_path, {"space": LINF2, "tuple": tup})
        code, out, err = run(capsys, "smooth", path)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_polyhedral_extreme(self, capsys, tmp_path, bad):
        square = [[1, 1], [1, -1], [-1, 1], [-1, -1]]
        cross = [[1, 0], [-1, 0], [0, 1], [0, -1]]
        norm = {"kind": "polyhedral", "primal_extremes": square + [[bad, 0], [-bad, 0]], "dual_extremes": cross}
        tup = {"d": 1, "p": 2, "matrices": [[[1, 0], [0, 0]]]}
        path = write_problem(tmp_path, {"space": {"field": "real", "dim": 2, "norm": norm}, "tuple": tup})
        code, out, err = run(capsys, "radius", path)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_near_duplicate_polyhedral_extremes(self, capsys, tmp_path):
        prim, dual = near_duplicate_polygon()
        norm = {"kind": "polyhedral", "primal_extremes": prim, "dual_extremes": dual}
        space = {"field": "real", "dim": 2, "norm": norm}
        path = write_problem(tmp_path, {"space": space, "tuple": {"matrices": [[[1, 0], [0, 1]]]}})
        code, out, err = run(capsys, "radius", path)
        assert code == 1
        assert out == ""
        assert err.startswith("error: two primal extremes") and err.count("\n") == 1

    @pytest.mark.parametrize("k", [4, 6], ids=["units", "hexagon"])
    def test_polyhedral_extremes_that_are_not_vertices(self, capsys, tmp_path, k):
        # on the units as P = D the radius of [[0.5, 1], [1, 0]] would read 0.5; on l_inf it is 1.5
        ring = [[math.cos(2 * math.pi * j / k), math.sin(2 * math.pi * j / k)] for j in range(k)]
        norm = {"kind": "polyhedral", "primal_extremes": ring, "dual_extremes": ring}
        space = {"field": "real", "dim": 2, "norm": norm}
        path = write_problem(tmp_path, {"space": space, "tuple": {"matrices": [[[0.5, 1], [1, 0]]]}})
        code, out, err = run(capsys, "radius", path)
        assert code == 1
        assert out == ""
        assert err.startswith("error: primal extreme") and "not a vertex" in err and err.count("\n") == 1

    def test_extremes_over_the_entry_budget(self, capsys, tmp_path):
        space = {"field": "real", "dim": 19, "norm": {"kind": "lp", "r": "inf"}}
        path = write_problem(tmp_path, {"space": space, "tuple": {"matrices": [[[0] * 19] * 19]}})
        code, out, err = run(capsys, "extremes", path)
        assert code == 1
        assert out == ""
        assert "budget" in err and err.startswith("error:") and err.count("\n") == 1

    def test_non_finite_output_is_one_error_line(self, capsys, monkeypatch):
        monkeypatch.setitem(cli.COMMANDS, "radius", lambda problem, args, rr, aux: {"value": math.inf})
        code, out, err = run(capsys, "radius", prob("linf2_exact.json"))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("tol", ["-1", "1", "2", "nan"])
    @pytest.mark.parametrize(
        "command, name", [("radius", "linf2_exact.json"), ("smooth", "hilbert_smooth.json")]
    )
    def test_attaining_tolerance_outside_unit_interval(self, capsys, command, name, tol):
        code, out, err = run(capsys, command, prob(name), "--starts", "4", "--tol", tol)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("flags", [("--starts", "0"), ("--starts", "-3"), ("--seed", "-1")])
    @pytest.mark.parametrize(
        "command, name",
        [("radius", "linf2_exact.json"), ("verify", "linf2_exact.json"), ("radius", "hilbert_smooth.json")],
    )
    def test_bad_starts_or_seed(self, capsys, command, name, flags):
        code, out, err = run(capsys, command, prob(name), *flags)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("frob", prob("linf2_exact.json")),
            ("radius",),
            ("radius", prob("linf2_exact.json"), "--starts", "abc"),
            ("radius", prob("linf2_exact.json"), "--tol", "x"),
            ("radius", prob("linf2_exact.json"), "--bogus"),
        ],
        ids=["unknown-command", "missing-input", "starts-abc", "tol-x", "unknown-flag"],
    )
    def test_usage_error_is_one_error_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_direction_with_another_p(self, capsys, tmp_path, no_solve):
        direction = write_problem(tmp_path, _OTHER_P, "dir.json")
        code, out, err = run(capsys, "gateaux", prob("linf2_exact.json"), "--direction", direction)
        assert code == 1
        assert out == ""
        assert err.startswith("error: tuples do not share") and err.count("\n") == 1
        assert no_solve == []

    def test_gateaux_without_direction(self, capsys, no_solve):
        code, out, err = run(capsys, "gateaux", prob("linf2_exact.json"))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert no_solve == []

    def test_truncated_octahedron_is_one_error_line(self, capsys, tmp_path):
        # the l_1 ball's dual list without +-(1, ..., 1): radii of ones(dim, dim) on it would read 1.0
        # in dim 3 and 2.0 in dim 4, where l_1(dim) gives dim
        for dim in (3, 4):
            units = [[sign * (i == j) for j in range(dim)] for i in range(dim) for sign in (1, -1)]
            signs = [list(s) for s in itertools.product([1, -1], repeat=dim) if abs(sum(s)) < dim]
            norm = {"kind": "polyhedral", "primal_extremes": units, "dual_extremes": signs}
            obj = {"space": {"field": "real", "dim": dim, "norm": norm}, "tuple": {"matrices": [[[1] * dim] * dim]}}
            code, out, err = run(capsys, "radius", write_problem(tmp_path, obj))
            assert code == 1
            assert out == ""
            assert err.startswith("error: ") and "has an edge to no other listed extreme" in err
            assert err.count("\n") == 1

    def test_zero_radius_exit_two(self, capsys, tmp_path):
        path = write_problem(
            tmp_path,
            {
                "space": {"field": "real", "dim": 2, "norm": {"kind": "lp", "r": 2}},
                "tuple": {"d": 1, "p": 2, "matrices": [[[0, 1], [-1, 0]]]},
            },
        )
        code, _, err = run(capsys, "subdiff", path)
        assert code == 2
        assert "error" in err

    def test_dependent_direction_exit_two(self, capsys, tmp_path):
        direction = write_problem(
            tmp_path, {"d": 1, "p": 2, "matrices": [[[1, 0], [0, 0]]]}, "self.json"
        )
        code, _, _ = run(
            capsys, "orth", prob("linf2_exact.json"), "--against", direction
        )
        assert code == 2


# orth's second input, each fault read before the solve; "missing.json" is relative to an empty directory
ORTH_INPUT_FAULTS = {
    "missing-against": (_malformed(), "--against", "missing.json"),
    "subspace-other-p": (_malformed(subspace=[_OTHER_P]),),
    "against-nan": (_malformed(against={"d": 1, "p": 2, "matrices": [[[1, math.nan], [0, 0]]]}),),
}


class TestSecondInputBeforeSolve:
    """orth's second input is read and checked before the solve, and each command solves at most once."""

    @pytest.mark.parametrize("name", ORTH_INPUT_FAULTS)
    def test_orth_fault_is_one_error_line_without_a_solve(self, capsys, tmp_path, monkeypatch, no_solve, name):
        obj, *flags = ORTH_INPUT_FAULTS[name]
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "orth", write_problem(tmp_path, obj), *flags)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert no_solve == []

    def test_empty_basis_is_reported_before_the_tolerance(self, capsys, tmp_path):
        # two faults: the empty subspace (exit 2) is read before `radius` refuses --tol 2 (exit 1)
        code, out, err = run(capsys, "orth", write_problem(tmp_path, _malformed(subspace=[])), "--tol", "2")
        assert code == 2
        assert out == ""
        assert err.startswith("error: subspace needs") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "flag, what", [("--against", "the against tuple's scaling family"), ("--subspace", "the subspace basis")]
    )
    def test_dependent_direction_is_refused_without_a_solve(self, capsys, tmp_path, no_solve, flag, what):
        # the problem's own tuple spans T; with --tol 2 as well, the dependence is still the fault reported
        with open(prob("hilbert_smooth.json"), encoding="utf-8") as fh:
            tup = json.load(fh)["tuple"]
        path = write_problem(tmp_path, tup if flag == "--against" else [tup], "direction.json")
        for extra in ([], ["--tol", "2"]):
            code, out, err = run(capsys, "orth", prob("hilbert_smooth.json"), flag, path, "--starts", "2000", *extra)
            assert code == 2
            assert out == ""
            assert err == f"error: T lies in the span of {what}\n"
        assert no_solve == []

    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_one_solve_per_command(self, capsys, monkeypatch, command):
        calls = []
        original = cli.radius

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, "radius", counting)
        monkeypatch.chdir(ROOT)  # the README's paths are repo-relative
        for argv in _readme_commands()[command]:
            calls.clear()
            code, _, err = run(capsys, *argv)
            assert code == 0, err
            assert len(calls) == (0 if command == "extremes" else 1)


def _readme_commands() -> dict:
    """argv of every `jointradius ...` line in the README's command block, listed by command."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [ln for ln in block.splitlines() if ln.startswith("jointradius ")]
    out = {}
    for argv in (shlex.split(ln, comments=True)[1:] for ln in lines):
        out.setdefault(argv[0], []).append(argv)
    return out


class TestReadme:
    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_command_block_runs(self, capsys, monkeypatch, command):
        monkeypatch.chdir(ROOT)  # the README's paths are repo-relative
        for argv in _readme_commands()[command]:
            code, _, err = run(capsys, *argv)
            assert code == 0, err

    def test_quick_tour_runs(self, capsys):
        with open(README, encoding="utf-8") as fh:
            text = fh.read()
        block = text.split("## Library quick tour", 1)[1].split("```python", 1)[1].split("```", 1)[0]
        exec(compile(block, README, "exec"), {})
        assert capsys.readouterr().out == "1.0 1.0 -1.0 NotSmooth True\n"

    def test_polyhedral_schema_keys(self, capsys, tmp_path):
        with open(README, encoding="utf-8") as fh:
            line = next(ln for ln in fh if '"kind": "polyhedral"' in ln)
        primal_key, dual_key = re.findall(r'"(\w+)": \[', line)
        square = [[1, 1], [1, -1], [-1, 1], [-1, -1]]
        cross = [[1, 0], [-1, 0], [0, 1], [0, -1]]
        norm = {"kind": "polyhedral", primal_key: square, dual_key: cross}
        space = {"field": "real", "dim": 2, "norm": norm}
        tup = {"d": 1, "p": 2, "matrices": [[[1, 0], [0, 0]]]}
        code, out, err = run(capsys, "radius", write_problem(tmp_path, {"space": space, "tuple": tup}))
        assert code == 0, err
        assert json.loads(out)["value"] == 1.0

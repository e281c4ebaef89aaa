import json
import math
import os
import re
import shlex

import pytest

import jointradius.oracle
from jointradius import cli
from jointradius.cli import main
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
        # verify's audit solves 20 more problems, so it gets fewer starts
        starts = "2" if command == "verify" else "8"
        code, out, err = run(capsys, command, path, "--starts", starts, "--samples", "2000")
        assert code == 0, err
        assert "Warning" not in err
        data = json.loads(out)
        if command == "radius":
            assert math.isfinite(data["value"]) and len(data["orbits"]) == 1


def _malformed(space=None, norm=None, tuple_=None, **top):
    """The linf2_exact problem with some fields replaced."""
    tup = {"d": 1, "p": 2, "matrices": [[[1, 0], [0, 0]]], **(tuple_ or {})}
    sp = {**LINF2, "norm": {**LINF2["norm"], **(norm or {})}, **(space or {})}
    return {"space": sp, "tuple": tup, **top}


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


class TestErrorPaths:
    @pytest.mark.parametrize("name", MALFORMED)
    def test_malformed_field_is_one_error_line(self, capsys, tmp_path, name):
        code, out, err = run(capsys, "radius", write_problem(tmp_path, MALFORMED[name]))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("subspace", [5, {"basis": 5}, {"tuples": []}])
    def test_malformed_subspace_is_one_error_line(self, capsys, tmp_path, subspace):
        path = write_problem(tmp_path, _malformed(subspace=subspace))
        code, out, err = run(capsys, "orth", path)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

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
        monkeypatch.setitem(cli.COMMANDS, "radius", lambda problem, args: {"value": math.inf})
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

    def test_direction_with_another_p(self, capsys, tmp_path):
        direction = write_problem(tmp_path, {"d": 1, "p": 3, "matrices": [[[1, 0], [0, 0]]]}, "dir.json")
        code, out, err = run(capsys, "gateaux", prob("linf2_exact.json"), "--direction", direction)
        assert code == 1
        assert out == ""
        assert err.startswith("error: tuples do not share") and err.count("\n") == 1

    def test_gateaux_without_direction(self, capsys):
        code, _, _ = run(capsys, "gateaux", prob("linf2_exact.json"))
        assert code == 1

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


def _readme_commands() -> dict:
    """argv of each `jointradius ...` line in the README's command block, by command."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [ln for ln in block.splitlines() if ln.startswith("jointradius ")]
    return {argv[0]: argv for argv in (shlex.split(ln, comments=True)[1:] for ln in lines)}


class TestReadme:
    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_command_block_runs(self, capsys, monkeypatch, command):
        monkeypatch.chdir(ROOT)  # the README's paths are repo-relative
        code, _, err = run(capsys, *_readme_commands()[command])
        assert code == 0, err

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

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from leaftype.cli import EXIT_INTERNAL, main
from leaftype.gluing import InternalConsistencyError
from leaftype.targets import MoebiusElement

HOMOGENEOUS_CASE1 = {
    "kind": "homogeneous",
    "symbols": ["t"],
    "exponents": [
        "t",
        "1",
        {"real": {"t": "-1"}},
    ],
}

REPRESENTATION_Z = {
    "kind": "representation",
    "target": "circle",
    "genus": 0,
    "punctures": 2,
    "symbols": ["t"],
    "images": {"c1": "t"},
}

# two independent symbols; classify confirms a witness (loch_ness_monster)
CIRCLE_TWO_SYMBOLS = {
    "kind": "representation",
    "target": "circle",
    "genus": 0,
    "punctures": 4,
    "symbols": ["t", "u"],
    "images": {"c1": "t", "c2": "u", "c3": {"real": {"t": "-1"}}},
}

RICCATI_LADDER = {
    "kind": "riccati",
    "genus": 2,
    "punctures": 0,
    "images": {
        "a1": [["1", "1"], ["0", "1"]],
        "a2": [["1", "0"], ["0", "1"]],
        "b1": [["1", "0"], ["0", "1"]],
        "b2": [["1", "0"], ["0", "1"]],
    },
}

# the certified ping-pong pair a1 -> [[1, 2+i], [0, 1]], a2 -> [[1, 0], [2+i, 1]]
GENUS2_PING_PONG = {
    "kind": "riccati",
    "genus": 2,
    "punctures": 0,
    "images": {
        "a1": [["1", {"re": "2", "im": "1"}], ["0", "1"]],
        "a2": [["1", "0"], [{"re": "2", "im": "1"}, "1"]],
        "b1": [["1", "0"], ["0", "1"]],
        "b2": [["1", "0"], ["0", "1"]],
    },
}

TWO_COMPONENT_LOG = {
    "kind": "logarithmic",
    "mode": "proportional",
    "components": [
        {"degree": 1, "coeff": {"re": "1"}},
        {"degree": 1, "coeff": {"re": "-1"}},
    ],
}

RESIDUES_235_LOG = {
    "kind": "logarithmic",
    "mode": "proportional",
    "component": 1,
    "components": [
        {"degree": 1, "coeff": {"re": "2"}},
        {"degree": 1, "coeff": {"re": "3"}},
        {"degree": 1, "coeff": {"re": "-5"}},
    ],
}

GENERIC_THREE_LINES = [
    {"degree": 1, "coeff": {"re": "1"}},
    {"degree": 1, "coeff": {"im": "1"}},
    {"degree": 1, "coeff": {"re": "-1", "im": "-1"}},
]

# explicit ratios naming a component 5 or 0 of a three-line divisor
OUT_OF_RANGE_RATIO_LOG = {
    "kind": "logarithmic",
    "mode": "explicit_ratios",
    "components": [{"degree": 1}] * 3,
    "ratios": {"1": {"2": "1/2", "5": "1"}},
}
ZERO_RATIO_INDEX_LOG = {
    "kind": "logarithmic",
    "mode": "explicit_ratios",
    "components": [{"degree": 1}] * 3,
    "ratios": {"1": {"0": "-1/2", "2": "-1/2"}},
}

# generic lines whose first two meet in -1 points
NEGATIVE_CROSSINGS_LOG = {
    "kind": "logarithmic",
    "components": GENERIC_THREE_LINES,
    "crossings": {"1": {"2": -1}},
}

NON_BEZOUT_CROSSINGS_LOG = {
    "kind": "logarithmic",
    "components": GENERIC_THREE_LINES,
    "crossings": {"1": {"2": 3}},
}

UNRECOGNIZED_MOEBIUS = {
    "kind": "representation",
    "target": "moebius",
    "genus": 0,
    "punctures": 3,
    "images": {
        "c1": [["1", "1"], ["0", "1"]],
        "c2": [["2", "0"], ["0", "1"]],
    },
}


# 17 invariant lines: a sphere with 17 punctures
HOMOGENEOUS_17_LINES = {
    "kind": "homogeneous",
    "symbols": ["t"],
    "exponents": ["t"] + ["1/3"] * 15 + [{"real": {"const": "-5", "t": "-1"}}],
}

# closed genus 6, one translation a1 -> z + 2 + i and every other image trivial
RICCATI_GENUS6_LADDER = {
    "kind": "riccati",
    "genus": 6,
    "punctures": 0,
    "images": {"%s%d" % (x, i): [["1", "0"], ["0", "1"]] for x in "ab" for i in range(1, 7)},
}
RICCATI_GENUS6_LADDER["images"]["a1"] = [["1", {"re": "2", "im": "1"}], ["0", "1"]]


def write_config(tmp_path: Path, payload: dict, name: str = "cfg.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassifyCommand:
    def test_homogeneous_case1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, HOMOGENEOUS_CASE1)
        code, out, _ = run_cli(
            ["classify", "--config", str(cfg), "--out", str(tmp_path)], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["label"]["label"] == "plane_minus_discrete"
        assert (tmp_path / "verdict.json").read_text(encoding="utf-8") == out

    def test_two_component_log_is_invalid(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TWO_COMPONENT_LOG)
        code, _, err = run_cli(
            ["classify", "--config", str(cfg), "--out", str(tmp_path)], capsys
        )
        assert code == 1
        assert "negative real" in err

    def test_inconclusive_moebius_exit_three(self, tmp_path, capsys):
        cfg = write_config(tmp_path, UNRECOGNIZED_MOEBIUS)
        code, out, _ = run_cli(
            ["classify", "--config", str(cfg), "--out", str(tmp_path)], capsys
        )
        assert code == 3
        payload = json.loads(out)
        assert payload["label"] is None
        assert payload["ends_report"]["deck_is_finite"] is False

    def test_riccati_jacobs_ladder(self, tmp_path, capsys):
        cfg = write_config(tmp_path, RICCATI_LADDER)
        code, out, _ = run_cli(
            ["classify", "--config", str(cfg), "--out", str(tmp_path)], capsys
        )
        assert code == 0
        assert json.loads(out)["label"]["label"] == "jacobs_ladder"

    def test_malformed_json_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "homogeneous",\n  "exponents": [,]}', encoding="utf-8")
        code, _, err = run_cli(
            ["classify", "--config", str(bad), "--out", str(tmp_path)], capsys
        )
        assert code == 1
        assert "line 2" in err and "column" in err

    def test_missing_config(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["classify", "--config", str(tmp_path / "none.json")], capsys
        )
        assert code == 1

    def test_logarithmic_four_lines(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "kind": "logarithmic",
                "mode": "proportional",
                "components": [
                    {"degree": 1, "coeff": {"re": "1"}},
                    {"degree": 1, "coeff": {"im": "1"}},
                    {"degree": 1, "coeff": {"im": "2"}},
                    {"degree": 1, "coeff": {"re": "-1", "im": "-3"}},
                ],
            },
        )
        code, out, _ = run_cli(
            ["classify", "--config", str(cfg), "--out", str(tmp_path)], capsys
        )
        assert code == 0
        assert json.loads(out)["label"]["label"] == "loch_ness_monster"

    @pytest.mark.parametrize("d", [8, 14, 20, 40])
    def test_logarithmic_high_degree_shape(self, tmp_path, capsys, d):
        # three degree-d curves: the component has genus (d-1)(d-2)/2 and 2d^2
        # punctures, so template set-up must stay linear in the presentation
        residues = [{"re": "1/%d" % d}, {"im": "1/%d" % d}, {"re": "-1/%d" % d, "im": "-1/%d" % d}]
        config = {"kind": "logarithmic", "components": [{"degree": d, "coeff": r} for r in residues]}
        cfg = write_config(tmp_path, config)
        code, out, _ = run_cli(["classify", "--config", str(cfg), "--out", str(tmp_path)], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["label"]["label"] == "loch_ness_monster"
        assert payload["computational_evidence"]["handle_witness"]["status"] == "confirmed"
        assert hashlib.sha256((tmp_path / "verdict.json").read_bytes()).hexdigest() == (
            "e511cf90b7cdcef3bd7d780ff3f6112ec311a279b04159a2cfa9bd60eddbaf3d"
        )

    def test_large_cyclic_deck_in_closed_form(self, tmp_path, capsys):
        config = {
            "kind": "homogeneous",
            "exponents": ["1/1000003", "1/999983", "-1999986/999985999949"],
        }
        cfg = write_config(tmp_path, config)
        code, out, _ = run_cli(
            ["classify", "--config", str(cfg), "--out", str(tmp_path)], capsys
        )
        assert code == 0
        verdict = json.loads(out)
        assert verdict["label"] == {
            "label": "finite_cover", "genus": 499991999982, "punctures": 1999987,
        }
        assert verdict["ends_report"]["deck_order"] == 999985999949


class TestPaperScaleConfigs:
    """Configs whose unreduced loop paths grow as 3^n; each must exit 0."""

    @pytest.mark.parametrize(
        "config,label",
        [
            (HOMOGENEOUS_17_LINES, "lnm_minus_discrete"),
            (RICCATI_GENUS6_LADDER, "jacobs_ladder"),
        ],
        ids=["homogeneous-17-lines", "riccati-genus-6-ladder"],
    )
    def test_classifies(self, tmp_path, capsys, config, label):
        cfg = write_config(tmp_path, config)
        code, out, err = run_cli(
            ["classify", "--config", str(cfg), "--out", str(tmp_path)], capsys
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["label"]["label"] == label


class TestOutOfMemory:
    @pytest.mark.parametrize(
        "command,stage",
        [("classify", "classify_homogeneous"), ("ball", "build_ball"), ("surface", "genus_growth")],
    )
    def test_one_line_and_exit_two(self, tmp_path, capsys, monkeypatch, command, stage):
        def exhausted(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr("leaftype.cli.%s" % stage, exhausted)
        cfg = write_config(tmp_path, HOMOGENEOUS_CASE1)
        code, out, err = run_cli(
            [command, "--config", str(cfg), "--radius", "2", "--out", str(tmp_path)], capsys
        )
        assert code == 2
        assert not out
        assert err.startswith("out of memory: ")
        assert err.count("\n") == 1 and "Traceback" not in err


class TestInternalError:
    @pytest.mark.parametrize(
        "command,stage",
        [("classify", "classify_homogeneous"), ("ball", "build_ball"), ("surface", "genus_growth")],
    )
    def test_one_line_and_exit_four(self, tmp_path, capsys, monkeypatch, command, stage):
        def contradiction(*args, **kwargs):
            raise InternalConsistencyError("vertex count mismatch")

        monkeypatch.setattr("leaftype.cli.%s" % stage, contradiction)
        cfg = write_config(tmp_path, HOMOGENEOUS_CASE1)
        code, out, err = run_cli(
            [command, "--config", str(cfg), "--radius", "2", "--out", str(tmp_path)], capsys
        )
        assert code == EXIT_INTERNAL == 4
        assert not out
        assert err == "internal error: vertex count mismatch\n"

    def test_label_outside_the_five_types(self, tmp_path, capsys, monkeypatch):
        from leaftype import foliations
        from leaftype.classify import JACOBS_LADDER, SurfaceTypeLabel

        classify_cover = foliations.classify_cover

        def relabelled(*args, **kwargs):
            report, _ = classify_cover(*args, **kwargs)
            return report, SurfaceTypeLabel(JACOBS_LADDER)

        monkeypatch.setattr(foliations, "classify_cover", relabelled)
        cfg = write_config(tmp_path, HOMOGENEOUS_CASE1)
        code, out, err = run_cli(["classify", "--config", str(cfg), "--out", str(tmp_path)], capsys)
        assert code == 4
        assert not out
        assert err.startswith("internal error: abelian punctured-sphere cover produced jacobs_ladder")
        assert err.count("\n") == 1 and "Traceback" not in err


class TestBallCommand:
    def test_trivial_rep_single_vertex(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "kind": "representation",
                "target": "circle",
                "genus": 0,
                "punctures": 3,
                "images": {},
            },
        )
        code, out, _ = run_cli(
            ["ball", "--config", str(cfg), "--radius", "5", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        dot = (tmp_path / "ball.dot").read_text(encoding="utf-8")
        assert dot.count("// ") == 1

    def test_z_path(self, tmp_path, capsys):
        cfg = write_config(tmp_path, REPRESENTATION_Z)
        code, out, _ = run_cli(
            ["ball", "--config", str(cfg), "--radius", "2", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        data = json.loads((tmp_path / "ball.json").read_text(encoding="utf-8"))
        assert len(data["vertices"]) == 5
        assert len(data["edges"]) == 4

    def test_budget_exit(self, tmp_path, capsys):
        cfg = write_config(tmp_path, REPRESENTATION_Z)
        code, _, err = run_cli(
            [
                "ball",
                "--config",
                str(cfg),
                "--radius",
                "6",
                "--budget",
                "3",
                "--out",
                str(tmp_path),
            ],
            capsys,
        )
        assert code == 2
        assert "budget" in err

    def test_budget_bounds_permutation_deck_enumeration(self, tmp_path, capsys):
        # a transposition and a 4-cycle generate S4, 24 elements
        cfg = write_config(
            tmp_path,
            {"kind": "representation", "target": "permutation", "genus": 0,
             "punctures": 3, "images": {"c1": [1, 0, 2, 3], "c2": [1, 2, 3, 0]}},
        )
        argv = ["classify", "--config", str(cfg), "--out", str(tmp_path)]
        code, _, err = run_cli(argv + ["--budget", "10"], capsys)
        assert code == 2
        assert err.count("\n") == 1
        assert "permutation deck enumeration" in err
        code, _, _ = run_cli(argv + ["--budget", "24"], capsys)
        assert code == 0

    def test_logarithmic_component_ball(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "kind": "logarithmic",
                "mode": "proportional",
                "component": 1,
                "components": [
                    {"degree": 1, "coeff": {"re": "2"}},
                    {"degree": 1, "coeff": {"re": "3"}},
                    {"degree": 1, "coeff": {"re": "-5"}},
                ],
            },
        )
        code, out, _ = run_cli(
            ["ball", "--config", str(cfg), "--radius", "4", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        data = json.loads((tmp_path / "ball.json").read_text(encoding="utf-8"))
        assert len(data["vertices"]) == 2  # order-two deck group saturates


class TestSurfaceCommand:
    def test_trivial_genus2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "kind": "representation",
                "target": "circle",
                "genus": 2,
                "punctures": 0,
                "images": {},
            },
        )
        code, out, _ = run_cli(
            ["surface", "--config", str(cfg), "--radius", "1", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert rows[0]["chi"] == -2
        assert rows[0]["genus"] == 2
        assert rows[0]["boundary_components"] == 0

    def test_torsion_growth_table(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "kind": "homogeneous",
                "symbols": ["t"],
                "exponents": ["t", "1/2", {"real": {"const": "1/2", "t": "-1"}}],
            },
        )
        # homogeneous configs feed the surface command through the same rep
        cfg2 = write_config(
            tmp_path,
            {
                "kind": "representation",
                "target": "circle",
                "genus": 0,
                "punctures": 3,
                "symbols": ["t"],
                "images": {"c1": "t", "c2": "1/2"},
            },
            name="rep.json",
        )
        code, out, _ = run_cli(
            ["surface", "--config", str(cfg2), "--radius", "2,4", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert rows[0]["genus"] < rows[1]["genus"]

    def test_invalid_radius_schedule(self, tmp_path, capsys):
        cfg = write_config(tmp_path, REPRESENTATION_Z)
        code, _, err = run_cli(
            ["surface", "--config", str(cfg), "--radius", "4,2", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 1


class TestGenericityOnlyForClassify:
    def test_classify_refuses_negative_real_ratio(self, tmp_path, capsys):
        cfg = write_config(tmp_path, RESIDUES_235_LOG)
        code, out, err = run_cli(
            ["classify", "--config", str(cfg), "--out", str(tmp_path)], capsys
        )
        assert code == 1
        assert "negative real" in err
        assert not out and not (tmp_path / "verdict.json").exists()

    def test_surface_accepts_negative_real_ratio(self, tmp_path, capsys):
        cfg = write_config(tmp_path, RESIDUES_235_LOG)
        code, out, _ = run_cli(
            ["surface", "--config", str(cfg), "--radius", "4", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        row = json.loads(out)["rows"][0]
        # the order-two cover of a twice-punctured line is a cylinder
        assert (row["genus"], row["boundary_components"]) == (0, 2)

    @pytest.mark.parametrize("command", ["ball", "surface"])
    @pytest.mark.parametrize(
        "config,message",
        [
            (
                {"kind": "logarithmic", "components": GENERIC_THREE_LINES[:2]
                 + [{"degree": 1, "coeff": {"re": "-1"}}]},
                "residue relation",
            ),
            (
                {"kind": "logarithmic", "components": GENERIC_THREE_LINES,
                 "normal_crossing": False},
                "normal-crossing",
            ),
            (OUT_OF_RANGE_RATIO_LOG, "ratio indices outside 1..3"),
            (ZERO_RATIO_INDEX_LOG, "ratio indices outside 1..3"),
            (NEGATIVE_CROSSINGS_LOG, "crossing counts must be non-negative"),
            (NON_BEZOUT_CROSSINGS_LOG, "must be the Bezout number 1, not 3"),
        ],
    )
    def test_malformed_logarithmic_config_one_line(
        self, tmp_path, capsys, command, config, message
    ):
        cfg = write_config(tmp_path, config)
        code, out, err = run_cli(
            [command, "--config", str(cfg), "--radius", "4", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 1
        assert not out
        assert message in err and err.count("\n") == 1

    def test_classify_rejects_non_bezout_crossings(self, tmp_path, capsys):
        cfg = write_config(tmp_path, NON_BEZOUT_CROSSINGS_LOG)
        code, out, err = run_cli(
            ["classify", "--config", str(cfg), "--out", str(tmp_path)], capsys
        )
        assert code == 1
        assert not out and not (tmp_path / "verdict.json").exists()
        assert err == (
            "invalid foliation spec: crossing count of D_1 and D_2 must be the "
            "Bezout number 1, not 3\n"
        )

    @pytest.mark.parametrize(
        "config,index", [(OUT_OF_RANGE_RATIO_LOG, "5"), (ZERO_RATIO_INDEX_LOG, "0")]
    )
    def test_classify_rejects_ratio_index_outside_components(
        self, tmp_path, capsys, config, index
    ):
        cfg = write_config(tmp_path, config)
        code, out, err = run_cli(
            ["classify", "--config", str(cfg), "--out", str(tmp_path)], capsys
        )
        assert code == 1
        assert not out and not (tmp_path / "verdict.json").exists()
        assert err == "invalid foliation spec: ratio indices outside 1..3: %s\n" % index


class TestMalformedConfigs:
    @pytest.mark.parametrize("command", ["classify", "ball", "surface"])
    @pytest.mark.parametrize(
        "config,message",
        [
            ([HOMOGENEOUS_CASE1], "JSON object"),
            (
                {"kind": "representation", "target": "permutation", "genus": 0,
                 "punctures": 3, "images": {"c1": [1, 0], "c2": [0, 2, 1]}},
                "different degrees",
            ),
            ({"kind": "homogeneous", "exponents": ["1/0", "1"]}, "zero denominator"),
            (dict(REPRESENTATION_Z, images=[]), "images must be a JSON object"),
            (dict(OUT_OF_RANGE_RATIO_LOG, ratios=[1]), "ratios must be a JSON object"),
            (
                dict(OUT_OF_RANGE_RATIO_LOG, ratios={"1": [1]}),
                "ratios row 1 must be a JSON object",
            ),
            (
                {"kind": "logarithmic", "components": GENERIC_THREE_LINES,
                 "crossings": {"1": [1]}},
                "crossings row 1 must be a JSON object",
            ),
            # "x+1*y" would print like x + y, so c1 and c2 would share one key
            (
                dict(CIRCLE_TWO_SYMBOLS, symbols=["x", "y", "x+1*y"],
                     images={"c1": {"real": {"x": "1", "y": "1"}}, "c2": "x+1*y"}),
                "symbol name 'x+1*y' is not an identifier",
            ),
            (
                {"kind": "homogeneous", "symbols": ["1/2"], "exponents": ["1/2", "1/2"]},
                "symbol name '1/2' is not an identifier",
            ),
            (
                {"kind": "logarithmic", "components": GENERIC_THREE_LINES, "symbols": ["s-1"]},
                "symbol name 's-1' is not an identifier",
            ),
            (
                {"kind": "homogeneous", "symbols": "t", "exponents": ["t", "1"]},
                "symbols must be a JSON array",
            ),
        ],
        ids=[
            "top-level-array", "permutation-degrees", "zero-denominator",
            "images-array", "ratios-array", "ratios-row-array", "crossings-row-array",
            "symbol-reads-as-sum", "symbol-reads-as-rational", "log-symbol-name",
            "symbols-not-array",
        ],
    )
    def test_one_line_and_exit_one(self, tmp_path, capsys, command, config, message):
        cfg = write_config(tmp_path, config)
        code, out, err = run_cli(
            [command, "--config", str(cfg), "--radius", "2", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 1
        assert not out
        assert err.startswith("invalid input: ") and message in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_inconsistent_homogeneous_sum_one_message(self, tmp_path, capsys):
        # the boundary relation is checked once, by the representation, so
        # every command rejects exponents with a non-integer sum alike
        cfg = write_config(tmp_path, {"kind": "homogeneous", "exponents": ["1/3", "1/3", "1/2"]})
        errs = set()
        for command in ("classify", "ball", "surface"):
            code, out, err = run_cli([command, "--config", str(cfg), "--out", str(tmp_path)], capsys)
            assert (code, out) == (1, "")
            errs.add(err)
        (err,) = errs
        assert err.startswith("invalid input: ") and "conflicts with the value the relation forces" in err
        assert err.count("\n") == 1
        # the message speaks in exponents: c3 is given 1/2, and the relation forces -2/3 = 1/3 mod 1
        assert "circ[" not in err
        assert "(1/2)" in err and "(1/3)" in err and "sum to an integer" in err


LOG_THREE_LINES = {"kind": "logarithmic", "mode": "proportional", "components": GENERIC_THREE_LINES}
ALL_COMMANDS = ("classify", "ball", "surface")


class TestCheckedFields:
    """Integer fields take JSON ints or integer strings, flags only true or
    false, no number or permutation entry is a bool, and no container reads
    as another JSON type."""

    @pytest.mark.parametrize(
        "config,commands,message",
        [
            (dict(REPRESENTATION_Z, genus=0.9), ALL_COMMANDS, "genus must be an integer, not 0.9"),
            (dict(REPRESENTATION_Z, punctures=True), ALL_COMMANDS, "punctures must be an integer, not true"),
            (
                dict(LOG_THREE_LINES, components=[dict(GENERIC_THREE_LINES[0], degree=1.9)]
                     + GENERIC_THREE_LINES[1:]),
                ALL_COMMANDS,
                "degree must be an integer, not 1.9",
            ),
            (dict(LOG_THREE_LINES, component=2.5), ALL_COMMANDS, "component must be an integer, not 2.5"),
            (dict(LOG_THREE_LINES, component=9), ALL_COMMANDS, "component index 9 out of range"),
            (dict(LOG_THREE_LINES, component=0), ALL_COMMANDS, "component index 0 out of range"),
            (
                dict(LOG_THREE_LINES, crossings={"1": {"2": "one"}}),
                ALL_COMMANDS,
                'crossings[1][2] must be an integer, not "one"',
            ),
            (
                dict(LOG_THREE_LINES, normal_crossing="false"),
                ALL_COMMANDS,
                'normal_crossing must be true or false, not "false"',
            ),
            (dict(LOG_THREE_LINES, assert_generic=1), ALL_COMMANDS, "assert_generic must be true or false, not 1"),
            (
                {"kind": "homogeneous", "exponents": [True, "1/2", "1/2"]},
                ALL_COMMANDS,
                "cannot interpret True as an exact rational",
            ),
            (
                dict(RICCATI_LADDER, images=dict(RICCATI_LADDER["images"], a1=[[True, True], [False, True]])),
                ALL_COMMANDS,
                "cannot interpret True as an exact rational",
            ),
            (
                {"kind": "representation", "target": "permutation", "genus": 0,
                 "punctures": 3, "images": {"c1": [True, False], "c2": [1, 0]}},
                ALL_COMMANDS,
                "not a permutation of 0..1: (True, False)",
            ),
            ({"kind": "homogeneous", "exponents": "123"}, ALL_COMMANDS, "exponents must be a JSON array"),
            (
                {"kind": "homogeneous", "exponents": {"1/2": 0, "1/3": 0, "1/6": 0}},
                ALL_COMMANDS,
                "exponents must be a JSON array",
            ),
            (
                dict(RICCATI_LADDER, images=dict(RICCATI_LADDER["images"], a1=["12", "01"])),
                ALL_COMMANDS,
                "image of a1 must be a 2x2 JSON array of arrays",
            ),
            (
                dict(RICCATI_LADDER, images=dict(RICCATI_LADDER["images"], a1={"12": 0, "01": 0})),
                ALL_COMMANDS,
                "image of a1 must be a 2x2 JSON array of arrays",
            ),
            (
                {"kind": "homogeneous", "exponents": [{"real": [["const", "1/2"]]}, "1/4", "1/4"]},
                ALL_COMMANDS,
                "real must be a JSON object",
            ),
        ],
        ids=[
            "genus", "punctures", "degree", "component", "component_above_r", "component_zero",
            "crossings", "normal_crossing", "assert_generic", "exponent_bool", "riccati_bool",
            "permutation_bool", "exponents_string", "exponents_object", "riccati_strings",
            "riccati_object", "scalar_part_array",
        ],
    )
    def test_one_line_naming_the_field(self, tmp_path, capsys, config, commands, message):
        cfg = write_config(tmp_path, config)
        for command in commands:
            code, out, err = run_cli([command, "--config", str(cfg), "--out", str(tmp_path)], capsys)
            assert (code, out, err) == (1, "", "invalid input: %s\n" % message)

    def test_integer_strings_read_as_today(self, tmp_path, capsys):
        outputs = []
        for component in (2, "2"):
            cfg = write_config(tmp_path, dict(LOG_THREE_LINES, component=component))
            code, _, _ = run_cli(["ball", "--config", str(cfg), "--radius", "2", "--out", str(tmp_path)], capsys)
            assert code == 0
            outputs.append((tmp_path / "ball.json").read_text(encoding="utf-8"))
        assert outputs[0] == outputs[1]


class TestUsage:
    """Usage errors are invalid input: exit 1 with argparse's usage line."""

    @pytest.mark.parametrize(
        "args,message",
        [
            (["classify", "--config", "{cfg}", "--budget", "abc"], "invalid int value: 'abc'"),
            (["surface", "--radius", "2"], "the following arguments are required: --config"),
            (["ball", "--config", "{cfg}", "--search-bound", "3"], "unrecognized arguments: --search-bound 3"),
            (["surface", "--config", "{cfg}", "--search-bound", "3"], "unrecognized arguments: --search-bound 3"),
            (["classify", "--config", "{cfg}", "--depth", "3"], "unrecognized arguments: --depth 3"),
            ([], "the following arguments are required: command"),
        ],
        ids=["budget_not_int", "missing_config", "ball_search_bound", "surface_search_bound", "unknown", "no_command"],
    )
    def test_exit_one(self, tmp_path, capsys, args, message):
        cfg = write_config(tmp_path, HOMOGENEOUS_CASE1)
        code, out, err = run_cli([a.format(cfg=cfg) for a in args], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("usage: leaftype") and message in err

    @pytest.mark.parametrize("args", [["--help"], ["classify", "--help"], ["ball", "--help"]])
    def test_help_exits_zero(self, capsys, args):
        code, out, _ = run_cli(args, capsys)
        assert code == 0 and out.startswith("usage: leaftype")
        assert ("--search-bound" in out) == (args[0] == "classify")

    def test_search_bound_still_read_by_classify(self, tmp_path, capsys):
        cfg = write_config(tmp_path, HOMOGENEOUS_CASE1)
        argv = ["classify", "--config", str(cfg), "--out", str(tmp_path)]
        assert run_cli(argv + ["--search-bound", "3"], capsys)[0] == 0
        code, out, err = run_cli(argv + ["--search-bound", "0"], capsys)
        assert (code, out, err) == (1, "", "invalid input: budgets must be positive\n")


class TestKeysOnlyForExport:
    @pytest.mark.parametrize(
        "command,radius,calls",
        [("surface", "2,4,6", 0), ("classify", "2,4,6", 0), ("ball", "2", 17)],
    )
    def test_moebius_key_calls(self, tmp_path, capsys, monkeypatch, command, radius, calls):
        # groups, balls, glue and lifts compare elements; only ball.json and
        # ball.dot need key strings, one per vertex (17 at radius 2)
        count = [0]
        key = MoebiusElement.key

        def counting_key(self):
            count[0] += 1
            return key(self)

        monkeypatch.setattr(MoebiusElement, "key", counting_key)
        cfg = write_config(tmp_path, GENUS2_PING_PONG)
        code, _, _ = run_cli(
            [command, "--config", str(cfg), "--radius", radius, "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        assert count[0] == calls


class TestDeterminism:
    @pytest.mark.parametrize(
        "command,config",
        [
            ("classify", HOMOGENEOUS_CASE1),
            ("ball", REPRESENTATION_Z),
            ("surface", REPRESENTATION_Z),
        ],
    )
    def test_byte_identical_outputs(self, tmp_path, capsys, command, config):
        cfg = write_config(tmp_path, config)
        outputs = []
        for run in range(2):
            out_dir = tmp_path / ("out%d" % run)
            code, out, _ = run_cli(
                [command, "--config", str(cfg), "--out", str(out_dir)], capsys
            )
            assert code == 0
            files = {
                p.name: p.read_bytes() for p in sorted(out_dir.iterdir())
            }
            outputs.append((out, files))
        assert outputs[0] == outputs[1]

    def test_console_script_entry(self, tmp_path):
        cfg = write_config(tmp_path, REPRESENTATION_Z)
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "leaftype.cli",
                "ball",
                "--config",
                str(cfg),
                "--radius",
                "1",
                "--out",
                str(tmp_path),
            ],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 0

    @pytest.mark.parametrize(
        "command,config,radius",
        [
            ("classify", HOMOGENEOUS_CASE1, "2,4"),
            ("ball", RICCATI_LADDER, "3"),
            ("surface", RESIDUES_235_LOG, "2,4"),
            ("ball", CIRCLE_TWO_SYMBOLS, "2,3"),
            ("classify", CIRCLE_TWO_SYMBOLS, "2,4"),
        ],
    )
    def test_outputs_independent_of_hash_seed(self, tmp_path, command, config, radius):
        cfg = write_config(tmp_path, config)
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = []
        for seed in ("0", "1"):
            out_dir = tmp_path / ("seed%s" % seed)
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-m", "leaftype.cli", command, "--config", str(cfg),
                 "--radius", radius, "--out", str(out_dir)],
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
            outputs.append((proc.stdout, files))
        assert outputs[0] == outputs[1]

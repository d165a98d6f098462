import csv
import dataclasses
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from povmlab import signaling
from povmlab.cli import main
from povmlab.generators import generate_instance
from povmlab.reporting import CheckReport
from povmlab.scenarios import (
    CHECKS,
    SYSTEM_PARAMS,
    Cells,
    Decoded,
    parse_scenarios,
    run_scenarios,
)
from povmlab.serialization import (
    REQUIRED,
    Integer,
    Nonempty,
    Number,
    OneOf,
    SchemaError,
    decode_effect,
    decode_instrument,
    decode_povm,
    decode_region,
    decode_state,
)
from povmlab.signaling import D2_MIN


def write_scenarios(tmp_path, payload, name="scenarios.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


DEMO_FILE = Path(__file__).resolve().parent.parent / "scenarios" / "demo.json"

GOOD_BATCH = {
    "scenarios": [
        {"type": "gentle_sweep", "seed": 5, "params": {"instances": 40}},
        {"type": "luders_equivalence", "seed": 6, "params": {"dim": 3}},
        {
            "type": "composition",
            "seed": 7,
            "params": {"n": 12, "kind": "frame_smeared", "lab1": [1, 2, 3], "lab2": [5, 6, 7]},
        },
        {
            "type": "cross_lab_commutator",
            "seed": 8,
            "params": {"n": 12, "kind": "frame_smeared", "lab1": [1, 2, 3], "lab2": [7, 8, 9]},
        },
    ]
}


class TestRunCommand:
    def test_empty_scenario_list_exits_zero(self, tmp_path, capsys):
        path = write_scenarios(tmp_path, {"scenarios": []})
        out = str(tmp_path / "report.json")
        assert main(["run", path, "--out", out]) == 0
        report = json.loads(open(out).read())
        assert report["reports"] == []

    def test_good_batch_passes(self, tmp_path, capsys):
        path = write_scenarios(tmp_path, GOOD_BATCH)
        out = str(tmp_path / "report.json")
        summary = str(tmp_path / "summary.csv")
        assert main(["run", path, "--out", out, "--csv", summary]) == 0
        rows = list(csv.DictReader(open(summary)))
        assert len(rows) == 4
        assert {r["verdict"] for r in rows} <= {"PASS", "INFO"}
        assert list(rows[0]) == list(CheckReport(name="").summary_row())

    def test_summary_names_the_worst_asserted_item(self, tmp_path, capsys):
        payload = {"scenarios": [
            {"type": "hc_audit", "seed": 1, "params": {"n": 8, "kind": "frame_smeared"}},
            {"type": "cc_residual", "seed": 1, "params": {"n": 8, "delta": [1, 2]}},
        ]}
        path = write_scenarios(tmp_path, payload)
        summary = str(tmp_path / "summary.csv")
        assert main(["run", path, "--csv", summary]) == 0
        audit, shadow = list(csv.DictReader(open(summary)))
        # hc_audit's measurement-only max_effect_norm is not its worst item
        assert audit["item"] in {"additivity_residual", "covariance_residual"}
        assert float(audit["residual"]) < 1e-12 and float(audit["tol"]) > 0
        assert shadow["verdict"] == "INFO"
        assert [shadow[key] for key in ("item", "residual", "tol", "margin")] == [""] * 4
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if not line.startswith(" ")]  # notes are indented
        assert lines[0].startswith(f"PASS hc_audit (worst {audit['item']}: residual ")
        assert lines[1].startswith("INFO cc_residual (no asserted item, ")

    def test_empty_batch_csv_has_the_header(self, tmp_path):
        path = write_scenarios(tmp_path, {"scenarios": []})
        summary = str(tmp_path / "summary.csv")
        assert main(["run", path, "--csv", summary]) == 0
        assert open(summary).read().strip() == ",".join(CheckReport(name="").summary_row())

    def test_hw_search_repeats_draw_distinct_witnesses(self):
        payload = {"scenarios": [{"type": "hw_search", "seed": 7, "repeat": 3,
                                  "params": {"dim": 3, "budget": 10}}]}
        report = run_scenarios(parse_scenarios(payload))[0]
        assert report.verdict == "PASS"
        assert sorted(report.witnesses) == ["effect", "effect#1", "effect#2"]
        effects = {json.dumps(w, sort_keys=True) for w in report.witnesses.values()}
        assert len(effects) == 3

    def test_hw_search_d2_item_margin_is_d2_above_its_floor(self, monkeypatch):
        payload = {"scenarios": [{"type": "hw_search", "seed": 7}]}
        real, drawn = signaling.heinosaari_wolf_search, []

        def draw(*args):
            drawn.append(real(*args))
            return drawn[-1]

        monkeypatch.setattr(signaling, "heinosaari_wolf_search", draw)
        report = run_scenarios(parse_scenarios(payload))[0]
        d1, d2 = report.items
        assert (d1.name, d2.name, d2.tol) == ("d1_reverified", "d2_shortfall", 0.0)
        assert d2.tol - d2.residual == drawn[0].d2 - D2_MIN > 0.0
        # a witness just below the floor fails on this item alone
        monkeypatch.setattr(signaling, "heinosaari_wolf_search", lambda *args: dataclasses.replace(
            real(*args), d2=np.nextafter(D2_MIN, 0.0)))
        report = run_scenarios(parse_scenarios(payload))[0]
        assert [item.passed for item in report.items] == [True, False]

    def test_malformed_matrix_exits_two(self, tmp_path, capsys):
        payload = {
            "scenarios": [
                {
                    "type": "nsc",
                    "seed": 1,
                    "params": {
                        "instrument": {"kind": "instrument",
                                       "families": [[{"dim": 2, "re": [1, 0, 0], "im": [0, 0, 0, 0]}]]},
                        "effect": {"kind": "effect",
                                   "matrix": {"dim": 2, "re": [1, 0, 0, 0], "im": [0, 0, 0, 0]}},
                    },
                }
            ]
        }
        path = write_scenarios(tmp_path, payload)
        assert main(["run", path]) == 2
        err = capsys.readouterr().err
        assert "/families/0/0" in err

    def test_unknown_type_exits_two(self, tmp_path, capsys):
        path = write_scenarios(tmp_path, {"scenarios": [{"type": "nope"}]})
        assert main(["run", path]) == 2

    def test_missing_file_exits_two(self, capsys):
        assert main(["run", "/nonexistent/file.json"]) == 2

    def test_invalid_json_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", str(bad)]) == 2

    def test_failing_scenario_exits_one(self, tmp_path, capsys):
        # noncommuting witness asserted at an unreachable tolerance
        payload = {
            "scenarios": [
                {
                    "type": "nsc",
                    "seed": 1,
                    "tol": 1e-10,
                    "params": {
                        "instrument": {
                            "kind": "instrument",
                            "families": [
                                [{"dim": 2, "re": [0.5, 0.5, 0.5, 0.5], "im": [0.0] * 4}],
                                [{"dim": 2, "re": [0.5, -0.5, -0.5, 0.5], "im": [0.0] * 4}],
                            ],
                        },
                        "effect": {"kind": "effect",
                                   "matrix": {"dim": 2, "re": [1.0, 0.0, 0.0, 0.0], "im": [0.0] * 4}},
                    },
                }
            ]
        }
        path = write_scenarios(tmp_path, payload)
        assert main(["run", path]) == 1

    def test_json_report_round_trip_bit_exact(self, tmp_path):
        path = write_scenarios(tmp_path, GOOD_BATCH)
        out = str(tmp_path / "report.json")
        assert main(["run", path, "--out", out]) == 0
        reports = run_scenarios(parse_scenarios(GOOD_BATCH), workers=1)
        parsed = json.loads(open(out).read())["reports"]
        for fresh, wire in zip(reports, parsed):
            for item, wire_item in zip(fresh.to_dict()["items"], wire["items"]):
                assert wire_item["residual"] == item["residual"]

    def test_report_independent_of_the_order_of_lab_cells(self):
        lab = [4, 5, 8, 14, 37, 38, 39, 50, 55, 57, 60]
        reports = []
        for cells in (lab, lab[::-1]):
            payload = {"scenarios": [{"type": "conditional_build", "seed": 3, "params": {
                "n": 64, "kind": "frame_smeared", "width": 1.5, "lab": cells}}]}
            report = run_scenarios(parse_scenarios(payload))[0].to_dict()
            report.pop("wall_time")
            report.pop("scenario")
            reports.append(report)
        assert reports[0] == reports[1]

    def test_parallel_serial_equivalence(self, tmp_path):
        scenarios = parse_scenarios(GOOD_BATCH)
        serial = run_scenarios(scenarios, workers=1)
        parallel = run_scenarios(parse_scenarios(GOOD_BATCH), workers=4)
        for a, b in zip(serial, parallel):
            da, db = a.to_dict(), b.to_dict()
            da.pop("wall_time")
            db.pop("wall_time")
            assert da == db


class TestGenCommand:
    def test_gen_deterministic_bytes(self, capsys):
        assert main(["gen", "state", "--dim", "3", "--seed", "11"]) == 0
        first = capsys.readouterr().out
        assert main(["gen", "state", "--dim", "3", "--seed", "11"]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_gen_povm_payload(self, capsys):
        assert main(["gen", "povm", "--dim", "2", "--seed", "4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "povm"


class TestVersionCommand:
    def test_version_prints(self, capsys):
        assert main(["version"]) == 0
        from povmlab import __version__

        assert capsys.readouterr().out.strip() == __version__


class TestConsoleEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "povmlab.cli", "version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0


class TestSchemaValidation:
    def test_bad_seed(self):
        with pytest.raises(SchemaError) as err:
            parse_scenarios({"scenarios": [{"type": "nsc", "seed": -1}]})
        assert err.value.pointer.endswith("/seed")

    def test_bad_tol(self):
        with pytest.raises(SchemaError) as err:
            parse_scenarios({"scenarios": [{"type": "nsc", "tol": 0}]})
        assert err.value.pointer.endswith("/tol")

    def test_bad_repeat(self):
        with pytest.raises(SchemaError) as err:
            parse_scenarios({"scenarios": [{"type": "nsc", "repeat": 0}]})
        assert err.value.pointer.endswith("/repeat")

    @pytest.mark.parametrize("field, value", [("seed", True), ("seed", 2**64), ("seed", 1.0),
                                              ("repeat", True), ("repeat", 2.0)])
    def test_seed_and_repeat_are_json_integers(self, field, value):
        with pytest.raises(SchemaError) as err:
            parse_scenarios([{"type": "nsc", field: value}])
        assert err.value.pointer == f"/0/{field}"

    def test_bare_list_accepted(self):
        assert len(parse_scenarios([{"type": "gentle_sweep"}])) == 1


class TestRefusals:
    """Bad inputs end in a SchemaError naming the field, and exit code 2."""

    @staticmethod
    def refused(payload):
        with pytest.raises(SchemaError) as err:
            run_scenarios(parse_scenarios(payload))
        return err.value.pointer

    @pytest.mark.parametrize("tol", [json.loads("1e400"), float("nan"), 10**400, "1e-9"])
    def test_non_finite_scenario_tol(self, tol):
        assert self.refused([{"type": "nsc", "tol": tol}]) == "/0/tol"

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1e-9"])
    def test_cli_tol_must_be_finite_and_positive(self, tmp_path, capsys, tol):
        path = write_scenarios(tmp_path, {"scenarios": [{"type": "rcc", "params": {"dim": 2}}]})
        assert main(["run", path, f"--tol={tol}"]) == 2
        assert "--tol" in capsys.readouterr().err

    @pytest.mark.parametrize("dims, pointer", [([], "/dims"), ([2, 0], "/dims/1"),
                                               (["x"], "/dims/0"), (3, "/dims"),
                                               ([2, 3.0], "/dims/1")])
    def test_gentle_sweep_dims(self, dims, pointer):
        payload = {"scenarios": [{"type": "gentle_sweep", "params": {"dims": dims}}]}
        assert self.refused(payload) == "/scenarios/0/params" + pointer

    @pytest.mark.parametrize("stype", ["nsc", "rcc", "beck", "luders_equivalence"])
    @pytest.mark.parametrize("dim", [0, -3, "two", 2.7, True])
    def test_generated_dim_below_one(self, stype, dim):
        payload = {"scenarios": [{"type": stype, "params": {"dim": dim}}]}
        assert self.refused(payload) == "/scenarios/0/params/dim"

    @pytest.mark.parametrize("t_grid, index", [(["a"], 0), ([1.0, "later"], 1),
                                               ([0.5, float("inf")], 1), ([None], 0)])
    def test_hc_audit_time_not_a_finite_number(self, t_grid, index):
        payload = {"scenarios": [{"type": "hc_audit",
                                  "params": {"n": 8, "kind": "sharp", "t_grid": t_grid}}]}
        assert self.refused(payload) == f"/scenarios/0/params/t_grid/{index}"

    @pytest.mark.parametrize("t", ["soon", float("nan")])
    def test_cc_residual_time_not_a_finite_number(self, t):
        payload = {"scenarios": [{"type": "cc_residual",
                                  "params": {"n": 8, "kind": "sharp", "delta": [0], "t": t}}]}
        assert self.refused(payload) == "/scenarios/0/params/t"

    @pytest.mark.parametrize("stype, params, field", [
        ("hc_audit", {"n": 8, "kind": "sharp", "t_grid": []}, "t_grid"),
        ("hc_audit", {"n": 8, "kind": "sharp", "delta_samples": []}, "delta_samples"),
        ("gentle_sweep", {"instances": 0}, "instances"),
        ("gentle_sweep", {"instances": "x"}, "instances"),
        ("gentle_sweep", {"instances": 40.0}, "instances"),
        ("hw_search", {"dim": "x"}, "dim"),
        ("hw_search", {"dim": 2}, "dim"),
        ("hw_search", {"budget": -5}, "budget"),
        ("hw_search", {"budget": True}, "budget"),
        ("cc_residual", {"n": 8.5, "kind": "sharp", "delta": [0]}, "n"),
        ("hc_audit", {"n": True, "kind": "sharp"}, "n"),
        ("conditional_build", {"n": "16", "lab": [0]}, "n"),
        ("conditional_build", {"n": 1, "lab": [0]}, "n"),
    ])
    def test_vacuous_or_mistyped_parameter(self, stype, params, field):
        payload = {"scenarios": [{"type": stype, "params": params}]}
        assert self.refused(payload) == f"/scenarios/0/params/{field}"

    @pytest.mark.parametrize("samples, index", [([[], []], 0), ([[0, 1], []], 1),
                                                ([[0], 3], 1), ([[0], [9]], 1)])
    def test_hc_audit_sampled_region_empty_or_malformed(self, samples, index):
        payload = {"scenarios": [{"type": "hc_audit", "params": {
            "n": 8, "kind": "sharp", "delta_samples": samples}}]}
        assert self.refused(payload) == f"/scenarios/0/params/delta_samples/{index}"

    @pytest.mark.parametrize("stype, params, field", [
        ("hc_audit", {"n": 8, "kind": "sharp", "mass": True}, "mass"),
        ("hc_audit", {"n": 8, "kind": "sharp", "mass": "1.0"}, "mass"),
        ("hc_audit", {"n": 8, "kind": "sharp", "mass": 0}, "mass"),
        ("hc_audit", {"n": 8, "kind": "alternating", "a": -1.0}, "a"),
        ("hc_audit", {"n": 8, "kind": "sharp", "a": None}, "a"),
        ("conditional_build", {"n": 8, "width": -1, "lab": [0, 1]}, "width"),
        ("conditional_build", {"n": 8, "width": float("inf"), "lab": [0, 1]}, "width"),
        ("conditional_build", {"n": 8, "kind": "diagonal_smeared", "width": 10**400,
                               "lab": [0, 1]}, "width"),
        ("cc_residual", {"n": 8, "kind": "sharp", "delta": [0], "t": "1.0"}, "t"),
        ("cc_residual", {"n": 8, "kind": "sharp", "delta": [0], "t": False}, "t"),
        ("hc_audit", {"n": 8, "kind": "sharp", "t_grid": [0.5, True]}, "t_grid/1"),
    ])
    def test_number_fields_take_json_numbers_only(self, stype, params, field):
        payload = {"scenarios": [{"type": stype, "params": params}]}
        assert self.refused(payload) == f"/scenarios/0/params/{field}"

    def test_boolean_tol_refused(self):
        assert self.refused([{"type": "nsc", "tol": True}]) == "/0/tol"

    def test_cli_exits_two_on_a_refused_parameter(self, tmp_path, capsys):
        path = write_scenarios(tmp_path, {"scenarios": [{"type": "nsc", "params": {"dim": 0}}]})
        assert main(["run", path]) == 2
        assert "/scenarios/0/params/dim" in capsys.readouterr().err

    @pytest.mark.parametrize("stype", ["cc_residual", "hc_audit"])
    @pytest.mark.parametrize("params", [{"mass": 1e200}, {"a": 1e-300},
                                        {"kind": "sharp", "mass": 1e200}])
    def test_non_finite_dispersion_exits_two(self, tmp_path, capsys, stype, params):
        params = dict(params, n=8, **({"delta": [0]} if stype == "cc_residual" else {}))
        path = write_scenarios(tmp_path, {"scenarios": [{"type": stype, "params": params}]})
        assert main(["run", path]) == 2
        err = capsys.readouterr().err
        assert "/scenarios/0/params: mass" in err and "non-finite dispersion" in err

    def test_cc_residual_at_a_huge_time_saturates(self, tmp_path):
        path = write_scenarios(tmp_path, {"scenarios": [{"type": "cc_residual", "params": {
            "n": 8, "kind": "sharp", "delta": [0], "t": 1e300}}]})
        out = str(tmp_path / "report.json")
        assert main(["run", path, "--out", out]) == 0
        report = json.loads(open(out).read())["reports"][0]
        assert report["notes"] == [f"shadow={list(range(8))} saturated=True"]

    def test_valid_parameters_still_run(self):
        payload = {"scenarios": [
            {"type": "gentle_sweep", "tol": 1e300, "params": {"instances": 4, "dims": [2, 3]}},
            {"type": "hc_audit", "params": {"n": 8, "kind": "sharp", "t_grid": [0, 1.0]}},
        ]}
        assert [r.verdict for r in run_scenarios(parse_scenarios(payload))] == ["PASS", "PASS"]


class TestParameterTable:
    """Every parameter is read through the table at parse time: unknown keys,
    missing fields, half pairs and bad values exit 2 at their pointer."""

    @staticmethod
    def exits_two(tmp_path, capsys, payload):
        path = write_scenarios(tmp_path, payload)
        assert main(["run", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        return captured.err

    @pytest.mark.parametrize("stype, params, field", [
        ("gentle_sweep", {"instance": 3, "dimz": [2]}, "instance"),
        ("nsc", {"dim": 3, "dims": [3]}, "dims"),
        ("hc_audit", {"n": 8, "kind": "sharp", "tgrid": [1.0]}, "tgrid"),
        ("causal_separation", {"first": {}, "second": {}, "third": {}}, "third"),
        ("conditional_build", {"n": 8, "lab": [0], "a/b": 1}, "a~1b"),
    ])
    def test_unknown_key(self, tmp_path, capsys, stype, params, field):
        err = self.exits_two(tmp_path, capsys, {"scenarios": [{"type": stype, "params": params}]})
        assert f"/scenarios/0/params/{field}: unknown parameter" in err

    @pytest.mark.parametrize("stype, params, field", [
        ("conditional_build", {"n": 8, "kind": "frame_smeared"}, "lab"),
        ("conditional_bound", {"n": 8, "lab": [0, 1]}, "delta"),
        ("composition", {"n": 8, "lab2": [3]}, "lab1"),
        ("cc_residual", {"n": 8}, "delta"),
        ("causal_separation", {}, "first"),
    ])
    def test_missing_required_field(self, tmp_path, capsys, stype, params, field):
        err = self.exits_two(tmp_path, capsys, {"scenarios": [{"type": stype, "params": params}]})
        assert f"/scenarios/0/params/{field}: missing field" in err

    @pytest.mark.parametrize("stype, given, missing", [
        ("nsc", "instrument", "effect"), ("nsc", "effect", "instrument"),
        ("beck", "instrument", "effect"), ("beck", "effect", "instrument"),
        ("rcc", "first", "second"), ("rcc", "second", "first"),
        ("luders_equivalence", "first", "second"), ("luders_equivalence", "second", "first"),
    ])
    def test_half_pair(self, tmp_path, capsys, stype, given, missing):
        kind = ("effect" if given == "effect" else
                "povm" if stype == "luders_equivalence" else "luders_instrument")
        value = generate_instance(kind, 2, 1)
        payload = {"scenarios": [{"type": stype, "params": {"dim": 2, given: value}}]}
        err = self.exits_two(tmp_path, capsys, payload)
        assert f"/scenarios/0/params/{missing}: missing field: given {given!r}" in err

    def test_bare_list_pointer(self, tmp_path, capsys):
        err = self.exits_two(tmp_path, capsys, [{"type": "nsc", "params": {"dim": 0}}])
        assert err.startswith("error: /0/params/dim: ")

    @pytest.mark.parametrize("kind", ["frame_smeared", "diagonal_smeared"])
    @pytest.mark.parametrize("bare", [False, True])
    def test_width_whose_profile_underflows(self, tmp_path, capsys, kind, bare):
        scenarios = [{"type": "conditional_build",
                      "params": {"n": 8, "kind": kind, "width": 1e-200, "lab": [0, 1]}}]
        err = self.exits_two(tmp_path, capsys, scenarios if bare else {"scenarios": scenarios})
        pointer = "/0/params" if bare else "/scenarios/0/params"
        assert err.startswith(f"error: {pointer}: width 1e-200 ")

    def test_bad_parameter_in_the_last_scenario_is_refused_at_parse_time(self):
        payload = {"scenarios": [dict(entry, params=dict(entry["params"]))
                                 for entry in GOOD_BATCH["scenarios"]]}
        payload["scenarios"][-1]["params"]["lab2"] = [7, 8, 99]
        with pytest.raises(SchemaError) as err:
            parse_scenarios(payload)
        assert err.value.pointer == "/scenarios/3/params/lab2"

    def test_params_hold_the_values_read(self):
        sc = parse_scenarios([{"type": "hc_audit", "params": {
            "n": 8, "kind": "sharp", "t_grid": [0, 1], "delta_samples": [[3, 1]]}}])[0]
        assert sc.params == {"n": 8, "mass": 1.0, "a": 1.0, "width": 1.5, "kind": "sharp",
                             "t_grid": [0.0, 1.0], "delta_samples": [frozenset({1, 3})]}
        assert [type(t) for t in sc.params["t_grid"]] == [float, float]

    @pytest.mark.parametrize("cells", [[1.0], [True], ["2"], [[0]]])
    def test_cells_are_json_integers(self, cells):
        with pytest.raises(SchemaError) as err:
            parse_scenarios([{"type": "conditional_build", "params": {"n": 8, "lab": cells}}])
        assert err.value.pointer == "/0/params/lab"


WIRE_INSTRUMENT = generate_instance("luders_instrument", 1, 1)
WIRE_EFFECT = "/scenarios/0/params/effect/matrix"
WIRE_BOX = "/scenarios/0/params/first/boxes/0"


def nsc_file(matrix: str) -> str:
    """An nsc scenario file whose effect's matrix is the JSON text ``matrix``."""
    return ('{"scenarios": [{"type": "nsc", "params": {"instrument": %s, '
            '"effect": {"kind": "effect", "matrix": %s}}}]}'
            % (json.dumps(WIRE_INSTRUMENT), matrix))


def separation_file(lo: list, hi: list) -> str:
    """A causal_separation scenario file whose first region is the box [lo, hi]."""
    second = {"boxes": [{"lo": [0, 5, 0, 0], "hi": [0, 6, 0, 0]}]}
    return json.dumps({"scenarios": [{"type": "causal_separation", "params": {
        "first": {"boxes": [{"lo": lo, "hi": hi}]}, "second": second}}]})


class TestWireValues:
    """Every matrix entry and box coordinate is a finite JSON number, never a
    bool, string or null, and ``dim`` is a JSON integer: anything else exits
    2 at the entry's own pointer, with nothing run."""

    @pytest.mark.parametrize("text, pointer, message", [
        (nsc_file('{"dim": 1, "re": [NaN], "im": [0.0]}'), f"{WIRE_EFFECT}/re/0",
         "expected a finite number, got nan"),
        (nsc_file('{"dim": 1, "re": [0.5], "im": [null]}'), f"{WIRE_EFFECT}/im/0",
         "expected a number, got None"),
        (nsc_file('{"dim": 1, "re": [true], "im": [false]}'), f"{WIRE_EFFECT}/re/0",
         "expected a number, got True"),
        (nsc_file('{"dim": 1, "re": ["0.5"], "im": [0.0]}'), f"{WIRE_EFFECT}/re/0",
         "expected a number, got '0.5'"),
        (nsc_file('{"dim": true, "re": [0.5], "im": [0.0]}'), f"{WIRE_EFFECT}/dim",
         "expected an integer, got True"),
        (separation_file(["nan", 0, 0, 0], [1, 1, 1, 1]), f"{WIRE_BOX}/lo/0",
         "expected a number, got 'nan'"),
        (separation_file([0, 0, 0, 0], [1, "inf", 1, 1]), f"{WIRE_BOX}/hi/1",
         "expected a number, got 'inf'"),
        (separation_file([0, 0, 0, True], [1, 1, 1, 1]), f"{WIRE_BOX}/lo/3",
         "expected a number, got True"),
    ], ids=["NaN entry", "null entry", "bool entries", "string entry", "bool dim",
            "string nan", "string inf", "bool coordinate"])
    def test_refused_at_the_entry(self, tmp_path, capsys, text, pointer, message):
        path = tmp_path / "scenarios.json"
        path.write_text(text)
        assert main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {pointer}: {message}\n"

    def test_unknown_key_of_a_wire_object_is_refused_at_it(self):
        matrix = dict(WIRE_INSTRUMENT["families"][0][0], scale=2)
        with pytest.raises(SchemaError) as err:
            parse_scenarios([{"type": "nsc", "params": {
                "instrument": WIRE_INSTRUMENT, "effect": {"kind": "effect", "matrix": matrix}}}])
        assert err.value.pointer == "/0/params/effect/matrix/scale"
        assert str(err.value).endswith(": unknown key; expected one of dim, re, im")


class TestCrossFieldConstraints:
    """A parameter that breaks a constraint on one read before it exits 2 at
    its own pointer, before the scenarios ahead of it run."""

    SWEEP = {"type": "gentle_sweep", "params": {"instances": 4}}

    @pytest.mark.parametrize("stype, params, field, message", [
        ("composition", {"n": 64, "lab1": [1, 2, 3], "lab2": [3, 4]}, "lab2",
         "must be disjoint from 'lab1'; both hold [3]"),
        ("conditional_bound", {"n": 16, "lab": [4, 5, 6], "delta": [6, 7]}, "delta",
         "must lie inside 'lab'; cells [7] do not"),
        ("cross_lab_commutator", {"n": 16, "lab1": [1, 2], "lab2": [9, 10], "delta1": [3]},
         "delta1", "must lie inside 'lab1'; cells [3] do not"),
        ("cross_lab_commutator", {"n": 16, "lab1": [1, 2], "lab2": [9, 10], "delta2": [1]},
         "delta2", "must lie inside 'lab2'; cells [1] do not"),
        ("conditional_bound", {"n": 8, "lab": [1, 2, 3], "delta": [2],
                               "state": generate_instance("state", 3, 1)},
         "state", "expected dimension n = 8, got 3"),
        ("nsc", {"instrument": generate_instance("luders_instrument", 2, 1),
                 "effect": generate_instance("effect", 3, 1)},
         "effect", "expected dimension instrument = 2, got 3"),
        ("beck", {"instrument": generate_instance("luders_instrument", 3, 1),
                  "effect": generate_instance("effect", 2, 1)},
         "effect", "expected dimension instrument = 3, got 2"),
        ("rcc", {"first": generate_instance("luders_instrument", 2, 1),
                 "second": generate_instance("luders_instrument", 3, 1)},
         "second", "expected dimension first = 2, got 3"),
        ("luders_equivalence", {"first": generate_instance("povm", 3, 1),
                                "second": generate_instance("povm", 2, 1)},
         "second", "expected dimension first = 3, got 2"),
    ])
    def test_refused_before_anything_runs(self, tmp_path, capsys, stype, params, field,
                                          message):
        path = write_scenarios(tmp_path, {"scenarios": [
            self.SWEEP, {"type": stype, "params": params}]})
        assert main(["run", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: /scenarios/1/params/{field}: {message}\n"

    def test_values_that_meet_the_constraints_run(self):
        payload = [
            {"type": "composition", "params": {"n": 8, "lab1": [1, 2], "lab2": [3, 4]}},
            {"type": "conditional_bound", "params": {"n": 8, "lab": [1, 2, 3], "delta": [2, 3],
                                                     "state": generate_instance("state", 8, 1)}},
            {"type": "cross_lab_commutator", "params": {"n": 8, "lab1": [1, 2], "lab2": [2, 5],
                                                        "delta1": [2], "delta2": [2, 5]}},
        ]
        reports = run_scenarios(parse_scenarios(payload))
        assert [r.verdict for r in reports] == ["PASS", "PASS", "INFO"]


# the generator kind of each decoded object a scenario can hold
DECODED_KIND = {decode_instrument: "luders_instrument", decode_effect: "effect",
                decode_povm: "povm", decode_state: "state"}
REGION = {"boxes": [{"lo": [0.0, 0.0, 0.0, 0.0], "hi": [0.0, 1.0, 1.0, 1.0]}]}


def accepted(reader, values: dict):
    """A JSON value ``reader`` accepts after the JSON ``values`` read before
    it; a decoded object has dimension ``n``, or 2 where there is no ``n``."""
    n = values.get("n", 2)
    if isinstance(reader, Integer):
        return reader.minimum
    if isinstance(reader, Number):
        return 1.0
    if isinstance(reader, OneOf):
        return reader.choices[0]
    if isinstance(reader, Cells):
        if reader.inside:
            return values[reader.inside][:1]
        return [k for k in range(n) if k not in values.get(reader.disjoint_from, [])][:1]
    if isinstance(reader, Nonempty):
        return [accepted(reader.item, values)]
    if isinstance(reader, Decoded):
        return REGION if reader.decode is decode_region else generate_instance(
            DECODED_KIND[reader.decode], n, 1)
    raise AssertionError(f"no accepted value for {reader!r}")


def refused(reader, values: dict):
    """A JSON value ``reader`` must refuse at its own pointer after the JSON
    ``values``: one that breaks the field's constraint on an earlier field
    when it has one, else one outside the reader's range or type."""
    n = values.get("n", 2)
    if isinstance(reader, Integer):
        return reader.minimum - 1
    if isinstance(reader, Number):
        return 0.0 if reader.positive else math.inf
    if isinstance(reader, OneOf):
        return "quantum"
    if isinstance(reader, Cells):
        if reader.inside:
            return [k for k in range(n) if k not in values[reader.inside]][:1]
        if reader.disjoint_from:
            return values[reader.disjoint_from][:1]
        return [] if reader.nonempty else [n]
    if isinstance(reader, Nonempty):
        return []
    if isinstance(reader, Decoded) and reader.dim:
        return generate_instance(DECODED_KIND[reader.decode], n + 1, 1)
    if isinstance(reader, Decoded):
        return 5
    raise AssertionError(f"no refused value for {reader!r}")


class TestEveryField:
    """Every parameter of every check type refuses a bad value at its own
    pointer, its constraint on an earlier field included."""

    @pytest.mark.parametrize("stype, name", [(stype, p.name) for stype, check in CHECKS.items()
                                             for p in check.params])
    def test_refused_at_its_pointer(self, stype, name):
        params: dict = {}
        for p in CHECKS[stype].params:
            params[p.name] = accepted(p.read, params)
        parse_scenarios([{"type": stype, "params": params}])
        reader = next(p.read for p in CHECKS[stype].params if p.name == name)
        params[name] = refused(reader, params)
        with pytest.raises(SchemaError) as err:
            parse_scenarios([{"type": stype, "params": params}])
        assert err.value.pointer == f"/0/params/{name}"


class TestScenarioEntry:
    def test_unknown_key_of_an_entry_exits_two(self, tmp_path, capsys):
        path = write_scenarios(tmp_path, {"scenarios": [
            {"type": "gentle_sweep", "repeats": 5, "sed": 3}]})
        assert main(["run", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: /scenarios/0/repeats: unknown key; expected one of type, "
                              "params, seed, tol, repeat")

    def test_unknown_key_of_the_file_object_is_refused(self):
        with pytest.raises(SchemaError) as err:
            parse_scenarios({"scenarios": [{"type": "gentle_sweep"}], "scenario": []})
        assert str(err.value) == "/scenario: unknown key; expected one of scenarios"

    def test_unknown_key_pointer_is_escaped(self):
        with pytest.raises(SchemaError) as err:
            parse_scenarios([{"type": "nsc", "a/b~": 1}])
        assert err.value.pointer == "/0/a~1b~0"

    @pytest.mark.parametrize("seed", ["-1", str(2**64), "-18446744073709551616"])
    def test_cli_seed_out_of_range_exits_two(self, tmp_path, capsys, seed):
        path = write_scenarios(tmp_path, {"scenarios": [{"type": "rcc", "params": {"dim": 2}}]})
        assert main(["run", path, "--seed", seed]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: --seed: must be ")

    def test_cli_seed_takes_the_file_range(self, tmp_path, capsys):
        path = write_scenarios(tmp_path, {"scenarios": [{"type": "rcc", "params": {"dim": 2}}]})
        for seed in (0, 2**64 - 1):
            assert main(["run", path, "--seed", str(seed)]) == 0
        with pytest.raises(SchemaError):
            parse_scenarios([{"type": "rcc", "seed": 2**64}])


def readme_parameters() -> dict[str, list[tuple[str, str]]]:
    """(parameter, default) per check type, from the README's parameter
    lists; a check marked "after the lattice system" starts with the
    lattice system's list."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("### Scenario parameters", 1)[1].split("\n## ", 1)[0]
    lists: dict[str, list[tuple[str, str]]] = {}
    for line in section.splitlines():
        if line.startswith("- "):
            name = "lattice system" if line == "- lattice system" else line.split("`")[1]
            lists[name] = list(lists["lattice system"]) if "after the lattice system" in line else []
        elif line.startswith("  - "):
            match = re.fullmatch(r"  - `(\w+)`: .+?; (required|default (`[^`]*`|none)).*", line)
            assert match, line
            lists[name].append((match[1], match[2]))
    return lists


class TestReadme:
    @staticmethod
    def default_text(default):
        if default is REQUIRED:
            return "required"
        return "default none" if default is None else f"default `{json.dumps(default)}`"

    def test_readme_lists_exactly_the_table(self):
        table = {stype: [(p.name, self.default_text(p.default)) for p in check.params]
                 for stype, check in CHECKS.items()}
        table["lattice system"] = [(p.name, self.default_text(p.default)) for p in SYSTEM_PARAMS]
        assert readme_parameters() == table

    def test_lattice_checks_read_the_system_first(self):
        for check in CHECKS.values():
            names = [p.name for p in check.params]
            if "n" in names:
                assert all(a is b for a, b in zip(check.params, SYSTEM_PARAMS, strict=False))
                assert names.index("kind") == len(SYSTEM_PARAMS) - 1


class TestHcAuditDefaultRegions:
    @pytest.mark.parametrize("kind", ["sharp", "alternating", "diagonal_smeared",
                                      "frame_smeared"])
    def test_two_cells_end_in_a_verdict(self, tmp_path, kind):
        path = write_scenarios(tmp_path, {"scenarios": [
            {"type": "hc_audit", "params": {"n": 2, "kind": kind}}]})
        out = str(tmp_path / "report.json")
        assert main(["run", path, "--out", out]) == 0
        assert json.loads(open(out).read())["reports"][0]["verdict"] == "PASS"

    def test_regions_from_three_cells_on_are_unchanged(self, monkeypatch):
        import povmlab.lattice as lattice

        seen = []
        monkeypatch.setattr(lattice, "hc_audit",
                            lambda sys, cells, times, tol: seen.append(cells) or CheckReport("hc_audit"))
        for n in range(3, 65):
            run_scenarios(parse_scenarios([{"type": "hc_audit",
                                            "params": {"n": n, "kind": "sharp"}}]))
            quarter = max(1, n // 4)
            assert seen.pop() == [frozenset(range(quarter)),
                                  frozenset(range(2 * quarter, 3 * quarter))]


class TestRepeatWitnesses:
    @staticmethod
    def nsc(repeat):
        payload = [{"type": "nsc", "seed": 3, "repeat": repeat, "params": {"dim": 4}}]
        return run_scenarios(parse_scenarios(payload))[0]

    def test_every_repeat_keeps_its_witness(self):
        report = self.nsc(3)
        assert len(report.items) == 3 and report.verdict == "FAIL"
        assert list(report.witnesses) == ["effect", "effect#1", "effect#2"]
        assert report.witnesses["effect"] != report.witnesses["effect#1"]

    def test_first_repeat_matches_a_single_run(self):
        single, repeated = self.nsc(1), self.nsc(3)
        assert list(single.witnesses) == ["effect"]
        assert single.witnesses["effect"] == repeated.witnesses["effect"]
        assert single.items[0].to_dict() == repeated.items[0].to_dict()


RCC_NOTE = ("sequential statistics use the unnormalized sub-state convention: the joint "
            "probability of (j then i) is tr(rho K†_j S_i K_j); the literal product form "
            "with a normalized conditional state carries a second factor equal to 1")

# per report of scenarios/demo.json: name, verdict, (item, tol, passed) in
# order, notes, witness keys; residual values are left out on purpose
DEMO_STRUCTURE = [
    ("gentle_sweep", "PASS", [("min_margin", 1e-9, True)], [], []),
    ("luders_equivalence", "PASS",
     [("nsc_deviation", None, None), ("rcc_deviation", None, None),
      ("commutator_residual", None, None), ("biconditional", 0.5, True)],
     [RCC_NOTE], []),
    ("beck", "PASS",
     [("nsc_deviation", None, None), ("nsc_deviation_squared", None, None),
      ("kraus_commutator", None, None), ("biconditional", 0.5, True)], [], []),
    ("hw_search", "PASS",
     [("d1_reverified", 1e-9, True), ("d2_shortfall", 0.0, True)], [], ["effect"]),
    ("hc_audit", "PASS",
     [("additivity_residual", 1.6e-9, True), ("covariance_residual", 1.6e-9, True),
      ("energy_min_eig", None, None), ("microcausality_residual", None, None),
      ("max_effect_norm", None, None)],
     ["hypothesis 4 (microcausality) fails; nontrivial effects consistent with the "
      "no-go theorem"], ["microcausality_witness"]),
    ("cc_residual", "INFO", [("cc_residual", None, None)],
     ["shadow=[0, 1, 15] saturated=False"], []),
    ("conditional_build", "PASS",
     [("lab_normalization", 1e-10, True), ("in_lab_additivity", 1e-10, True),
      ("effect_bounds", 1e-10, True)], [], []),
    ("conditional_prob_bound", "PASS",
     [("delta", None, None), ("conditional_fraction", None, None), ("tr_rho_B", None, None),
      ("fraction_vs_B_difference", 2.220506286692112, True),
      ("exact_conditional_identity", 1e-10, True),
      ("operator_form_bound", 1.2135484732797879, True)],
     ["vacuous bound: 2*sqrt(delta)+delta = 2.221 >= 1 exceeds any probability difference"],
     []),
    ("composition_identity", "PASS",
     [("identity_residual", 1e-10, True), ("plain_additivity_gap", None, None),
      ("weighted_additivity_gap", None, None)], [], []),
    ("cross_lab_commutator", "INFO",
     [("commutator_norm", None, None), ("lab_spatial_distance", None, None),
      ("labs_causally_separated_at_equal_time", None, None)], [], []),
    ("causal_separation", "INFO", [("separated", None, None)], [], []),
]


class TestDemoReportStructure:
    """The demo file's reports keep their names, verdicts, items, notes and
    witness keys; a renamed, reordered or re-toleranced item shows here."""

    @pytest.fixture(scope="class")
    def reports(self):
        with open(DEMO_FILE) as fh:
            return run_scenarios(parse_scenarios(json.load(fh)))

    def test_report_count(self, reports):
        assert [r.name for r in reports] == [row[0] for row in DEMO_STRUCTURE]

    @pytest.mark.parametrize("index", range(len(DEMO_STRUCTURE)),
                             ids=[row[0] for row in DEMO_STRUCTURE])
    def test_structure(self, reports, index):
        name, verdict, items, notes, witnesses = DEMO_STRUCTURE[index]
        report = reports[index]
        assert report.name == name
        assert report.verdict == verdict
        assert [it.name for it in report.items] == [it[0] for it in items]
        # computed tolerances may move in the last bits under another BLAS
        assert [it.tol for it in report.items] == [
            tol if tol is None else pytest.approx(tol, rel=1e-9) for _, tol, _ in items
        ]
        assert [it.passed for it in report.items] == [it[2] for it in items]
        assert report.notes == notes
        assert sorted(report.witnesses) == witnesses

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

from povmlab import KINDS, cli, lattice, signaling
from povmlab.cli import main
from povmlab.generators import generate_instance
from povmlab.linalg import DEFAULT_TOL
from povmlab.reporting import CheckReport
from povmlab.scenarios import (
    CHECKS,
    INSTANCES_MAX,
    N_MAX,
    REPEAT_MAX,
    SAMPLES_MAX,
    SYSTEM_PARAMS,
    TIMES_MAX,
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
    encode_instrument,
    encode_matrix,
    encode_povm,
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

    def test_hw_search_budget_is_read_and_not_used(self):
        def report_without_wall_time(params):
            payload = {"scenarios": [{"type": "hw_search", "seed": 7, "repeat": 2,
                                      "params": params}]}
            report = run_scenarios(parse_scenarios(payload))[0].to_dict()
            del report["wall_time"]
            return report

        absent = report_without_wall_time({"dim": 4})
        assert absent["verdict"] == "PASS"
        for budget in (1, 1000):
            assert report_without_wall_time({"dim": 4, "budget": budget}) == absent

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

    @pytest.mark.parametrize("flag, other", [("--out", "--csv"), ("--csv", "--out")])
    def test_a_report_in_a_missing_directory_exits_two(self, tmp_path, capsys, flag, other):
        """Refused after parsing, before anything runs: no summary line and no file."""
        path = write_scenarios(tmp_path, GOOD_BATCH)
        written, missing = tmp_path / "written", tmp_path / "missing" / "report"
        assert main(["run", path, other, str(written), flag, str(missing)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {flag}: no such directory: {missing.parent}\n"
        assert not written.exists() and not missing.parent.exists()

    @pytest.mark.parametrize("flag, other", [("--out", "--csv"), ("--csv", "--out")])
    def test_a_report_path_that_names_a_directory_exits_two(self, tmp_path, capsys, flag,
                                                           other):
        """Refused after parsing, before anything runs: one error line and no file."""
        path = write_scenarios(tmp_path, GOOD_BATCH)
        written, directory = tmp_path / "written", tmp_path / "reports"
        directory.mkdir()
        assert main(["run", path, other, str(written), flag, str(directory)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {flag}: is a directory: {directory}\n"
        assert not written.exists() and list(directory.iterdir()) == []

    def test_missing_file_exits_two(self, capsys):
        assert main(["run", "/nonexistent/file.json"]) == 2

    def test_invalid_json_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", str(bad)]) == 2

    @pytest.mark.parametrize("content", [None, b'{"scenarios": ["\xff"]}', b"[" * 100_000],
                             ids=["directory", "non_utf8", "deep_nesting"])
    def test_unreadable_file_exits_two(self, tmp_path, capsys, content):
        path = tmp_path / "unreadable.json"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        assert main(["run", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: cannot read {path}: ")

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

    @pytest.mark.parametrize("dim, kind", [(dim, kind) for dim in ("0", "-1", "129")
                                           for kind in KINDS])
    def test_gen_dim_outside_one_to_the_ceiling_exits_two(self, capsys, kind, dim):
        assert main(["gen", kind, "--dim", dim, "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: --dim: must be ")

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_gen_seed_takes_the_run_range(self, capsys, seed):
        assert main(["gen", "state", "--dim", "2", "--seed", seed]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: --seed: must be ")
        assert main(["gen", "state", "--dim", "2", "--seed", str(2**64 - 1)]) == 0

    @pytest.mark.parametrize("dim", [1, N_MAX])
    def test_the_ceiling_runs(self, capsys, dim):
        assert main(["gen", "effect", "--dim", str(dim), "--seed", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["matrix"]["dim"] == dim

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_run_reads_back_what_gen_prints(self, capsys, kind, dim):
        assert main(["gen", kind, "--dim", str(dim), "--seed", "7"]) == 0
        payload = json.loads(capsys.readouterr().out)
        parts = ([payload["first"], payload["second"]] if kind == "commuting_pair"
                 else [payload])
        for part in parts:
            decode, encode = {"state": (decode_state, encode_matrix),
                              "effect": (decode_effect, encode_matrix),
                              "povm": (decode_povm, encode_povm),
                              "instrument": (decode_instrument, encode_instrument)}[part["kind"]]
            value = decode(part)
            assert (value.shape[0] if isinstance(value, np.ndarray) else value.dim) == dim
            assert encode(value) == (part["matrix"] if encode is encode_matrix else part)

    def test_a_lattice_system_is_no_kind(self, capsys):
        """``run`` has no reader for a lattice system, so ``gen`` prints none."""
        with pytest.raises(SystemExit) as exit_:
            main(["gen", "lattice_system", "--dim", "4", "--seed", "1"])
        assert exit_.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "invalid choice: 'lattice_system'" in captured.err


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

    @pytest.mark.parametrize("stype, params, field", [
        ("cc_residual", {"t": 1e300, "delta": [0, 1]}, "t"),
        ("cc_residual", {"t": -1e300, "delta": [0, 1]}, "t"),
        ("hc_audit", {"t_grid": [1e300]}, "t_grid/0"),
        ("hc_audit", {"t_grid": [0.0, 0.5, -1e300, 1e300]}, "t_grid/2"),
    ])
    def test_overflowing_phase_exits_two_at_the_time(self, tmp_path, capsys, stype, params,
                                                     field):
        """A finite dispersion times a huge t overflows exp(-itH); the time is refused."""
        params = dict(params, n=8, kind="sharp", mass=1e150)
        path = write_scenarios(tmp_path, {"scenarios": [{"type": stype, "params": params}]})
        assert main(["run", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(rf"error: /scenarios/0/params/{field}: the phase t \* max\|omega\| "
                            r"= -?1e\+300 \* 1\.000e\+150 overflows\n", captured.err)

    def test_a_large_finite_phase_still_runs(self, tmp_path):
        path = write_scenarios(tmp_path, {"scenarios": [
            {"type": "cc_residual", "params": {"n": 8, "kind": "sharp", "mass": 1e150,
                                               "t": 1e150, "delta": [0, 1]}},
            {"type": "hc_audit", "params": {"n": 8, "kind": "sharp", "mass": 1e150,
                                            "t_grid": [0.0, 1e150]}}]})
        assert main(["run", path]) == 0

    @pytest.mark.parametrize("stype, key, pointer", [("cc_residual", "t", "t"),
                                                     ("hc_audit", "t_grid", "t_grid/1")])
    def test_the_phase_edge_is_refused_and_a_time_inside_the_margin_runs(
            self, tmp_path, capsys, stype, key, pointer):
        """H's decomposed spectrum tops max|omega| in its last bits, so the time
        at which t * max|omega| reaches the largest float is refused at parse
        time rather than overflowing exp(-itH) in the run."""
        edge = sys.float_info.max / float(lattice.lattice_dispersion(8, 1e150, 1.0).max())
        for t, refused in [(edge, True), (edge * (1 - 1e-11), False)]:
            params = {"n": 8, "kind": "sharp", "mass": 1e150,
                      key: t if key == "t" else [0.5, t], **({"delta": [0]} if key == "t" else {})}
            path = write_scenarios(tmp_path, {"scenarios": [{"type": stype, "params": params}]})
            assert main(["run", path]) == (2 if refused else 0)
            err = capsys.readouterr().err
            assert err.startswith(f"error: /scenarios/0/params/{pointer}: the phase") == refused

    @pytest.mark.parametrize("stype, params, pointer", [
        ("cc_residual", {"mass": 1e200, "delta": [0]}, "params"),
        ("conditional_build", {"kind": "diagonal_smeared", "width": 1e-200, "lab": [0, 1]},
         "params"),
        ("conditional_build", {"kind": "frame_smeared", "width": 1e-200, "lab": [0, 1]},
         "params"),
        ("cc_residual", {"kind": "sharp", "mass": 1e150, "t": 1e300, "delta": [0]}, "params/t"),
        ("hc_audit", {"kind": "sharp", "mass": 1e150, "t_grid": [0.5, 1e300]}, "params/t_grid/1"),
    ])
    def test_a_refused_second_scenario_runs_nothing(self, tmp_path, capsys, monkeypatch,
                                                    stype, params, pointer):
        """The system rules are read at parse time: the valid first scenario
        does not run, no summary line is printed and no report is written."""
        def build(*args):
            pytest.fail("a lattice system was built")
        for name in dir(lattice):
            if name.startswith("build_") and name.endswith("_system"):
                monkeypatch.setattr(lattice, name, build)
        payload = {"scenarios": [{"type": "nsc", "params": {"dim": 2}},
                                 {"type": stype, "params": dict(params, n=8)}]}
        out, summary = tmp_path / "report.json", tmp_path / "summary.csv"
        path = write_scenarios(tmp_path, payload)
        assert main(["run", path, "--out", str(out), "--csv", str(summary)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: /scenarios/1/{pointer}: ")
        assert not out.exists() and not summary.exists()
        with pytest.raises(SchemaError) as err:
            parse_scenarios(payload)
        assert err.value.pointer == f"/scenarios/1/{pointer}"

    def test_valid_parameters_still_run(self):
        """Tiny values the system rule takes: a sharp kind ignores its width, a
        mass whose square underflows leaves the dispersion finite, and so does
        a spacing above about 1.5e-154."""
        tiny = [{"kind": "sharp", "width": 1e-200}, {"kind": "alternating", "width": 5e-324},
                {"mass": 1e-200}, {"kind": "sharp", "mass": 5e-324}, {"a": 1e-150}]
        payload = {"scenarios": [
            {"type": "gentle_sweep", "tol": 1e300, "params": {"instances": 4, "dims": [2, 3]}},
            {"type": "hc_audit", "params": {"n": 8, "kind": "sharp", "t_grid": [0, 1.0]}},
        ] + [{"type": "cc_residual", "params": dict(params, n=8, delta=[0], t=1.0)}
             for params in tiny]}
        reports = run_scenarios(parse_scenarios(payload))
        assert [r.verdict for r in reports] == ["PASS", "PASS"] + ["INFO"] * len(tiny)
        assert all(math.isfinite(r.items[0].residual) for r in reports[2:])


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
    # two rules of the library are read so too: rcc's instruments are
    # efficient, and causal_separation's regions share one frame
    NOT_EFFICIENT = {"kind": "instrument", "families": [[
        {"dim": 1, "re": [0.6], "im": [0.0]}, {"dim": 1, "re": [0.8], "im": [0.0]}]]}
    EFFICIENT = generate_instance("luders_instrument", 1, 1)
    REGION = {"boxes": [{"lo": [0, 0, 0, 0], "hi": [0, 1, 1, 1]}]}
    BOOSTED = dict(REGION, frame=[1.25, 0.75, 0, 0])

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
        ("rcc", {"first": NOT_EFFICIENT, "second": EFFICIENT}, "first",
         "rcc needs an efficient instrument: one Kraus operator per outcome"),
        ("rcc", {"first": EFFICIENT, "second": NOT_EFFICIENT}, "second",
         "rcc needs an efficient instrument: one Kraus operator per outcome"),
        ("causal_separation", {"first": REGION, "second": BOOSTED}, "second/frame",
         "frame mismatch: FourVector(t=1.0, x=0.0, y=0.0, z=0.0) vs "
         "FourVector(t=1.25, x=0.75, y=0.0, z=0.0)"),
        ("causal_separation", {"first": BOOSTED, "second": REGION}, "second/frame",
         "frame mismatch: FourVector(t=1.25, x=0.75, y=0.0, z=0.0) vs "
         "FourVector(t=1.0, x=0.0, y=0.0, z=0.0)"),
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
            {"type": "rcc", "params": {"first": self.EFFICIENT, "second": self.EFFICIENT}},
            {"type": "causal_separation", "params": {"first": self.BOOSTED,
                                                     "second": self.BOOSTED}},
        ]
        reports = run_scenarios(parse_scenarios(payload))
        assert [r.verdict for r in reports] == ["PASS", "PASS", "INFO", "PASS", "INFO"]


class TestLudersFamilies:
    """An explicit luders_equivalence family that is no POVM at the tolerance
    in force is refused at parse time by ``luders_instrument``'s own test;
    ``--tol`` is that tolerance when given."""

    TWO = {"kind": "povm", "effects": [{"dim": 1, "re": [2.0], "im": [0.0]}]}
    ONE = {"kind": "povm", "effects": [{"dim": 1, "re": [1.0], "im": [0.0]}]}
    FAILED = "invalid POVM for a Lüders instrument: max_eigenvalue <= 1+tol, normalization"

    @pytest.mark.parametrize("field", ["first", "second"])
    def test_refused_before_anything_runs(self, tmp_path, capsys, field):
        params = {"first": self.ONE, "second": self.ONE, field: self.TWO}
        path = write_scenarios(tmp_path, {"scenarios": [
            {"type": "nsc"}, {"type": "luders_equivalence", "params": params}]})
        report = tmp_path / "report.json"
        assert main(["run", path, "--out", str(report)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not report.exists()
        assert captured.err == f"error: /scenarios/1/params/{field}: {self.FAILED}\n"
        # the same file at a tolerance that accepts the family
        assert main(["run", path, "--tol", "2"]) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("PASS luders_equivalence")

    def test_the_override_is_the_tolerance_read(self, tmp_path, capsys):
        path = write_scenarios(tmp_path, [{"type": "luders_equivalence", "tol": 2.0,
                                           "params": {"first": self.TWO, "second": self.ONE}}])
        assert main(["run", path]) == 0
        capsys.readouterr()
        assert main(["run", path, "--tol", "1e-9"]) == 2
        assert capsys.readouterr().err == f"error: /0/params/first: {self.FAILED}\n"

    def test_parse_scenarios_takes_the_overrides(self):
        payload = [{"type": "nsc", "seed": 3, "tol": 1e-6}, {"type": "rcc"}]
        assert [(sc.seed, sc.tol) for sc in parse_scenarios(payload)] == [
            (3, 1e-6), (0, DEFAULT_TOL)]
        assert [(sc.seed, sc.tol) for sc in parse_scenarios(payload, tol=1e-3, seed=9)] == [
            (9, 1e-3), (9, 1e-3)]
        for override, flag in (({"tol": float("nan")}, "--tol"), ({"seed": -1}, "--seed")):
            with pytest.raises(SchemaError) as err:
                parse_scenarios(payload, **override)
            assert err.value.pointer == flag


class TestReportFile:
    """``--out`` holds one compact report per line inside {"reports": [...]},
    parsing to the reports' ``to_dict()`` content."""

    def test_demo_report_holds_one_report_per_line(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["run", str(DEMO_FILE), "--out", str(out)]) == 0
        with open(DEMO_FILE) as fh:
            fresh = [r.to_dict() for r in run_scenarios(parse_scenarios(json.load(fh)))]
        text = out.read_text()
        wire = json.loads(text)["reports"]
        lines = text.splitlines()
        assert (lines[0], lines[-1], len(lines)) == ('{"reports": [', "]}", len(fresh) + 2)
        assert text.endswith("]}\n")
        assert [json.loads(line.removesuffix(",")) for line in lines[1:-1]] == wire
        for report in fresh + wire:
            report.pop("wall_time")
        assert wire == fresh

    # the Kraus operators' entries of 1e200 overflow by design
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_numbers_are_written_as_strict_json(self, tmp_path, capsys):
        """At --tol 1e308 the audit's tol * n overflows to inf, and Kraus
        entries of 1e200 make an rcc residual NaN; both reports parse with
        no constant outside RFC 8259."""
        def strict_reports(path):
            def refuse(constant):
                raise ValueError(f"not a JSON number: {constant}")
            return json.loads(path.read_text(), parse_constant=refuse)["reports"]

        out = tmp_path / "report.json"
        assert main(["run", str(DEMO_FILE), "--tol", "1e308", "--out", str(out)]) == 0
        audit = next(r for r in strict_reports(out) if r["name"] == "hc_audit")
        assert [(it["name"], it["tol"], it["passed"]) for it in audit["items"][:2]] == [
            ("additivity_residual", "Infinity", True), ("covariance_residual", "Infinity", True)]
        big = {"dim": 2, "re": [1e200] * 4, "im": [0.0] * 4}
        instrument = {"kind": "instrument", "labels": [0], "families": [[big]]}
        path = write_scenarios(tmp_path, {"scenarios": [
            {"type": "rcc", "params": {"first": instrument, "second": instrument}}]})
        assert main(["run", path, "--out", str(out)]) == 1
        [item] = strict_reports(out)[0]["items"]
        assert (item["residual"], item["passed"]) == ("NaN", False)

    # the entries of 1e200 overflow by design
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("stype, item", [("nsc", "nsc_deviation"), ("beck", "biconditional")])
    def test_an_overflowing_explicit_input_fails_with_a_nan_residual(self, tmp_path, capsys,
                                                                     stype, item):
        """A Kraus operator and an effect with every entry 1e200 overflow to
        non-finite matrices, whose norms are NaN: the report is written and
        FAILs, as no comparison at tolerance passes NaN."""
        big = {"dim": 2, "re": [1e200] * 4, "im": [0.0] * 4}
        params = {"instrument": {"kind": "instrument", "labels": [0], "families": [[big]]},
                  "effect": {"kind": "effect", "matrix": big}}
        path = write_scenarios(tmp_path, {"scenarios": [{"type": stype, "params": params}]})
        out = tmp_path / "report.json"
        assert main(["run", path, "--out", str(out)]) == 1
        [report] = json.loads(out.read_text())["reports"]
        assert report["verdict"] == "FAIL"
        assert [(it["residual"], it["passed"]) for it in report["items"]
                if it["name"] == item] == [("NaN", False)]

    def test_an_empty_batch_writes_valid_json(self, tmp_path):
        path = write_scenarios(tmp_path, {"scenarios": []})
        out = tmp_path / "report.json"
        assert main(["run", path, "--out", str(out)]) == 0
        assert out.read_text() == '{"reports": [\n]}\n'
        assert json.loads(out.read_text()) == {"reports": []}


class TestSharedParser:
    """``main`` parses with one parser per process, and no call sees the
    flags of another."""

    WALL_TIME = re.compile(r"\d+\.\d{3}s\)")

    def test_one_parser_per_process(self):
        assert cli._parser() is cli._parser()

    def test_a_tol_override_ends_with_its_call(self, tmp_path, capsys):
        path = write_scenarios(tmp_path, {"scenarios": [{"type": "rcc", "params": {"dim": 2}}]})
        out = tmp_path / "report.json"
        tols = []
        for flags in (["--tol", "1e-6"], []):
            assert main(["run", path, "--out", str(out), *flags]) == 0
            tols.append(json.loads(out.read_text())["reports"][0]["scenario"]["tol"])
        assert tols == [1e-6, DEFAULT_TOL]

    def call(self, argv, capsys):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own refusals
            code = exc.code
        out, err = capsys.readouterr()
        return code, self.WALL_TIME.sub("T)", out), err

    def test_interleaved_calls_print_what_each_prints_alone(self, tmp_path, capsys):
        path = write_scenarios(tmp_path, {"scenarios": [
            {"type": "rcc", "params": {"dim": 2}}, {"type": "luders_equivalence"}]})
        calls = [["gen", "state", "--dim", "2", "--seed", "3"], ["version"],
                 ["run", path, "--tol", "1e-6", "--seed", "5"],
                 ["gen", "povm", "--dim", "2"],  # no --seed: argparse exits 2
                 ["run", path], ["gen", "povm", "--dim", "2", "--seed", "4"], ["version"],
                 ["run", path, "--seed", "5"]]
        alone = []
        for argv in calls:
            cli._parser.cache_clear()  # a fresh parser, as in a fresh process
            alone.append(self.call(argv, capsys))
        cli._parser.cache_clear()
        assert [self.call(argv, capsys) for argv in calls] == alone
        assert [code for code, _, _ in alone] == [0, 0, 0, 2, 0, 0, 0, 0]


class TestEmptyLaboratory:
    """A laboratory holds at least one cell: an empty one is refused at
    parse time, not by the build's kernel floor."""

    @pytest.mark.parametrize("stype, params, field", [
        ("conditional_build", {"n": 8, "lab": []}, "lab"),
        ("conditional_bound", {"n": 8, "lab": [], "delta": []}, "lab"),
        ("composition", {"n": 8, "lab1": [], "lab2": [1]}, "lab1"),
        ("composition", {"n": 8, "lab1": [1], "lab2": []}, "lab2"),
        ("cross_lab_commutator", {"n": 8, "lab1": [], "lab2": [1]}, "lab1"),
        ("cross_lab_commutator", {"n": 8, "lab1": [1], "lab2": []}, "lab2"),
    ])
    def test_exits_two_at_the_laboratory(self, tmp_path, capsys, stype, params, field):
        path = write_scenarios(tmp_path, {"scenarios": [{"type": stype, "params": params}]})
        assert main(["run", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: /scenarios/0/params/{field}: "
                                "expected a nonempty list of cell indices\n")


class TestLatticeCeiling:
    """``n`` is at most N_MAX = 128 cells; the ceiling itself runs."""

    @pytest.mark.parametrize("stype, params", [
        ("conditional_build", {"lab": [0]}),
        ("hc_audit", {}),
        ("cc_residual", {"delta": [0]}),
    ])
    def test_above_the_ceiling_exits_two_at_n(self, tmp_path, capsys, stype, params):
        path = write_scenarios(tmp_path, {"scenarios": [
            {"type": stype, "params": dict(params, n=N_MAX + 1)}]})
        assert main(["run", path]) == 2
        assert capsys.readouterr().err == "error: /scenarios/0/params/n: must be <= 128, got 129\n"

    def test_the_ceiling_runs(self):
        payload = [{"type": "conditional_build", "params": {"n": N_MAX, "lab": [3, 4, 5, 6]}},
                   {"type": "cc_residual", "params": {"n": N_MAX, "delta": [0, 1], "t": 2.0}}]
        assert [r.verdict for r in run_scenarios(parse_scenarios(payload))] == ["PASS", "INFO"]



class TestDimensionCeiling:
    """A generated matrix dimension is at most N_MAX = 128, as ``n`` is;
    the ceiling itself runs."""

    CASES = [("nsc", "dim"), ("rcc", "dim"), ("luders_equivalence", "dim"), ("beck", "dim"),
             ("hw_search", "dim"), ("gentle_sweep", "dims")]

    @pytest.mark.parametrize("stype, field", CASES)
    def test_above_the_ceiling_exits_two(self, tmp_path, capsys, stype, field):
        value, pointer = ([2, N_MAX + 1], "dims/1") if field == "dims" else (N_MAX + 1, "dim")
        path = write_scenarios(tmp_path, {"scenarios": [
            {"type": stype, "params": {field: value}}]})
        assert main(["run", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: /scenarios/0/params/{pointer}: must be <= 128, got 129\n"

    def test_the_ceiling_runs(self):
        payload = [{"type": stype, "params": {field: [N_MAX] if field == "dims" else N_MAX}}
                   for stype, field in self.CASES]
        payload[-1]["params"]["instances"] = 2
        # nsc's generated effect does not commute with the instrument, at any dim
        assert [r.verdict for r in run_scenarios(parse_scenarios(payload))] == [
            "FAIL", "PASS", "PASS", "PASS", "PASS", "PASS"]


class TestWorkCeilings:
    """A gentle sweep holds at most INSTANCES_MAX = 100000 instances, a
    scenario at most REPEAT_MAX = 100 repeats, and an hc_audit at most
    SAMPLES_MAX = 32 sampled regions and TIMES_MAX = 32 times: each ceiling
    is read, one more exits 2 at its pointer with nothing run."""

    # an entry at the ceiling, the pointer of the bounded value under the
    # scenario, and the ceiling
    CASES = [({"type": "gentle_sweep", "params": {"instances": INSTANCES_MAX}},
              "params/instances", INSTANCES_MAX),
             ({"type": "nsc", "params": {"dim": 1}, "repeat": REPEAT_MAX}, "repeat", REPEAT_MAX),
             ({"type": "hc_audit",
               "params": {"n": 8, "delta_samples": [[k % 8] for k in range(SAMPLES_MAX)]}},
              "params/delta_samples", SAMPLES_MAX),
             ({"type": "hc_audit", "params": {"t_grid": [k / 8 for k in range(TIMES_MAX)]}},
              "params/t_grid", TIMES_MAX)]
    LISTS = {"params/delta_samples": "cell lists", "params/t_grid": "times"}  # what each holds

    @staticmethod
    def bounded(scenario, key):
        value = scenario.repeat if key == "repeat" else scenario.params[key.split("/")[1]]
        return len(value) if isinstance(value, list) else value

    @pytest.mark.parametrize("entry, key, ceiling", CASES)
    def test_the_ceiling_is_read(self, entry, key, ceiling):
        (scenario,) = parse_scenarios({"scenarios": [entry]})
        assert self.bounded(scenario, key) == ceiling

    @pytest.mark.parametrize("entry, key, ceiling", CASES)
    def test_above_the_ceiling_exits_two(self, tmp_path, capsys, entry, key, ceiling):
        entry = json.loads(json.dumps(entry))
        owner = entry if key == "repeat" else entry["params"]
        name = key.split("/")[-1]
        if key in self.LISTS:
            owner[name].append(owner[name][-1])
        else:
            owner[name] += 1
        out = tmp_path / "report.json"
        path = write_scenarios(tmp_path, {"scenarios": [{"type": "nsc"}, entry]})
        assert main(["run", path, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        message = (f"expected at most {ceiling} {self.LISTS[key]}" if key in self.LISTS
                   else f"must be <= {ceiling}")
        assert captured.err == f"error: /scenarios/1/{key}: {message}, got {ceiling + 1}\n"
        assert not out.exists()

    def test_the_repeat_ceiling_runs(self):
        (report,) = run_scenarios(parse_scenarios([self.CASES[1][0]]))
        assert len(report.items) == REPEAT_MAX


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


class TestCrossLabGeometry:
    """cross_lab_commutator's distance is the ring gap, counted the shorter
    way round, and its separation item reads 1.0 when that gap is > 0, as
    causal_separation's ``separated`` reads 1.0 for separated regions."""

    @pytest.mark.parametrize("n, a, lab1, lab2, distance, separated", [
        (64, 1.0, [1, 2, 3], [60, 61, 62], 2.0, 1.0),  # read 56.0 and 0.0 before
        (64, 1.0, [62, 63, 0, 1], [30, 31, 32], 28.0, 1.0),  # read 0.0 and 1.0 before
        (64, 0.5, [1, 2, 3], [60, 61, 62], 1.0, 1.0),
        (16, 1.0, [1, 2], [3, 4], 0.0, 0.0),
    ])
    def test_distance_and_separation(self, n, a, lab1, lab2, distance, separated):
        [report] = run_scenarios(parse_scenarios([{"type": "cross_lab_commutator", "params": {
            "n": n, "a": a, "lab1": lab1, "lab2": lab2}}]))
        items = {item.name: item.residual for item in report.items}
        assert items["lab_spatial_distance"] == distance
        assert items["labs_causally_separated_at_equal_time"] == separated


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
     ["hypothesis 4 (microcausality) fails at separated pairs; nontrivial effects "
      "consistent with the no-go theorem and Hegerfeldt, Phys. Rev. D 10, 3320"],
     ["microcausality_witness"]),
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


def test_a_tol_override_reaches_the_items_that_follow_tol(tmp_path, capsys):
    """Each rule is written at ``tol``, so ``--tol 1e-6`` moves every item
    that follows it, the composition identity and the gentle sweep's margin
    included, and leaves the fixed ones as they are."""
    out = tmp_path / "report.json"
    assert main(["run", str(DEMO_FILE), "--tol", "1e-6", "--out", str(out)]) == 0
    tols = {(report["name"], item["name"]): item["tol"]
            for report in json.loads(out.read_text())["reports"] for item in report["items"]}
    assert tols[("composition_identity", "identity_residual")] == 1e-6
    assert tols[("conditional_prob_bound", "exact_conditional_identity")] == 1e-6
    assert tols[("gentle_sweep", "min_margin")] == 10 * 1e-6
    assert (tols[("hw_search", "d1_reverified")], tols[("beck", "biconditional")]) == (1e-9, 0.5)

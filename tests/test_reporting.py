import json
import math

import pytest

from povmlab.reporting import FAIL, INFO, PASS, CheckItem, CheckReport


class TestVerdict:
    """INFO when no item is asserted, FAIL when an asserted item exceeds
    its tolerance, PASS otherwise."""

    def test_no_asserted_item_is_info(self):
        report = CheckReport(name="measurement")
        assert report.verdict == INFO
        report.add("value", 5.0)
        report.add("other", -1.0, tol=None)
        assert report.verdict == INFO and report.passed

    def test_one_asserted_item_decides(self):
        report = CheckReport(name="check")
        report.add("value", 5.0)
        report.add("residual", 0.1, tol=0.5)
        assert report.verdict == PASS
        report.add("residual", 1.0, tol=0.5)
        assert report.verdict == FAIL and not report.passed


class TestSummary:
    """The summary names the asserted item with the smallest margin
    tol - residual; measurement-only items never enter it."""

    def test_info_item_is_not_summarized(self):
        report = CheckReport(name="audit")
        report.add("max_effect_norm", 1.0)
        report.add("additivity_residual", 1e-15, tol=1e-9)
        assert report.worst_item.name == "additivity_residual"
        row = report.summary_row()
        assert (row["item"], row["residual"], row["tol"]) == ("additivity_residual", 1e-15, 1e-9)
        assert row["margin"] == 1e-9 - 1e-15

    def test_smallest_margin_not_largest_residual(self):
        report = CheckReport(name="check")
        report.add("loose", 0.1, tol=0.5)
        report.add("tight", 1e-12, tol=1e-10)
        assert report.summary_row()["item"] == "tight"
        report.add("failed", 0.2, tol=0.1)
        row = report.summary_row()
        assert row["verdict"] == FAIL
        assert (row["item"], row["residual"], row["tol"]) == ("failed", 0.2, 0.1)

    def test_nan_residual_is_the_worst(self):
        report = CheckReport(name="check")
        report.add("tight", 0.0, tol=0.0)
        report.add("broken", float("nan"), tol=1.0)
        assert report.verdict == FAIL
        assert report.summary_row()["item"] == "broken"

    def test_info_report_has_empty_values(self):
        report = CheckReport(name="measurement")
        report.add("value", 1.0)
        assert report.worst_item is None
        row = report.summary_row()
        assert row["verdict"] == INFO
        assert [row[key] for key in ("item", "residual", "tol", "margin")] == [None] * 4


class TestDerivedVerdict:
    """An item's verdict is derived from its residual and tolerance, and a
    report is built from its name alone: neither takes a verdict handed in."""

    def test_passed_follows_residual_and_tol(self):
        assert CheckItem("r", 1e-12, 1e-10).passed is True
        assert CheckItem("r", 1.0, 1e-10).passed is False
        assert CheckItem("r", 1.0).passed is None

    def test_a_handed_in_verdict_is_refused(self):
        # before, this item made its report PASS at margin -1.0
        with pytest.raises(TypeError):
            CheckItem("r", 1.0, 1e-10, passed=True)

    def test_passed_is_read_only(self):
        item = CheckItem("r", 1.0, 1e-10)
        with pytest.raises(AttributeError):
            item.passed = True

    @pytest.mark.parametrize("field, value", [
        ("items", [CheckItem("r", 1.0, 1e-10)]), ("witnesses", {}), ("notes", []),
        ("wall_time", 0.0), ("scenario", None)])
    def test_a_report_takes_its_name_alone(self, field, value):
        with pytest.raises(TypeError):
            CheckReport("check", **{field: value})

    def test_items_come_from_add(self):
        report = CheckReport("check")
        report.add("r", 1.0, 1e-10)
        assert report.verdict == FAIL and report.summary_row()["margin"] == 1e-10 - 1.0


class TestStrictJson:
    """RFC 8259 has no Infinity or NaN: an item writes a non-finite residual
    or tol as the string json prints for it, and a finite one as itself."""

    @pytest.mark.parametrize("value, text", [(math.inf, "Infinity"), (-math.inf, "-Infinity"),
                                             (math.nan, "NaN")])
    def test_a_non_finite_number_is_written_as_its_json_text(self, value, text):
        residual = CheckItem("r", value, 1e-10).to_dict()
        tol = CheckItem("r", 0.0, value).to_dict()
        assert (residual["residual"], residual["tol"]) == (text, 1e-10)
        assert (tol["residual"], tol["tol"]) == (0.0, text)
        assert residual["passed"] is (value < 1e-10)
        assert tol["passed"] is (0.0 <= value)

    def test_a_finite_item_is_unchanged(self):
        for item in (CheckItem("r", 1e-300, 1e300), CheckItem("r", -0.5), CheckItem("r", 2.0, 1)):
            assert item.to_dict() == {"name": "r", "residual": item.residual, "tol": item.tol,
                                      "passed": item.passed, "note": ""}
        assert json.dumps(CheckItem("r", 0.1, None).to_dict()["tol"]) == "null"

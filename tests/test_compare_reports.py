"""The report comparison of tools/compare_reports.py."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "compare_reports", Path(__file__).resolve().parents[1] / "tools" / "compare_reports.py")
compare_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_reports)


def test_leaves_in_sorted_key_order_with_lengths_after_items():
    base = {"b": [1, 2], "a": {"x": 1.0}, "c": "kept"}
    head = {"b": [1, 3, 4], "a": {"x": 1.0, "y": True}, "c": "kept"}
    assert list(compare_reports.leaf_differences(base, head)) == [
        ("a.y", compare_reports.MISSING, True), ("b[1]", 2, 3), ("b.length", 2, 3)]


def test_summary_separates_moved_numbers_from_other_changes():
    base = {"zero": 0, "p1": 1.5, "kind": "Unique", "branches": [1.0, 2.0], "ok": True,
            "count": 3, "gap": 2.0, "inf": 1.0}
    head = {"zero": 1e-12, "p1": 1.5 + 3e-7, "kind": "Continuum", "branches": [1.0, 2.0, 3.0],
            "ok": False, "count": 4, "gap": 2.0, "inf": float("inf")}
    largest_abs, largest_rel, others = compare_reports.summarize(base, head)
    assert largest_abs[1] == "p1" and largest_abs[0] == pytest.approx(3e-7)
    # an int 0 written for a float 0.0 is a number that moved
    assert largest_rel == (1.0, "zero")
    assert others == [("branches.length", 2, 3), ("count", 3, 4), ("inf", 1.0, float("inf")),
                      ("kind", "Unique", "Continuum"), ("ok", True, False)]


def test_equal_reports_have_no_summary(tmp_path):
    text = '{"results": {"p0": [0.5]}, "timing": {"wall_s": 1.0}}'
    (tmp_path / "a.json").write_text(text)
    (tmp_path / "b.json").write_text(text.replace("1.0", "2.0"))
    assert compare_reports._report_difference(tmp_path / "a.json", tmp_path / "b.json") is None
    (tmp_path / "b.json").write_text(text.replace("0.5", "0.50"))
    first, (largest_abs, _, others) = compare_reports._report_difference(
        tmp_path / "a.json", tmp_path / "b.json")
    assert (first, largest_abs, others) == ("formatting", None, [])

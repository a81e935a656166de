"""``tools/report_diff.py``: two reports are equal once every record's
``elapsed_ms`` is dropped, and the first other difference is named."""

import copy
import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "report_diff.py"
spec = importlib.util.spec_from_file_location("report_diff", TOOL)
report_diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(report_diff)

REPORT = {
    "schema_version": 1,
    "config": {"precision": 16},
    "records": [
        {"suite": "rings", "case": "a", "status": "pass", "details": {"n": 1}, "elapsed_ms": 1.5},
        {"suite": "rings", "case": "b", "status": "pass", "details": {"n": 2}, "elapsed_ms": 2.5},
    ],
    "summary": {"pass": 2, "fail": 0, "skip": 0},
}


def run(tmp_path, a, b, capsys):
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(b))
    code = report_diff.main([str(pa), str(pb)])
    return code, capsys.readouterr().out


def test_reports_differing_only_in_elapsed_ms_are_equal(tmp_path, capsys):
    other = copy.deepcopy(REPORT)
    for r in other["records"]:
        r["elapsed_ms"] *= 3
    code, out = run(tmp_path, REPORT, other, capsys)
    assert code == 0
    assert "2 records" in out


def test_first_differing_case_is_printed(tmp_path, capsys):
    other = copy.deepcopy(REPORT)
    other["records"][1]["details"]["n"] = 3
    code, out = run(tmp_path, REPORT, other, capsys)
    assert code == 1
    assert "rings/b" in out


def test_missing_record_and_other_keys_differ(tmp_path, capsys):
    shorter = copy.deepcopy(REPORT)
    del shorter["records"][1]
    code, out = run(tmp_path, REPORT, shorter, capsys)
    assert code == 1
    assert "rings/b" in out
    other = copy.deepcopy(REPORT)
    other["summary"]["pass"] = 1
    code, out = run(tmp_path, REPORT, other, capsys)
    assert code == 1
    assert "summary" in out

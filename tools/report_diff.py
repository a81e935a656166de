"""Compare two ``patchalg`` reports apart from their timing fields.

    python3 tools/report_diff.py A.json B.json

A report (``patchalg --suite all --output A.json``) is reproducible byte for
byte apart from every record's ``elapsed_ms``.  This script drops that field
from each record and compares the rest.  It exits 0 when the two reports are
then equal.  Otherwise it prints the first difference and exits 1: the
first record (in report order) that differs, with both versions, or the
first other top-level key that differs.
"""

from __future__ import annotations

import argparse
import json
import sys


def strip_timing(report: dict) -> dict:
    """The report without the ``elapsed_ms`` of its records."""
    out = dict(report)
    out["records"] = [{k: v for k, v in r.items() if k != "elapsed_ms"}
                      for r in report.get("records", [])]
    return out


def first_difference(a: dict, b: dict):
    """None when the reports agree apart from timing, else a description of
    the first difference."""
    a, b = strip_timing(a), strip_timing(b)
    for i, (ra, rb) in enumerate(zip(a["records"], b["records"])):
        if ra != rb:
            name = f"{ra.get('suite')}/{ra.get('case')}"
            return (f"record {i} ({name}) differs:\n"
                    f"A: {json.dumps(ra, sort_keys=True)}\n"
                    f"B: {json.dumps(rb, sort_keys=True)}")
    na, nb = len(a["records"]), len(b["records"])
    if na != nb:
        extra = (a if na > nb else b)["records"][min(na, nb)]
        return (f"A has {na} records, B has {nb}; the first unmatched one is "
                f"{extra.get('suite')}/{extra.get('case')}")
    for key in sorted(set(a) | set(b)):
        if a.get(key) != b.get(key):
            return (f"key {key!r} differs:\n"
                    f"A: {json.dumps(a.get(key), sort_keys=True)}\n"
                    f"B: {json.dumps(b.get(key), sort_keys=True)}")
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", help="first report (JSON)")
    ap.add_argument("b", help="second report (JSON)")
    args = ap.parse_args(argv)
    reports = []
    for path in (args.a, args.b):
        with open(path, "r", encoding="utf-8") as fh:
            reports.append(json.load(fh))
    diff = first_difference(*reports)
    if diff is None:
        print(f"reports equal apart from elapsed_ms "
              f"({len(reports[0].get('records', []))} records)")
        return 0
    print(diff)
    return 1


if __name__ == "__main__":
    sys.exit(main())

"""The summary that ``tools/bench_pairs.py`` writes into a BENCH file, over
canned runs: medians, inclusive quartiles, runs in pair order, the pairs the
change wins by each metric's direction (ties for neither side) and the
median change in percent."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def run(rps, p50, failed=0):
    """A ``bench/run.py`` result with two metrics."""
    return {"correct": failed == 0, "attempted": 100, "failed": failed,
            "metrics": {"throughput_rps": {"value": rps, "unit": "requests/s"},
                        "latency_ms_p50": {"value": p50, "unit": "ms"}}}


def test_row_summarizes_both_sides_pair_by_pair():
    parent = [run(100, 2.0), run(110, 1.0), run(105, 1.5), run(120, 1.5)]
    change = [run(110, 1.8), run(108, 1.2, failed=1), run(115, 1.5), run(130, 1.4)]
    first = ["parent", "change", "parent", "change"]
    better = {"throughput_rps": "higher", "latency_ms_p50": "lower"}
    got = bench_pairs.row(90210, first, parent, change, better)

    assert got["seed"] == 90210 and got["pairs"] == 4 and got["first_side"] == first
    p, c = got["parent"], got["change"]
    assert (p["runs"], p["failed"], p["attempted"], p["correct"]) == (4, 0, 400, True)
    assert (c["runs"], c["failed"], c["attempted"], c["correct"]) == (4, 1, 400, False)
    assert p["runs_by_metric"]["throughput_rps"] == [100, 110, 105, 120]
    assert p["median"] == {"throughput_rps": 107.5, "latency_ms_p50": 1.5}
    assert c["median"] == {"throughput_rps": 112.5, "latency_ms_p50": 1.45}
    assert p["quartiles"]["throughput_rps"] == [103.75, 112.5]
    assert c["quartiles"]["throughput_rps"] == [109.5, 118.75]
    # throughput: 3 of 4 pairs higher; latency: 2 lower, one tie, one higher
    assert got["change_better_pairs"] == {"throughput_rps": 3, "latency_ms_p50": 2}
    assert got["median_change_pct"] == {"throughput_rps": pytest.approx(4.65),
                                        "latency_ms_p50": pytest.approx(-3.33)}


def test_rows_are_named_by_workload_and_seed():
    assert bench_pairs.row_name("kummer-qi", 1) == "kummer-qi"
    assert bench_pairs.row_name("kummer-qi", 90210) == "kummer-qi@90210"
    assert bench_pairs.command("W", "S", "30") == [
        "python3", "bench/run.py", "--workload", "W", "--seed", "S", "--seconds", "30",
        "--trace", "0"]

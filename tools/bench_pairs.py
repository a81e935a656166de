"""Alternating benchmark pairs of two checkouts, summarized into a BENCH file.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W [--seed S]

Runs ``python3 bench/run.py --workload W --seed S --seconds T --trace 0``
ten times in each checkout, with T the ``run_seconds`` of ``BENCHMARK.json``,
each run a fresh process started in the checkout's root, as is.  Odd pairs
run the parent first and even pairs the change, so that a drift of the
host's speed falls on both sides.  Each run is read from the JSON object on
its last line of output.

The row for (W, S) goes into the ``end_to_end`` object of
``BENCH_<parent>.json`` in the current directory, under W at
``bench/run.py``'s default seed 1 and under W@S otherwise, replacing a row
of that name and keeping every other key of the file.  A row holds the
seed, the pair count, ``first_side``, and for each side the runs, the
failed and attempted requests, whether every run was correct, and the
median, the inclusive quartiles and every run of each end-to-end metric, in
pair order.  ``change_better_pairs`` counts the pairs in which the change
reads better, by the direction ``BENCHMARK.json`` gives the metric (ties
count for neither side), and ``median_change_pct`` is the change's median
over the parent's, minus one, in percent.

The parent's name is the short commit of PARENT_DIR (``git rev-parse``).
A new file gets ``command`` and ``method`` written by the tool and an empty
``change``, which says what the change does and is filled in by hand, as is
any other key; the tool keeps ``change`` and ``method`` of an existing file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

DEFAULT_SEED = 1  # bench/run.py's default; its row is named by the workload alone
PAIRS = 10  # the fewest pairs that can show a gain in nine of ten


def command(workload: str, seed, seconds) -> list:
    return ["python3", "bench/run.py", "--workload", str(workload), "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in the checkout at root: its JSON result."""
    proc = subprocess.run(command(workload, seed, seconds), cwd=root, capture_output=True,
                          text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"bench/run.py failed in {root} (exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-1])


def side(runs: list) -> dict:
    """Summary of one side's runs (``run_once`` results, in pair order)."""
    names = list(runs[0]["metrics"])
    by_metric = {m: [r["metrics"][m]["value"] for r in runs] for m in names}
    quartiles = {}
    for m, values in by_metric.items():
        q1, _q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
        quartiles[m] = [round(q1, 3), round(q3, 3)]
    return {
        "runs": len(runs),
        "failed": sum(r["failed"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "correct": all(r["correct"] for r in runs),
        "median": {m: round(statistics.median(v), 3) for m, v in by_metric.items()},
        "quartiles": quartiles,
        "runs_by_metric": {m: [round(x, 3) for x in v] for m, v in by_metric.items()},
    }


def row(seed: int, first_side: list, parent_runs: list, change_runs: list, better: dict) -> dict:
    """The BENCH row of one workload and seed; better maps each metric to
    "higher" or "lower"."""
    parent, change = side(parent_runs), side(change_runs)
    pct, wins = {}, {}
    for m, direction in better.items():
        sign = 1 if direction == "higher" else -1
        pct[m] = round(100 * (change["median"][m] / parent["median"][m] - 1), 2)
        pairs = zip(parent["runs_by_metric"][m], change["runs_by_metric"][m])
        wins[m] = sum(sign * (c - p) > 0 for p, c in pairs)
    return {"seed": seed, "pairs": len(first_side), "first_side": first_side,
            "parent": parent, "change": change,
            "median_change_pct": pct, "change_better_pairs": wins}


def row_name(workload: str, seed: int) -> str:
    return workload if seed == DEFAULT_SEED else f"{workload}@{seed}"


def short_commit(root: Path) -> str:
    return subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=root, capture_output=True,
                          text=True, check=True).stdout.strip()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_dir", type=Path)
    ap.add_argument("change_dir", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = ap.parse_args(argv)

    spec = json.loads((args.change_dir / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    parent_name = short_commit(args.parent_dir)
    out = Path(f"BENCH_{parent_name}.json")
    first_side, runs = [], {"parent": [], "change": []}
    for i in range(PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        first_side.append(order[0])
        for name in order:
            root = args.parent_dir if name == "parent" else args.change_dir
            runs[name].append(run_once(root, args.workload, args.seed, seconds))
            value = runs[name][-1]["metrics"]["throughput_rps"]["value"]
            print(f"pair {i + 1} {name}: {value:.1f} rps", file=sys.stderr)

    doc = json.loads(out.read_text()) if out.exists() else {}
    doc.setdefault("parent", parent_name)
    doc.setdefault("change", "")
    doc["command"] = " ".join(command("W", "S", seconds))
    doc.setdefault("method", (
        f"alternating parent/change runs of bench/run.py, each a fresh process in its own "
        f"checkout, on {platform.machine()} with {os.cpu_count()} CPUs, Python "
        f"{platform.python_version()}; odd pairs ran the parent first, even pairs the change "
        f"first (first_side); medians and quartiles (inclusive) over the runs of each side; "
        f"runs_by_metric[m][i] of both sides are pair i+1; change_better_pairs counts the pairs "
        f"in which the change reads better, ties for neither; median_change_pct is the change "
        f"median over the parent median, minus one. Rows are named by workload, with @seed "
        f"for a seed other than {DEFAULT_SEED}."))
    doc.setdefault("end_to_end", {})[row_name(args.workload, args.seed)] = row(
        args.seed, first_side, runs["parent"], runs["change"], better)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark itself (not of patchalg):

1. negative controls: every request kind's checker accepts the program's
   result and rejects a deliberately corrupted one (a perturbed last
   coefficient, swapped Cartan factors, a norm off by one factor of r, the
   certificate of the other tamper setting);
2. tracer coverage: each layer function is wrapped in every namespace the
   program imports it into, and every per-layer count is nonzero on each
   workload its layer names;
3. deterministic counts: two traced runs at the same seed, in separate
   processes, report identical counts.

    python3 bench/selftest.py          # all three, about three minutes
    python3 bench/selftest.py 1 2      # only the first two
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 1
failures = []


def expect(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def negative_controls() -> None:
    for wl in workloads.WORKLOADS.values():
        ctx = wl.setup()
        reqs = wl.warmup(ctx, random.Random(f"selftest/{wl.name}"))
        for kind, inp in list(reqs):
            if kind.name == "certificate":
                reqs.append((kind, (not inp[0], inp[1])))
        for kind, inp in reqs:
            out = kind.compute(ctx, inp)
            label = f"{wl.name}/{kind.name}" + (f" tamper={inp[0]}" if kind.name == "certificate" else "")
            expect(kind.check(ctx, inp, out), f"{label}: checker accepts the program's result")
            expect(not kind.check(ctx, inp, kind.corrupt(ctx, inp, out)),
                   f"{label}: checker rejects a corrupted result")


IMPORTED_NAMES = {
    "analytic.ae_dot": ["patchalg.patching.ae_dot"],
    "analytic.membership": ["patchalg.patching.membership"],
    "analytic.unit_invert": ["patchalg.patching.unit_invert", "patchalg.kummer.unit_invert"],
    "analytic.prime_point_valuation": ["patchalg.kummer.prime_point_valuation"],
    "series.prime_valuation": ["patchalg.kummer.bivar_prime_valuation"],
}


def coverage() -> None:
    tracer = spans.Tracer()
    for layer, names in IMPORTED_NAMES.items():
        held = tracer.namespaces_of(layer)
        for name in names:
            expect(name in held, f"{layer} is wrapped as {name}")
    for wl in workloads.WORKLOADS.values():
        ctx = wl.setup()
        reqs = wl.stream(ctx, random.Random(f"{wl.name}/{SEED}"), workloads.BLOCK)
        m = run.traced_run(ctx, reqs, spans.Tracer(), paired=False)
        expect(m["failed"] == 0, f"{wl.name}: traced block verified")
        for layer in spans.LAYERS:
            if wl.name not in layer.on:
                continue
            for key, value in m.items():
                if key.startswith(layer.name + ".") and not key.endswith(".failed"):
                    expect(value > 0, f"{wl.name}: {key} = {value} is nonzero")


def is_count(key: str) -> bool:
    return not key.endswith("_s") and key != "trace.overhead_pct"


def deterministic_counts() -> None:
    cmd = [sys.executable, str(HERE / "run.py"), "--seed", str(SEED), "--seconds", "1",
           "--trace", "1", "--workload"]
    for wl in workloads.WORKLOADS:
        procs = [subprocess.Popen(cmd + [wl], stdout=subprocess.PIPE, text=True)
                 for _ in range(2)]
        results = []
        for p in procs:
            out, _ = p.communicate(timeout=600)
            expect(p.returncode == 0, f"{wl}: traced run exits 0")
            results.append(json.loads(out.strip().splitlines()[-1]))
        counts = [{k: v["value"] for k, v in r["metrics"].items() if is_count(k)} for r in results]
        diff = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
        expect(bool(counts[0]) and not diff,
               f"{wl}: {len(counts[0])} counts identical across processes {diff or ''}")


TESTS = {"1": negative_controls, "2": coverage, "3": deterministic_counts}

if __name__ == "__main__":
    for key in sys.argv[1:] or sorted(TESTS):
        TESTS[key]()
    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)

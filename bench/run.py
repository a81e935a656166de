"""patchalg benchmark: one closed-loop client, three verified request streams.

    python3 bench/run.py --workload ring-ops --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Set-up (import, configuration, request generation from the seed and one
untimed warm-up request of each kind) is done before the clock starts, and
is repeated ``SETUP_REPEATS`` times so that ``setup_s`` is a median.  Then
the client sends one request at a time, waits for its result and checks it
exactly before sending the next; it makes passes over the generated
requests until ``--seconds`` have passed (the first pass always whole).  A
request's latency is the mean of its timings, each corrected for the host's
speed (below).  No request waits in a queue.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics.  With ``--trace 1`` the run instead takes the first
``TRACE_REQUESTS`` requests, runs each once with the layer wrappers of
``spans.py`` installed and once without, alternating which goes first, and
reports the per-layer metrics of the traced runs plus the tracing overhead.
The traced request count is fixed, not timed, so that every count it
reports repeats exactly at a given seed.  Spans go to ``bench/out/``.

Exit status 2, with nothing on standard output, when the program cannot be
imported.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import math
import random
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
# requests generated per workload, whole blocks; the timed loop makes
# passes over them, the first always whole.  Each request has its own
# coefficients, so the more of them a run times, the less the seed moves
# its figures; the first pass takes about 4 s (ring-ops), 22 s (cartan)
# and 18 s (kummer-qi) at full speed.
PASS_REQUESTS = {"ring-ops": 200, "cartan": 40, "kummer-qi": 120}
# traced requests: whole blocks, so every request kind is traced
TRACE_REQUESTS = {"ring-ops": 200, "cartan": 20, "kummer-qi": 60}


# Host-speed correction.  A 2-vCPU Xeon VM that shares its host ran the same
# code at speeds that differed by up to 1.7 times, for minutes at a time, so
# that no statistic of raw timings repeated from run to run within a tenth.
# A fixed stdlib computation that does not touch patchalg, timed before
# every request, tracks that speed: every time the benchmark reports is its
# raw time scaled by (NOMINAL_REF_S / r) ** HOST_EXPONENT, where r is the
# reference's median time within REF_WINDOW_S of it; that is the time it
# would take on that VM at its full speed.  The reference slows more than
# the program when the host is busy: over 23 runs on that VM with r from
# 0.30 to 0.50 ms, the program's times grew as r ** 0.85.  A change to
# patchalg does not change the reference, so it shows in full.
NOMINAL_REF_S = 3.2e-4  # the reference's time on that VM at full speed
HOST_EXPONENT = 0.85
REF_WINDOW_S = 1.0


def reference() -> float:
    """Seconds one run of the reference takes now, with the collector off so
    that the program's heap does not enter it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc, last = Fraction(0), {}
        for i in range(1, 120):
            acc += Fraction(i % 7 - 3, i)
            last[i % 13] = acc
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def speed_factor(refs) -> float:
    """The factor that takes a time measured beside reference times ``refs``
    to full host speed."""
    return (NOMINAL_REF_S / statistics.median(refs)) ** HOST_EXPONENT


def quantile(xs, p: float, steps: int = 4000) -> float:
    """Harrell-Davis estimate of the p-quantile of ``xs``: the mean of the
    order statistics weighted by the Beta((n+1)p, (n+1)(1-p)) mass over each
    n-th of [0, 1].  A run times 40 cartan requests, so its plain 90th
    percentile is the fourth or fifth largest latency alone, and it moved
    with the seed by up to a fifth; this estimate weighs the neighbours of
    that order statistic too, and moved by about a tenth."""
    xs = sorted(xs)
    n = len(xs)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    w = [0.0] * n
    for k in range(steps):
        u = (k + 0.5) / steps
        w[int(u * n)] += math.exp(log_norm + (a - 1) * math.log(u) + (b - 1) * math.log1p(-u))
    return sum(wi * x for wi, x in zip(w, xs)) / sum(w)


E2E_UNITS = {"throughput_rps": "requests/s", "latency_ms_p50": "ms", "latency_ms_p90": "ms",
             "setup_s": "s", "error_rate": "fraction", "peak_rss_mb": "MB"}
# error_rate is 0 on a correct program, so it is printed here and reaches the
# JSON result through "failed"/"attempted" rather than as a bounded metric
JSON_E2E = ("throughput_rps", "latency_ms_p50", "latency_ms_p90", "setup_s", "peak_rss_mb")


def _import_program():
    t0 = time.perf_counter()
    if not (ROOT / "src" / "patchalg").is_dir():
        raise ImportError(f"no patchalg sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads  # imports patchalg
    return workloads, time.perf_counter() - t0


def setup(wl, seed: int):
    """Configuration, seeded requests and the verified warm-up.

    Returns (ctx, requests, (warm-up requests, of which failed), seconds)."""
    t0 = time.perf_counter()
    ctx = wl.setup()
    reqs = wl.stream(ctx, random.Random(f"{wl.name}/{seed}"), PASS_REQUESTS[wl.name])
    warm = wl.warmup(ctx, random.Random(f"{wl.name}/{seed}/warmup"))
    failed = sum(not _attempt(ctx, kind, inp) for kind, inp in warm)
    return ctx, reqs, (len(warm), failed), time.perf_counter() - t0


def _attempt(ctx, kind, inp) -> bool:
    from workloads import run_request

    try:
        return run_request(ctx, kind, inp)
    except Exception:  # noqa: BLE001 - a raising request is a counted error
        traceback.print_exc(file=sys.stderr)
        return False


def timed_run(ctx, reqs, seconds: float) -> dict:
    """Passes over ``reqs`` until ``seconds`` have passed; the first pass is
    always whole.  The reference is timed before every request and once
    after the last; a request's latency is the mean of its corrected
    timings, and throughput is that of a client whose every request takes
    its latency."""
    spans = []  # (request, start, end), raw
    ref_at, ref_s = [], []
    verified = [True] * len(reqs)
    n = failed = 0
    deadline = time.perf_counter() + seconds
    while n < len(reqs) or time.perf_counter() < deadline:
        r = n % len(reqs)
        ref_at.append(time.perf_counter())
        ref_s.append(reference())
        kind, inp = reqs[r]
        t0 = time.perf_counter()
        ok = _attempt(ctx, kind, inp)
        spans.append((r, t0, time.perf_counter()))
        verified[r] = verified[r] and ok
        failed += not ok
        n += 1
    ref_at.append(time.perf_counter())
    ref_s.append(reference())
    times = [[] for _ in reqs]
    raw = [[] for _ in reqs]
    for r, t0, t1 in spans:
        near = ref_s[bisect.bisect_left(ref_at, t0 - REF_WINDOW_S):
                     bisect.bisect_right(ref_at, t1 + REF_WINDOW_S)]
        times[r].append((t1 - t0) * speed_factor(near))
        raw[r].append(t1 - t0)
    lat = [statistics.mean(t) for t in times]
    raw_lat = [statistics.mean(t) for t in raw]
    return {
        "attempted": n,
        "failed": failed,
        "passes": n / len(reqs),
        "throughput_rps": sum(verified) / sum(lat),
        "latency_ms_p50": 1e3 * quantile(lat, 0.5),
        "latency_ms_p90": 1e3 * quantile(lat, 0.9),
        "error_rate": failed / n,
        "raw": {"throughput_rps": sum(verified) / sum(raw_lat),
                "latency_ms_p50": 1e3 * quantile(raw_lat, 0.5),
                "latency_ms_p90": 1e3 * quantile(raw_lat, 0.9)},
        "reference_ms": 1e3 * statistics.median(ref_s),
    }


def traced_run(ctx, reqs, tracer, paired: bool = True) -> dict:
    """Each request once traced (and, if paired, once untraced)."""
    failed = 0
    t_traced = t_plain = 0.0
    for rid, (kind, inp) in enumerate(reqs):
        order = ("traced", "plain") if rid % 2 else ("plain", "traced")
        for mode in order if paired else ("traced",):
            t0 = time.perf_counter()
            if mode == "traced":
                ok = tracer.request(rid, _attempt, ctx, kind, inp)
                t_traced += time.perf_counter() - t0
            else:
                ok = _attempt(ctx, kind, inp)
                t_plain += time.perf_counter() - t0
            failed += not ok
    out = {"attempted": len(reqs) * (2 if paired else 1), "failed": failed}
    out.update(tracer.reduce())
    if paired:
        # traced throughput against untraced, as extra time per request
        out["trace.overhead_pct"] = 100.0 * (t_traced / t_plain - 1.0)
    return out


def self_time_shares(m: dict) -> dict:
    """Each layer's self time as a share of the traced requests' wall time."""
    total = m["request.total_s"]
    return {k[:-len(".self_s")]: v / total for k, v in m.items()
            if k.endswith(".self_s") and total > 0}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(PASS_REQUESTS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    try:
        workloads, import_s = _import_program()
    except ImportError as exc:
        print(f"bench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]

    # each set-up is corrected by the reference timed just before and after
    # it; the import by that of the first set-up
    setups, raw_setups = [], []
    warm_attempted = warm_failed = 0
    for _ in range(1 if args.trace else SETUP_REPEATS):
        before = [reference() for _ in range(5)]
        ctx, reqs, (attempted, failed), secs = setup(wl, args.seed)
        factor = speed_factor(before + [reference() for _ in range(5)])
        if not setups:
            raw_import_s, import_s = import_s, import_s * factor
        warm_attempted += attempted
        warm_failed += failed
        setups.append(secs * factor)
        raw_setups.append(secs)

    if args.trace:
        from spans import Tracer, metric_units

        tracer = Tracer()
        m = traced_run(ctx, reqs[:TRACE_REQUESTS[wl.name]], tracer)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{wl.name}-seed{args.seed}.tsv.gz")
        units = metric_units()
        for k, unit in units.items():
            print(f"{wl.name} {k:40s} {m[k]} {unit}")
        for name, share in sorted(self_time_shares(m).items(), key=lambda kv: -kv[1]):
            print(f"share {name:34s} {100 * share:6.2f} % of traced request time")
        print(f"traced requests {TRACE_REQUESTS[wl.name]}, "
              f"request wall time {m['request.total_s']:.3f} s")
    else:
        m = timed_run(ctx, reqs, args.seconds)
        m["setup_s"] = import_s + statistics.median(setups)
        m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        m["raw"]["setup_s"] = raw_import_s + statistics.median(raw_setups)
        units = {k: E2E_UNITS[k] for k in JSON_E2E}
        print(f"host: reference {m['reference_ms']:.4f} ms (full speed "
              f"{1e3 * NOMINAL_REF_S:.2f} ms); raw figures in brackets")
        for k, unit in E2E_UNITS.items():
            extra = (f"  (n = {len(reqs)} requests, {m['passes']:.1f} passes)"
                     if k == "latency_ms_p90" else "")
            raw = f"  [{m['raw'][k]:.4f}]" if k in m["raw"] else ""
            print(f"{wl.name} {k:16s} {m[k]:12.4f} {unit}{raw}{extra}")

    result = {
        "correct": m["failed"] == 0 and warm_failed == 0,
        "attempted": m["attempted"] + warm_attempted,
        "failed": m["failed"] + warm_failed,
        "metrics": {k: {"value": m[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Digest of the Kummer norms of the kummer-qi benchmark requests.

    python3 tools/norm_digest.py --seeds 1 2 3

Run from the root of a checkout; the program is imported from ``src/`` and
the requests are the ones ``bench/run.py`` draws for a seed.  For every
norm-law request it prints the seed, the request's place in the stream and
the SHA-256 of its norm: the u2 power, the t-shift and the exact series
data of the numerator.  Two checkouts compute identical norms when their
outputs are identical, so a change to ``KummerElement.norm`` is checked by
running this script in both and comparing the outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402

REQUESTS = 120  # the pool of one kummer-qi run


def norm_digest(ctx, x, w) -> str:
    xw = x.mul_base(ctx["r_pows"][w]) if w else x
    c = xw.norm()
    body = c.elem.body
    data = [c.u2pow, c.elem.tshift, body.chart, body.precision,
            (body.f0.den, body.f0._c),
            sorted((kn, s.den, s._c) for kn, s in body.zc.items())]
    return hashlib.sha256(repr(data).encode()).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = ap.parse_args(argv)
    wl = workloads.WORKLOADS["kummer-qi"]
    for seed in args.seeds:
        ctx = wl.setup()
        for n, (kind, inp) in enumerate(wl.stream(ctx, random.Random(f"{wl.name}/{seed}"), REQUESTS)):
            if kind.name == "norm-law":
                print(seed, n, norm_digest(ctx, *inp))
    return 0


if __name__ == "__main__":
    sys.exit(main())

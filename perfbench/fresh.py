"""One process's share of an untraced run, or the untraced reference of a
traced run, in a fresh interpreter. Every process thus starts with cold
process-global caches (the verify memo, key objects) and its own memory
layout, as a user's process would.

    python3 perfbench/fresh.py <workload> <seed> <params-json> share|reference <seconds>

Prints one JSON line: for `share`, the report of `run.share`; for
`reference`, the set-up fingerprint, the wall time of the fixed measured
work, its fingerprint and its failed count.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

_BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(_BENCH_DIR.parent / "src"), str(_BENCH_DIR)]

import common  # noqa: E402
from run import share, workloads  # noqa: E402


def main(argv: list[str]) -> int:
    name, seed, params, mode, seconds = argv[0], int(argv[1]), json.loads(argv[2]), argv[3], float(argv[4])
    w = workloads()[name](**params)
    if mode == "share":
        out = share(w, seed, seconds)
    else:
        st = w.setup(seed)
        checks = common.Checks()
        t0 = time.perf_counter()
        m = w.measure(st, None, checks, traced=False)
        out = {
            "setup_fingerprint": st.fingerprint,
            "measure_s": time.perf_counter() - t0,
            "fingerprint": m.fingerprint,
            "failed": checks.failed,
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

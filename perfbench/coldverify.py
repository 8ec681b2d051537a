"""Cold `read_ledger` + `validate_chain` of one persisted ledger, run in a
fresh interpreter as `careledger verify` would be.

    python3 perfbench/coldverify.py <ledger-file> [--trace]

Prints one JSON line: ok, violation, bytes, read_s, validate_s and, with
--trace, the span aggregates of both calls.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time
from pathlib import Path

_BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(_BENCH_DIR.parent / "src"), str(_BENCH_DIR)]

from careledger import ledger  # noqa: E402
from careledger.errors import ChainError  # noqa: E402

import tracer  # noqa: E402


def main(argv: list[str]) -> int:
    path = argv[0]
    traced = "--trace" in argv[1:]
    violation = None
    with tracer.Tracer() if traced else contextlib.nullcontext() as spans:
        t0 = time.perf_counter()
        try:
            loaded = ledger.read_ledger(path)
        except ChainError as exc:
            loaded, violation = None, f"unreadable: {exc}"
        t1 = time.perf_counter()
        if loaded is not None:
            report = ledger.validate_chain(loaded)
            if not report.ok:
                violation = str(report.violation)
        t2 = time.perf_counter()
    out = {
        "ok": violation is None,
        "violation": violation,
        "bytes": os.path.getsize(path),
        "read_s": t1 - t0,
        "validate_s": t2 - t1,
    }
    if traced:
        out["layers"] = spans.snapshot()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

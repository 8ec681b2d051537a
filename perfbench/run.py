"""careledger benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload care_stream --seed 1 --seconds 24 --trace 0

With --trace 0 the last line carries the end-to-end metrics; with --trace 1
the per-layer metrics of a separate traced run. Exits 1 when any output is
wrong or a deterministic fingerprint differs, 2 when the library sources
are missing. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
# Per-process sample lists that an untraced run pools.
SAMPLES = ("rates", "latencies_ms", "verify_bytes", "verify_s")


def workloads() -> dict:
    from audit import LedgerAudit
    from care import CareBurst, CareStream
    from consent_match import ConsentMatch

    return {w.name: w for w in (CareBurst, CareStream, LedgerAudit, ConsentMatch)}


def fresh(w, seed: int, mode: str, seconds: float = 0.0) -> dict:
    """Run perfbench/fresh.py for workload object `w` and return its report."""
    cmd = [sys.executable, str(BENCH_DIR / "fresh.py"), w.name, str(seed), json.dumps(w.params), mode, str(seconds)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def _plain(fingerprint: dict) -> dict:
    """The fingerprint as it reads after a JSON round trip from a child."""
    return json.loads(json.dumps(fingerprint))


def share(w, seed: int, seconds: float) -> dict:
    """One process's share of an untraced run: set up, measure for
    `seconds`, check the end state. Returns a JSON-ready report."""
    import common

    checks = common.Checks()
    t0 = time.perf_counter()
    st = w.setup(seed)
    setup_s = time.perf_counter() - t0
    m = w.measure(st, seconds, checks, traced=False)
    if m.sim is not None:
        common.check_network(w.name, m.sim, checks)
    return {
        "setup_s": setup_s,
        "setup_fingerprint": _plain(st.fingerprint),
        "fingerprint": _plain(m.fingerprint),
        "rss_mb": m.rss_mb,
        "samples": {k: getattr(m, k) for k in SAMPLES},
        "checks": vars(checks),
    }


def run(w, seed: int, seconds: int, trace: bool) -> dict:
    """Run workload object `w`; returns metrics, checks and fingerprints.

    Untraced: `w.PROCESSES` processes, all but the last fresh interpreters,
    each set up and measure for an equal share of `seconds`; their samples
    are pooled. Traced: a fresh interpreter does the set-up and the fixed
    measured work untraced, then this process repeats both traced.
    """
    import common
    import metrics
    from tracer import Tracer, merge

    checks = common.Checks()
    if not trace:
        each = seconds / w.PROCESSES
        shares = [fresh(w, seed, "share", each) for _ in range(w.PROCESSES - 1)] + [share(w, seed, each)]
        for s in shares:
            checks.merge(s["checks"])
        setup_prints = [s["setup_fingerprint"] for s in shares]
        run_prints = [s["fingerprint"] for s in shares]
        m = common.Measured(
            rss_mb=max(s["rss_mb"] for s in shares),
            **{k: [x for s in shares for x in s["samples"][k]] for k in SAMPLES},
        )
        values = metrics.end_to_end([s["setup_s"] for s in shares], m, w.rate_pct, w.tail_pct)
    else:
        reference = fresh(w, seed, "reference")
        checks.record(reference["failed"] == 0, "the untraced reference run had wrong outputs")
        with Tracer() as setup_spans:
            t0 = time.perf_counter()
            st = w.setup(seed)
            setup_wall = time.perf_counter() - t0
        with Tracer() as run_spans:
            t0 = time.perf_counter()
            m = w.measure(st, None, checks, traced=True)
            traced_wall = time.perf_counter() - t0
        if m.sim is not None:
            common.check_network(w.name, m.sim, checks)
        setup_prints = [reference["setup_fingerprint"], _plain(st.fingerprint)]
        run_prints = [reference["fingerprint"], _plain(m.fingerprint)]
        values = metrics.per_layer(
            metrics.LayerInputs(
                run=merge([run_spans.snapshot(), *m.child_layers]),
                setup=setup_spans.snapshot(),
                counts=common.sim_counts(m.events),
                traced_wall=traced_wall,
                untraced_wall=reference["measure_s"],
                setup_wall=setup_wall,
            )
        )
    checks.record(all(p == setup_prints[0] for p in setup_prints), "set-ups of one seed diverged")
    checks.record(all(p == run_prints[0] for p in run_prints), "measured work of one seed diverged")
    fingerprint = {"setup": setup_prints[0], "run": run_prints[0]}
    checks.record(
        common.same_as_recorded(w.name, seed, fingerprint),
        "fingerprint differs from an earlier run of this code and seed",
    )
    return {"values": values, "checks": checks, "fingerprint": fingerprint, "measured": m,
            "aliases": w.aliases}


def report(w, seed: int, trace: bool, out: dict) -> dict:
    """Print the human-readable lines; return the result object."""
    import common
    import metrics

    units = metrics.units()
    checks = out["checks"]
    print("provenance", json.dumps(common.provenance(w.name, seed, trace), sort_keys=True))
    for name, value in out["values"].items():
        alias = out["aliases"].get(name)
        label = f"{name} ({alias})" if alias and not trace else name
        print(f"{label:44s} {value:>16.6f} {units[name]}")
    m = out["measured"]
    if not trace:
        median_ms = statistics.median(m.latencies_ms)
        print(f"{'  op_ms_p50 (' + out['aliases']['op_ms_p50'] + ', unbounded)':44s} {median_ms:>16.6f} ms")
        print(f"{'  processes':44s} {w.PROCESSES:>16d} count")
        print(f"{'  latency samples':44s} {len(m.latencies_ms):>16d} count")
        print(f"{'  throughput windows':44s} {len(m.rates):>16d} count")
        print(f"{'  cold verify samples':44s} {len(m.verify_s):>16d} count")
    ratio = checks.failed / checks.attempted
    print(f"{'failed_ratio':44s} {ratio:>16.6f} ({checks.failed}/{checks.attempted})")
    for failure in checks.first_failures:
        print("FAILED", failure)
    print("fingerprint", json.dumps(out["fingerprint"], sort_keys=True))
    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in out["values"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "careledger" / "__init__.py").is_file():
        print(f"careledger sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    table = workloads()
    if args.workload not in table:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(table)}")
    w = table[args.workload]()
    result = report(w, args.seed, bool(args.trace), run(w, args.seed, args.seconds, bool(args.trace)))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Plumbing shared by the workloads: correctness tally, stop rule,
percentiles, simulator counts derived from the trace, run fingerprints, and
cold verification of a persisted ledger in a fresh interpreter."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from careledger.errors import ChainError, SimError
from careledger.ledger import Kind, PrincipalId, read_ledger, validate_chain, write_ledger

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
# Ledgers, tamper copies and fingerprints the runs leave behind.
WORK_DIR = ROOT / ".perfbench"

ORGS = ("hospital", "homecare", "gp", "pharmacy")
PRACTICE_ORGS = ("hospital", "homecare", "gp")  # employ the practitioners
DATA_ORGS = ("hospital", "gp")  # hold the records and answer requests


def org(id: str) -> PrincipalId:
    return PrincipalId(Kind.ORGANIZATION, id)


class Checks:
    """Tally of checked operations. An operation fails when any of its
    outputs differs from what the generator built in."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.first_failures: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.first_failures) < 5:
                self.first_failures.append(what)

    def merge(self, other: dict) -> None:
        """Add the tally of another process, given as `vars(checks)`."""
        self.attempted += other["attempted"]
        self.failed += other["failed"]
        self.first_failures = (self.first_failures + other["first_failures"])[:5]


@dataclass
class Budget:
    """Stop rule of a measured loop. Untraced runs stop before a unit that
    would end past `seconds`; traced runs do exactly `count` units, so their
    counts repeat. `min_count` units always run, so the samples a run pools
    from its processes leave ten beyond its tail percentile."""

    seconds: Optional[float] = None
    count: Optional[int] = None
    min_count: int = 1

    def running(self, done: int, started: float) -> bool:
        if self.count is not None:
            return done < self.count
        if done < self.min_count:
            return True
        elapsed = time.perf_counter() - started
        return elapsed + elapsed / done <= self.seconds


def min_samples(pct: int) -> int:
    """Smallest sample count that leaves ten samples beyond the pct-th percentile."""
    return math.ceil(10 / (1 - pct / 100))


def per_process(total: int, processes: int) -> int:
    """Each process's share of `total` units, rounded up."""
    return -(-total // processes)


def percentile(samples: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    """Peak resident set of this process in MB (ru_maxrss is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


# ---------------------------------------------------------------------------
# Simulator counts, a pure function of trace events
# ---------------------------------------------------------------------------


def sim_counts(events) -> dict:
    """Deterministic counts over a slice of `Simulation.trace`.

    A round is a `block_proposed` event; it aborted when no node ever
    committed its hash. Simulated request latency runs from the request's
    `tx_submitted` to the sender's `decision`.
    """
    proposed: dict[str, int] = {}
    committed: set[str] = set()
    submitted: dict[str, int] = {}
    request_ms: list[int] = []
    msgs = drops = 0
    for ev in events:
        kind, d = ev.kind, ev.detail
        if kind == "msg_sent":
            msgs += 1
        elif kind == "msg_delivered":
            drops += "dropped" in d
        elif kind == "block_proposed":
            proposed[d["hash"]] = d["txs"]
        elif kind == "block_committed":
            committed.add(d["hash"])
        elif kind == "tx_submitted" and d["action"] == "DataRequestRecorded":
            submitted[d["tx"]] = ev.at
        elif kind == "decision" and d["request"] in submitted:
            request_ms.append(ev.at - submitted[d["request"]])
    sizes = [n for h, n in proposed.items() if h in committed]
    txs = sum(sizes)
    return {
        "events": len(events),
        "msgs_sent": msgs,
        "drops": drops,
        "rounds_proposed": len(proposed),
        "rounds_aborted": len(proposed) - len(sizes),
        "blocks_committed": len(sizes),
        "txs_committed": txs,
        "txs_per_block_mean": txs / len(sizes) if sizes else 0.0,
        "txs_per_block_max": max(sizes, default=0),
        "msgs_per_committed_tx": msgs / txs if txs else 0.0,
        "sim_request_ms_p50": percentile(request_ms, 50) if request_ms else 0,
        "sim_request_ms_p99": percentile(request_ms, 99) if request_ms else 0,
        "requests_decided": len(request_ms),
    }


def sim_fingerprint(sim, since: int = 0) -> dict:
    """Committed tip, trace length and the counts since trace index `since`."""
    tip = max((node.ledger.tip() for node in sim.nodes.values()), key=lambda b: b.height)
    return {
        "tip": tip.hash.hex(),
        "height": tip.height,
        "trace_len": len(sim.trace),
        "counts": sim_counts(sim.trace[since:]),
    }


def check_network(name: str, sim, checks: Checks) -> None:
    """End-of-run checks of a simulated network, outside the timed region:
    the nodes agree on a prefix, and the hospital node's chain, persisted
    and read back, passes validate_chain."""
    try:
        sim.assert_prefix_consistent()
        consistent = True
    except SimError:
        consistent = False
    checks.record(consistent, "nodes are not prefix-consistent")
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    path = WORK_DIR / f"{name}-final-{os.getpid()}.ledger"
    try:
        write_ledger(sim.nodes["hospital"].ledger, str(path))
        report = validate_chain(read_ledger(str(path)))
        violation = None if report.ok else str(report.violation)
    except ChainError as exc:
        violation = f"unreadable: {exc}"
    finally:
        path.unlink(missing_ok=True)
    checks.record(violation is None, f"persisted ledger fails validation: {violation}")


class ColdVerify:
    """One cold verification of a persisted ledger, taken halfway through
    an untraced process's measured phase; a traced run, which has no
    seconds, takes it as soon as the ledger is persisted."""

    def __init__(self, name: str, seconds: Optional[float], traced: bool, checks: Checks, m: "Measured"):
        self.path = WORK_DIR / f"{name}-{os.getpid()}.ledger"
        self.due = seconds / 2 if seconds else 0.0
        self.traced, self.checks, self.m = traced, checks, m
        self.persisted = self.taken = False

    def persist(self, ledger) -> None:
        WORK_DIR.mkdir(parents=True, exist_ok=True)
        write_ledger(ledger, str(self.path))
        self.persisted = True

    def persist_bytes(self, data: bytes) -> None:
        """Persist a ledger already serialized."""
        WORK_DIR.mkdir(parents=True, exist_ok=True)
        self.path.write_bytes(data)
        self.persisted = True

    def maybe(self, elapsed: float) -> None:
        """Take the sample once the ledger is persisted and its time has come."""
        if self.persisted and not self.taken and elapsed >= self.due:
            self.sample()

    def sample(self) -> None:
        report = cold_verify(self.path, self.traced)
        self.checks.record(report["ok"], f"persisted ledger fails validation: {report['violation']}")
        self.m.add_cold_verify(report)
        self.taken = True

    def finish(self) -> None:
        try:
            if not self.taken:
                self.sample()
        finally:
            self.path.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# Determinism across runs
# ---------------------------------------------------------------------------


def code_digest() -> str:
    """SHA-256 over the library sources and the benchmark's own modules."""
    h = hashlib.sha256()
    for path in sorted([*SRC.glob("careledger/*.py"), *BENCH_DIR.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def same_as_recorded(workload: str, seed: int, fingerprint: dict) -> bool:
    """Compare with the fingerprint an earlier run of the same code and seed
    left in WORK_DIR; the first run records it."""
    path = WORK_DIR / "fingerprints" / f"{workload}-{seed}-{code_digest()[:16]}.json"
    text = json.dumps(fingerprint, sort_keys=True)
    if path.exists():
        return path.read_text() == text
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(text)
    os.replace(tmp, path)
    return True


# ---------------------------------------------------------------------------
# Cold verification
# ---------------------------------------------------------------------------


def cold_verify(path: Path, traced: bool) -> dict:
    """`read_ledger` + `validate_chain` of a persisted ledger in a fresh
    interpreter, so no process-global cache (the verify memo, key objects)
    is warm. Returns the child's report: ok, bytes, read_s, validate_s and,
    when traced, its span aggregates."""
    cmd = [sys.executable, str(BENCH_DIR / "coldverify.py"), str(path)]
    if traced:
        cmd.append("--trace")
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
    return json.loads(out.stdout.splitlines()[-1])


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


def provenance(workload: str, seed: int, trace: bool) -> dict:
    import cryptography

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "commit": _git_commit(),
        "source_sha256": code_digest(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> Optional[str]:
    """HEAD of the checkout, or None when it is not a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


@dataclass
class Measured:
    """What a workload's measured phase hands back to the runner."""

    ops: int = 0
    # Throughput of each short window of work (ops per wall second).
    rates: list[float] = field(default_factory=list)
    latencies_ms: list[float] = field(default_factory=list)
    verify_bytes: list[int] = field(default_factory=list)
    verify_s: list[float] = field(default_factory=list)
    child_layers: list[dict] = field(default_factory=list)
    events: list = field(default_factory=list)
    fingerprint: dict = field(default_factory=dict)
    # Peak RSS when the fingerprint is taken: set-up plus the fixed first
    # units of work, so the figure does not grow with how many units fit.
    rss_mb: float = 0.0
    # The simulation whose end state the runner checks outside the timed region.
    sim: object = None

    def add_cold_verify(self, report: dict) -> None:
        self.verify_bytes.append(report["bytes"])
        self.verify_s.append(report["read_s"] + report["validate_s"])
        if "layers" in report:
            self.child_layers.append(report["layers"])

"""Span tracing at careledger's module boundaries, for traced runs.

While a `Tracer` is active, each function named in TRACED is replaced by a
recording wrapper: the attribute on its defining module, every alias that
another loaded careledger or benchmark module imported, and methods on
their class. Spans (name, start, end, parent) go into flat arrays and the
wrappers come off on exit. Self time is a span's time minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from pathlib import Path

LAYERS = ("policy", "simnet", "crypto", "ledger", "exchange", "consent")

TRACED = {
    "policy": (
        "evaluate_request",
        "PolicyState.apply",
        "make_registration",
        "make_plan",
        "make_grant",
        "make_revocation",
        "make_emergency_access",
    ),
    "simnet": ("spawn_network", "Simulation.*"),
    "crypto": ("sign", "verify", "sha256", "generate_keypair", "commitment", "new_salt"),
    "ledger": (
        "canonical_encode",
        "tx_hash",
        "sign_tx",
        "verify_tx",
        "build_block",
        "block_hash",
        "endorse_block",
        "compute_tx_root",
        "validate_chain",
        "read_ledger",
        "write_ledger",
        "query_audit",
    ),
    "exchange": ("submit_request", "OffChainStore.fetch", "OffChainStore.add_record", "build_timeline"),
    "consent": (
        "ConsentState.apply",
        "make_study_registration",
        "make_invitation",
        "make_attempt",
        "make_signature",
        "make_withdrawal",
        "make_profile",
        "verify_disclosure",
        "consent_status",
    ),
}

_BENCH_DIR = Path(__file__).resolve().parent


class Tracer:
    def __init__(self) -> None:
        self._names: list[str] = []
        self._name_of = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.verify_repeats = 0
        self._verified: set[tuple[bytes, bytes, bytes]] = set()
        self.read_bytes = 0
        self.write_bytes = 0
        self.pending_max = 0

    # -- hooks: counts taken where the work happens --------------------------

    def _on_verify(self, args) -> None:
        triple = tuple(args[:3])
        if triple in self._verified:
            self.verify_repeats += 1
        else:
            self._verified.add(triple)

    def _on_read(self, args) -> None:
        self.read_bytes += os.path.getsize(args[0])

    def _on_write(self, args) -> None:
        self.write_bytes += os.path.getsize(args[1])

    def _on_build_block(self, args) -> None:
        self.pending_max = max(self.pending_max, len(args[0]))

    # -- install / remove -----------------------------------------------------

    def __enter__(self) -> "Tracer":
        hooks = {
            "crypto.verify": self._on_verify,
            "ledger.read_ledger": self._on_read,
            "ledger.write_ledger": self._on_write,
            "ledger.build_block": self._on_build_block,
        }
        modules = [
            m
            for n, m in list(sys.modules.items())
            if n == "careledger"
            or n.startswith("careledger.")
            or _BENCH_DIR in Path(getattr(m, "__file__", None) or "/").resolve().parents
        ]
        for layer, names in TRACED.items():
            home = sys.modules[f"careledger.{layer}"]
            for name in names:
                owner_name, _, attr = name.rpartition(".")
                if owner_name:
                    owner = getattr(home, owner_name)
                    attrs = [attr]
                    if attr == "*":
                        attrs = [a for a, v in vars(owner).items() if callable(v) and not a.startswith("_")]
                    for a in attrs:
                        span = f"{layer}.{owner_name}.{a}"
                        self._patch(owner, a, self._wrap(span, vars(owner)[a], hooks.get(span)))
                    continue
                original = getattr(home, name)
                wrapper = self._wrap(f"{layer}.{name}", original, hooks.get(f"{layer}.{name}"))
                for module in modules:
                    for alias, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, alias, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn, hook):
        nid = len(self._names)
        self._names.append(name)
        name_of, parent, start, end, stack = (
            self._name_of, self._parent, self._start, self._end, self._stack,
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                if hook is not None:
                    hook(args)

        return traced

    # -- results ----------------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-ready aggregates: per span name [calls, total_s, self_s], the
        time covered by top-level spans, and the hook counts."""
        n = len(self._start)
        child = [0.0] * n
        top = 0.0
        for i in range(n):
            d = self._end[i] - self._start[i]
            p = self._parent[i]
            if p >= 0:
                child[p] += d
            else:
                top += d
        spans: dict[str, list] = {}
        for i in range(n):
            d = self._end[i] - self._start[i]
            rec = spans.setdefault(self._names[self._name_of[i]], [0, 0.0, 0.0])
            rec[0] += 1
            rec[1] += d
            rec[2] += d - child[i]
        return {
            "spans": spans,
            "span_count": n,
            "top_s": top,
            "verify_repeats": self.verify_repeats,
            "read_bytes": self.read_bytes,
            "write_bytes": self.write_bytes,
            "pending_max": self.pending_max,
        }


def merge(snapshots: list[dict]) -> dict:
    """Sum snapshots from several tracers (for example a child process's)."""
    out = {"spans": {}, "span_count": 0, "top_s": 0.0, "verify_repeats": 0,
           "read_bytes": 0, "write_bytes": 0, "pending_max": 0}
    for snap in snapshots:
        for name, (calls, total, own) in snap["spans"].items():
            rec = out["spans"].setdefault(name, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += own
        for key in ("span_count", "top_s", "verify_repeats", "read_bytes", "write_bytes"):
            out[key] += snap[key]
        out["pending_max"] = max(out["pending_max"], snap["pending_max"])
    return out

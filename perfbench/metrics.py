"""Every metric the benchmark reports: name, unit, better direction and how
it is computed. BENCHMARK.json lists the same names and units."""

from __future__ import annotations

import common

# Every workload reports every end-to-end metric; the workload's own name
# for each of them is in its `aliases`. On a machine shared with other
# tenants the same code runs at one of two speeds, about 2x apart, and
# switches between them within a second and between processes. Most of the
# time the slow speed prevails. So a run pools samples from several
# processes, and every statistic below sits on their slow side, which
# nearly every run reaches: the slowest set-up and cold verification, a low
# percentile of throughput, p75 and the tail of latency. A workload's
# throughput percentile (`rate_pct`) is p10 where a run has many windows of
# like work, p25 where it has few or where one window per process waits for
# a full garbage collection.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_ms_p75", "ms", "lower"),
    ("op_ms_tail", "ms", "lower"),
    ("verify_mb_per_s", "MB/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)


def end_to_end(setup_times: list[float], m: common.Measured, rate_pct: int, tail_pct: int) -> dict:
    verify_rates = [b / s / 1e6 for b, s in zip(m.verify_bytes, m.verify_s)]
    return {
        "setup_s": max(setup_times),
        "ops_per_s": common.percentile(m.rates, rate_pct),
        "op_ms_p75": common.percentile(m.latencies_ms, 75),
        "op_ms_tail": common.percentile(m.latencies_ms, tail_pct),
        "verify_mb_per_s": min(verify_rates),
        "peak_rss_mb": m.rss_mb,
    }


class LayerInputs:
    """A traced run's measured-phase and set-up span aggregates, its
    simulator counts, and the wall times of the same work with and without
    tracing."""

    def __init__(self, run: dict, setup: dict, counts: dict, traced_wall: float,
                 untraced_wall: float, setup_wall: float):
        self.run, self.setup, self.counts = run, setup, counts
        self.traced_wall, self.untraced_wall, self.setup_wall = traced_wall, untraced_wall, setup_wall

    def calls(self, span: str) -> int:
        return self.run["spans"].get(span, (0, 0.0, 0.0))[0]

    def total(self, span: str) -> float:
        return self.run["spans"].get(span, (0, 0.0, 0.0))[1]

    def builders(self, layer: str) -> float:
        return sum(rec[1] for name, rec in self.run["spans"].items() if name.startswith(f"{layer}.make_"))

    def own(self, prefix: str, snap: dict | None = None) -> float:
        """Self time of every span whose name starts with `prefix`."""
        spans = (snap or self.run)["spans"]
        return sum(rec[2] for name, rec in spans.items() if name.startswith(prefix))


def _span_pair(layer_name: str, span: str) -> list:
    return [
        (f"{layer_name}.calls", "count", "lower", lambda x: x.calls(span)),
        (f"{layer_name}.s", "s", "lower", lambda x: x.total(span)),
    ]


def _count(name: str, unit: str = "count", better: str = "lower") -> tuple:
    return (f"simnet.{name}", unit, better, lambda x: x.counts[name])


PER_LAYER = (
    *_span_pair("policy.evaluate_request", "policy.evaluate_request"),
    *_span_pair("policy.PolicyState.apply", "policy.PolicyState.apply"),
    ("policy.builders.s", "s", "lower", lambda x: x.builders("policy")),
    ("policy.self_s", "s", "lower", lambda x: x.own("policy.")),
    ("simnet.settle.s", "s", "lower", lambda x: x.total("simnet.Simulation.settle")),
    ("simnet.settle.self_s", "s", "lower", lambda x: x.own("simnet.Simulation.settle")),
    ("simnet.self_s", "s", "lower", lambda x: x.own("simnet.")),
    ("simnet.sync_s", "s", "lower", lambda x: x.total("simnet.Simulation.inject_fault")),
    ("simnet.mempool_depth_max", "count", "lower", lambda x: x.run["pending_max"]),
    _count("events"),
    _count("msgs_sent"),
    _count("msgs_per_committed_tx", "msg/tx"),
    _count("blocks_committed"),
    _count("txs_per_block_mean", "tx/block", "higher"),
    _count("txs_per_block_max", "tx/block", "higher"),
    _count("rounds_proposed"),
    _count("rounds_aborted"),
    _count("drops"),
    _count("sim_request_ms_p50", "ms"),
    _count("sim_request_ms_p99", "ms"),
    *_span_pair("crypto.sign", "crypto.sign"),
    *_span_pair("crypto.verify", "crypto.verify"),
    ("crypto.verify.repeat_ratio", "ratio", "lower",
     lambda x: x.run["verify_repeats"] / x.calls("crypto.verify") if x.calls("crypto.verify") else 0.0),
    *_span_pair("crypto.sha256", "crypto.sha256"),
    ("crypto.self_s", "s", "lower", lambda x: x.own("crypto.")),
    *_span_pair("ledger.canonical_encode", "ledger.canonical_encode"),
    *_span_pair("ledger.verify_tx", "ledger.verify_tx"),
    *_span_pair("ledger.build_block", "ledger.build_block"),
    ("ledger.read_ledger.s", "s", "lower", lambda x: x.total("ledger.read_ledger")),
    ("ledger.read_ledger.bytes", "B", "lower", lambda x: x.run["read_bytes"]),
    ("ledger.validate_chain.s", "s", "lower", lambda x: x.total("ledger.validate_chain")),
    ("ledger.write_ledger.s", "s", "lower", lambda x: x.total("ledger.write_ledger")),
    ("ledger.write_ledger.bytes", "B", "lower", lambda x: x.run["write_bytes"]),
    ("ledger.query_audit.s", "s", "lower", lambda x: x.total("ledger.query_audit")),
    ("ledger.self_s", "s", "lower", lambda x: x.own("ledger.")),
    *_span_pair("exchange.OffChainStore.fetch", "exchange.OffChainStore.fetch"),
    *_span_pair("exchange.build_timeline", "exchange.build_timeline"),
    ("exchange.self_s", "s", "lower", lambda x: x.own("exchange.")),
    *_span_pair("consent.ConsentState.apply", "consent.ConsentState.apply"),
    ("consent.builders.s", "s", "lower", lambda x: x.builders("consent")),
    *_span_pair("consent.verify_disclosure", "consent.verify_disclosure"),
    ("consent.consent_status.s", "s", "lower", lambda x: x.total("consent.consent_status")),
    ("consent.self_s", "s", "lower", lambda x: x.own("consent.")),
    ("harness.self_s", "s", "lower", lambda x: x.traced_wall - x.run["top_s"]),
    *[
        (f"setup.{layer}.self_s", "s", "lower", lambda x, layer=layer: x.own(f"{layer}.", x.setup))
        for layer in ("policy", "simnet", "crypto", "ledger", "exchange", "consent")
    ],
    ("setup.harness.self_s", "s", "lower", lambda x: x.setup_wall - x.setup["top_s"]),
    ("trace.spans", "count", "lower", lambda x: x.run["span_count"]),
    ("trace.overhead_ratio", "ratio", "lower", lambda x: x.traced_wall / x.untraced_wall),
)


def per_layer(inputs: LayerInputs) -> dict:
    return {name: fn(inputs) for name, _, _, fn in PER_LAYER}


def units() -> dict:
    return {name: unit for name, unit, *_ in (*END_TO_END, *PER_LAYER)}

"""care_burst and care_stream: data requests through the whole exchange
path (request tx, consensus, the sender's policy decision, completion tx,
records into a session)."""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Optional

from careledger import SimConfig, spawn_network
from careledger.exchange import submit_request
from careledger.ledger import Category, Kind, PrincipalId
from careledger.policy import Decision, Reason, Verdict

import common
from common import DATA_ORGS, PRACTICE_ORGS, Budget, Checks, Measured, org

FAR = 1 << 42  # grant windows that no run outlives
CATEGORIES = tuple(Category)
QUIET_ORG = "pharmacy"  # plan member without practitioners or records

# Share of patients per built-in decision; mostly allow.
CASES = {
    "allow": 62,
    "out_of_scope": 8,
    "no_grant": 8,
    "expired": 7,
    "revoked": 7,
    "emergency": 5,
    "not_plan_member": 3,
}
DENY_REASON = {
    "out_of_scope": Reason.OUT_OF_SCOPE,
    "no_grant": Reason.NO_GRANT,
    "expired": Reason.EXPIRED,
    "revoked": Reason.REVOKED,
    "not_plan_member": Reason.NOT_PLAN_MEMBER,
}


@dataclass
class PatientCase:
    """One patient's plan and grant, built so that its requests get `case`.

    `grantee` holds the grant; `other` is on the plan without one; `outsider`
    is on no plan of this patient. Records are seeded at `sender`.
    """

    patient: str
    case: str
    plan: str
    grantee: str
    other: str
    outsider: str
    sender: str
    scope: frozenset
    grant_id: str
    records: dict


@dataclass
class Request:
    requester: PrincipalId
    requester_org: PrincipalId
    sender_org: PrincipalId
    patient: PrincipalId
    category: Category
    emergency: bool
    want: Decision
    records: Optional[list]  # (measured_at, value) in delivery order; None when denied


@dataclass
class CareState:
    sim: object
    rng: random.Random
    pracs: dict
    cases: list
    fingerprint: dict


def build_care_network(seed: int, patients: int, practitioners_per_org: int) -> CareState:
    rng = random.Random(f"care/{seed}")
    sim = spawn_network(list(common.ORGS), SimConfig(seed=seed))
    pracs = {f"{o}-w{j:02d}": o for o in PRACTICE_ORGS for j in range(practitioners_per_org)}
    for prac, home in pracs.items():
        sim.register_practitioner(prac, home)
    sim.settle()
    ids = [f"p{i:05d}" for i in range(patients)]
    for pid in ids:
        sim.register_person(Kind.PATIENT, pid)
    sim.settle()

    names, weights = list(CASES), list(CASES.values())
    cases = []
    for i, pid in enumerate(ids):
        case = rng.choices(names, weights)[0]
        sender = rng.choice(DATA_ORGS)
        grantee = rng.choice(sorted(pracs))
        members = {sender, pracs[grantee]}
        if rng.random() < 0.5:
            members.add(QUIET_ORG)
        other = rng.choice([p for p in sorted(pracs) if pracs[p] in members and p != grantee])
        outsider = rng.choice([p for p in sorted(pracs) if p not in (grantee, other)])
        scope = frozenset(rng.sample(CATEGORIES, rng.randint(1, 3)))
        records = {}
        for cat in CATEGORIES:
            times = sorted(rng.sample(range(1, 10**7), rng.randint(0, 2)))
            records[cat] = [(t, f"{cat.value} reading {k}") for k, t in enumerate(times)]
        cases.append(
            PatientCase(pid, case, f"plan-{pid}", grantee, other, outsider, sender, scope, f"g{i:05d}", records)
        )
        sim.create_plan(
            f"plan-{pid}", pid, sorted(members), [(grantee, pracs[grantee]), (other, pracs[other])]
        )
    sim.settle()
    for c in cases:
        window = (1, 2) if c.case == "expired" else (0, FAR)
        sim.grant_access(c.patient, c.plan, c.grantee, c.scope, *window, grant_id=c.grant_id)
    sim.settle()
    for c in cases:
        if c.case == "revoked":
            sim.revoke_access(c.patient, c.grant_id)
    sim.settle()
    for c in cases:
        for cat, rows in c.records.items():
            for at, value in rows:
                sim.add_record(c.sender, c.patient, cat, at, value, "lab")
    return CareState(sim, rng, pracs, cases, common.sim_fingerprint(sim))


def request_for(st: CareState, c: PatientCase) -> Request:
    rng = st.rng
    requester, emergency = c.grantee, False
    if c.case == "out_of_scope":
        category = rng.choice([x for x in CATEGORIES if x not in c.scope])
    elif c.case in ("allow", "expired", "revoked"):
        category = rng.choice(sorted(c.scope))
    else:
        category = rng.choice(CATEGORIES)
        requester = c.outsider if c.case == "not_plan_member" else c.other
        emergency = c.case == "emergency"
    if c.case == "allow":
        want = Decision(Verdict.ALLOW, Reason.VALID_GRANT, c.grant_id)
    elif c.case == "emergency":
        want = Decision(Verdict.ALLOW_EMERGENCY, Reason.EMERGENCY_OVERRIDE)
    else:
        want = Decision(Verdict.DENY, DENY_REASON[c.case])
    return Request(
        PrincipalId(Kind.PRACTITIONER, requester),
        org(st.pracs[requester]),
        org(c.sender),
        PrincipalId(Kind.PATIENT, c.patient),
        category,
        emergency,
        want,
        c.records[category] if want.allowed else None,
    )


def check_outcome(checks: Checks, req: Request, outcome) -> None:
    ok = not outcome.pending and outcome.decision == req.want
    if req.records is None:
        ok = ok and outcome.session is None
    else:
        ok = (
            ok
            and outcome.session is not None
            and [(r.measured_at, r.value) for r in outcome.session.records] == req.records
        )
    checks.record(ok, f"request for {req.patient.id}: got {outcome.decision}, want {req.want}")


class CareBurst:
    """A large population whose plans and grants the policy scans on every
    decision. Each round submits requests for `round_size` distinct random
    patients inside one block interval, then settles once. All requests of
    a round are due at its start, so the round's wall time is one latency
    sample; throughput is taken over windows of WINDOW rounds."""

    name = "care_burst"
    rate_pct, tail_pct = 25, 80
    aliases = {"ops_per_s": "requests_per_s", "op_ms_p50": "round_ms_p50", "op_ms_p75": "round_ms_p75",
               "op_ms_tail": "round_ms_p80"}
    PROCESSES = 3  # each sets up for seconds
    MIN_ROUNDS = common.per_process(common.min_samples(tail_pct), PROCESSES)
    WINDOW = 4  # rounds per throughput sample
    TRACE_ROUNDS = 2
    FINGERPRINT_AT = 1

    def __init__(self, patients: int = 1600, practitioners_per_org: int = 12, round_size: int = 100):
        self.params = dict(patients=patients, practitioners_per_org=practitioners_per_org, round_size=round_size)
        self.patients = patients
        self.practitioners_per_org = practitioners_per_org
        self.round_size = round_size

    def setup(self, seed: int) -> CareState:
        return build_care_network(seed, self.patients, self.practitioners_per_org)

    def measure(self, st: CareState, seconds: Optional[float], checks: Checks, traced: bool) -> Measured:
        sim, m = st.sim, Measured(sim=st.sim)
        verify = common.ColdVerify(self.name, seconds, traced, checks, m)
        budget = Budget(seconds=seconds, min_count=self.MIN_ROUNDS) if seconds else Budget(count=self.TRACE_ROUNDS)
        since = len(sim.trace)
        rounds = 0
        busy = 0.0  # wall time of the rounds in the current window
        started = time.perf_counter()
        while budget.running(rounds, started):
            reqs = [request_for(st, c) for c in st.rng.sample(st.cases, self.round_size)]
            t0 = time.perf_counter()
            txs = [
                sim.start_request(r.requester, r.requester_org, r.sender_org, r.patient, r.category, r.emergency)
                for r in reqs
            ]
            sim.settle()
            t1 = time.perf_counter()
            m.ops += len(reqs)
            m.latencies_ms.append((t1 - t0) * 1000)
            busy += t1 - t0
            for r, tx in zip(reqs, txs):
                check_outcome(checks, r, sim.request_outcome(tx))
            rounds += 1
            if rounds % self.WINDOW == 0:
                m.rates.append(self.WINDOW * self.round_size / busy)
                busy = 0.0
            if rounds == self.FINGERPRINT_AT:
                m.fingerprint = common.sim_fingerprint(sim, since)
                m.rss_mb = common.peak_rss_mb()
                verify.persist(sim.nodes["hospital"].ledger)
            verify.maybe(time.perf_counter() - started)
        verify.finish()
        m.events = sim.trace[since:]
        return m


class CareStream:
    """A moderate population and one closed-loop client: submit_request waits
    for the outcome, then a fixed simulated think time passes. The quiet org
    goes down and comes back on a fixed request schedule, so requests are
    served at quorum 3 of 4 meanwhile and the returning node syncs."""

    name = "care_stream"
    # p99 of a run moves with sub-second stalls of the machine; p95 does not.
    rate_pct, tail_pct = 10, 95
    aliases = {"ops_per_s": "requests_per_s", "op_ms_p50": "request_ms_p50", "op_ms_p75": "request_ms_p75",
               "op_ms_tail": "request_ms_p95"}
    THINK_MS = 5_000
    FAULT_PERIOD, DOWN_AT, UP_AT = 500, 100, 300
    TIMELINE_EVERY = 25
    WINDOW = 50  # requests per throughput sample
    FINGERPRINT_AT = 400
    PROCESSES = 7
    TRACE_REQUESTS = 600

    def __init__(self, patients: int = 400, practitioners_per_org: int = 12):
        self.params = dict(patients=patients, practitioners_per_org=practitioners_per_org)
        self.patients = patients
        self.practitioners_per_org = practitioners_per_org

    def setup(self, seed: int) -> CareState:
        return build_care_network(seed, self.patients, self.practitioners_per_org)

    def measure(self, st: CareState, seconds: Optional[float], checks: Checks, traced: bool) -> Measured:
        sim, m, rng = st.sim, Measured(sim=st.sim), st.rng
        verify = common.ColdVerify(self.name, seconds, traced, checks, m)
        min_count = max(common.per_process(common.min_samples(self.tail_pct), self.PROCESSES), self.FINGERPRINT_AT)
        budget = Budget(seconds=seconds, min_count=min_count) if seconds else Budget(count=self.TRACE_REQUESTS)
        since = len(sim.trace)
        sessions: dict[str, list] = {}
        busy = 0.0  # wall time of library calls in the current window
        clock = time.perf_counter
        started = clock()
        while budget.running(m.ops, started):
            t0 = clock()
            phase = m.ops % self.FAULT_PERIOD
            if phase == self.DOWN_AT:
                sim.inject_fault(QUIET_ORG, "down")
            elif phase == self.UP_AT:
                sim.inject_fault(QUIET_ORG, "up")
            busy += clock() - t0
            req = request_for(st, rng.choice(st.cases))
            t0 = clock()
            outcome = submit_request(
                sim, req.requester, req.requester_org, req.sender_org, req.patient, req.category, req.emergency
            )
            t1 = clock()
            sim.tick(self.THINK_MS)
            busy += clock() - t0
            m.latencies_ms.append((t1 - t0) * 1000)
            check_outcome(checks, req, outcome)
            if outcome.session is not None:
                sessions.setdefault(req.requester.id, []).append(outcome.session)
            m.ops += 1
            if m.ops % self.TIMELINE_EVERY == 0:
                busy += check_timeline(sim, checks, req.requester.id, sessions)
            if m.ops % self.WINDOW == 0:
                m.rates.append(self.WINDOW / busy)
                busy = 0.0
            if m.ops == self.FINGERPRINT_AT:
                m.fingerprint = common.sim_fingerprint(sim, since)
                m.rss_mb = common.peak_rss_mb()
                verify.persist(sim.nodes["hospital"].ledger)
            verify.maybe(clock() - started)
        verify.finish()
        if not sim.nodes[QUIET_ORG].online:
            sim.inject_fault(QUIET_ORG, "up")
            sim.settle()
        m.events = sim.trace[since:]
        return m


def check_timeline(sim, checks: Checks, practitioner: str, sessions: dict) -> float:
    """The merged timeline equals the records of the practitioner's live
    sessions in (measured_at, source org, record id) order. Returns the
    wall time of the timeline call."""
    live = [s for s in sessions.get(practitioner, []) if sim.clock < s.opened_at + s.ttl]
    sessions[practitioner] = live
    t0 = time.perf_counter()
    got = sim.timeline_for(practitioner)
    spent = time.perf_counter() - t0
    want = sorted(
        (e for s in live for e in s.records), key=lambda e: (e.measured_at, e.source_org, e.record_id)
    )
    checks.record(got == want, f"timeline of {practitioner} differs from its live sessions")
    return spent

"""consent_match: the research-consent path, the only workload that drives
the consent fold, the selective-disclosure fan-out and commitment checks."""

from __future__ import annotations

import hashlib
import math
import random
import time
from dataclasses import dataclass, field
from typing import Optional

from careledger import SimConfig, spawn_network
from careledger.consent import Question, Quiz
from careledger.ledger import Kind

import common
from common import Budget, Checks, Measured

RESEARCHER = "res-0"
# Registered in set-up; profiles set overrides and matches filter for these.
# A run that outlasts them moves on to further studies, registered as needed.
STUDIES = tuple(f"study-{k}" for k in range(5))
QUIZ = Quiz(tuple(Question(f"question {q}", ("a", "b", "c", "d"), q % 4) for q in range(5)))
CORRECT = [q.correct for q in QUIZ.questions]
UNIVERSE = tuple(f"source-{k}" for k in range(10))


@dataclass
class Plan:
    """The quiz lifecycle the generator makes one participant go through in one study."""

    failed: list  # per failed attempt, the indexes of the questions answered wrong
    passes: bool
    signs: bool
    withdraws: bool

    def state(self) -> str:
        if self.withdraws:
            return "withdrawn"
        if self.signs:
            return "signed"
        if self.passes:
            return "passed"
        return "attempted" if self.failed else "invited"


@dataclass
class Profile:
    descriptors: frozenset
    discoverable: bool
    overrides: dict = field(default_factory=dict)

    def visible(self, study: Optional[str]) -> bool:
        return self.overrides.get(study, self.discoverable) if study else self.discoverable


def _plan(rng: random.Random) -> Plan:
    fails = 0 if rng.random() < 0.6 else rng.randint(1, 2)
    passes = rng.random() < 0.85
    signs = passes and rng.random() < 0.9
    return Plan(
        failed=[sorted(rng.sample(range(len(CORRECT)), rng.randint(1, 3))) for _ in range(fails)],
        passes=passes,
        signs=signs,
        withdraws=signs and rng.random() < 0.15,
    )


def _profile(rng: random.Random) -> Profile:
    overrides = {s: rng.random() < 0.5 for s in STUDIES if rng.random() < 0.1}
    return Profile(frozenset(rng.sample(UNIVERSE, rng.randint(1, 5))), rng.random() < 0.8, overrides)


def _answers(wrong: list) -> list:
    return [(c + 1) % 4 if i in wrong else c for i, c in enumerate(CORRECT)]


@dataclass
class ConsentMatchState:
    sim: object
    rng: random.Random
    participants: list
    studies: set  # registered so far
    profiles: dict  # participant id -> Profile now on chain
    lifecycles: dict  # (study, participant id) -> Plan
    fingerprint: dict


class ConsentMatch:
    """Set-up registers the studies and the participants, each with a
    published profile. Each cycle of the measured phase drives one cohort
    through a study's quiz lifecycle, one step per settle, ending with a
    republished profile; then the researcher runs match queries over the
    whole population in a closed loop."""

    name = "consent_match"
    # About one match query in twenty waits for a full garbage collection,
    # whose pause grows with the heap. p90 sits at the edge of those pauses
    # and flips between runs; p80 does not.
    rate_pct, tail_pct = 25, 80
    aliases = {"ops_per_s": "lifecycle_ops_per_s", "op_ms_p50": "match_ms_p50", "op_ms_p75": "match_ms_p75",
               "op_ms_tail": "match_ms_p80"}
    COHORT, MATCHES = 50, 8  # per cycle
    FINGERPRINT_AT = 4
    PROCESSES = 7
    TRACE_CYCLES = 6

    def __init__(self, participants: int = 1000):
        self.params = dict(participants=participants)
        self.participants = participants

    def setup(self, seed: int) -> ConsentMatchState:
        rng = random.Random(f"consent/{seed}")
        sim = spawn_network(list(common.ORGS), SimConfig(seed=seed))
        sim.register_person(Kind.RESEARCHER, RESEARCHER)
        sim.settle()
        for study in STUDIES:
            sim.register_study(RESEARCHER, study, QUIZ)
        sim.settle()
        pids = [f"v{j:05d}" for j in range(self.participants)]
        for pid in pids:
            sim.register_person(Kind.PARTICIPANT, pid)
        sim.settle()
        profiles = {pid: _profile(rng) for pid in pids}
        for pid, p in profiles.items():
            sim.publish_profile(pid, sorted(p.descriptors), p.discoverable, p.overrides or None)
        sim.settle()
        return ConsentMatchState(sim, rng, pids, set(STUDIES), profiles, {}, common.sim_fingerprint(sim))

    def measure(self, st: ConsentMatchState, seconds: Optional[float], checks: Checks, traced: bool) -> Measured:
        sim, m = st.sim, Measured(sim=st.sim)
        verify = common.ColdVerify(self.name, seconds, traced, checks, m)
        min_cycles = math.ceil(common.per_process(common.min_samples(self.tail_pct), self.PROCESSES) / self.MATCHES)
        if seconds:
            budget = Budget(seconds=seconds, min_count=max(min_cycles, self.FINGERPRINT_AT))
        else:
            budget = Budget(count=self.TRACE_CYCLES)
        host = sim.nodes[sim.host_org[RESEARCHER]]
        since = len(sim.trace)
        matches = []
        cycles = 0
        started = time.perf_counter()
        while budget.running(cycles, started):
            # Every cohort joins a study none of its participants is in yet.
            first = cycles * self.COHORT
            study = f"study-{first // len(st.participants)}"
            if study not in st.studies:
                sim.register_study(RESEARCHER, study, QUIZ)
                sim.settle()
                st.studies.add(study)
            cohort = st.participants[first % len(st.participants):][: self.COHORT]
            plans = {pid: _plan(st.rng) for pid in cohort}
            profiles = {pid: _profile(st.rng) for pid in cohort}
            t0 = time.perf_counter()
            txs = self._lifecycle(sim, study, plans, profiles, checks)
            m.rates.append(len(txs) / (time.perf_counter() - t0))
            m.ops += len(txs)
            for tx in txs:
                checks.record(host.ledger.find_tx(tx.tx_id) is not None, f"{tx.action} never committed")
            st.lifecycles.update(((study, pid), plan) for pid, plan in plans.items())
            st.profiles.update(profiles)
            for _ in range(self.MATCHES):
                matches.append(self._match(st, checks, m))
            cycles += 1
            if cycles == self.FINGERPRINT_AT:
                m.fingerprint = common.sim_fingerprint(sim, since)
                m.fingerprint["matches"] = hashlib.sha256(repr(matches).encode()).hexdigest()
                m.rss_mb = common.peak_rss_mb()
                verify.persist(host.ledger)
            verify.maybe(time.perf_counter() - started)
        verify.finish()
        for study in sorted({s for s, _ in st.lifecycles}):
            self._check_dashboard(st, study, checks)
        m.events = sim.trace[since:]
        return m

    @staticmethod
    def _lifecycle(sim, study: str, plans: dict, profiles: dict, checks: Checks) -> list:
        """Each step submits one transaction for every participant it
        applies to, then settles; returns the submitted transactions."""
        txs = []

        def step(pids, submit) -> None:
            for pid in pids:
                txs.append(submit(pid))
            sim.settle()

        def attempt(pid, wrong) -> object:
            mistakes, passed, tx = sim.submit_attempt(pid, study, _answers(wrong))
            checks.record((mistakes, passed) == (len(wrong), not wrong), f"attempt of {pid} misgraded")
            return tx

        step(plans, lambda pid: sim.invite(RESEARCHER, study, pid))
        for k in range(2):
            step([p for p in plans if len(plans[p].failed) > k], lambda pid, k=k: attempt(pid, plans[pid].failed[k]))
        step([p for p in plans if plans[p].passes], lambda pid: attempt(pid, []))
        step([p for p in plans if plans[p].signs], lambda pid: sim.sign_consent(pid, study))
        step([p for p in plans if plans[p].withdraws], lambda pid: sim.withdraw_consent(pid, study))
        step(profiles, lambda pid: sim.publish_profile(
            pid, sorted(profiles[pid].descriptors), profiles[pid].discoverable, profiles[pid].overrides or None
        ))
        return txs

    @staticmethod
    def _match(st: ConsentMatchState, checks: Checks, m: Measured) -> list:
        """One query; the result must be the plaintext subset of visible profiles."""
        query = sorted(st.rng.sample(UNIVERSE, st.rng.randint(1, 3)))
        study = st.rng.choice((None, *STUDIES))
        t0 = time.perf_counter()
        match_id = st.sim.start_match(RESEARCHER, query, study)
        st.sim.settle()
        got = st.sim.match_result(match_id)
        m.latencies_ms.append((time.perf_counter() - t0) * 1000)
        want = sorted(pid for pid, p in st.profiles.items() if p.visible(study) and p.descriptors.issuperset(query))
        checks.record(got == want, f"match {query} for {study}: {len(got)} found, {len(want)} expected")
        return got

    @staticmethod
    def _check_dashboard(st: ConsentMatchState, study: str, checks: Checks) -> None:
        rows = {r.participant: r for r in st.sim.consent_dashboard(RESEARCHER, study)}
        invited = sorted(pid for s, pid in st.lifecycles if s == study)
        checks.record(sorted(rows) == invited, f"dashboard of {study} lists other participants")
        for pid in invited:
            p, row = st.lifecycles[(study, pid)], rows.get(pid)
            struggles = None
            if st.profiles[pid].visible(study):
                struggles = tuple(sum(q in wrong for wrong in p.failed) for q in range(len(CORRECT)))
            want = (p.state(), len(p.failed) + p.passes, sum(map(len, p.failed)), struggles, p.signs)
            ok = row is not None and (
                row.state, row.attempts, row.total_mistakes, row.struggles, row.signed_at is not None
            ) == want
            checks.record(ok, f"dashboard row of {pid} in {study} differs from its lifecycle")

"""ledger_audit: the read path over one persisted ledger; no simulator or
policy work runs in the measured phase."""

from __future__ import annotations

import hashlib
import math
import os
import random
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from careledger import SimConfig, spawn_network
from careledger.consent import Question, Quiz
from careledger.errors import ChainError
from careledger.exchange import submit_request
from careledger.ledger import Category, Kind, PrincipalId, query_audit, read_ledger, validate_chain, write_ledger

import common
from common import DATA_ORGS, PRACTICE_ORGS, Budget, Checks, Measured, org

QUIZ = Quiz(tuple(Question(f"question {q}", ("yes", "no", "unsure"), q % 3) for q in range(4)))


@dataclass
class AuditState:
    data: bytes  # the persisted ledger file
    seed: int
    expected: dict  # patient id -> Counter of audit actions about them
    fingerprint: dict


def build_audit_ledger(seed: int, patients: int, participants: int, requests_per_patient: int) -> AuditState:
    """Drive a network one operation per block so the ledger carries every
    payload type across several hundred blocks; persist one node's copy.
    Records, per patient, the audit actions the generator caused."""
    rng = random.Random(f"audit/{seed}")
    sim = spawn_network(list(common.ORGS), SimConfig(seed=seed))
    pracs = {f"{o}-w{j}": o for o in PRACTICE_ORGS for j in range(2)}
    for prac, home in pracs.items():
        sim.register_practitioner(prac, home)
        sim.settle()
    expected: dict[str, Counter] = {}
    for i in range(patients):
        pid = f"p{i:04d}"
        seen = expected[pid] = Counter()
        sim.register_person(Kind.PATIENT, pid)
        sim.settle()
        sender = rng.choice(DATA_ORGS)
        grantee = rng.choice(sorted(pracs))
        members = sorted({sender, pracs[grantee]})
        other = rng.choice([p for p in sorted(pracs) if pracs[p] in members and p != grantee])
        sim.create_plan(f"plan-{pid}", pid, members, [(grantee, pracs[grantee]), (other, pracs[other])])
        sim.settle()
        gid = f"g{i:04d}"
        scope = frozenset(rng.sample(tuple(Category), rng.randint(1, 4)))
        sim.grant_access(pid, f"plan-{pid}", grantee, scope, 0, 1 << 42, grant_id=gid)
        sim.settle()
        seen.update(("RegisterPrincipal", "CreatePlan", "GrantAccess"))
        for cat in Category:
            sim.add_record(sender, pid, cat, rng.randrange(10**6), f"{cat.value} reading", "lab")
        for _ in range(requests_per_patient):
            emergency = rng.random() < 0.2
            requester = other if emergency else grantee
            submit_request(
                sim,
                PrincipalId(Kind.PRACTITIONER, requester),
                org(pracs[requester]),
                org(sender),
                PrincipalId(Kind.PATIENT, pid),
                rng.choice(tuple(Category)),
                emergency,
            )
            # An emergency request by a plan member without a grant is
            # always granted, and the grant is flagged on chain.
            seen.update(("DataRequestRecorded", "AccessCompleted"))
            seen["EmergencyAccess"] += emergency
        if rng.random() < 0.25:
            sim.revoke_access(pid, gid)
            sim.settle()
            seen["RevokeAccess"] += 1

    sim.register_person(Kind.RESEARCHER, "res-0")
    sim.settle()
    sim.register_study("res-0", "study-a", QUIZ)
    sim.settle()
    correct = [q.correct for q in QUIZ.questions]
    for j in range(participants):
        part = f"v{j:04d}"
        sim.register_person(Kind.PARTICIPANT, part)
        sim.settle()
        sim.invite("res-0", "study-a", part)
        sim.settle()
        if rng.random() < 0.5:
            sim.submit_attempt(part, "study-a", [(c + 1) % 3 for c in correct])
            sim.settle()
        sim.submit_attempt(part, "study-a", correct)
        sim.settle()
        sim.sign_consent(part, "study-a")
        sim.settle()
        if rng.random() < 0.3:
            sim.withdraw_consent(part, "study-a")
            sim.settle()
        sim.publish_profile(part, sorted(rng.sample([f"source-{k}" for k in range(6)], 2)), rng.random() < 0.8)
        sim.settle()

    common.WORK_DIR.mkdir(parents=True, exist_ok=True)
    path = common.WORK_DIR / f"audit-{os.getpid()}.ledger"
    try:
        write_ledger(sim.nodes["hospital"].ledger, str(path))
        data = path.read_bytes()
    finally:
        path.unlink(missing_ok=True)
    fingerprint = common.sim_fingerprint(sim)
    fingerprint["ledger_sha256"] = hashlib.sha256(data).hexdigest()
    return AuditState(data, seed, expected, fingerprint)


class LedgerAudit:
    """Set-up persists one seeded ledger. Each cycle of the measured phase
    runs single-byte tamper trials and queries the audit trail of random
    patients; halfway through the phase, the same ledger is verified cold in
    a fresh interpreter."""

    name = "ledger_audit"
    rate_pct, tail_pct = 10, 90
    aliases = {"ops_per_s": "fuzz_trials_per_s", "op_ms_p50": "audit_query_ms_p50",
               "op_ms_p75": "audit_query_ms_p75", "op_ms_tail": "audit_query_ms_p90"}
    # Per cycle. A trial costs more the later its byte sits in the file, so
    # the k-th trial of a cycle flips a byte in the k-th of TRIALS equal
    # slices: every cycle spans the whole file alike.
    TRIALS, QUERIES = 5, 20
    PROCESSES = 5
    MIN_CYCLES = math.ceil(common.per_process(common.min_samples(tail_pct), PROCESSES) / QUERIES)
    TRACE_CYCLES = 2

    def __init__(self, patients: int = 60, participants: int = 25, requests_per_patient: int = 3):
        self.params = dict(patients=patients, participants=participants, requests_per_patient=requests_per_patient)
        self.patients = patients
        self.participants = participants
        self.requests_per_patient = requests_per_patient

    def setup(self, seed: int) -> AuditState:
        return build_audit_ledger(seed, self.patients, self.participants, self.requests_per_patient)

    def measure(self, st: AuditState, seconds: Optional[float], checks: Checks, traced: bool) -> Measured:
        m = Measured()
        verify = common.ColdVerify(self.name, seconds, traced, checks, m)
        budget = Budget(seconds=seconds, min_count=self.MIN_CYCLES) if seconds else Budget(count=self.TRACE_CYCLES)
        data = st.data
        tamper = common.WORK_DIR / f"tamper-{os.getpid()}.ledger"
        fuzz_rng, query_rng = random.Random(f"fuzz/{st.seed}"), random.Random(f"query/{st.seed}")
        patients = sorted(st.expected)
        cycles = 0
        try:
            verify.persist_bytes(data)
            loaded = read_ledger(str(verify.path))
            started = time.perf_counter()
            while budget.running(cycles, started):
                spent, fuzz = 0.0, []
                for k in range(self.TRIALS):
                    lo, hi = k * len(data) // self.TRIALS, (k + 1) * len(data) // self.TRIALS
                    pos, delta = fuzz_rng.randrange(lo, hi), fuzz_rng.randrange(1, 256)
                    t0 = time.perf_counter()
                    caught = _tamper_trial(data, tamper, pos, delta)
                    spent += time.perf_counter() - t0
                    checks.record(caught is not None, f"mutation at byte {pos} (xor {delta}) went undetected")
                    fuzz.append((pos, delta, caught))
                m.ops += self.TRIALS
                m.rates.append(self.TRIALS / spent)
                audit = [self._query(st, loaded, query_rng.choice(patients), checks, m) for _ in range(self.QUERIES)]
                cycles += 1
                if cycles == 1:
                    m.rss_mb = common.peak_rss_mb()
                    m.fingerprint = {
                        "fuzz": hashlib.sha256(repr(fuzz).encode()).hexdigest(),
                        "audit": hashlib.sha256(repr(audit).encode()).hexdigest(),
                    }
                verify.maybe(time.perf_counter() - started)
            verify.finish()
        finally:
            verify.path.unlink(missing_ok=True)
            tamper.unlink(missing_ok=True)
        return m

    @staticmethod
    def _query(st: AuditState, loaded, pid: str, checks: Checks, m: Measured) -> tuple:
        """A patient's audit trail is exactly the actions the generator caused, in chain order."""
        t0 = time.perf_counter()
        entries = query_audit(loaded, subject=pid)
        m.latencies_ms.append((time.perf_counter() - t0) * 1000)
        order = [(e.height, e.position) for e in entries]
        ok = (
            Counter(e.action for e in entries) == st.expected[pid]
            and all(e.subject == pid for e in entries)
            and order == sorted(set(order))
        )
        checks.record(ok, f"audit trail of {pid} differs from the operations that touched it")
        return pid, len(entries)


def _tamper_trial(data: bytes, tamper: Path, pos: int, delta: int) -> Optional[str]:
    """Flip one byte, persist, read and validate. Returns how the damage was
    caught (a violated rule, or "unreadable"), None when it was not."""
    mutated = bytearray(data)
    mutated[pos] ^= delta
    tamper.write_bytes(mutated)
    try:
        report = validate_chain(read_ledger(str(tamper)))
    except ChainError:
        return "unreadable"
    return None if report.ok else report.violation.rule

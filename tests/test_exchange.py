"""Record stores, request protocol, sessions, timeline merge, shredding."""

import random

import pytest

from careledger import crypto
from careledger.errors import ExchangeError
from careledger.exchange import (
    OffChainStore,
    RecordEntry,
    Session,
    build_timeline,
    submit_request,
)
from careledger.ledger import (
    Category,
    Kind,
    PrincipalId,
    canonical_encode,
    validate_chain,
)
from careledger.policy import Reason, Verdict

from conftest import build_care_sim

P = PrincipalId


def _request(sim, category=Category.VITALS, sender="hospital", emergency=False, patient="p001"):
    return submit_request(
        sim,
        P(Kind.PRACTITIONER, "nurse1"),
        P(Kind.ORGANIZATION, "homecare"),
        P(Kind.ORGANIZATION, sender),
        P(Kind.PATIENT, patient),
        category,
        emergency,
    )


class TestStore:
    def test_fetch_ordered_by_measurement_time(self):
        store = OffChainStore("hospital")
        store.add_record("p001", Category.VITALS, 30, "BP 128/82", "drjones")
        store.add_record("p001", Category.VITALS, 10, "BP 132/85", "drjones")
        store.add_record("p001", Category.VITALS, 20, "BP 130/84", "drjones")
        values = [r.measured_at for r in store.fetch("p001", Category.VITALS)]
        assert values == [10, 20, 30]

    def test_unknown_patient_is_empty_not_error(self):
        store = OffChainStore("hospital")
        assert store.fetch("ghost", Category.VITALS) == []

    def test_unknown_category_is_error(self):
        store = OffChainStore("hospital")
        with pytest.raises(ExchangeError):
            store.fetch("p001", "bloodwork")


class TestRequestProtocol:
    def test_happy_path_returns_populated_session(self):
        sim = build_care_sim()
        sim.add_record("hospital", "p001", Category.VITALS, 10, "BP 132/85", "drjones")
        sim.add_record("hospital", "p001", Category.VITALS, 30, "BP 128/82", "drjones")
        sim.tick(1500)  # inside the grant window
        outcome = _request(sim)
        assert outcome.decision.verdict is Verdict.ALLOW
        assert [r.value for r in outcome.session.records] == ["BP 132/85", "BP 128/82"]
        assert outcome.session.records[0].source_org == "hospital"

    def test_denied_request_still_leaves_audit_pair(self):
        sim = build_care_sim()
        sim.tick(1500)
        outcome = _request(sim, category=Category.NOTES)  # out of scope
        assert outcome.decision.verdict is Verdict.DENY
        assert outcome.decision.reason is Reason.OUT_OF_SCOPE
        assert outcome.session is None
        ledger = sim.nodes["homecare"].ledger
        requests = [tx for _, _, tx in ledger.transactions() if tx.action == "DataRequestRecorded"]
        completions = [tx for _, _, tx in ledger.transactions() if tx.action == "AccessCompleted"]
        assert len(requests) == 1 and len(completions) == 1
        assert completions[0].payload.request_tx == requests[0].tx_id
        assert completions[0].payload.reason == "out_of_scope"

    def test_zero_records_allow_gives_empty_session(self):
        sim = build_care_sim()
        sim.tick(1500)
        outcome = _request(sim)
        assert outcome.decision.verdict is Verdict.ALLOW
        assert outcome.session is not None
        assert outcome.session.records == []

    def test_malformed_category_rejected_before_any_tx(self):
        from careledger.errors import SimError

        sim = build_care_sim()
        before = sim.nodes["hospital"].ledger.height
        with pytest.raises(SimError):
            sim.start_request(
                P(Kind.PRACTITIONER, "nurse1"),
                P(Kind.ORGANIZATION, "homecare"),
                P(Kind.ORGANIZATION, "hospital"),
                P(Kind.PATIENT, "p001"),
                "bloodwork",
            )
        sim.settle()
        assert sim.nodes["hospital"].ledger.height == before

    def test_sender_reevaluates_locally(self):
        """The sender's own committed state decides, not the requester's claim."""
        sim = build_care_sim()
        sim.tick(1500)
        outcome = _request(sim)
        decision_events = [e for e in sim.trace if e.kind == "decision"]
        assert decision_events
        assert decision_events[-1].detail["org"] == "hospital"


class TestSessions:
    def _session(self, opened_at=0, ttl=600_000, records=None):
        return Session(
            session_id="s1",
            request_tx=bytes(32),
            requester=P(Kind.PRACTITIONER, "nurse1"),
            records=records or [],
            opened_at=opened_at,
            ttl=ttl,
        )

    def test_expiry_boundary_is_half_open(self):
        s = self._session()
        assert not s.expired(599_999)
        assert s.expired(600_000)

    def test_simulated_session_expires_at_ttl(self):
        sim = build_care_sim()
        sim.add_record("hospital", "p001", Category.VITALS, 10, "BP 132/85", "x")
        sim.tick(1500)
        outcome = _request(sim)
        sid = outcome.session.session_id
        assert sid in sim.nodes["homecare"].sessions
        sim.tick(sim.config.session_ttl + 1)
        assert sid not in sim.nodes["homecare"].sessions
        assert any(
            e.kind == "session_expired" and e.detail["session"] == sid for e in sim.trace
        )
        assert sim.timeline_for("nurse1") == []


def _entry(measured_at, org, rid, value="v"):
    return RecordEntry(
        record_id=rid,
        patient="p001",
        category=Category.VITALS,
        source_org=org,
        measured_at=measured_at,
        value=value,
        author="a",
    )


class TestTimeline:
    def _wrap(self, records):
        return Session(
            session_id="s", request_tx=bytes(32),
            requester=P(Kind.PRACTITIONER, "nurse1"),
            records=records, opened_at=0, ttl=10**9,
        )

    def test_two_source_merge_order(self):
        hospital = self._wrap([_entry(10, "hospital", "h1"), _entry(30, "hospital", "h2")])
        homecare = self._wrap([_entry(20, "homecare", "c1")])
        merged = build_timeline([hospital, homecare])
        assert [(e.measured_at, e.source_org) for e in merged] == [
            (10, "hospital"), (20, "homecare"), (30, "hospital"),
        ]

    def test_tie_breaks_on_org_then_record_id(self):
        a = self._wrap([_entry(50, "beta", "r1"), _entry(50, "alpha", "r9")])
        b = self._wrap([_entry(50, "alpha", "r2")])
        merged = build_timeline([a, b])
        assert [(e.source_org, e.record_id) for e in merged] == [
            ("alpha", "r2"), ("alpha", "r9"), ("beta", "r1"),
        ]

    def test_empty_sessions_empty_timeline(self):
        assert build_timeline([self._wrap([])]) == []

    def test_inverted_window_rejected(self):
        with pytest.raises(ExchangeError):
            build_timeline([self._wrap([])], window=(100, 50))

    def test_window_is_half_open(self):
        s = self._wrap([_entry(10, "a", "r1"), _entry(20, "a", "r2"), _entry(30, "a", "r3")])
        merged = build_timeline([s], window=(10, 30))
        assert [e.measured_at for e in merged] == [10, 20]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_merge_matches_sort_oracle_randomized(self, seed):
        from oracles import merge_oracle

        rng = random.Random(seed)
        sessions, lists = [], []
        rid = 0
        for _ in range(rng.randint(1, 6)):
            records = []
            for _ in range(rng.randint(0, 250)):
                rid += 1
                records.append(
                    _entry(rng.randint(0, 99), f"org{rng.randint(0, 4)}", f"r{rid:04d}")
                )
            sessions.append(self._wrap(records))
            lists.append(records)
        window = (20, 80) if rng.random() < 0.5 else None
        got = build_timeline(sessions, window)
        want = merge_oracle(lists, window)
        assert got == want
        times = [e.measured_at for e in got]
        assert times == sorted(times)


class TestShredding:
    def test_shred_is_local_to_one_org(self):
        sim = build_care_sim()
        sim.add_record("hospital", "p001", Category.VITALS, 10, "BP 140/90", "x")
        sim.add_record("homecare", "p001", Category.VITALS, 20, "HR 70", "x")
        sim.shred("hospital", "p001")
        assert sim.nodes["hospital"].store.fetch("p001", Category.VITALS) == []
        assert "p001" not in sim.nodes["hospital"].store.vault
        assert len(sim.nodes["homecare"].store.fetch("p001", Category.VITALS)) == 1
        assert "p001" in sim.nodes["homecare"].store.vault

    def test_shred_unknown_pseudonym_rejected(self):
        sim = build_care_sim()
        with pytest.raises(ExchangeError):
            sim.shred("hospital", "ghost")

    def test_chain_untouched_by_shred(self):
        sim = build_care_sim()
        before = [b.hash for b in sim.nodes["hospital"].ledger.blocks]
        sim.shred("hospital", "p001")
        after = [b.hash for b in sim.nodes["hospital"].ledger.blocks]
        assert before == after
        assert validate_chain(sim.nodes["hospital"].ledger).ok

    def test_commitment_underivable_without_salt(self):
        """With the salt: linkable. Without it: no dictionary identifier maps
        to any on-chain byte sequence."""
        from careledger.simnet import SYNTHETIC_NAMES

        sim = build_care_sim()
        node = sim.nodes["hospital"]
        row = node.store.vault["p001"]
        commitments = set()
        for _, _, tx in node.ledger.transactions():
            payload = tx.payload
            if tx.action == "RegisterPrincipal" and payload.identity_commitment:
                commitments.add(payload.identity_commitment)
        # Pre-shred: the vault links the true identity to the chain.
        assert crypto.commitment(row.salt, row.true_id) in commitments
        sim.shred("hospital", "p001")
        # Post-shred: dictionary identifiers cannot be re-derived. The raw
        # name, its bare hash, and every tx encoding are checked.
        all_tx_bytes = b"".join(
            canonical_encode(tx) for _, _, tx in node.ledger.transactions()
        )
        for name in SYNTHETIC_NAMES:
            assert name.encode() not in all_tx_bytes
            assert crypto.sha256(name.encode()) not in commitments

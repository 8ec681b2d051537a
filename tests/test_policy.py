"""Plans, grants, revocation, decision logic, and oracle equivalence."""

import random

import pytest

from careledger import crypto
from careledger.consent import Question, Quiz
from careledger.errors import ConsentError, PolicyError
from careledger.exchange import submit_request
from careledger.ledger import (
    ZERO_HASH,
    Category,
    ConsentInvited,
    CreatePlan,
    DataRequestRecorded,
    EmergencyAccess,
    GrantAccess,
    Kind,
    LedgerState,
    PrincipalId,
    ProfilePublished,
    RegisterPrincipal,
    RegisterStudy,
    Transaction,
    Violation,
    quorum,
    validate_chain,
)
from careledger.policy import Reason, Verdict, check_tx, evaluate_request, fold, make_emergency_access
from careledger.scenario import run_scenario
from careledger.simnet import SimConfig, spawn_network

from conftest import FIXTURES, build_care_sim, propose, rule_breaking_block, signed
from oracles import oracle_evaluate

P = PrincipalId


def _ids(sim):
    return sim.nodes["hospital"].policy


class TestRegistration:
    def test_duplicate_id_rejected(self):
        sim = build_care_sim()
        with pytest.raises(PolicyError):
            sim.register_practitioner("nurse1", "homecare")

    def test_unknown_org_binding_rejected(self):
        sim = build_care_sim()
        with pytest.raises(PolicyError):
            sim.register_practitioner("nurse2", "nowhere")

    def test_new_org_raises_quorum_from_next_block(self):
        sim = spawn_network(["a", "b", "c", "d"], SimConfig(seed=3))
        assert quorum(4) == 3
        sim.register_organization("e")
        sim.settle()
        ledger = sim.nodes["a"].ledger
        reg_height = None
        for height, _, tx in ledger.transactions():
            if tx.action == "RegisterPrincipal" and tx.payload.subject.id == "e":
                reg_height = height
        assert reg_height is not None
        # The registering block itself was endorsed under the old membership.
        assert len(ledger.blocks[reg_height].endorsements) >= quorum(4)
        sim.register_person(Kind.PATIENT, "px")
        sim.settle()
        tip = sim.nodes["a"].ledger.tip()
        assert tip.height > reg_height
        assert len(tip.endorsements) >= quorum(5) == 4
        from careledger.ledger import validate_chain

        assert validate_chain(ledger).ok
        # The provisioned node caught up and keeps pace.
        assert sim.nodes["e"].ledger.tip().hash == tip.hash


class TestPlans:
    def test_plan_without_orgs_rejected(self):
        sim = build_care_sim()
        with pytest.raises(PolicyError):
            sim.create_plan("plan9", "p002", [], [])

    def test_duplicate_plan_rejected(self):
        sim = build_care_sim()
        with pytest.raises(PolicyError):
            sim.create_plan("plan1", "p002", ["hospital"], [])

    def test_practitioner_outside_member_orgs_rejected(self):
        sim = build_care_sim()
        sim.register_organization("clinic")
        sim.settle()
        sim.register_practitioner("dr9", "clinic")
        sim.settle()
        with pytest.raises(PolicyError):
            sim.create_plan("plan9", "p002", ["hospital"], [("dr9", "clinic")])

    def test_unknown_patient_rejected(self):
        sim = build_care_sim()
        with pytest.raises(PolicyError):
            sim.create_plan("plan9", "ghost", ["hospital"], [])


class TestGrants:
    def test_grant_by_non_owner_rejected(self):
        sim = build_care_sim()
        with pytest.raises(PolicyError) as err:
            sim.grant_access("p002", "plan1", "nurse1", frozenset({Category.VITALS}), 0, 10)
        assert "patient" in str(err.value)

    def test_empty_window_rejected(self):
        sim = build_care_sim()
        with pytest.raises(PolicyError):
            sim.grant_access("p001", "plan1", "nurse1", frozenset({Category.VITALS}), 500, 500)

    def test_empty_scope_rejected(self):
        sim = build_care_sim()
        with pytest.raises(PolicyError):
            sim.grant_access("p001", "plan1", "nurse1", frozenset(), 0, 10)

    def test_grantee_outside_plan_rejected(self):
        sim = build_care_sim()
        sim.register_practitioner("outsider", "hospital")
        sim.settle()
        with pytest.raises(PolicyError):
            sim.grant_access("p001", "plan1", "outsider", frozenset({Category.VITALS}), 0, 10)

    def test_revoke_unknown_grant_rejected(self):
        sim = build_care_sim()
        with pytest.raises(PolicyError):
            sim.revoke_access("p001", "g999")

    def test_double_revoke_rejected(self):
        sim = build_care_sim()
        sim.revoke_access("p001", "g001")
        sim.settle()
        with pytest.raises(PolicyError):
            sim.revoke_access("p001", "g001")

    def test_wrong_patient_revoke_rejected(self):
        sim = build_care_sim()
        with pytest.raises(PolicyError):
            sim.revoke_access("p002", "g001")


def self_grant(sim):
    """nurse1 grants itself notes on p001's plan, signing as itself."""
    nurse = P(Kind.PRACTITIONER, "nurse1")
    payload = GrantAccess("gX", "plan1", P(Kind.PATIENT, "p001"), nurse, frozenset({Category.NOTES}), 0, 10**9)
    return signed(sim, nurse, P(Kind.ORGANIZATION, "homecare"), payload)


class TestLedgerEnforcedRules:
    """The ledger refuses what the builders used to refuse, whoever builds the tx."""

    def test_self_grant_refused_as_not_author(self):
        sim = build_care_sim()
        with pytest.raises(PolicyError) as err:
            sim._submit_tx(sim.nodes["homecare"], self_grant(sim))
        assert err.value.rule == "not_author"
        sim.settle()
        assert "gX" not in _ids(sim).grants
        d = _decide(sim, at=5000, category=Category.NOTES)
        assert (d.verdict, d.reason) == (Verdict.DENY, Reason.OUT_OF_SCOPE)

    def test_reregistration_refused_and_nodes_stay_level(self):
        sim = build_care_sim()
        p002, hospital = P(Kind.PATIENT, "p002"), P(Kind.ORGANIZATION, "hospital")
        tx = signed(sim, p002, hospital, RegisterPrincipal(p002, _ids(sim).principals[p002]))
        with pytest.raises(PolicyError) as err:
            sim._submit_tx(sim.nodes["hospital"], tx)
        assert err.value.rule == "duplicate"
        # Gossiped anyway, a peer drops it at admission.
        sim._schedule(0, "deliver", ("hospital", "homecare", {"type": "tx", "tx": tx}))
        sim.settle()
        assert {n.ledger.height for n in sim.nodes.values()} == {6}
        drops = [e.detail for e in sim.trace if e.kind == "msg_delivered" and "dropped" in e.detail]
        assert drops == [{"to": "homecare", "type": "tx", "dropped": "duplicate", "tx": tx.tx_id.hex()}]

    def test_proposal_carrying_a_self_grant_dropped_as_not_author(self):
        sim = build_care_sim()
        events = propose(sim, "hospital", "homecare", [self_grant(sim)])
        assert ("msg_delivered", {"to": "homecare", "type": "propose", "dropped": "not_author"}) in events
        assert not any(kind == "block_endorsed" for kind, _ in events)

    def test_refused_practitioner_reregistration_keeps_key_and_host(self):
        sim = build_care_sim()
        nurse = P(Kind.PRACTITIONER, "nurse1")
        key = sim.private_keys[nurse]
        with pytest.raises(PolicyError):
            sim.register_practitioner("nurse1", "hospital")
        assert sim.private_keys[nurse] == key
        assert sim.host_org["nurse1"] == "homecare"
        sim.add_record("hospital", "p001", Category.VITALS, 10, "BP 120/80", "x")
        outcome = submit_request(
            sim, nurse, P(Kind.ORGANIZATION, "homecare"), P(Kind.ORGANIZATION, "hospital"),
            P(Kind.PATIENT, "p001"), Category.VITALS,
        )
        assert outcome.decision.verdict is Verdict.ALLOW
        assert len(outcome.session.records) == 1

    def test_refused_patient_reregistration_keeps_vault_rows(self):
        sim = build_care_sim()
        rows = {name: node.store.vault["p002"] for name, node in sim.nodes.items()}
        with pytest.raises(PolicyError):
            sim.register_person(Kind.PATIENT, "p002")
        assert {name: node.store.vault["p002"] for name, node in sim.nodes.items()} == rows
        assert sim.identity_rows["p002"] == rows["hospital"]

    def test_concurrent_registration_of_one_id_keeps_the_first(self):
        sim = build_care_sim()
        nurse = P(Kind.PRACTITIONER, "nurse2")
        sim.register_practitioner("nurse2", "homecare")
        key = sim.private_keys[nurse]
        # Accepted at homecare but not yet committed: the second one must not
        # replace the key and host the first one commits with.
        with pytest.raises(PolicyError) as err:
            sim.register_practitioner("nurse2", "hospital")
        assert err.value.rule == "duplicate"
        sim.settle()
        assert sim.private_keys[nurse] == key
        assert sim.host_org["nurse2"] == "homecare"
        proof = crypto.sign(key, b"nurse2")
        assert all(crypto.verify(n.policy.principals[nurse], proof, b"nurse2") for n in sim.nodes.values())


@pytest.fixture(scope="module")
def registry_sim():
    """`build_care_sim()` plus researcher drx, study s1 and participant
    part1's profile."""
    sim = build_care_sim()
    sim.register_person(Kind.RESEARCHER, "drx")
    sim.register_person(Kind.PARTICIPANT, "part1")
    sim.settle()
    sim.register_study("drx", "s1", Quiz((Question("q", ("a", "b"), 0),)))
    sim.publish_profile("part1", ["biobank"], True)
    sim.settle()
    return sim


def test_the_folds_hold_the_committed_payloads(registry_sim):
    for node in registry_sim.nodes.values():
        committed = {type(tx.payload): tx.payload for _, _, tx in node.ledger.transactions()}
        assert node.policy.plans["plan1"] is committed[CreatePlan]
        assert node.policy.grants["g001"] is committed[GrantAccess]
        assert node.consent.studies["s1"] is committed[RegisterStudy]
        assert node.consent.profiles["part1"] is committed[ProfilePublished]


_HOSPITAL, _HOMECARE, _NOWHERE = (P(Kind.ORGANIZATION, org) for org in ("hospital", "homecare", "nowhere"))
_NURSE1, _NURSE9 = P(Kind.PRACTITIONER, "nurse1"), P(Kind.PRACTITIONER, "nurse9")
_P001, _P999 = P(Kind.PATIENT, "p001"), P(Kind.PATIENT, "p999")
_DRX, _DRZ = P(Kind.RESEARCHER, "drx"), P(Kind.RESEARCHER, "drz")
_PART9 = P(Kind.PARTICIPANT, "part9")


def _plan(patient=_P001, orgs=(_HOSPITAL,), pracs=((_NURSE1, _HOSPITAL),)):
    return patient, _HOSPITAL, CreatePlan("plan9", patient, frozenset(orgs), frozenset(pracs))


def _request(requester=_NURSE1, requester_org=_HOMECARE, sender_org=_HOSPITAL, patient=_P001):
    return requester, requester_org, DataRequestRecorded(
        requester, requester_org, sender_org, patient, Category.VITALS, False
    )


# (author, author org, payload) naming one principal that is not registered
# as its kind, and the error class and message of its refusal.
_UNKNOWN = {
    "registration_org": (
        (_NURSE9, _HOSPITAL, RegisterPrincipal(_NURSE9, bytes(32), _NOWHERE)),
        PolicyError, "unknown organization nowhere",
    ),
    "registration_org_of_another_kind": (
        (_NURSE9, _HOSPITAL, RegisterPrincipal(_NURSE9, bytes(32), _P001)),
        PolicyError, "unknown organization p001",
    ),
    "plan_patient": (_plan(patient=_P999), PolicyError, "unknown patient p999"),
    "plan_member_org": (_plan(orgs=(_HOSPITAL, _NOWHERE)), PolicyError, "unknown organization nowhere"),
    "plan_practitioner": (_plan(pracs=((_NURSE9, _HOSPITAL),)), PolicyError, "unknown practitioner nurse9"),
    "request_requester": (_request(requester=_NURSE9), PolicyError, "unknown practitioner nurse9"),
    "request_requester_org": (_request(requester_org=_NOWHERE), PolicyError, "unknown organization nowhere"),
    "request_sender_org": (_request(sender_org=_NOWHERE), PolicyError, "unknown organization nowhere"),
    "request_patient": (_request(patient=_P999), PolicyError, "unknown patient p999"),
    "emergency_requester": (
        (_HOSPITAL, _HOSPITAL, EmergencyAccess(ZERO_HASH, _NURSE9, _P001, Category.VITALS)),
        PolicyError, "unknown practitioner nurse9",
    ),
    "emergency_patient": (
        (_HOSPITAL, _HOSPITAL, EmergencyAccess(ZERO_HASH, _NURSE1, _P999, Category.VITALS)),
        PolicyError, "unknown patient p999",
    ),
    "study_researcher": (
        (_DRX, _HOSPITAL, RegisterStudy("s9", ZERO_HASH, (_DRX, _DRZ), 1)),
        ConsentError, "unknown researcher drz",
    ),
    "invitation_participant": (
        (_DRX, _HOSPITAL, ConsentInvited("s1", _PART9)),
        ConsentError, "unknown participant part9",
    ),
    "invitation_participant_of_another_kind": (
        (_DRX, _HOSPITAL, ConsentInvited("s1", P(Kind.PATIENT, "p001"))),
        ConsentError, "unknown participant p001",
    ),
    "profile_participant": (
        (_PART9, _HOSPITAL, ProfilePublished(_PART9, frozenset({bytes(32)}), True, frozenset())),
        ConsentError, "unknown participant part9",
    ),
}


@pytest.mark.parametrize("case", sorted(_UNKNOWN))
def test_a_principal_not_registered_as_its_kind_is_refused_as_unknown(registry_sim, case):
    (author, author_org, payload), error, message = _UNKNOWN[case]
    node = registry_sim.nodes["hospital"]
    refusal = check_tx(node.policy, node.consent, Transaction(registry_sim.clock, author, author_org, payload))
    assert (type(refusal), refusal.rule, str(refusal)) == (error, "unknown", message)


def _decide(sim, at, category=Category.VITALS, requester="nurse1", requester_org="homecare",
            sender_org="hospital", patient="p001", emergency=False):
    return evaluate_request(
        _ids(sim),
        P(Kind.PRACTITIONER, requester),
        P(Kind.ORGANIZATION, requester_org),
        P(Kind.ORGANIZATION, sender_org),
        P(Kind.PATIENT, patient),
        category,
        at,
        emergency,
    )


class TestEvaluate:
    def test_in_window_in_scope_allows(self):
        sim = build_care_sim()
        d = _decide(sim, at=5000)
        assert d.verdict is Verdict.ALLOW
        assert d.reason is Reason.VALID_GRANT
        assert d.grant_id == "g001"

    def test_window_is_half_open(self):
        sim = build_care_sim()  # g001 window [1000, 600000)
        assert _decide(sim, at=999).reason is Reason.EXPIRED
        assert _decide(sim, at=1000).verdict is Verdict.ALLOW
        assert _decide(sim, at=599_999).verdict is Verdict.ALLOW
        assert _decide(sim, at=600_000).reason is Reason.EXPIRED

    def test_no_grants_anywhere_denies_no_grant(self):
        sim = build_care_sim()
        d = _decide(sim, at=5000, requester="drjones", requester_org="hospital")
        assert (d.verdict, d.reason) == (Verdict.DENY, Reason.NO_GRANT)

    def test_out_of_scope(self):
        sim = build_care_sim()
        d = _decide(sim, at=5000, category=Category.NOTES)
        assert d.reason is Reason.OUT_OF_SCOPE

    def test_unknown_principal_wins_over_everything(self):
        sim = build_care_sim()
        d = _decide(sim, at=5000, requester="ghost")
        assert d.reason is Reason.UNKNOWN_PRINCIPAL
        d = _decide(sim, at=5000, patient="ghost")
        assert d.reason is Reason.UNKNOWN_PRINCIPAL

    def test_not_plan_member(self):
        sim = build_care_sim()
        # p002 has no plan at all.
        d = _decide(sim, at=5000, patient="p002")
        assert d.reason is Reason.NOT_PLAN_MEMBER

    def test_revocation_boundary(self):
        sim = build_care_sim()
        sim.tick(5000)
        sim.revoke_access("p001", "g001")
        sim.settle()
        revoked_at = None
        for _, _, tx in sim.nodes["hospital"].ledger.transactions():
            if tx.action == "RevokeAccess":
                revoked_at = tx.timestamp
        assert revoked_at is not None
        assert _decide(sim, at=revoked_at - 1).verdict is Verdict.ALLOW
        assert _decide(sim, at=revoked_at).reason is Reason.REVOKED

    def test_emergency_without_grant_allows_flagged(self):
        sim = build_care_sim()
        d = _decide(sim, at=700_000, emergency=True)  # grant expired
        assert d.verdict is Verdict.ALLOW_EMERGENCY
        assert d.reason is Reason.EMERGENCY_OVERRIDE

    def test_emergency_with_valid_grant_is_plain_allow(self):
        sim = build_care_sim()
        d = _decide(sim, at=5000, emergency=True)
        assert d.verdict is Verdict.ALLOW

    def test_emergency_outside_all_plans_still_denies(self):
        sim = build_care_sim()
        d = _decide(sim, at=5000, patient="p002", emergency=True)
        assert (d.verdict, d.reason) == (Verdict.DENY, Reason.NOT_PLAN_MEMBER)


class TestEmergencyAccessOp:
    def test_plan_practitioner_with_expired_grant_allowed_and_flagged(self):
        sim = build_care_sim()
        sim.tick(700_000)  # past grant window
        outcome = submit_request(
            sim,
            P(Kind.PRACTITIONER, "nurse1"),
            P(Kind.ORGANIZATION, "homecare"),
            P(Kind.ORGANIZATION, "hospital"),
            P(Kind.PATIENT, "p001"),
            Category.VITALS,
            emergency=True,
        )
        assert outcome.decision.verdict is Verdict.ALLOW_EMERGENCY
        ledger = sim.nodes["hospital"].ledger
        flagged = [tx for _, _, tx in ledger.transactions() if tx.action == "EmergencyAccess"]
        assert len(flagged) == 1
        assert flagged[0].payload.request_tx == outcome.request_tx

    def test_emergency_by_stranger_practitioner_errors(self):
        sim = build_care_sim()
        sim.register_practitioner("stranger", "hospital")
        sim.settle()
        with pytest.raises(PolicyError):
            make_emergency_access(
                _ids(sim),
                P(Kind.PRACTITIONER, "stranger"),
                P(Kind.PATIENT, "p001"),
                Category.VITALS,
            )

    def test_unknown_patient_errors(self):
        sim = build_care_sim()
        with pytest.raises(PolicyError):
            make_emergency_access(
                _ids(sim), P(Kind.PRACTITIONER, "nurse1"), P(Kind.PATIENT, "ghost"), Category.VITALS
            )

    def test_two_emergencies_two_flagged_audit_entries(self):
        from careledger.ledger import query_audit

        sim = build_care_sim()
        sim.tick(700_000)
        for _ in range(2):
            submit_request(
                sim,
                P(Kind.PRACTITIONER, "nurse1"),
                P(Kind.ORGANIZATION, "homecare"),
                P(Kind.ORGANIZATION, "hospital"),
                P(Kind.PATIENT, "p001"),
                Category.VITALS,
                emergency=True,
            )
            sim.tick(1500)
        entries = query_audit(sim.nodes["hospital"].ledger, action="EmergencyAccess")
        assert len(entries) == 2
        assert all(e.detail["emergency"] for e in entries)


# ---------------------------------------------------------------------------
# Oracle equivalence
# ---------------------------------------------------------------------------


def _scenario_sim(seed: int):
    """Randomized multi-org scenario within the oracle bounds:
    up to 5 orgs, up to 10 grants, 4 categories."""
    rng = random.Random(seed)
    orgs = [f"org{i}" for i in range(rng.randint(2, 5))]
    sim = spawn_network(orgs, SimConfig(seed=seed))
    practitioners = []
    for i in range(rng.randint(2, 4)):
        org = rng.choice(orgs)
        sim.register_practitioner(f"w{i}", org)
        practitioners.append((f"w{i}", org))
        sim.settle()
    patients = []
    for i in range(rng.randint(1, 3)):
        sim.register_person(Kind.PATIENT, f"p{i}")
        patients.append(f"p{i}")
        sim.settle()
    plans = []
    for i, patient in enumerate(patients):
        member_orgs = rng.sample(orgs, rng.randint(1, len(orgs)))
        bound = [(w, o) for w, o in practitioners if o in member_orgs]
        if not bound:
            continue
        selection = rng.sample(bound, rng.randint(1, len(bound)))
        sim.create_plan(f"plan{i}", patient, member_orgs, selection)
        plans.append((f"plan{i}", patient, selection))
        sim.settle()
    grant_windows = []
    categories = list(Category)
    for g in range(rng.randint(1, 10)):
        if not plans:
            break
        plan_id, patient, selection = rng.choice(plans)
        grantee, _ = rng.choice(selection)
        start = rng.randrange(0, 50_000)
        end = start + rng.randrange(1, 80_000)
        scope = frozenset(rng.sample(categories, rng.randint(1, 4)))
        sim.grant_access(patient, plan_id, grantee, scope, start, end)
        grant_windows.append((start, end))
        sim.settle()
        if rng.random() < 0.3:
            sim.revoke_access(patient, f"g{g + 1:03d}")
            sim.settle()
    return sim, [w for w, _ in practitioners], orgs, patients, grant_windows


def _time_grid(sim, grant_windows):
    points = {0, 1, 25_000, 10**9}
    for start, end in grant_windows:
        points.update({start - 1, start, start + 1, end - 1, end, end + 1})
    for _, _, tx in sim.nodes[next(iter(sim.nodes))].ledger.transactions():
        if tx.action == "RevokeAccess":
            points.update({tx.timestamp - 1, tx.timestamp, tx.timestamp + 1})
    return sorted(t for t in points if t >= 0)


@pytest.mark.parametrize("seed", [11, 23, 37, 58])
def test_evaluate_matches_brute_force_oracle(seed):
    sim, practitioners, orgs, patients, grant_windows = _scenario_sim(seed)
    node = sim.nodes[orgs[0]]
    ledger = node.ledger
    state = node.policy
    grid = _time_grid(sim, grant_windows)
    checked = 0
    for requester in practitioners:
        requester_org = state.practitioner_orgs[requester].id
        for sender in orgs:
            for patient in patients:
                for category in Category:
                    for at in grid:
                        for emergency in (False, True):
                            got = evaluate_request(
                                state,
                                P(Kind.PRACTITIONER, requester),
                                P(Kind.ORGANIZATION, requester_org),
                                P(Kind.ORGANIZATION, sender),
                                P(Kind.PATIENT, patient),
                                category,
                                at,
                                emergency,
                            )
                            want = oracle_evaluate(
                                ledger, requester, requester_org, sender,
                                patient, category.value, at, emergency,
                            )
                            assert (
                                got.verdict.value,
                                got.reason.value,
                                got.grant_id,
                            ) == (want.verdict, want.reason, want.grant_id), (
                                f"requester={requester} sender={sender} patient={patient} "
                                f"category={category.value} at={at} emergency={emergency}"
                            )
                            checked += 1
    assert checked > 150


class _Unscannable(dict):
    def _scan(self, *args):
        raise AssertionError("a decision scanned the whole state")

    values = items = keys = __iter__ = _scan


@pytest.mark.parametrize("seed", [11, 23, 37])  # 58 commits no plan
def test_evaluate_reads_only_the_named_principals_entries(seed):
    """A decision reads the patient's plans and the (grantor, grantee)
    grants through the fold's indexes, never by scanning every plan and
    grant, and decides exactly as before."""
    sim, practitioners, orgs, patients, grant_windows = _scenario_sim(seed)
    state = sim.nodes[orgs[0]].policy
    grid = _time_grid(sim, grant_windows)
    requests = [
        (
            P(Kind.PRACTITIONER, requester),
            state.practitioner_orgs[requester],
            P(Kind.ORGANIZATION, sender),
            P(Kind.PATIENT, patient),
            category,
            at,
            emergency,
        )
        for requester in practitioners
        for sender in orgs
        for patient in patients
        for category in Category
        for at in grid
        for emergency in (False, True)
    ]
    before = [evaluate_request(state, *request) for request in requests]
    state.plans, state.grants = _Unscannable(state.plans), _Unscannable(state.grants)
    assert [evaluate_request(state, *request) for request in requests] == before
    assert len(set(before)) > 1


@pytest.mark.parametrize("seed", [11, 37])
def test_revocation_is_monotone(seed):
    """Adding a revocation never turns a deny into an allow."""
    sim, practitioners, orgs, patients, grant_windows = _scenario_sim(seed)
    node = sim.nodes[orgs[0]]
    state = node.policy
    grants = list(state.grants.values())
    live = [g for g in grants if g.grant_id not in state.revoked]
    if not live:
        pytest.skip("scenario produced no unrevoked grants")
    grid = _time_grid(sim, grant_windows)

    def snapshot():
        out = {}
        for requester in practitioners:
            requester_org = state.practitioner_orgs[requester].id
            for patient in patients:
                for category in Category:
                    for at in grid:
                        d = evaluate_request(
                            state,
                            P(Kind.PRACTITIONER, requester),
                            P(Kind.ORGANIZATION, requester_org),
                            P(Kind.ORGANIZATION, orgs[0]),
                            P(Kind.PATIENT, patient),
                            category,
                            at,
                        )
                        out[(requester, patient, category, at)] = d.verdict
        return out

    before = snapshot()
    target = live[0]
    sim.revoke_access(target.grantor.id, target.grant_id)
    sim.settle()
    after = snapshot()
    for key, verdict_before in before.items():
        if verdict_before is Verdict.DENY:
            assert after[key] is Verdict.DENY


def test_grant_locality_across_plans():
    """A grant on plan A gives nothing for a patient of plan B."""
    sim = spawn_network(["hospital", "homecare"], SimConfig(seed=5))
    sim.register_practitioner("nurse1", "homecare")
    sim.settle()
    for pid in ("pA", "pB"):
        sim.register_person(Kind.PATIENT, pid)
        sim.settle()
    sim.create_plan("planA", "pA", ["hospital", "homecare"], [("nurse1", "homecare")])
    sim.settle()
    sim.create_plan("planB", "pB", ["hospital", "homecare"], [("nurse1", "homecare")])
    sim.settle()
    sim.grant_access("pA", "planA", "nurse1", frozenset({Category.VITALS}), 0, 10**7)
    sim.settle()
    state = sim.nodes["hospital"].policy
    allowed = evaluate_request(
        state,
        P(Kind.PRACTITIONER, "nurse1"), P(Kind.ORGANIZATION, "homecare"),
        P(Kind.ORGANIZATION, "hospital"), P(Kind.PATIENT, "pA"), Category.VITALS, 500,
    )
    assert allowed.verdict is Verdict.ALLOW
    denied = evaluate_request(
        state,
        P(Kind.PRACTITIONER, "nurse1"), P(Kind.ORGANIZATION, "homecare"),
        P(Kind.ORGANIZATION, "hospital"), P(Kind.PATIENT, "pB"), Category.VITALS, 500,
    )
    assert denied.verdict is Verdict.DENY
    assert denied.reason is Reason.NO_GRANT


def test_decision_is_pure_function_of_state():
    sim = build_care_sim()
    state = sim.nodes["hospital"].policy
    args = (
        P(Kind.PRACTITIONER, "nurse1"), P(Kind.ORGANIZATION, "homecare"),
        P(Kind.ORGANIZATION, "hospital"), P(Kind.PATIENT, "p001"),
        Category.VITALS, 5000, False,
    )
    first = evaluate_request(state, *args)
    for _ in range(5):
        assert evaluate_request(state, *args) == first
    # The same committed prefix on the other node decides identically.
    other = evaluate_request(sim.nodes["homecare"].policy, *args)
    assert other == first


class TestFold:
    def test_a_sealed_rule_breaking_block_passes_the_chain_rules_not_fold(self):
        sim = build_care_sim()
        node, block = sim.nodes["hospital"], rule_breaking_block(sim)
        chain = [*node.ledger.blocks, block]
        assert validate_chain(LedgerState(chain)).ok
        policy, consent, violation = fold(chain)
        message = f"tx #0 ({block.transactions[0].tx_id.hex()}): drjones is not the grantor p001"
        assert violation == Violation(block.height, "not_author", message)
        assert (policy, consent) == (node.policy, node.consent)

    @pytest.mark.parametrize("name", sorted(path.name for path in FIXTURES.glob("*.scn")))
    def test_fold_of_every_node_equals_its_folds(self, name):
        sim, _ = run_scenario((FIXTURES / name).read_text(), SimConfig(seed=42), base_dir=FIXTURES)
        for node in sim.nodes.values():
            policy, consent, violation = fold(node.ledger.blocks)
            assert violation is None, (name, node.org.id, violation)
            assert (policy, consent) == (node.policy, node.consent), (name, node.org.id)
            assert policy.principals.members == node.policy.principals.members

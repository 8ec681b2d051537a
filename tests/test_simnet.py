"""Network bootstrap, consensus rounds, fault injection, scenario runs."""

from dataclasses import replace
from pathlib import Path

import pytest

from careledger import crypto
from careledger.errors import ScriptError, SimError
from careledger.exchange import submit_request
from careledger.ledger import (
    AccessCompleted,
    Category,
    GrantAccess,
    Kind,
    LedgerState,
    PrincipalId,
    RegisterPrincipal,
    Registry,
    Transaction,
    block_hash,
    query_audit,
    quorum,
    read_ledger,
    sign_tx,
    validate_chain,
)
from careledger.policy import fold
from careledger.scenario import parse_script, run_scenario
from careledger.simnet import SimConfig, _sealed, spawn_network

from conftest import build_care_sim, propose, rule_breaking_block, sealed_by_all

P = PrincipalId


class TestSpawn:
    def test_three_orgs_share_genesis(self):
        sim = spawn_network(["a", "b", "c"], SimConfig(seed=1))
        hashes = {n.ledger.blocks[0].hash for n in sim.nodes.values()}
        assert len(hashes) == 1
        assert all(n.ledger.height == 0 for n in sim.nodes.values())

    def test_single_org_network_functional(self):
        sim = spawn_network(["solo"], SimConfig(seed=1))
        assert quorum(1) == 1
        sim.register_person(Kind.PATIENT, "p1")
        sim.settle()
        assert sim.nodes["solo"].ledger.height == 1
        assert validate_chain(sim.nodes["solo"].ledger).ok

    def test_empty_org_list_rejected(self):
        with pytest.raises(SimError):
            spawn_network([], SimConfig(seed=1))

    def test_same_seed_identical_genesis_and_trace(self):
        a = spawn_network(["x", "y"], SimConfig(seed=77))
        b = spawn_network(["x", "y"], SimConfig(seed=77))
        assert a.trace_lines() == b.trace_lines()
        assert a.nodes["x"].ledger.blocks[0].hash == b.nodes["x"].ledger.blocks[0].hash


class TestConsensusRound:
    def test_four_orgs_commit_with_quorum_endorsements(self):
        sim = spawn_network(["a", "b", "c", "d"], SimConfig(seed=2))
        sim.register_person(Kind.PATIENT, "p1")
        sim.settle()
        block = sim.nodes["a"].ledger.tip()
        assert block.height == 1
        assert len(block.endorsements) >= quorum(4) == 3
        for node in sim.nodes.values():
            assert node.ledger.tip().hash == block.hash

    def test_quorum_unreachable_keeps_mempool(self):
        sim = spawn_network(["a", "b", "c", "d"], SimConfig(seed=2))
        sim.inject_fault("c", "down")
        sim.inject_fault("d", "down")
        sim.register_person(Kind.PATIENT, "p1")
        sim.settle()
        assert all(n.ledger.height == 0 for n in sim.nodes.values())
        assert sim.nodes["a"].mempool or sim.nodes["b"].mempool

    def test_recovered_node_catches_up_to_equal_hash(self):
        sim = spawn_network(["a", "b", "c", "d"], SimConfig(seed=2))
        sim.inject_fault("d", "down")
        sim.register_person(Kind.PATIENT, "p1")
        sim.settle()
        sim.register_person(Kind.PATIENT, "p2")
        sim.settle()
        assert sim.nodes["a"].ledger.height == 2
        assert sim.nodes["d"].ledger.height == 0
        sim.inject_fault("d", "up")
        sim.settle()
        assert sim.nodes["d"].ledger.tip().hash == sim.nodes["a"].ledger.tip().hash
        sync_events = [
            e for e in sim.trace
            if e.kind == "block_committed" and e.detail.get("sync") and e.detail["org"] == "d"
        ]
        assert len(sync_events) == 2

    def test_pending_work_commits_within_interval_when_all_online(self):
        sim = spawn_network(["a", "b", "c"], SimConfig(seed=2))
        submitted_at = sim.clock
        sim.register_person(Kind.PATIENT, "p1")
        sim.settle()
        commit_events = [e for e in sim.trace if e.kind == "block_committed" and e.detail["height"] == 1]
        assert commit_events
        # Proposal lands on the next interval boundary; commit follows within
        # one more interval (latency is far smaller than the interval).
        assert min(e.at for e in commit_events) <= submitted_at + 2 * sim.config.block_interval

    def test_a_sealed_block_keeps_its_header_hash(self):
        for block in read_ledger(str(Path(__file__).parent / "data" / "case1_hospital.ledger")).blocks:
            unsealed = replace(block, endorsements=())
            sealed = _sealed(unsealed, {"hospital": bytes(64), "homecare": bytes(64)})
            assert sealed.hash == block_hash(sealed) == block.hash
            assert [org.id for org, _ in sealed.endorsements] == ["homecare", "hospital"]
        sim = build_care_sim()
        for node in sim.nodes.values():
            assert all(block.hash == block_hash(block) for block in node.ledger.blocks)


class TestFaults:
    def test_down_on_down_rejected(self):
        sim = spawn_network(["a", "b"], SimConfig(seed=1))
        sim.inject_fault("a", "down")
        with pytest.raises(SimError):
            sim.inject_fault("a", "down")

    def test_up_on_online_rejected(self):
        sim = spawn_network(["a", "b"], SimConfig(seed=1))
        with pytest.raises(SimError):
            sim.inject_fault("a", "up")

    def test_unknown_org_rejected(self):
        sim = spawn_network(["a"], SimConfig(seed=1))
        with pytest.raises(SimError):
            sim.inject_fault("ghost", "down")

    def test_sender_down_request_completes_after_return(self):
        sim = build_care_sim()
        sim.add_record("hospital", "p001", Category.VITALS, 10, "BP 120/80", "x")
        sim.tick(1500)
        sim.inject_fault("hospital", "down")
        outcome = submit_request(
            sim,
            P(Kind.PRACTITIONER, "nurse1"), P(Kind.ORGANIZATION, "homecare"),
            P(Kind.ORGANIZATION, "hospital"), P(Kind.PATIENT, "p001"), Category.VITALS,
        )
        assert outcome.pending
        # The request tx is not lost while the sender is away: with only one
        # of two orgs online the quorum (2) is unreachable, so it waits in
        # the mempool and commits at recovery.
        sim.inject_fault("hospital", "up")
        sim.settle()
        outcome = sim.request_outcome(outcome.request_tx)
        assert not outcome.pending
        assert outcome.session is not None
        ledger = sim.nodes["homecare"].ledger
        requests = [tx for _, _, tx in ledger.transactions() if tx.action == "DataRequestRecorded"]
        completions = [tx for _, _, tx in ledger.transactions() if tx.action == "AccessCompleted"]
        assert len(requests) == 1 and len(completions) == 1
        sim.assert_prefix_consistent()

    def test_a_revocation_committed_while_the_sender_is_down_denies_its_request(self):
        """The sender decides against the chain it has caught up to, not the
        one at the request's height."""
        sim = spawn_network(["homecare", "hospital", "pharmacy", "lab"], SimConfig(seed=42))
        sim.register_practitioner("nurse1", "homecare")
        sim.register_person(Kind.PATIENT, "p001")
        sim.settle()
        assert sim.host_org["p001"] == "homecare"
        sim.create_plan("plan1", "p001", ["hospital", "homecare"], [("nurse1", "homecare")])
        sim.settle()
        grant, _ = sim.grant_access("p001", "plan1", "nurse1", frozenset({Category.VITALS}), 0, 600_000)
        sim.add_record("hospital", "p001", Category.VITALS, 10, "BP 120/80", "x")
        sim.settle()
        sim.inject_fault("hospital", "down")
        request_tx = sim.start_request(
            P(Kind.PRACTITIONER, "nurse1"), P(Kind.ORGANIZATION, "homecare"),
            P(Kind.ORGANIZATION, "hospital"), P(Kind.PATIENT, "p001"), Category.VITALS,
        )
        sim.settle()
        sim.revoke_access("p001", grant)
        sim.settle()
        committed = [tx.action for _, _, tx in sim.nodes["homecare"].ledger.transactions()]
        assert committed[-2:] == ["DataRequestRecorded", "RevokeAccess"]
        sim.inject_fault("hospital", "up")
        sim.settle()
        outcome = sim.request_outcome(request_tx)
        assert (outcome.decision.verdict.value, outcome.decision.reason.value) == ("deny", "revoked")
        assert outcome.session is None
        assert not any(e.kind == "session_opened" for e in sim.trace)
        sim.assert_prefix_consistent()

    def test_down_up_cycle_never_diverges(self):
        sim = spawn_network(["a", "b", "c"], SimConfig(seed=8))
        sim.register_person(Kind.PATIENT, "p1")
        sim.settle()
        sim.inject_fault("b", "down")
        sim.register_person(Kind.PATIENT, "p2")
        sim.settle()
        sim.inject_fault("b", "up")
        sim.settle()
        sim.register_person(Kind.PATIENT, "p3")
        sim.settle()
        sim.assert_prefix_consistent()
        heights = {n.ledger.height for n in sim.nodes.values()}
        assert heights == {3}

    def test_mid_flight_scheduled_fault_aborts_round_without_divergence(self):
        sim = spawn_network(["a", "b", "c"], SimConfig(seed=8))
        sim.register_person(Kind.PATIENT, "p1")
        # With 3 orgs the quorum is 3; fell one node mid-round (between the
        # proposal boundary and the endorsements landing).
        sim.inject_fault("c", "down", at=sim.config.block_interval + 1)
        sim.settle()
        sim.assert_prefix_consistent()
        sim.inject_fault("c", "up")
        sim.settle()
        sim.assert_prefix_consistent()
        assert {n.ledger.height for n in sim.nodes.values()} == {1}
        assert validate_chain(sim.nodes["a"].ledger).ok


class TestScenarioScripts:
    def test_empty_script_gives_genesis_only_trace(self):
        sim, outputs = run_scenario("", SimConfig(seed=1))
        kinds = {e.kind for e in sim.trace}
        assert kinds <= {"tx_submitted", "block_proposed", "block_endorsed", "block_committed"}
        assert all(n.ledger.height == 0 for n in sim.nodes.values())
        assert outputs == []

    def test_case1_happy_path_has_allow_decision(self, fixtures_dir):
        text = (fixtures_dir / "case1.scn").read_text()
        sim, outputs = run_scenario(text, SimConfig(seed=42), base_dir=fixtures_dir)
        decisions = [e for e in sim.trace if e.kind == "decision"]
        assert any(e.detail["verdict"] == "allow" for e in decisions)
        assert outputs[:3] == [
            "10\thospital\tvitals\tBP 132/85",
            "20\thomecare\tvitals\tHR 72 bpm",
            "30\thospital\tvitals\tBP 128/82",
        ]
        for node in sim.nodes.values():
            assert validate_chain(node.ledger).ok

    def test_same_seed_identical_traces(self, fixtures_dir):
        text = (fixtures_dir / "case1.scn").read_text()
        a, _ = run_scenario(text, SimConfig(seed=7), base_dir=fixtures_dir)
        b, _ = run_scenario(text, SimConfig(seed=7), base_dir=fixtures_dir)
        assert a.trace_lines() == b.trace_lines()

    def test_parse_error_carries_line_number(self):
        with pytest.raises(ScriptError) as err:
            run_scenario("org add a\nfrobnicate\n", SimConfig(seed=1))
        assert err.value.line_no == 2

    def test_unregistered_principal_is_script_error_with_line(self):
        script = "org add a\ngrant ghost plan1 nobody vitals 0 10\n"
        with pytest.raises(ScriptError) as err:
            run_scenario(script, SimConfig(seed=1))
        assert err.value.line_no == 2

    def test_bind_must_follow_plan_create(self):
        script = "org add a\npatient add p1\npractitioner add w1 a\nbind w1 plan1\n"
        with pytest.raises(ScriptError) as err:
            run_scenario(script, SimConfig(seed=1))
        assert err.value.line_no == 4

    def test_bad_tokenization_is_parse_error(self):
        with pytest.raises(ScriptError):
            parse_script('org add "unterminated\n')

    def test_command_boundary_prefix_is_chain_prefix(self, fixtures_dir):
        text = (fixtures_dir / "case1.scn").read_text()
        lines = text.splitlines()
        full, _ = run_scenario(text, SimConfig(seed=5), base_dir=fixtures_dir)
        cut = len(lines) - 6
        prefix_text = "\n".join(lines[:cut])
        prefix, _ = run_scenario(prefix_text, SimConfig(seed=5), base_dir=fixtures_dir)
        full_hashes = [b.hash for b in full.nodes["hospital"].ledger.blocks]
        prefix_hashes = [b.hash for b in prefix.nodes["hospital"].ledger.blocks]
        assert len(prefix_hashes) < len(full_hashes)
        assert full_hashes[: len(prefix_hashes)] == prefix_hashes


class TestHostileTimings:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_interval_shorter_than_latency_never_diverges(self, seed):
        """Block interval far below message latency: commits race proposals.
        Stale proposers must wait rather than re-propose a committed height."""
        config = SimConfig(seed=seed, latency_min=40, latency_max=90, block_interval=10)
        sim = spawn_network(["a", "b", "c", "d"], config)
        for i in range(6):
            sim.register_person(Kind.PATIENT, f"p{i}")
            sim.settle()
            sim.assert_prefix_consistent()
        heights = {n.ledger.height for n in sim.nodes.values()}
        assert heights == {6}
        for node in sim.nodes.values():
            assert validate_chain(node.ledger).ok

    def test_burst_submissions_one_settle(self):
        config = SimConfig(seed=9, latency_min=40, latency_max=90, block_interval=10)
        sim = spawn_network(["a", "b", "c"], config)
        for i in range(5):
            sim.register_person(Kind.PATIENT, f"p{i}")
        sim.settle()
        sim.assert_prefix_consistent()
        committed = {
            tx.payload.subject.id
            for _, _, tx in sim.nodes["a"].ledger.transactions()
            if tx.action == "RegisterPrincipal" and tx.payload.subject.kind is Kind.PATIENT
        }
        assert committed == {f"p{i}" for i in range(5)}


class TestForgeryResistance:
    def test_forged_endorsement_message_dropped_and_recorded(self):
        sim = spawn_network(["a", "b", "c"], SimConfig(seed=3))
        sim.register_person(Kind.PATIENT, "p1")
        # Let the proposal go out, then slip in a forged endorsement.
        sim.tick(sim.config.block_interval + 1)
        state = sim.round
        if state is None:  # round may have finished already at low latency
            pytest.skip("round completed before interference was possible")
        forged = {"type": "endorse", "round_id": state.round_id, "org": P(Kind.ORGANIZATION, "b"), "sig": bytes(64)}
        sim._schedule(0, "deliver", ("b", state.proposer, forged))
        sim.settle()
        dropped = [
            e for e in sim.trace
            if e.kind == "msg_delivered" and e.detail.get("dropped") == "signature"
        ]
        assert dropped
        # The chain still commits correctly with honest endorsements.
        assert sim.nodes["a"].ledger.height == 1
        assert validate_chain(sim.nodes["a"].ledger).ok

    def test_endorsement_from_a_registered_non_member_dropped_and_recorded(self):
        sim = spawn_network(["a", "b", "c"], SimConfig(seed=3))
        sim.register_person(Kind.PATIENT, "p1")
        sim.settle()
        sim.register_person(Kind.PATIENT, "p2")
        sim.tick(sim.config.block_interval + 1)
        state = sim.round
        assert state is not None
        # p1's key is on file and really signs the round's block hash, but
        # p1 is no member organization.
        p1 = P(Kind.PATIENT, "p1")
        sig = crypto.sign(sim.private_keys[p1], state.block.hash)
        message = {"type": "endorse", "round_id": state.round_id, "org": p1, "sig": sig}
        sim._schedule(0, "deliver", ("b", state.proposer, message))
        sim.settle()
        dropped = [e.detail for e in sim.trace if e.kind == "msg_delivered" and "dropped" in e.detail]
        assert dropped == [{"to": state.proposer, "type": "endorse", "dropped": "endorsement"}]
        assert sim.nodes["a"].ledger.height == 2
        assert validate_chain(sim.nodes["a"].ledger).ok

    @pytest.mark.parametrize(
        "forge, rule",
        [
            (lambda e: ((e[0][0], bytes(64)),) + e[1:], "endorsement"),
            (lambda e: e[: quorum(4) - 1], "quorum"),
        ],
    )
    def test_commit_with_bad_endorsements_dropped_by_rule(self, forge, rule):
        sim = spawn_network(["a", "b", "c", "d"], SimConfig(seed=3))
        sim.register_person(Kind.PATIENT, "p1")
        settled = sim.fork()
        settled.settle()
        block = settled.nodes["a"].ledger.blocks[1]
        assert len(block.endorsements) >= quorum(4)
        forged = replace(block, endorsements=forge(block.endorsements))
        sim._schedule(0, "deliver", ("a", "d", {"type": "commit", "round_id": 0, "block": forged}))
        sim.tick(0)
        assert sim.nodes["d"].ledger.height == 0
        dropped = [e.detail for e in sim.trace if e.kind == "msg_delivered" and "dropped" in e.detail]
        assert dropped == [{"to": "d", "type": "commit", "dropped": rule}]


class TestProposalDrops:
    def test_proposal_at_wrong_height_dropped_by_rule(self):
        sim = build_care_sim()
        tip = sim.nodes["hospital"].ledger.height
        events = propose(sim, "hospital", "homecare", [], height=tip + 2)
        assert events[-1] == ("msg_delivered", {"to": "homecare", "type": "propose", "dropped": "height"})
        assert not any(kind == "block_endorsed" for kind, _ in events)


def _forge_first_endorsement(sim, height: int) -> None:
    """Zero the first endorsement signature of the block every node stores at `height`."""
    block = sim.nodes["a"].ledger.blocks[height]
    (org, _), *rest = block.endorsements
    forged = replace(block, endorsements=((org, bytes(64)), *rest))
    for node in sim.nodes.values():
        if node.ledger.height >= height:
            node.ledger.blocks[height] = forged


def _sync_drops(sim) -> list[dict]:
    return [e.detail for e in sim.trace if e.kind == "msg_delivered" and e.detail.get("type") == "sync"]


class TestCheckedReplay:
    def test_returning_node_stops_before_forged_block(self):
        sim = spawn_network(["a", "b", "c", "d"], SimConfig(seed=2))
        sim.inject_fault("d", "down")
        for pid in ("p1", "p2"):
            sim.register_person(Kind.PATIENT, pid)
            sim.settle()
        assert sim.nodes["a"].ledger.height == 2
        _forge_first_endorsement(sim, 2)
        # The return replays at once. No settle afterwards: d stays behind and
        # is next in the proposer rotation, so rounds wait on it indefinitely.
        sim.inject_fault("d", "up")
        assert sim.nodes["d"].ledger.height == 1
        assert _sync_drops(sim) == [{"to": "d", "from": "a", "type": "sync", "dropped": "endorsement"}]

    def test_provisioned_node_stops_before_forged_block(self):
        sim = spawn_network(["a", "b"], SimConfig(seed=2))
        sim.register_person(Kind.PATIENT, "p1")
        sim.settle()
        _forge_first_endorsement(sim, 1)
        sim.register_organization("c")
        sim.settle()
        assert sim.nodes["c"].ledger.height == 0
        assert _sync_drops(sim) == [{"to": "c", "from": "a", "type": "sync", "dropped": "endorsement"}]


class TestRegistrationFold:
    def test_node_fold_agrees_with_validate_chain_on_a_re_registration(self):
        sim = spawn_network(["a", "b", "c"], SimConfig(seed=1))
        a, node = P(Kind.ORGANIZATION, "a"), sim.nodes["b"]
        first_key = node.policy.principals[a]
        _, new_key = crypto.generate_keypair(sim.rng)
        again = sign_tx(Transaction(sim.clock, a, a, RegisterPrincipal(a, new_key)), sim.private_keys[a])
        block1 = sealed_by_all(sim, again, node.ledger.tip())
        p1_private, p1_public = crypto.generate_keypair(sim.rng)
        p1 = P(Kind.PATIENT, "p1")
        patient = sign_tx(Transaction(sim.clock, p1, a, RegisterPrincipal(p1, p1_public)), p1_private)
        block2 = sealed_by_all(sim, patient, block1)
        # The chain rules accept the re-registration and keep the first key on
        # file; the transaction rules refuse it.
        chain = [node.ledger.blocks[0], block1, block2]
        assert validate_chain(LedgerState(chain)).ok
        registry = Registry()
        for block in chain:
            registry.fold(block)
        assert registry[a] == first_key
        assert [m.id for m in registry.members] == ["a", "b", "c"]
        violation = fold(chain)[2]
        assert (violation.height, violation.rule) == (1, "duplicate")
        # So node b takes neither block: block2 no longer extends its chain.
        for block in (block1, block2):
            sim._schedule(0, "deliver", ("a", "b", {"type": "commit", "block": block}))
        sim.tick(0)
        assert [e.detail for e in sim.trace if "dropped" in e.detail] == [
            {"to": "b", "type": "commit", "dropped": "duplicate"},
            {"to": "b", "type": "commit", "dropped": "height"},
        ]
        assert node.ledger.height == 0
        assert node.policy.principals[a] == first_key
        assert [m.id for m in node.policy.principals.members] == ["a", "b", "c"]


class TestRuleCheckedCommits:
    """A block that every member sealed is taken from a peer only when its
    transactions pass the rules against the taking node's folds."""

    def test_commit_of_a_rule_breaking_block_dropped_by_rule(self):
        sim = build_care_sim()
        node = sim.nodes["homecare"]
        height = node.ledger.height
        block = rule_breaking_block(sim)
        sim._schedule(0, "deliver", ("hospital", "homecare", {"type": "commit", "block": block}))
        sim.tick(0)
        assert node.ledger.height == height
        dropped = [e.detail for e in sim.trace if e.kind == "msg_delivered" and "dropped" in e.detail]
        assert dropped == [{"to": "homecare", "type": "commit", "dropped": "not_author"}]

    def test_returning_node_stops_before_a_rule_breaking_block(self):
        sim = build_care_sim()
        node = sim.nodes["homecare"]
        height = node.ledger.height
        sim.inject_fault("homecare", "down")
        sim.nodes["hospital"].ledger.append(rule_breaking_block(sim))
        sim.inject_fault("homecare", "up")
        assert node.ledger.height == height
        assert _sync_drops(sim) == [{"to": "homecare", "from": "hospital", "type": "sync", "dropped": "not_author"}]


def _deliver_request(sim, from_org: str, to_org: str, request_tx: bytes) -> list:
    """Deliver a `data_request` naming `request_tx` and run the network to
    quiescence; return the (kind, detail) events that followed."""
    since = len(sim.trace)
    sim._schedule(0, "deliver", (from_org, to_org, {"type": "data_request", "request_tx_id": request_tx}))
    sim.settle()
    return [(e.kind, e.detail) for e in sim.trace[since:]]


def _honest_request(sim) -> bytes:
    """nurse1 at homecare asks hospital for p001's vitals, to completion."""
    outcome = submit_request(
        sim, P(Kind.PRACTITIONER, "nurse1"), P(Kind.ORGANIZATION, "homecare"),
        P(Kind.ORGANIZATION, "hospital"), P(Kind.PATIENT, "p001"), Category.VITALS,
    )
    return outcome.request_tx


class TestDataRequestDrops:
    """A node answers the data requests it commits, so no message asks it to:
    a `data_request` message is of no known type, and its delivery is dropped
    as `malformed` and runs no exchange, whatever it names."""

    @pytest.mark.parametrize(
        "named, from_org, to_org",
        [
            pytest.param("grant", "homecare", "hospital", id="other_tx"),
            pytest.param("request", "homecare", "homecare", id="to_requester"),
            pytest.param("request", "hospital", "hospital", id="from_sender"),
            pytest.param("request", "homecare", "hospital", id="second_delivery"),
        ],
    )
    def test_a_data_request_dropped_as_malformed(self, named, from_org, to_org):
        sim = build_care_sim()
        request_tx = _honest_request(sim)
        ledger = sim.nodes["hospital"].ledger
        grant = next(tx for _, _, tx in ledger.transactions() if isinstance(tx.payload, GrantAccess))
        events = _deliver_request(sim, from_org, to_org, request_tx if named == "request" else grant.tx_id)
        dropped = {"to": to_org, "type": "data_request", "dropped": "malformed", "from": from_org}
        assert ("msg_delivered", dropped) in events
        assert not any(kind == "decision" for kind, _ in events)
        completions = [tx.payload for _, _, tx in ledger.transactions() if isinstance(tx.payload, AccessCompleted)]
        assert [c.request_tx for c in completions] == [request_tx]


class TestRecordsDrops:
    """Records open a session only at the request's requester organization,
    and only when they come from its sender organization."""

    @pytest.mark.parametrize(
        "named, from_org, to_org, rule",
        [
            ("request", "homecare", "homecare", "not_author"),
            ("request", "hospital", "hospital", "not_author"),
            ("no_request", "hospital", "homecare", "unknown"),
        ],
    )
    def test_records_from_or_to_the_wrong_organization_dropped(self, named, from_org, to_org, rule):
        sim = build_care_sim()
        outcome = submit_request(
            sim, P(Kind.PRACTITIONER, "nurse1"), P(Kind.ORGANIZATION, "homecare"),
            P(Kind.ORGANIZATION, "hospital"), P(Kind.PATIENT, "p002"), Category.VITALS,
        )
        assert (outcome.decision.verdict.value, outcome.decision.reason.value) == ("deny", "not_plan_member")
        request_tx = outcome.request_tx if named == "request" else bytes(32)
        message = {"type": "records", "request_tx_id": request_tx, "records": ["forged"],
                   "requester": P(Kind.PRACTITIONER, "nurse1")}
        since = len(sim.trace)
        sim._schedule(0, "deliver", (from_org, to_org, message))
        sim.settle()
        events = [(e.kind, e.detail) for e in sim.trace[since:]]
        assert ("msg_delivered", {"to": to_org, "type": "records", "dropped": rule, "from": from_org}) in events
        assert not any(kind == "session_opened" for kind, _ in events)
        assert all(not node.sessions for node in sim.nodes.values())
        assert sim.request_outcome(outcome.request_tx).session is None


class TestFork:
    def test_fork_is_independent(self):
        sim = build_care_sim()
        unrelated = query_audit(sim.nodes["hospital"].ledger, subject="")  # the index exists before the fork
        fork = sim.fork()
        fork.register_person(Kind.PATIENT, "p777")
        fork.settle()
        assert P(Kind.PATIENT, "p777") in fork.nodes["hospital"].policy.principals
        assert P(Kind.PATIENT, "p777") not in sim.nodes["hospital"].policy.principals
        assert fork.nodes["hospital"].ledger.height == sim.nodes["hospital"].ledger.height + 1
        fork.register_organization("clinic")
        fork.settle()
        clinic = P(Kind.ORGANIZATION, "clinic")
        assert fork.nodes["hospital"].policy.principals.members[-1] is clinic
        assert [m.id for m in sim.nodes["hospital"].policy.principals.members] == ["hospital", "homecare"]
        fork_ledger, ledger = fork.nodes["hospital"].ledger, sim.nodes["hospital"].ledger
        assert [e.action for e in query_audit(fork_ledger, subject="p777")] == ["RegisterPrincipal"]
        assert query_audit(fork_ledger, subject="")[-1].detail["id"] == "clinic"
        assert query_audit(ledger, subject="p777") == []
        assert query_audit(ledger, subject="") == unrelated

    def test_fork_replays_identically(self):
        sim = build_care_sim()
        fork = sim.fork()
        sim.register_person(Kind.PATIENT, "pz")
        sim.settle()
        fork.register_person(Kind.PATIENT, "pz")
        fork.settle()
        assert sim.nodes["hospital"].ledger.tip().hash == fork.nodes["hospital"].ledger.tip().hash

"""Consent lifecycle, quiz grading, dashboards, profiles, and matching."""

import random
from dataclasses import replace

import pytest

from careledger import crypto
from careledger.consent import (
    Question,
    Quiz,
    consent_message,
    dashboard_rows,
    parse_quiz,
    quiz_hash,
    verify_consent_signature,
)
from careledger.errors import ConsentError, SimError
from careledger.ledger import (
    ZERO_HASH,
    ConsentInvited,
    ConsentSigned,
    Kind,
    PrincipalId,
    canonical_encode,
)
from careledger.simnet import SimConfig, Simulation, spawn_network

from conftest import propose, signed
from oracles import match_oracle

P = PrincipalId

QUIZ = Quiz(
    (
        Question("How long is data retained?", ("forever", "five years"), 1),
        Question("Who sees identifiable data?", ("study team", "anyone"), 0),
        Question("Can you withdraw?", ("no", "yes"), 1),
    )
)


def consent_sim(seed=5) -> Simulation:
    sim = spawn_network(["uni", "biobank"], SimConfig(seed=seed))
    sim.register_person(Kind.RESEARCHER, "drx")
    sim.settle()
    sim.register_person(Kind.PARTICIPANT, "part1")
    sim.settle()
    sim.register_study("drx", "sleepstudy", QUIZ)
    sim.settle()
    sim.invite("drx", "sleepstudy", "part1")
    sim.settle()
    return sim


class TestQuiz:
    def test_zero_question_quiz_rejected(self):
        with pytest.raises(ConsentError):
            Quiz(())

    def test_choice_count_bounds(self):
        with pytest.raises(ConsentError):
            Quiz((Question("q", ("only",), 0),))
        with pytest.raises(ConsentError):
            Quiz((Question("q", tuple(f"c{i}" for i in range(7)), 0),))

    def test_correct_index_in_range(self):
        with pytest.raises(ConsentError):
            Quiz((Question("q", ("a", "b"), 2),))

    def test_grading_counts_mismatches(self):
        assert QUIZ.grade([1, 0, 1]) == (0, True)
        assert QUIZ.grade([0, 0, 1]) == (1, False)
        assert QUIZ.grade([0, 1, 0]) == (3, False)

    def test_answer_count_must_match(self):
        with pytest.raises(ConsentError):
            QUIZ.grade([1, 0])

    def test_parse_fixture_format(self, fixtures_dir):
        quiz = parse_quiz((fixtures_dir / "consent_quiz.qz").read_text().splitlines())
        assert len(quiz.questions) == 3
        assert quiz.questions[0].correct == 1
        assert quiz.questions[1].choices == ("Only the study team", "Any researcher on the platform")

    def test_parse_rejects_malformed_answer_index(self):
        with pytest.raises(ConsentError):
            parse_quiz(["Q p", "C a", "C b", "A maybe"])

    def test_parse_rejects_missing_answer(self):
        with pytest.raises(ConsentError):
            parse_quiz(["Q p", "C a", "C b"])

    def test_hash_depends_on_content(self):
        other = Quiz(QUIZ.questions[:2])
        assert quiz_hash(QUIZ) != quiz_hash(other)


class TestStudyRegistration:
    def test_register_puts_hash_not_content_on_chain(self):
        sim = consent_sim()
        ledger = sim.nodes["uni"].ledger
        regs = [tx for _, _, tx in ledger.transactions() if tx.action == "RegisterStudy"]
        assert len(regs) == 1
        assert regs[0].payload.quiz_hash == quiz_hash(QUIZ)
        assert regs[0].payload.question_count == 3
        blob = canonical_encode(regs[0])
        for q in QUIZ.questions:
            assert q.prompt.encode() not in blob
            for choice in q.choices:
                assert choice.encode() not in blob

    def test_duplicate_study_rejected(self):
        sim = consent_sim()
        with pytest.raises(ConsentError):
            sim.register_study("drx", "sleepstudy", QUIZ)

    def test_unknown_researcher_rejected(self):
        sim = spawn_network(["uni"], SimConfig(seed=1))
        with pytest.raises(Exception):
            sim.register_study("nobody", "s1", QUIZ)


class TestLifecycle:
    def test_invite_then_state_invited(self):
        sim = consent_sim()
        rec = sim.nodes["uni"].consent.lifecycles[("sleepstudy", "part1")]
        assert rec.state == "invited"

    def test_double_invite_rejected(self):
        sim = consent_sim()
        with pytest.raises(ConsentError):
            sim.invite("drx", "sleepstudy", "part1")

    def test_attempt_without_invite_rejected(self):
        sim = consent_sim()
        sim.register_person(Kind.PARTICIPANT, "part2")
        sim.settle()
        with pytest.raises(ConsentError):
            sim.submit_attempt("part2", "sleepstudy", [1, 0, 1])

    def test_mistake_count_and_retry(self):
        sim = consent_sim()
        mistakes, passed, _ = sim.submit_attempt("part1", "sleepstudy", [0, 0, 1])
        sim.settle()
        assert (mistakes, passed) == (1, False)
        rec = sim.nodes["uni"].consent.lifecycles[("sleepstudy", "part1")]
        assert rec.state == "attempted"
        mistakes, passed, _ = sim.submit_attempt("part1", "sleepstudy", [1, 0, 1])
        sim.settle()
        assert (mistakes, passed) == (0, True)
        rec = sim.nodes["uni"].consent.lifecycles[("sleepstudy", "part1")]
        assert rec.state == "passed"

    def test_attempt_tx_carries_only_counts(self):
        sim = consent_sim()
        sim.submit_attempt("part1", "sleepstudy", [0, 1, 0])
        sim.settle()
        ledger = sim.nodes["uni"].ledger
        attempts = [tx for _, _, tx in ledger.transactions() if tx.action == "QuizAttemptRecorded"]
        payload = attempts[0].payload
        assert payload.mistakes == 3
        assert payload.ordinal == 1
        assert not hasattr(payload, "answers")

    def test_sign_without_pass_rejected(self):
        sim = consent_sim()
        with pytest.raises(ConsentError):
            sim.sign_consent("part1", "sleepstudy")
        sim.submit_attempt("part1", "sleepstudy", [0, 0, 1])
        sim.settle()
        with pytest.raises(ConsentError):
            sim.sign_consent("part1", "sleepstudy")

    def test_pass_is_sticky_through_later_failures(self):
        sim = consent_sim()
        sim.submit_attempt("part1", "sleepstudy", [1, 0, 1])  # pass
        sim.settle()
        sim.submit_attempt("part1", "sleepstudy", [0, 0, 0])  # later failure
        sim.settle()
        rec = sim.nodes["uni"].consent.lifecycles[("sleepstudy", "part1")]
        assert rec.state == "passed"
        sim.sign_consent("part1", "sleepstudy")
        sim.settle()
        assert sim.nodes["uni"].consent.lifecycles[("sleepstudy", "part1")].state == "signed"

    def test_consent_message_is_study_then_quiz_hash_then_attempt_tx(self):
        # The layout participants have always signed: a u32-length-prefixed
        # UTF-8 study id, then the two raw 32-byte digests.
        rng = random.Random(31)
        for _ in range(300):
            study = "".join(rng.choice("ab-_9é✓") for _ in range(rng.randrange(40)))
            digest, attempt = rng.randbytes(32), rng.randbytes(32)
            raw = study.encode()
            expected = len(raw).to_bytes(4, "big") + raw + digest + attempt
            assert consent_message(study, digest, attempt) == expected

    def test_signature_binds_study_quiz_and_attempt(self):
        sim = consent_sim()
        sim.submit_attempt("part1", "sleepstudy", [1, 0, 1])
        sim.settle()
        sim.sign_consent("part1", "sleepstudy")
        sim.settle()
        node = sim.nodes["uni"]
        signed = [tx for _, _, tx in node.ledger.transactions() if tx.action == "ConsentSigned"]
        payload = signed[0].payload
        participant_key = node.policy.principals[P(Kind.PARTICIPANT, "part1")]
        assert verify_consent_signature(payload, participant_key)
        assert payload.quiz_hash == quiz_hash(QUIZ)
        passing = node.ledger.find_tx(payload.passing_attempt_tx)
        assert passing is not None
        assert passing.payload.mistakes == 0

    def test_double_sign_rejected(self):
        sim = consent_sim()
        sim.submit_attempt("part1", "sleepstudy", [1, 0, 1])
        sim.settle()
        sim.sign_consent("part1", "sleepstudy")
        sim.settle()
        with pytest.raises(ConsentError):
            sim.sign_consent("part1", "sleepstudy")

    def test_attempt_after_sign_rejected(self):
        sim = consent_sim()
        sim.submit_attempt("part1", "sleepstudy", [1, 0, 1])
        sim.settle()
        sim.sign_consent("part1", "sleepstudy")
        sim.settle()
        with pytest.raises(ConsentError):
            sim.submit_attempt("part1", "sleepstudy", [1, 0, 1])

    def test_withdraw_only_from_signed(self):
        sim = consent_sim()
        with pytest.raises(ConsentError):
            sim.withdraw_consent("part1", "sleepstudy")
        sim.submit_attempt("part1", "sleepstudy", [1, 0, 1])
        sim.settle()
        sim.sign_consent("part1", "sleepstudy")
        sim.settle()
        sim.withdraw_consent("part1", "sleepstudy")
        sim.settle()
        assert sim.nodes["uni"].consent.lifecycles[("sleepstudy", "part1")].state != "signed"
        with pytest.raises(ConsentError):
            sim.withdraw_consent("part1", "sleepstudy")

    def test_full_lifecycle_appears_in_chain_order(self):
        sim = consent_sim()
        sim.submit_attempt("part1", "sleepstudy", [0, 0, 1])
        sim.settle()
        sim.submit_attempt("part1", "sleepstudy", [1, 0, 1])
        sim.settle()
        sim.sign_consent("part1", "sleepstudy")
        sim.settle()
        sim.withdraw_consent("part1", "sleepstudy")
        sim.settle()
        actions = [
            tx.action
            for _, _, tx in sim.nodes["uni"].ledger.transactions()
            if tx.payload.audit_subject() == "part1" and tx.action.startswith(("Consent", "Quiz"))
        ]
        assert actions == [
            "ConsentInvited",
            "QuizAttemptRecorded",
            "QuizAttemptRecorded",
            "ConsentSigned",
            "ConsentWithdrawn",
        ]


def _submit_consent(sim, author, consent):
    """Sign `consent` as `author` and submit it through the author's host node."""
    via = sim.nodes[sim.host_org[author.id]]
    return sim._submit_tx(via, signed(sim, author, via.org, consent))


def _invitation(sim, participant: str, at: int):
    payload = ConsentInvited("sleepstudy", P(Kind.PARTICIPANT, participant))
    return signed(sim, P(Kind.RESEARCHER, "drx"), P(Kind.ORGANIZATION, "uni"), payload, at=at)


class TestOneWritePerKey:
    def test_proposal_with_two_invitations_of_one_pair_dropped_as_conflict(self):
        sim = consent_sim()
        sim.register_person(Kind.PARTICIPANT, "part2")
        sim.settle()
        events = propose(sim, "uni", "biobank", [_invitation(sim, "part2", at) for at in (1, 2)])
        assert ("msg_delivered", {"to": "biobank", "type": "propose", "dropped": "conflict"}) in events
        assert not any(kind == "block_endorsed" for kind, _ in events)

    def test_second_pending_invitation_dropped_once_the_first_commits(self):
        sim = consent_sim()
        sim.register_person(Kind.PARTICIPANT, "part2")
        sim.settle()
        first = sim.invite("drx", "sleepstudy", "part2")
        second = sim._submit_tx(sim.nodes["biobank"], _invitation(sim, "part2", at=sim.clock + 1))
        sim.settle()
        sim.assert_prefix_consistent()
        assert len({n.ledger.height for n in sim.nodes.values()}) == 1
        ledger = sim.nodes["uni"].ledger
        assert ledger.find_tx(first.tx_id) is not None and ledger.find_tx(second.tx_id) is None
        drops = [e.detail for e in sim.trace if e.kind == "tx_dropped"]
        assert {d["org"] for d in drops} == {"uni", "biobank"}
        assert all((d["tx"], d["rule"]) == (second.tx_id.hex(), "duplicate") for d in drops)
        assert not any(n.mempool for n in sim.nodes.values())


class TestLedgerEnforcedConsent:
    """A ConsentSigned the builder would not make is refused by the ledger."""

    PART = P(Kind.PARTICIPANT, "part1")

    def _passed(self):
        sim = consent_sim()
        sim.submit_attempt("part1", "sleepstudy", [1, 0, 1])
        sim.settle()
        return sim, sim.nodes["uni"].consent.lifecycles[("sleepstudy", "part1")].passing_tx

    def _consent(self, sim, attempt_tx):
        message = consent_message("sleepstudy", quiz_hash(QUIZ), attempt_tx)
        signature = crypto.sign(sim.private_keys[self.PART], message)
        return ConsentSigned("sleepstudy", self.PART, quiz_hash(QUIZ), attempt_tx, signature)

    def _refused(self, sim, author, consent, rule):
        with pytest.raises(ConsentError) as err:
            _submit_consent(sim, author, consent)
        assert err.value.rule == rule
        sim.settle()
        assert sim.nodes["uni"].consent.lifecycles[("sleepstudy", "part1")].state != "signed"

    def test_consent_written_by_researcher_refused(self):
        sim, passing = self._passed()
        self._refused(sim, P(Kind.RESEARCHER, "drx"), self._consent(sim, passing), "not_author")

    def test_zeroed_consent_signature_refused(self):
        sim, passing = self._passed()
        forged = replace(self._consent(sim, passing), consent_signature=bytes(64))
        self._refused(sim, self.PART, forged, "consent_signature")

    def test_consent_before_a_passing_attempt_refused(self):
        sim = consent_sim()
        sim.submit_attempt("part1", "sleepstudy", [0, 0, 0])
        sim.settle()
        self._refused(sim, self.PART, self._consent(sim, ZERO_HASH), "bad_transition")


class TestDashboard:
    def test_mistake_totals_fold_over_attempt_txs(self):
        sim = consent_sim()
        sim.publish_profile("part1", ["biobank:north"], True)
        sim.settle()
        sim.submit_attempt("part1", "sleepstudy", [0, 0, 1])  # q0 wrong
        sim.settle()
        sim.submit_attempt("part1", "sleepstudy", [1, 1, 1])  # q1 wrong
        sim.settle()
        sim.submit_attempt("part1", "sleepstudy", [1, 0, 1])  # pass
        sim.settle()
        sim.sign_consent("part1", "sleepstudy")
        sim.settle()
        rows = sim.consent_dashboard("drx", "sleepstudy")
        assert len(rows) == 1
        row = rows[0]
        assert row.state == "signed"
        assert row.attempts == 3
        assert row.total_mistakes == 2
        assert row.struggles == (1, 1, 0)
        # Independent fold over committed attempt transactions.
        total = sum(
            tx.payload.mistakes
            for _, _, tx in sim.nodes["uni"].ledger.transactions()
            if tx.action == "QuizAttemptRecorded" and tx.payload.participant.id == "part1"
        )
        assert total == row.total_mistakes

    def test_struggles_hidden_without_profile_policy(self):
        sim = consent_sim()
        sim.submit_attempt("part1", "sleepstudy", [0, 0, 1])
        sim.settle()
        rows = sim.consent_dashboard("drx", "sleepstudy")
        assert rows[0].struggles is None
        text = "\n".join(dashboard_rows(rows))
        assert "\t-\t" in text

    def test_non_researcher_caller_rejected(self):
        sim = consent_sim()
        sim.register_person(Kind.RESEARCHER, "intruder")
        sim.settle()
        with pytest.raises(ConsentError):
            sim.consent_dashboard("intruder", "sleepstudy")

    def test_empty_study_zero_rows(self):
        sim = spawn_network(["uni"], SimConfig(seed=2))
        sim.register_person(Kind.RESEARCHER, "drx")
        sim.settle()
        sim.register_study("drx", "empty", QUIZ)
        sim.settle()
        assert sim.consent_dashboard("drx", "empty") == []
        assert dashboard_rows([]) == ["participant\tstate\tattempts\tmistakes\tstruggles\tsigned_at"]


def profile_sim(profiles: dict[str, tuple[set, bool]], seed=9) -> Simulation:
    sim = spawn_network(["uni", "biobank"], SimConfig(seed=seed))
    sim.register_person(Kind.RESEARCHER, "drx")
    sim.settle()
    for pid in sorted(profiles):
        sim.register_person(Kind.PARTICIPANT, pid)
        sim.settle()
        descriptors, discoverable = profiles[pid]
        sim.publish_profile(pid, sorted(descriptors), discoverable)
        sim.settle()
    return sim


class TestProfilesAndMatching:
    def test_profile_tx_carries_commitments_only(self):
        sim = profile_sim({"A": ({"biobank:lifelines", "registry:cardiac"}, True)})
        ledger = sim.nodes["uni"].ledger
        published = [tx for _, _, tx in ledger.transactions() if tx.action == "ProfilePublished"]
        blob = canonical_encode(published[0])
        assert b"lifelines" not in blob
        assert b"cardiac" not in blob
        assert len(published[0].payload.commitments) == 2

    def test_spec_example_set_cover(self):
        sim = profile_sim({"A": ({"biobank"}, True), "B": ({"biobank", "registry"}, True)})
        m = sim.start_match("drx", ["biobank", "registry"])
        sim.settle()
        assert sim.match_result(m) == ["B"]

    def test_non_discoverable_never_matches(self):
        sim = profile_sim({"A": ({"biobank"}, True), "B": ({"biobank"}, False)})
        m = sim.start_match("drx", ["biobank"])
        sim.settle()
        assert sim.match_result(m) == ["A"]

    def test_per_study_override_beats_default(self):
        sim = spawn_network(["uni"], SimConfig(seed=4))
        sim.register_person(Kind.RESEARCHER, "drx")
        sim.settle()
        sim.register_person(Kind.PARTICIPANT, "A")
        sim.settle()
        sim.publish_profile("A", ["biobank"], False, study_overrides={"s1": True})
        sim.settle()
        hidden = sim.start_match("drx", ["biobank"])
        sim.settle()
        assert sim.match_result(hidden) == []
        visible = sim.start_match("drx", ["biobank"], study="s1")
        sim.settle()
        assert sim.match_result(visible) == ["A"]

    def test_no_salt_crosses_for_unqueried_descriptors(self):
        sim = profile_sim({"B": ({"biobank", "registry", "wearables"}, True)})
        m = sim.start_match("drx", ["biobank", "registry"])
        sim.settle()
        assert sim.match_result(m) == ["B"]
        responses = [
            e for e in sim.trace
            if e.kind in ("msg_sent", "msg_delivered") and e.detail.get("type") == "match_response"
        ]
        assert responses
        for event in responses:
            assert set(event.detail["disclosed"]).issubset({"biobank", "registry"})
            assert "wearables" not in event.detail["disclosed"]

    def test_empty_query_rejected(self):
        sim = profile_sim({"A": ({"x"}, True)})
        with pytest.raises(ConsentError):
            sim.start_match("drx", [])

    def test_republish_updates_layer_policy(self):
        sim = profile_sim({"A": ({"biobank"}, True)})
        m = sim.start_match("drx", ["biobank"])
        sim.settle()
        assert sim.match_result(m) == ["A"]
        sim.publish_profile("A", ["biobank"], False)
        sim.settle()
        m2 = sim.start_match("drx", ["biobank"])
        sim.settle()
        assert sim.match_result(m2) == []

    @pytest.mark.parametrize("seed", [0, 1])
    def test_match_equals_subset_oracle_randomized(self, seed):
        rng = random.Random(seed)
        universe = [f"src{i}" for i in range(8)]
        profiles = {}
        for i in range(rng.randint(3, 10)):
            descriptors = set(rng.sample(universe, rng.randint(1, 5)))
            profiles[f"p{i:02d}"] = (descriptors, rng.random() < 0.8)
        sim = profile_sim(profiles, seed=seed + 100)
        for _ in range(4):
            query = set(rng.sample(universe, rng.randint(1, 4)))
            m = sim.start_match("drx", sorted(query))
            sim.settle()
            assert set(sim.match_result(m)) == match_oracle(profiles, query)

    def test_non_host_cannot_suppress_a_participant(self):
        sim = profile_sim({"A": ({"biobank"}, True)})
        assert sim.host_org["A"] == "uni"
        m = sim.start_match("drx", ["biobank"])
        # biobank does not host A; its refusal must not count, nor drop uni's reply.
        sim._ev_deliver("biobank", "uni", {"type": "match_response", "match_id": m, "replies": {"A": None}})
        sim.settle()
        assert sim.match_result(m) == ["A"]
        dropped = [e.detail for e in sim.trace if e.kind == "msg_delivered" and "dropped" in e.detail]
        assert dropped == [{"to": "uni", "from": "biobank", "type": "match_response", "dropped": "not_author"}]

    def test_finished_matches_keep_only_their_result(self):
        profiles = {"A": ({"biobank"}, True), "B": ({"biobank", "registry"}, True), "C": ({"biobank"}, False)}
        sim = profile_sim(profiles)
        queries = [["biobank"], ["registry"], ["wearables"], ["biobank", "registry"]]
        ids = [sim.start_match("drx", query) for query in queries]
        sim.settle()
        assert [sim.match_result(m) for m in ids] == [sorted(match_oracle(profiles, set(q))) for q in queries]
        # No emptied `outstanding` dict or `matched` set stays behind.
        assert all(type(sim.matches[m]) is tuple for m in ids)
        # A late reply to a finished match changes nothing and is not traced.
        events = len(sim.trace)
        sim._on_match_response(sim.nodes["uni"], "uni", {"match_id": ids[0], "replies": {"A": None, "B": None}})
        assert len(sim.trace) == events
        assert sim.match_result(ids[0]) == ["A", "B"]


ORGS4 = ["uni", "biobank", "clinic", "lab"]


def _hosted_at(sim: Simulation, org: str, register) -> None:
    """Run `register` with the orgs ahead of `org` down, so the entry node,
    and so the host, is `org`; three of four members still commit."""
    ahead = ORGS4[: ORGS4.index(org)]
    for name in ahead:
        sim.inject_fault(name, "down")
    register()
    sim.settle()
    for name in ahead:
        sim.inject_fault(name, "up")
    sim.settle()


def hosted_sim(hosts: dict[str, dict[str, tuple[set, bool]]], researcher_at: str, seed=31) -> Simulation:
    """A four-org network whose participants live at the given host orgs."""
    sim = spawn_network(ORGS4, SimConfig(seed=seed))
    _hosted_at(sim, researcher_at, lambda: sim.register_person(Kind.RESEARCHER, "drx"))
    for org, profiles in hosts.items():
        for pid in sorted(profiles):
            _hosted_at(sim, org, lambda: sim.register_person(Kind.PARTICIPANT, pid))
            assert sim.host_org[pid] == org
            descriptors, discoverable = profiles[pid]
            sim.publish_profile(pid, sorted(descriptors), discoverable)
            sim.settle()
    return sim


def _capture_responses(sim: Simulation) -> list[tuple[str, dict]]:
    """Every match_response delivered from now on, as (sender, message)."""
    delivered = []
    handler = sim._on_match_response

    def capture(node, from_org, message):
        delivered.append((from_org, message))
        handler(node, from_org, message)

    sim._on_match_response = capture
    return delivered


class TestMatchBatches:
    def test_a_down_host_holds_the_match_open(self):
        profiles = {"A": ({"biobank", "registry"}, True), "B": ({"biobank"}, True), "C": ({"biobank"}, False)}
        sim = hosted_sim({"uni": profiles}, researcher_at="biobank")
        sim.inject_fault("uni", "down")
        m = sim.start_match("drx", ["biobank"])
        sim.settle()
        with pytest.raises(SimError, match="match still outstanding"):
            sim.match_result(m)
        sim.inject_fault("uni", "up")
        sim.settle()
        assert set(sim.match_result(m)) == match_oracle(profiles, {"biobank"}) == {"A", "B"}

    @pytest.mark.parametrize("per_host", [1, 5])
    def test_one_challenge_and_one_response_per_host(self, per_host):
        rng = random.Random(per_host)
        universe = [f"src{i}" for i in range(6)]
        # With several participants per host, each host's first is hidden.
        hosts = {
            org: {
                f"{org}{i}": (set(rng.sample(universe, rng.randint(1, 4))), i > 0 or per_host == 1)
                for i in range(per_host)
            }
            for org in ("uni", "biobank")
        }
        profiles = {pid: profile for group in hosts.values() for pid, profile in group.items()}
        sim = hosted_sim(hosts, researcher_at="uni", seed=31 + per_host)
        salts = {pid: sim.nodes[org].profile_salts[pid] for org, group in hosts.items() for pid in group}
        delivered = _capture_responses(sim)
        for _ in range(4):
            query = set(rng.sample(universe, rng.randint(1, 3)))
            start, first = len(sim.trace), len(delivered)
            m = sim.start_match("drx", sorted(query))
            sim.settle()
            assert set(sim.match_result(m)) == match_oracle(profiles, query)
            sent = [e.detail for e in sim.trace[start:] if e.kind == "msg_sent"]
            challenges = sorted(d["to"] for d in sent if d["type"] == "match_challenge")
            responses = sorted(d["from"] for d in sent if d["type"] == "match_response")
            assert challenges == responses == ["biobank", "uni"]
            for from_org, message in delivered[first:]:
                assert set(message["replies"]) == {pid for pid in hosts[from_org] if profiles[pid][1]}
                for pid, disclosures in message["replies"].items():
                    assert disclosures is not None
                    assert set(disclosures).issubset(query)
                    hidden = {salt for d, salt in salts[pid].items() if d not in query}
                    assert hidden.isdisjoint(disclosures.values())
                    assert disclosures == {d: salts[pid][d] for d in query if d in salts[pid]}

    def test_host_refuses_a_participant_it_sees_non_discoverable(self):
        profiles = {"H": ({"biobank"}, True), "V": ({"biobank"}, True)}
        sim = hosted_sim({"biobank": profiles}, researcher_at="uni")
        sim.publish_profile("H", ["biobank"], True, study_overrides={"s1": False})
        sim.settle()
        delivered = _capture_responses(sim)
        m = sim.start_match("drx", ["biobank"], study="s1")
        # A challenge naming H as well: biobank sees H hidden from s1.
        sim._ev_deliver(
            "uni",
            "biobank",
            {
                "type": "match_challenge",
                "match_id": m,
                "participants": ("H", "V"),
                "descriptors": ("biobank",),
                "study": "s1",
                "reply_to": "uni",
            },
        )
        sim.settle()
        assert sim.match_result(m) == ["V"]
        replies = [message["replies"] for _, message in delivered]
        assert {"H": None, "V": {"biobank": sim.nodes["biobank"].profile_salts["V"]["biobank"]}} in replies
        assert {"V": {"biobank": sim.nodes["biobank"].profile_salts["V"]["biobank"]}} in replies


def test_every_signature_in_fixture_run_verifies(fixtures_dir):
    """Each ConsentSigned in a whole scenario binds the registered quiz hash
    and verifies against the participant's registered key."""
    from careledger.scenario import run_scenario
    from careledger.simnet import SimConfig

    sim, _ = run_scenario(
        (fixtures_dir / "case2.scn").read_text(), SimConfig(seed=9), base_dir=fixtures_dir
    )
    node = sim.nodes["uni"]
    signed = [tx for _, _, tx in node.ledger.transactions() if tx.action == "ConsentSigned"]
    assert len(signed) == 2  # part1 and part2
    for tx in signed:
        payload = tx.payload
        key = node.policy.principals[payload.participant]
        assert verify_consent_signature(payload, key)
        assert payload.quiz_hash == node.consent.studies[payload.study_id].quiz_hash
        passing = node.ledger.find_tx(payload.passing_attempt_tx)
        assert passing is not None and passing.payload.mistakes == 0


class TestConsentCommitments:
    def test_salted_commitments_hide_descriptors(self):
        sim = profile_sim({"A": ({"biobank:lifelines"}, True)})
        node = sim.nodes["uni"]
        published = [
            tx for _, _, tx in node.ledger.transactions() if tx.action == "ProfilePublished"
        ][0]
        commitment = next(iter(published.payload.commitments))
        # Bare hash of the descriptor is not the commitment (salt required).
        assert crypto.sha256(b"biobank:lifelines") != commitment
        salt = node.profile_salts["A"]["biobank:lifelines"]
        assert crypto.commitment(salt, "biobank:lifelines") == commitment

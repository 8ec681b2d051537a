"""Hashing, signing, block construction, chain validation, audit, persistence."""

import copy
import hashlib
import json
import pickle
import random
import struct

import pytest

from careledger import crypto
from careledger import ledger as ledger_mod
from careledger.cli import main
from careledger.errors import ChainError, EncodingError
from careledger.exchange import submit_request
from careledger.ledger import (
    Block,
    Category,
    CreatePlan,
    DataRequestRecorded,
    GrantAccess,
    Kind,
    LedgerState,
    Payload,
    PrincipalId,
    ProfilePublished,
    RegisterPrincipal,
    Transaction,
    ZERO_HASH,
    block_hash,
    build_block,
    canonical_encode,
    compute_tx_root,
    endorse_block,
    query_audit,
    quorum,
    read_ledger,
    sign_tx,
    tx_hash,
    validate_chain,
    verify_tx,
    write_ledger,
)
from careledger.scenario import run_scenario
from careledger.simnet import SimConfig, spawn_network

from conftest import FIXTURES, build_care_sim

# Computed once by a standalone reference script (manual struct packing and
# hashlib only); the hand-built encoding below re-derives it in-test.
FIXTURE_TX_DIGEST = "201adee0e26e326e3e14251860c76ed51ce86c40a6b46c37cda005a93b0e6531"
GENESIS_HASH_SEED42 = "b849cda231601c61468805080bcea6fc9de056f11eddb31ebba9c064b1940e07"


def fixture_tx() -> Transaction:
    return Transaction(
        1000,
        PrincipalId(Kind.PRACTITIONER, "nurse1"),
        PrincipalId(Kind.ORGANIZATION, "homecare"),
        DataRequestRecorded(
            PrincipalId(Kind.PRACTITIONER, "nurse1"),
            PrincipalId(Kind.ORGANIZATION, "homecare"),
            PrincipalId(Kind.ORGANIZATION, "hospital"),
            PrincipalId(Kind.PATIENT, "p001"),
            Category.VITALS,
            False,
        ),
    )


# Hand-built encodings: written from the documented layout, without the codec.
def u32(n):
    return struct.pack(">I", n)


def s(text):
    raw = text.encode()
    return u32(len(raw)) + raw


def principal(code, pid):
    return bytes([code]) + s(pid)


def hand_built_fixture_encoding() -> bytes:
    return b"".join(
        [
            struct.pack(">Q", 1000),
            principal(1, "nurse1"),
            principal(0, "homecare"),
            bytes([5]),
            principal(1, "nurse1"),
            principal(0, "homecare"),
            principal(0, "hospital"),
            principal(2, "p001"),
            bytes([0]),
            bytes([0]),
        ]
    )


class TestHashing:
    def test_sha256_empty_reference_vector(self):
        assert (
            crypto.sha256(b"").hex()
            == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        )
        assert crypto.sha256(b"") == hashlib.sha256(b"").digest()

    def test_fixture_tx_hash_matches_hand_built_encoding(self):
        tx = fixture_tx()
        expected = hand_built_fixture_encoding()
        assert canonical_encode(tx) == expected
        assert tx_hash(tx) == hashlib.sha256(expected).digest()
        assert tx_hash(tx).hex() == FIXTURE_TX_DIGEST

    def test_single_byte_flip_changes_digest(self):
        base = canonical_encode(fixture_tx())
        digest = hashlib.sha256(base).digest()
        for i in range(len(base)):
            mutated = bytearray(base)
            mutated[i] ^= 0x01
            assert hashlib.sha256(bytes(mutated)).digest() != digest

    def test_genesis_hash_stable_across_runs(self):
        for _ in range(2):
            sim = spawn_network(["hospital", "homecare", "pharmacy"], SimConfig(seed=42))
            assert sim.nodes["hospital"].ledger.blocks[0].hash.hex() == GENESIS_HASH_SEED42


class TestSignatures:
    def setup_method(self):
        rng = random.Random(7)
        self.private, self.public = crypto.generate_keypair(rng)
        self.other_private, self.other_public = crypto.generate_keypair(rng)
        self.author = PrincipalId(Kind.PRACTITIONER, "nurse1")
        self.registry = {self.author: self.public}

    def test_sign_then_verify(self):
        tx = sign_tx(fixture_tx(), self.private)
        assert verify_tx(tx, self.registry)

    def test_verify_with_wrong_key_fails(self):
        tx = sign_tx(fixture_tx(), self.private)
        result = verify_tx(tx, {self.author: self.other_public})
        assert not result
        assert result.reason == "bad_signature"

    def test_unknown_author_distinct_from_bad_signature(self):
        tx = sign_tx(fixture_tx(), self.private)
        result = verify_tx(tx, {})
        assert not result
        assert result.reason == "unknown_author"

    def test_signing_encodes_the_tx_once(self, monkeypatch):
        encoded = []
        real = ledger_mod.canonical_encode
        monkeypatch.setattr(ledger_mod, "canonical_encode", lambda tx: encoded.append(tx) or real(tx))
        tx = sign_tx(fixture_tx(), self.private)
        assert tx.tx_id.hex() == FIXTURE_TX_DIGEST
        assert len(encoded) == 1

    def test_unsigned_rejected(self):
        result = verify_tx(fixture_tx(), self.registry)
        assert result.reason == "missing_signature"

    def test_every_payload_bit_flip_breaks_verification(self):
        tx = sign_tx(fixture_tx(), self.private)
        encoding = canonical_encode(tx)
        for byte_index in range(len(encoding)):
            for bit in range(8):
                mutated = bytearray(encoding)
                mutated[byte_index] ^= 1 << bit
                # The signature was made over the original tx id.
                assert not crypto.verify(
                    self.public, tx.signature, hashlib.sha256(bytes(mutated)).digest()
                )


def _two_org_chain(seed=42):
    """Committed multi-block chain via the simulator (hospital POV)."""
    sim = build_care_sim(seed)
    return sim, sim.nodes["hospital"].ledger


class TestBlocks:
    def _signed_regs(self, n=3):
        rng = random.Random(1)
        txs, registry, keys = [], {}, {}
        for i in range(n):
            private, public = crypto.generate_keypair(rng)
            org = PrincipalId(Kind.ORGANIZATION, f"org{i}")
            keys[org] = private
            registry[org] = public
            tx = Transaction(0, org, org, RegisterPrincipal(org, public))
            txs.append(sign_tx(tx, private))
        return txs, registry, keys

    def _genesis(self, txs, keys):
        genesis = Block(
            height=0,
            prev_hash=ZERO_HASH,
            timestamp=0,
            proposer=txs[0].author,
            tx_root=compute_tx_root(txs),
            transactions=tuple(txs),
        )
        endorsements = tuple(
            (org, endorse_block(genesis, key)) for org, key in sorted(keys.items())
        )
        return Block(
            height=0,
            prev_hash=ZERO_HASH,
            timestamp=0,
            proposer=genesis.proposer,
            tx_root=genesis.tx_root,
            transactions=genesis.transactions,
            endorsements=endorsements,
        )

    def test_build_block_links_to_previous(self):
        txs, registry, keys = self._signed_regs()
        genesis = self._genesis(txs, keys)
        rng = random.Random(5)
        private, public = crypto.generate_keypair(rng)
        patient = PrincipalId(Kind.PATIENT, "p9")
        reg = sign_tx(
            Transaction(10, patient, txs[0].author, RegisterPrincipal(patient, public)),
            private,
        )
        block = build_block([reg], genesis, txs[0].author, 1000, registry)
        assert block.height == 1
        assert block.prev_hash == genesis.hash
        assert block.endorsements == ()

    def test_single_tx_root_is_hash_of_tx_id(self):
        txs, _, _ = self._signed_regs(1)
        assert compute_tx_root(txs[:1]) == hashlib.sha256(txs[0].tx_id).digest()

    def test_reordering_changes_tx_root(self):
        txs, _, _ = self._signed_regs(3)
        assert compute_tx_root(txs) != compute_tx_root(list(reversed(txs)))

    def test_invalid_tx_rejected_by_name(self):
        txs, registry, keys = self._signed_regs()
        genesis = self._genesis(txs, keys)
        bad = fixture_tx()  # unsigned, unknown author
        with pytest.raises(ChainError) as err:
            build_block([bad], genesis, txs[0].author, 1000, registry)
        assert bad.tx_id.hex() in str(err.value)

    def test_empty_pending_rejected(self):
        txs, registry, keys = self._signed_regs()
        genesis = self._genesis(txs, keys)
        with pytest.raises(ChainError):
            build_block([], genesis, txs[0].author, 1000, registry)

    def test_block_hash_excludes_endorsements(self):
        txs, _, keys = self._signed_regs()
        with_endorsements = self._genesis(txs, keys)
        without = Block(
            height=0,
            prev_hash=ZERO_HASH,
            timestamp=0,
            proposer=with_endorsements.proposer,
            tx_root=with_endorsements.tx_root,
            transactions=with_endorsements.transactions,
        )
        assert block_hash(with_endorsements) == block_hash(without)

    def test_tx_order_changes_block_hash(self):
        txs, _, keys = self._signed_regs()
        a = self._genesis(txs, keys)
        b = self._genesis(list(reversed(txs)), keys)
        assert a.hash != b.hash


class TestQuorum:
    def test_quorum_formula_table(self):
        # floor(2n/3) + 1
        assert [quorum(n) for n in range(1, 9)] == [1, 2, 3, 3, 4, 5, 5, 6]


class TestValidation:
    def test_fresh_simulated_chain_validates(self):
        _, ledger = _two_org_chain()
        assert len(ledger.blocks) >= 6
        assert validate_chain(ledger).ok

    def test_tampered_tx_detected_at_its_height(self):
        _, ledger = _two_org_chain()
        target = 3
        block = ledger.blocks[target]
        original = block.transactions[0]
        tampered_payload = RegisterPrincipal(
            PrincipalId(Kind.PATIENT, "p00X"),
            original.payload.public_key,
            original.payload.org_binding,
            original.payload.identity_commitment,
        )
        tampered_tx = Transaction(
            original.timestamp, original.author, original.author_org,
            tampered_payload, original.signature,
        )
        forged = Block(
            height=block.height,
            prev_hash=block.prev_hash,
            timestamp=block.timestamp,
            proposer=block.proposer,
            tx_root=block.tx_root,
            transactions=(tampered_tx,) + block.transactions[1:],
            endorsements=block.endorsements,
        )
        mutated = LedgerState()
        for i, b in enumerate(ledger.blocks):
            mutated.append(forged if i == target else b)
        report = validate_chain(mutated)
        assert not report.ok
        assert report.violation.height == target
        assert report.violation.rule in ("tx_root", "tx_signature")

    def test_dropped_endorsement_below_quorum_detected(self):
        _, ledger = _two_org_chain()
        target = 2
        block = ledger.blocks[target]
        assert len(block.endorsements) == 2  # two orgs, quorum 2
        thin = Block(
            height=block.height,
            prev_hash=block.prev_hash,
            timestamp=block.timestamp,
            proposer=block.proposer,
            tx_root=block.tx_root,
            transactions=block.transactions,
            endorsements=block.endorsements[:1],
        )
        mutated = LedgerState()
        for i, b in enumerate(ledger.blocks):
            mutated.append(thin if i == target else b)
        report = validate_chain(mutated)
        assert not report.ok
        assert report.violation.height == target
        assert report.violation.rule == "quorum"

    def test_genesis_prev_hash_must_be_zero(self):
        _, ledger = _two_org_chain()
        g = ledger.blocks[0]
        forged = Block(
            height=0,
            prev_hash=b"\x01" + bytes(31),
            timestamp=g.timestamp,
            proposer=g.proposer,
            tx_root=g.tx_root,
            transactions=g.transactions,
            endorsements=g.endorsements,
        )
        mutated = LedgerState()
        mutated.append(forged)
        for b in ledger.blocks[1:]:
            mutated.append(b)
        report = validate_chain(mutated)
        assert not report.ok
        assert report.violation.height in (0, 1)


class TestAppendOnly:
    def test_out_of_order_append_rejected(self):
        _, ledger = _two_org_chain()
        fresh = LedgerState()
        with pytest.raises(ChainError):
            fresh.append(ledger.blocks[2])

    def test_no_removal_surface(self):
        exposed = [n for n in dir(LedgerState) if not n.startswith("_")]
        assert not any("remove" in n or "delete" in n or "pop" in n for n in exposed)


class TestAudit:
    def test_empty_chain_empty_filter(self):
        # A network of one org: genesis only, one registration tx.
        sim = spawn_network(["solo"], SimConfig(seed=1))
        entries = query_audit(sim.nodes["solo"].ledger)
        assert len(entries) == 1
        assert entries[0].action == "RegisterPrincipal"

    def test_bijection_with_committed_transactions(self):
        _, ledger = _two_org_chain()
        entries = query_audit(ledger)
        assert len(entries) == sum(len(b.transactions) for b in ledger.blocks)
        assert [e.tx_id for e in entries] == [tx.tx_id for _, _, tx in ledger.transactions()]

    def test_subject_filter_counts_accesses(self):
        sim = build_care_sim()
        for _ in range(3):
            sim.tick(1500)
            submit_request(
                sim,
                PrincipalId(Kind.PRACTITIONER, "nurse1"),
                PrincipalId(Kind.ORGANIZATION, "homecare"),
                PrincipalId(Kind.ORGANIZATION, "hospital"),
                PrincipalId(Kind.PATIENT, "p001"),
                Category.VITALS,
            )
        ledger = sim.nodes["hospital"].ledger
        entries = query_audit(ledger, subject="p001")
        requests = [e for e in entries if e.action == "DataRequestRecorded"]
        completions = [e for e in entries if e.action == "AccessCompleted"]
        assert len(requests) == 3
        assert len(completions) == 3

    def test_ordering_is_chain_order(self):
        _, ledger = _two_org_chain()
        entries = query_audit(ledger)
        keys = [(e.height, e.position) for e in entries]
        assert keys == sorted(keys)

    def test_inverted_time_range_rejected(self):
        _, ledger = _two_org_chain()
        with pytest.raises(ValueError):
            query_audit(ledger, time_from=100, time_to=50)

    def test_time_range_bounds_inclusive(self):
        _, ledger = _two_org_chain()
        all_entries = query_audit(ledger)
        t = all_entries[3].timestamp
        hits = query_audit(ledger, time_from=t, time_to=t)
        assert hits
        assert all(e.timestamp == t for e in hits)


def _every_payload_chain() -> LedgerState:
    """case1, one emergency request, then case2's research lines: a chain
    that carries every payload type."""
    case2 = [line for line in (FIXTURES / "case2.scn").read_text().splitlines() if not line.startswith("org add")]
    emergency = ["request nurse1@homecare hospital p001 vitals emergency", "tick 3000"]
    text = "\n".join([(FIXTURES / "case1.scn").read_text(), *emergency, *case2])
    sim, _ = run_scenario(text, SimConfig(seed=7), base_dir=FIXTURES)
    return sim.nodes["hospital"].ledger


def _count_audit_subject(monkeypatch) -> list:
    """Record the payload of every audit_subject call from now on."""
    calls = []
    for cls in (Payload, *Payload.__subclasses__()):
        if "audit_subject" in vars(cls):
            original = vars(cls)["audit_subject"]
            monkeypatch.setattr(cls, "audit_subject", lambda self, f=original: calls.append(self) or f(self))
    return calls


class TestSubjectIndex:
    def test_index_agrees_with_scan(self):
        full = _every_payload_chain()
        txs = [tx for _, _, tx in full.transactions()]
        assert {tx.action for tx in txs} == {cls.__name__ for cls in Payload.__subclasses__()}
        subjects = sorted({tx.payload.audit_subject() for tx in txs} | {"", "nobody"})
        actors, actions = sorted({tx.author.id for tx in txs}), sorted({tx.action for tx in txs})
        times = sorted({tx.timestamp for tx in txs})
        rng = random.Random(13)
        grown = LedgerState()
        for block in full.blocks:
            grown.append(block)
            if rng.random() < 0.4:
                continue
            lo, hi = sorted(rng.sample(times, 2))
            for filters in ({}, {"actor": rng.choice(actors)}, {"action": rng.choice(actions)},
                            {"time_from": lo, "time_to": hi}):
                scan = query_audit(grown, **filters)
                for subject in subjects:
                    expected = [e for e in scan if e.subject == subject]
                    assert query_audit(grown, subject=subject, **filters) == expected

    def test_index_catches_up_with_new_commits(self):
        sim = build_care_sim()
        ledger = sim.nodes["hospital"].ledger
        before = query_audit(ledger, subject="p001")
        sim.tick(1500)
        submit_request(
            sim,
            PrincipalId(Kind.PRACTITIONER, "nurse1"),
            PrincipalId(Kind.ORGANIZATION, "homecare"),
            PrincipalId(Kind.ORGANIZATION, "hospital"),
            PrincipalId(Kind.PATIENT, "p001"),
            Category.VITALS,
        )
        after = query_audit(ledger, subject="p001")
        assert after[: len(before)] == before
        assert [e.action for e in after[len(before):]] == ["DataRequestRecorded", "AccessCompleted"]

    def test_second_query_reads_only_the_subjects_transactions(self, monkeypatch, tmp_path):
        _, ledger = _two_org_chain()
        path = tmp_path / "chain.ledger"
        write_ledger(ledger, str(path))
        calls = _count_audit_subject(monkeypatch)
        loaded = read_ledger(str(path))
        assert calls == []  # reading and appending do no index work
        first = query_audit(loaded, subject="p001")
        calls.clear()
        assert query_audit(loaded, subject="p001") == first
        assert calls == [loaded.find_tx(e.tx_id).payload for e in first]
        assert len(first) < len(loaded.height_index)


class TestPersistence:
    def test_round_trip_preserves_chain(self, tmp_path):
        _, ledger = _two_org_chain()
        path = tmp_path / "chain.ledger"
        write_ledger(ledger, str(path))
        loaded = read_ledger(str(path))
        assert len(loaded.blocks) == len(ledger.blocks)
        assert [b.hash for b in loaded.blocks] == [b.hash for b in ledger.blocks]
        assert validate_chain(loaded).ok

    def test_read_seeds_each_block_hash_from_its_header_bytes(self, tmp_path):
        _, ledger = _two_org_chain()
        path = tmp_path / "chain.ledger"
        write_ledger(ledger, str(path))
        for block in read_ledger(str(path)).blocks:
            assert block.__dict__["hash"] == block_hash(block)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.ledger"
        path.write_bytes(b"")
        with pytest.raises(ChainError):
            read_ledger(str(path))

    def test_truncated_file_rejected(self, tmp_path):
        _, ledger = _two_org_chain()
        path = tmp_path / "chain.ledger"
        write_ledger(ledger, str(path))
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 7])
        with pytest.raises(ChainError):
            read_ledger(str(path))

    def test_audit_export_is_json_lines(self, tmp_path):
        import json

        _, ledger = _two_org_chain()
        for entry in query_audit(ledger):
            row = json.loads(entry.to_json())
            assert set(row) == {
                "tx_id", "height", "timestamp", "actor", "actor_org",
                "action", "subject", "detail",
            }


class TestInterning:
    """One PrincipalId per (kind, id): built, decoded, copied or forked."""

    def test_equality_and_hash_are_identity(self):
        p = PrincipalId(Kind.PATIENT, "p001")
        assert type(p).__eq__ is object.__eq__
        assert type(p).__hash__ is object.__hash__
        assert PrincipalId("patient", "p001") is p
        assert p != (Kind.PATIENT, "p001")

    def test_kind_is_normalised_and_an_unknown_kind_refused(self):
        p = PrincipalId("patient", "p-kind")
        assert p.kind is Kind.PATIENT
        assert str(p) == "patient:p-kind"
        for _ in range(2):
            with pytest.raises(EncodingError, match="unknown principal kind 'nonsense'"):
                PrincipalId("nonsense", "p-kind")

    def test_an_invalid_id_raises_every_time(self):
        for bad in ("", "x" * 65, "tab\there"):
            for _ in range(2):
                with pytest.raises(EncodingError):
                    PrincipalId(Kind.PATIENT, bad)

    def test_a_principal_is_immutable(self):
        p = PrincipalId(Kind.PATIENT, "p001")
        with pytest.raises(AttributeError):
            p.id = "p002"
        assert p.id == "p001"

    def test_decoded_principals_are_the_constructed_ones(self, tmp_path):
        _, ledger = _two_org_chain()
        path = tmp_path / "chain.ledger"
        write_ledger(ledger, str(path))
        loaded = read_ledger(str(path))
        decoded = [(b.proposer, *(org for org, _ in b.endorsements)) for b in loaded.blocks]
        decoded += [(tx.author, tx.author_org) for _, _, tx in loaded.transactions()]
        for principals in decoded:
            for p in principals:
                assert p is PrincipalId(p.kind, p.id)
        assert loaded.blocks[-1].transactions[0].author is ledger.blocks[-1].transactions[0].author

    def test_copies_and_pickles_are_the_same_instance(self):
        p = PrincipalId(Kind.PRACTITIONER, "nurse1")
        assert copy.copy(p) is p
        assert copy.deepcopy(p) is p
        assert pickle.loads(pickle.dumps(p)) is p
        tx = fixture_tx()
        assert pickle.loads(pickle.dumps(tx)).author is tx.author
        assert copy.deepcopy(tx).payload.patient is tx.payload.patient

    def test_a_fork_keeps_identity_and_its_lookups(self):
        sim = build_care_sim()
        fork = sim.fork()
        state = fork.nodes["hospital"].policy
        for p in state.principals:
            assert p is PrincipalId(p.kind, p.id)
        assert PrincipalId(Kind.PATIENT, "p001") in state.principals
        assert [plan.plan_id for plan in state.plans_of(PrincipalId(Kind.PATIENT, "p001"))] == ["plan1"]
        fork.revoke_access("p001", "g001")
        fork.settle()
        assert state.grants["g001"].revoked_at is not None
        assert sim.nodes["hospital"].policy.grants["g001"].revoked_at is None


# Fixtures that together commit all 13 payload types, plus case1_fault (a
# node down and back, so a catch-up replay), run at seed 42. Every org's
# persisted ledger, its `careledger audit` output and the run's trace.tsv are
# pinned byte for byte (all orgs of a fixture hold the same chain): a change
# to the wire format, the audit view or the simulated protocol shows here.
GOLDEN = {
    "case1": (
        "c78a24669d4a2d778c703452d9568bcd2e3303dc7f4e90ec2d864fe47817ac32",
        "5dc420d4e9bfe16f7a8fd8a3dbed554bda5b667edddba7bbae6f4647868beb54",
        "8f5db6ff8da7519e28f7993cbf80ce487f89828e8365c3e5e88f9332943196a3",
    ),
    "case1_emergency": (
        "d939f1b3e9ffdc7e6fce37ee581b30adacc724f014f835c11d974151d60e15be",
        "1cb21aef46a192e65410d34fec5c56a3ca04cee4b52f74c7ce9add57910d9fd9",
        "572c7d68208c61b5048ae8dcb4c4b9b7d6deb23daec00d74d8aea567b6178a37",
    ),
    "case1_fault": (
        "3df143b0f23311dcfd426e86808b909064f512b6b9cfad66b52f12640d65cfc3",
        "76ed19c97bf005369351db5a3c04b16c77a42b02cb21c157b696e1a0be0023cd",
        "974deed0b73d06d4acf7d1064a17095474ccb1b85873fb752668b2cd581b620d",
    ),
    "case2": (
        "f65f272d210b276c30ab268c037b32bba320974e915284b60e50f014922301ec",
        "2f1b01e732b207e9d003cf786ef891201bfa6eae0fc1f3da06e59bbdaef4a741",
        "37f5a4a437aada6a52dce64bb20f57ac43313e1c5439a356dca389607a5bc500",
    ),
    "case2_match": (
        "6372d6efce81ebcff53b33f1a3f3953358049f38a98dff0c971c1b832e476b39",
        "8f667076fdef1bdcdb6c325139e1e844a9d6ef7f3027f7b9bc82b0872ac2709e",
        "c9a0c07f1152dbe59ef50260754cbfe9144b88ac2da5cc141b927e1b3c6ced9b",
    ),
    "shred": (
        "8d85c2a6c3b1092b12bef327061a90a50f95d4cff49b8eb3e4226b4f396051a0",
        "2ce5fc41e3fbc8eeb9fc9ad751f33ca182f89be3fabfdd478be98489a88a0982",
        "55c02f6723dbed2aee1688453f64b53cb6b6a6274e1746194a9c463eb9be9a48",
    ),
    "membership": (
        "e27e0f1bd1b1f383452234fd9eee29ac3a62c2fe694854222db4688aa70ad0ab",
        "459ca441a507c043c8af3767296d7b3969e2824399c8fd2e72a052709ed6ff31",
        "124ec9a19f6f3dc194b74dc60205ddb70d91d4e8e297abaf770abb98089524a5",
    ),
}

ALL_ACTIONS = {
    "RegisterPrincipal", "CreatePlan", "GrantAccess", "RevokeAccess",
    "DataRequestRecorded", "AccessCompleted", "EmergencyAccess", "RegisterStudy",
    "ConsentInvited", "QuizAttemptRecorded", "ConsentSigned", "ConsentWithdrawn",
    "ProfilePublished",
}


# A block interval far below message latency: proposers that lag the newest
# commit, commits that arrive out of order, catch-up replay and provisioning.
HOSTILE = ["--latency-min", "40", "--latency-max", "90", "--block-interval", "10"]
GOLDEN_HOSTILE = {
    "case1_fault": (
        "ea2de026794c771ddf7dca4aadc82f00d807a6901c94dfbcb786c2a086873dcb",
        "a0e0abc744ece68a4933614de425042cf660cf7a282225a92410c1aea53a1370",
        "4492b6333c14b7c08f7ce124204802c2d15166046dad42da0c4541484dcc8103",
    ),
    "membership": (
        "9c5ca7f984e321e8aefde2003ea3c94a636607291d270114954b864d4ebce9ab",
        "6c39b468df5cbae0cfcd2030621c2726d854d154c7964f07b79505e2aa4e5d7c",
        "491027589a0ff40e12f26f7386dca2d114880beb3cf7cf0ffb67e107263d819f",
    ),
}


class TestGoldenPins:
    def test_fixture_ledgers_and_audit_output_are_pinned(self, tmp_path, capsys):
        actions = set()
        runs = [(name, [], pins) for name, pins in GOLDEN.items()]
        runs += [(name, HOSTILE, pins) for name, pins in GOLDEN_HOSTILE.items()]
        for name, options, (ledger_digest, audit_digest, trace_digest) in runs:
            out = tmp_path / name / str(len(options))
            assert main(["run", str(FIXTURES / f"{name}.scn"), "--seed", "42", "--out", str(out), *options]) == 0
            capsys.readouterr()
            trace = (out / "trace.tsv").read_bytes()
            assert hashlib.sha256(trace).hexdigest() == trace_digest, (name, options)
            ledgers = sorted(out.glob("*.ledger"))
            assert ledgers, name
            for path in ledgers:
                assert main(["audit", str(path)]) == 0
                audit = capsys.readouterr().out
                actions |= {json.loads(line)["action"] for line in audit.splitlines()}
                assert hashlib.sha256(path.read_bytes()).hexdigest() == ledger_digest, path
                assert hashlib.sha256(audit.encode()).hexdigest() == audit_digest, path
        assert actions == ALL_ACTIONS


# The outcome of every trial below, as the decoder and the chain checks
# report it. Taken when the decoder was a field-by-field interpreter; a
# decoder built any other way must fail each trial with the same error class,
# rule and message.
TAMPER_OUTCOMES = "51dac766d3a45b6c081bda3a68b529650150ac28f58ad15f2caf071119382390"


def _tamper_outcome(path, data: bytes) -> str:
    path.write_bytes(data)
    try:
        report = validate_chain(read_ledger(str(path)))
    except ChainError as exc:
        return f"ChainError: {exc}"
    return "undetected" if report.ok else f"{report.violation.rule}: {report.violation.message}"


class TestTamperOutcomes:
    def test_mutations_and_truncations_fail_as_pinned(self, tmp_path):
        sim, _ = run_scenario((FIXTURES / "case1.scn").read_text(), SimConfig(seed=42), base_dir=FIXTURES)
        source = tmp_path / "chain.ledger"
        write_ledger(sim.nodes["hospital"].ledger, str(source))
        data = source.read_bytes()
        target = tmp_path / "mutated.ledger"
        rng = random.Random("tamper-outcomes")
        outcomes = []
        for _ in range(3000):
            pos, delta = rng.randrange(len(data)), rng.randrange(1, 256)
            mutated = bytearray(data)
            mutated[pos] ^= delta
            outcomes.append((pos, delta, _tamper_outcome(target, bytes(mutated))))
        for _ in range(30):
            cut = rng.randrange(len(data))  # delta 0: the file ends at `cut`
            outcomes.append((cut, 0, _tamper_outcome(target, data[:cut])))
        assert not [o for o in outcomes if o[2] == "undetected"]
        assert hashlib.sha256(repr(outcomes).encode()).hexdigest() == TAMPER_OUTCOMES


def _record_spans(data: bytes) -> list[tuple[int, int]]:
    """(start, end) of each length-prefixed block record in a ledger file."""
    spans, pos = [], 0
    while pos < len(data):
        end = pos + 8 + int.from_bytes(data[pos : pos + 8], "big")
        spans.append((pos, end))
        pos = end
    return spans


def _splice(data: bytes, at: int, old: bytes, new: bytes) -> bytes:
    """Replace `old` at offset `at` and rewrite the enclosing record's length."""
    assert data[at : at + len(old)] == old
    start, end = next((a, b) for a, b in _record_spans(data) if a + 8 <= at < b)
    body = data[start + 8 : at] + new + data[at + len(old) : end]
    return data[:start] + len(body).to_bytes(8, "big") + body + data[end:]


def _set_in_tx(data, ledger, payload_type, members_of):
    """Offset and canonical member encodings of a set field of the first
    committed `payload_type` transaction."""
    tx = next(t for _, _, t in ledger.transactions() if isinstance(t.payload, payload_type))
    members = members_of(tx.payload)
    encoding = canonical_encode(tx)
    segment = u32(len(members)) + b"".join(members)
    assert data.count(encoding) == 1 and encoding.count(segment) == 1
    return data.find(encoding) + encoding.find(segment), members


def _scope(data, ledger):
    codes = {Category.VITALS: 0, Category.MEDICATION: 1, Category.NOTES: 2, Category.TREATMENTS: 3}
    return _set_in_tx(
        data, ledger, GrantAccess, lambda p: [bytes([c]) for c in sorted(codes[x] for x in p.scope)]
    )


def _member_orgs(data, ledger):
    return _set_in_tx(
        data, ledger, CreatePlan, lambda p: [principal(0, o.id) for o in sorted(p.member_orgs)]
    )


def _practitioners(data, ledger):
    return _set_in_tx(
        data,
        ledger,
        CreatePlan,
        lambda p: [principal(1, w.id) + principal(0, o.id) for w, o in sorted(p.practitioners)],
    )


def _commitments(data, ledger):
    return _set_in_tx(data, ledger, ProfilePublished, lambda p: sorted(p.commitments))


def _study_overrides(data, ledger):
    return _set_in_tx(
        data,
        ledger,
        ProfilePublished,
        lambda p: [s(k) + bytes([v]) for k, v in sorted(p.study_overrides)],
    )


def _endorsements(data, ledger):
    block = ledger.blocks[2]
    members = [principal(0, org.id) + sig for org, sig in sorted(block.endorsements)]
    end = _record_spans(data)[2][1]
    return end - 4 - sum(map(len, members)), members


class TestCanonicalForm:
    """A set-valued field has exactly one valid byte form: members sorted and
    unique. Any other order, or a repeated member, makes the file unreadable."""

    @pytest.fixture(scope="class")
    def persisted(self, tmp_path_factory):
        sim = build_care_sim()
        sim.register_person(Kind.PARTICIPANT, "part1")
        sim.settle()
        sim.publish_profile("part1", ["biobank:a", "registry:b"], True, {"s1": True, "s2": False})
        sim.settle()
        ledger = sim.nodes["hospital"].ledger
        path = tmp_path_factory.mktemp("canonical") / "chain.ledger"
        write_ledger(ledger, str(path))
        return path.read_bytes(), ledger

    @pytest.mark.parametrize("form", ["unsorted", "duplicate"])
    @pytest.mark.parametrize(
        "locate",
        [_scope, _member_orgs, _practitioners, _commitments, _study_overrides, _endorsements],
        ids=lambda f: f.__name__.lstrip("_"),
    )
    def test_non_canonical_set_rejected(self, persisted, locate, form, tmp_path):
        data, ledger = persisted
        at, members = locate(data, ledger)
        assert len(members) >= 2
        altered = members[::-1] if form == "unsorted" else [members[0]] * len(members)
        mutated = _splice(
            data, at, u32(len(members)) + b"".join(members), u32(len(members)) + b"".join(altered)
        )
        assert mutated != data
        path = tmp_path / "mutated.ledger"
        path.write_bytes(mutated)
        with pytest.raises(ChainError):
            read_ledger(str(path))

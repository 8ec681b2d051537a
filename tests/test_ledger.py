"""Hashing, signing, block construction, chain validation, audit, persistence."""

import copy
import gc
import hashlib
import json
import pickle
import random
import struct
import weakref
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

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

    # SHA-256 of the newline-terminated `to_json` lines of the stored case1
    # ledger's audit trail: unfiltered, and by subject through the index.
    @pytest.mark.parametrize(
        "subject, rows, digest",
        [
            (None, 17, "5dc420d4e9bfe16f7a8fd8a3dbed554bda5b667edddba7bbae6f4647868beb54"),
            ("p001", 12, "575ac4f6dda4a1afab56a5b788d1cb492d9d1056cd1f18f8b48a8fa863afab2a"),
        ],
        ids=["unfiltered", "p001"],
    )
    def test_audit_bytes_are_pinned(self, subject, rows, digest):
        entries = query_audit(read_ledger(str(TAMPER_SOURCE)), subject=subject)
        text = "".join(e.to_json() + "\n" for e in entries)
        assert len(entries) == rows
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def _every_payload_chain() -> LedgerState:
    """case1, one emergency request, then case2's research lines: a chain
    that carries every payload type."""
    case2 = [line for line in (FIXTURES / "case2.scn").read_text().splitlines() if not line.startswith("org add")]
    emergency = ["request nurse1@homecare hospital p001 vitals emergency", "tick 3000"]
    text = "\n".join([(FIXTURES / "case1.scn").read_text(), *emergency, *case2])
    sim, _ = run_scenario(text, SimConfig(seed=7), base_dir=FIXTURES)
    return sim.nodes["hospital"].ledger


def _count_payload_calls(monkeypatch, method: str) -> list:
    """Record the payload of every call of `method` from now on."""
    calls = []
    for cls in (Payload, *Payload.__subclasses__()):
        if method in vars(cls):
            original = vars(cls)[method]
            monkeypatch.setattr(cls, method, lambda self, f=original: calls.append(self) or f(self))
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

    def test_second_query_does_no_payload_work(self, monkeypatch, tmp_path):
        _, ledger = _two_org_chain()
        path = tmp_path / "chain.ledger"
        write_ledger(ledger, str(path))
        subjects = _count_payload_calls(monkeypatch, "audit_subject")
        details = _count_payload_calls(monkeypatch, "audit_detail")
        loaded = read_ledger(str(path))
        assert subjects == [] and details == []  # reading and appending do no index work
        first = query_audit(loaded, subject="p001")
        subjects.clear()
        assert query_audit(loaded, subject="p001") == first
        assert subjects == []
        assert details == []
        assert len(first) < len(loaded.height_index)

    def test_returned_entries_share_no_state(self):
        _, ledger = _two_org_chain()
        first = query_audit(ledger, subject="p001")
        expected = [(e, copy.deepcopy(e.detail)) for e in first]
        first.append(first[0])
        del first[:2]
        entry = query_audit(ledger, subject="p001")[0]
        detail = entry.detail
        detail["id"] = "forged"
        del detail["kind"]
        assert [(e, e.detail) for e in query_audit(ledger, subject="p001")] == expected
        with pytest.raises(FrozenInstanceError):
            entry.height = 99


class TestTxIndex:
    @staticmethod
    def _agrees_with_scan(ledger: LedgerState) -> None:
        scan = {tx.tx_id: (height, pos) for height, pos, tx in ledger.transactions()}  # last one wins
        for tx_id, (height, pos) in scan.items():
            assert ledger.find_tx(tx_id) is ledger.blocks[height].transactions[pos]
        assert ledger.find_tx(bytes(32)) is None
        assert ledger.height_index == scan

    def test_index_agrees_with_scan(self, tmp_path):
        full = _every_payload_chain()
        # A block that repeats an earlier block's transactions.
        blocks = [*full.blocks, replace(full.blocks[1], height=len(full.blocks))]
        rng = random.Random(17)
        grown, fork = LedgerState(), None
        for block in blocks:
            grown.append(block)
            if rng.random() < 0.5:
                self._agrees_with_scan(grown)
            if block.height == len(blocks) // 2:
                fork = copy.deepcopy(grown)
        self._agrees_with_scan(grown)
        for block in blocks[len(fork.blocks) :]:
            fork.append(block)
            self._agrees_with_scan(fork)
        path = tmp_path / "chain.ledger"
        write_ledger(grown, str(path))
        self._agrees_with_scan(read_ledger(str(path)))


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

    def test_a_principal_nothing_refers_to_leaves_the_table(self):
        p = PrincipalId(Kind.PATIENT, "p-unreferenced")
        assert PrincipalId(Kind.PATIENT, "p-unreferenced") is p
        assert copy.deepcopy(p) is p
        assert pickle.loads(pickle.dumps(p)) is p
        del p
        gc.collect()
        assert (Kind.PATIENT, "p-unreferenced") not in ledger_mod._PRINCIPALS

    def test_tampered_reads_leave_no_invented_principals(self, tmp_path):
        _, ledger = _two_org_chain()
        source, target = tmp_path / "chain.ledger", tmp_path / "mutated.ledger"
        write_ledger(ledger, str(source))
        data = source.read_bytes()
        read_ledger(str(source))
        gc.collect()
        live = len(ledger_mod._PRINCIPALS)
        rng = random.Random("intern-bound")
        for _ in range(300):
            mutated = bytearray(data)
            mutated[rng.randrange(len(data))] ^= rng.randrange(1, 256)
            target.write_bytes(mutated)
            try:
                read_ledger(str(target))
            except ChainError:
                pass
        gc.collect()
        # The last read is kept, so it may hold one principal its damage invented.
        assert len(ledger_mod._PRINCIPALS) <= live + 1

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
        assert "g001" in state.revoked
        assert "g001" not in sim.nodes["hospital"].policy.revoked


# Fixtures that together commit all 13 payload types, plus case1_fault (a
# node down and back, so a catch-up replay), run at seed 42. Every org's
# persisted ledger, its `careledger audit` output and the run's trace.tsv are
# pinned byte for byte (all orgs of a fixture hold the same chain): a change
# to the wire format, the audit view or the simulated protocol shows here.
GOLDEN = {
    "case1": (
        "1f97d0a05d3f19748435b39ad4f4565a4af8ec6d299a63104990fe482c832fd0",
        "2efccb2ecfdf0839323d3c3587dc236356c405c50b508d7e3b8358451ce01a92",
        "5e85cb89876b80f7b4034032f4efcf85611767fc41b8966b9e0ec592d75d3468",
    ),
    "case1_emergency": (
        "93937b228590d5e50f47bfe8bd0cc3fa45b8a4127cc8b9120dc6fd5feb084d5d",
        "57207faa147cb6785e41572c8ec34887878dd6f023d2b27c6180d9b420273cdd",
        "63cd6cbd217f07af8a6602fc396cb07c3b50e7accb64f2bbc9fad50698cd39fa",
    ),
    "case1_fault": (
        "d64d447473ebff097a8441db0f7bb8ba7f48e2bf0b1a5a16251f8e221025ac75",
        "3cb6763a96005538198ef0f167be45fbf7b37ed058ee0e23c2deab3231bf05ba",
        "a1c879a195d9ac10f4ead9358dce25e70a36c85f99248a4ec78bd89b7399dcf8",
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
        "4c0e2e29ab2be12015dfe37eb3324217cb2ffa709e12fc6d101056fc412e79d7",
        "fd968b74ae522992562d412b2f4597afd47605b801ce218844a83114dfdc3e58",
        "792d1910ebc728d0c8d2e9a86265e6b43aeed143c1fc13c7254652618f4cde8f",
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
        "40d5b93b0c3808a531f9045e0c1d1330191e5e8a1317a5524875413e216b4288",
        "aee6c610e422e09e1b8df6f91f481deea402d6492468d9b9cfb8446ed79f814d",
        "36f6e20af665a6ee3051723831efec726c4c7305f0f11e4b53cea0f98979227f",
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


# Each fixture's audit trail at seed 42 without its timing: the digest of
# every org's `careledger audit` rows, one JSON line each, less `timestamp`,
# `tx_id` and `height`. A change to when the simulator acts moves GOLDEN but
# not these; a change to what it decides or records moves them.
AUDIT_TRAILS = {
    "case1": "a4e26fac1b5768977991c0a0213119903650cbc00511f45b4f840dab2dd19a91",
    "case1_emergency": "23b300982a9e1b685cb76d32e919df046f1a8ff1af5ed3b2c8d958daeb9e78c2",
    "case1_fault": "69f4fe329d24e2f3c40b1c40dd18f0c9f4a0f861d634a80a7da9a8cc5ec338a8",
    "case2": "866673fd238d7af2c2551c67d7a3b8aac627a7d75b9992d9e352c9b2dad50ddf",
    "case2_match": "7c4b225f417c6c4368631d299eb4235b04402111c12a834c8906e67098db52e1",
    "membership": "badf0b75432ca7e517bb15b9ae61c827f351ec0650bd6cc43a20c3314d819931",
    "shred": "6300eb63a2c9c3330b6ee6ffe15b92368956e33475c68db3f59f7f01c595974b",
}


@pytest.mark.parametrize("name", sorted(AUDIT_TRAILS))
def test_fixture_audit_trails_without_timing_are_pinned(name):
    assert {path.stem for path in FIXTURES.glob("*.scn")} == AUDIT_TRAILS.keys()
    sim, _ = run_scenario((FIXTURES / f"{name}.scn").read_text(), SimConfig(seed=42), base_dir=FIXTURES)
    for org, node in sim.nodes.items():
        rows = []
        for entry in query_audit(node.ledger):
            row = json.loads(entry.to_json())
            del row["timestamp"], row["tx_id"], row["height"]
            rows.append(json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n")
        assert hashlib.sha256("".join(rows).encode()).hexdigest() == AUDIT_TRAILS[name], org


# The outcome of every trial below, as the decoder and the chain checks
# report it. Taken when the decoder was a field-by-field interpreter; a
# decoder built any other way must fail each trial with the same error class,
# rule and message. The trials mutate a checked-in copy of case1's hospital
# ledger (seed 42, as the simulator wrote it when the outcomes were taken),
# so a change to the simulated protocol does not move them.
TAMPER_OUTCOMES = "51dac766d3a45b6c081bda3a68b529650150ac28f58ad15f2caf071119382390"
TAMPER_SOURCE = Path(__file__).parent / "data" / "case1_hospital.ledger"
TAMPER_SOURCE_DIGEST = "c78a24669d4a2d778c703452d9568bcd2e3303dc7f4e90ec2d864fe47817ac32"


def _tamper_outcome(path, data: bytes) -> str:
    path.write_bytes(data)
    try:
        report = validate_chain(read_ledger(str(path)))
    except ChainError as exc:
        return f"ChainError: {exc}"
    return "undetected" if report.ok else f"{report.violation.rule}: {report.violation.message}"


class TestTamperOutcomes:
    def test_mutations_and_truncations_fail_as_pinned(self, tmp_path):
        data = TAMPER_SOURCE.read_bytes()
        assert hashlib.sha256(data).hexdigest() == TAMPER_SOURCE_DIGEST
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


class TestReadReuse:
    """`read_ledger` hands back the blocks its last successful read decoded
    for records with the same bytes, instead of decoding them again."""

    @staticmethod
    def _read(path):
        try:
            return read_ledger(str(path))
        except ChainError as exc:
            return f"ChainError: {exc}"

    def test_reuse_cannot_be_seen_in_results(self, tmp_path, monkeypatch):
        _, ledger = _two_org_chain()
        source, target = tmp_path / "chain.ledger", tmp_path / "mutated.ledger"
        write_ledger(ledger, str(source))
        data = source.read_bytes()
        rng = random.Random("read-reuse")
        reads = 0
        for i in range(200):
            clean = read_ledger(str(source))
            records = {data[a + 8 : b]: block for (a, b), block in zip(_record_spans(data), clean.blocks)}
            if i % 10:
                pos = rng.randrange(len(data))
                mutated = data[:pos] + bytes([data[pos] ^ rng.randrange(1, 256)]) + data[pos + 1 :]
            else:
                mutated = data[: rng.randrange(len(data))]
            target.write_bytes(mutated)
            kept = ledger_mod._LAST_READ
            reused = self._read(target)
            if isinstance(reused, str):
                assert ledger_mod._LAST_READ is kept
            else:  # every record but the damaged one comes from the clean read
                same = [block is records.get(mutated[a + 8 : b]) for (a, b), block in
                        zip(_record_spans(mutated), reused.blocks)]
                assert same.count(False) <= 1
                reads += 1
            monkeypatch.setattr(ledger_mod, "_LAST_READ", (b"", [], []))
            assert self._read(target) == reused
        assert reads > 50

    @staticmethod
    def _decodes(monkeypatch) -> list:
        """The start offset of every record `read_ledger` decodes from here on."""
        starts, real = [], ledger_mod._RECORD.decode

        def decode(data, start, end):
            starts.append(start)
            return real(data, start, end)

        monkeypatch.setattr(ledger_mod._RECORD, "decode", decode)
        return starts

    def test_only_changed_records_are_decoded(self, tmp_path, monkeypatch):
        _, ledger = _two_org_chain()
        source, target = tmp_path / "chain.ledger", tmp_path / "mutated.ledger"
        write_ledger(ledger, str(source))
        data = source.read_bytes()
        spans = _record_spans(data)
        decodes = self._decodes(monkeypatch)
        read_ledger(str(source))
        decodes.clear()
        assert read_ledger(str(source)) == read_ledger(str(source))
        assert decodes == []
        rng = random.Random("decode-count")
        for _ in range(60):
            start, end = rng.choice(spans)
            pos = rng.randrange(start + 8, end)  # inside a record, past its length
            read_ledger(str(source))
            target.write_bytes(data[:pos] + bytes([data[pos] ^ rng.randrange(1, 256)]) + data[pos + 1 :])
            decodes.clear()
            try:
                read_ledger(str(target))
            except ChainError:
                pass
            assert decodes == [start + 8]

    def test_a_grown_file_decodes_only_the_new_records(self, tmp_path, monkeypatch):
        _, ledger = _two_org_chain()
        path = tmp_path / "chain.ledger"
        n = len(ledger.blocks)
        decodes = self._decodes(monkeypatch)
        for k in (1, 3, n - 1):
            write_ledger(LedgerState(ledger.blocks[: n - k]), str(path))
            read_ledger(str(path))
            write_ledger(ledger, str(path))
            decodes.clear()
            assert read_ledger(str(path)) == ledger
            assert len(decodes) == k

    def test_a_run_is_reused_only_at_its_old_offset(self, tmp_path):
        _, ledger = _two_org_chain()
        path = tmp_path / "chain.ledger"
        write_ledger(ledger, str(path))
        data = path.read_bytes()
        read_ledger(str(path))
        # A shorter genesis, zeros up to record 1's old offset, then records
        # 1.. unchanged at their old offsets: the zeros are a record length.
        genesis = ledger.blocks[0]
        write_ledger(LedgerState([replace(genesis, endorsements=genesis.endorsements[:-1])]), str(path))
        head, start = path.read_bytes(), _record_spans(data)[1][0]
        path.write_bytes(head + bytes(start - len(head)) + data[start:])
        with pytest.raises(ChainError, match="unreadable block record at height 1"):
            read_ledger(str(path))

    def test_alternating_chains_read_and_validate_as_cold(self, tmp_path, monkeypatch):
        paths = [tmp_path / "a.ledger", tmp_path / "b.ledger"]
        chains = [_two_org_chain(seed=42)[1], _two_org_chain(seed=43)[1]]
        assert len(chains[0].blocks) == len(chains[1].blocks)
        for path, chain in zip(paths, chains):
            write_ledger(chain, str(path))
        empty = (b"", [], []), ([], ledger_mod.Registry(), [])
        monkeypatch.setattr(ledger_mod, "_LAST_READ", empty[0])
        monkeypatch.setattr(ledger_mod, "_VALIDATED", empty[1])
        for i in range(6):
            path = paths[i % 2]
            warm = read_ledger(str(path))
            warm_report = validate_chain(warm)
            kept = ledger_mod._LAST_READ, ledger_mod._VALIDATED
            monkeypatch.setattr(ledger_mod, "_LAST_READ", empty[0])
            monkeypatch.setattr(ledger_mod, "_VALIDATED", empty[1])
            cold = read_ledger(str(path))
            assert warm == cold == chains[i % 2]
            assert warm_report == validate_chain(cold)
            monkeypatch.setattr(ledger_mod, "_LAST_READ", kept[0])
            monkeypatch.setattr(ledger_mod, "_VALIDATED", kept[1])

    def test_the_table_holds_only_the_last_ledger_read(self, tmp_path):
        first, second = tmp_path / "first.ledger", tmp_path / "second.ledger"
        write_ledger(_two_org_chain(seed=42)[1], str(first))
        write_ledger(_two_org_chain(seed=43)[1], str(second))
        tip = weakref.ref(read_ledger(str(first)).blocks[-1])
        gc.collect()
        assert tip() is not None
        read_ledger(str(second))
        gc.collect()
        assert tip() is None


class TestValidateReuse:
    """`validate_chain` keeps the valid prefix of one chain and runs
    `check_block` only from the first block that differs from it."""

    @pytest.fixture
    def chain(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ledger_mod, "_VALIDATED", ([], ledger_mod.Registry(), []))
        _, ledger = _two_org_chain()
        path = tmp_path / "chain.ledger"
        write_ledger(ledger, str(path))
        return ledger, path

    @staticmethod
    def _checked(monkeypatch) -> list:
        """The heights `check_block` runs on from here on."""
        heights, real = [], ledger_mod.check_block

        def check_block(prev, block, registry):
            heights.append(block.height)
            return real(prev, block, registry)

        monkeypatch.setattr(ledger_mod, "check_block", check_block)
        return heights

    def test_reuse_cannot_be_seen_in_reports(self, chain, tmp_path, monkeypatch):
        _, source = chain
        data = source.read_bytes()
        ends = [end for _, end in _record_spans(data)]
        target = tmp_path / "mutated.ledger"
        rng = random.Random("validate-reuse")
        reports = 0
        for i in range(320):
            if i % 10 == 0:
                assert validate_chain(read_ledger(str(source))).ok
            if i % 10 == 5:  # a shorter chain, cut at a record boundary or anywhere
                mutated = data[: rng.choice(ends) if i % 20 == 5 else rng.randrange(len(data))]
            else:
                pos = rng.randrange(len(data))
                mutated = data[:pos] + bytes([data[pos] ^ rng.randrange(1, 256)]) + data[pos + 1 :]
            target.write_bytes(mutated)
            try:
                ledger = read_ledger(str(target))
            except ChainError:
                continue
            reused = validate_chain(ledger)
            kept = ledger_mod._VALIDATED
            monkeypatch.setattr(ledger_mod, "_VALIDATED", ([], ledger_mod.Registry(), []))
            assert validate_chain(ledger) == reused
            monkeypatch.setattr(ledger_mod, "_VALIDATED", kept)
            reports += 1
        assert reports >= 200

    def test_a_re_read_chain_is_not_checked_again(self, chain, monkeypatch):
        _, path = chain
        first = read_ledger(str(path))
        assert validate_chain(first).ok
        monkeypatch.setattr(ledger_mod, "_LAST_READ", (b"", [], []))
        again = read_ledger(str(path))
        assert not any(a is b for a, b in zip(first.blocks, again.blocks))
        checked = self._checked(monkeypatch)
        assert validate_chain(again).ok
        assert checked == []

    def test_a_re_read_chain_is_not_folded_again(self, chain, monkeypatch):
        _, path = chain
        assert validate_chain(read_ledger(str(path))).ok
        monkeypatch.setattr(ledger_mod, "_LAST_READ", (b"", [], []))
        again = read_ledger(str(path))
        folded, real = [], ledger_mod.Registry.fold
        monkeypatch.setattr(ledger_mod.Registry, "fold", lambda self, block: folded.append(block) or real(self, block))
        assert validate_chain(again).ok
        assert folded == []

    def test_registry_checkpoints_give_the_cold_report(self, monkeypatch):
        """Damage each block of a chain that registers principals in every
        block, an organization among them: the registry in force before the
        damage comes from the kept checkpoints, and the report is the one a
        walk from genesis gives."""
        sim, _ = run_scenario((FIXTURES / "membership.scn").read_text(), SimConfig(seed=42), base_dir=FIXTURES)
        ledger = sim.nodes["a"].ledger
        assert all(any(isinstance(tx.payload, RegisterPrincipal) for tx in b.transactions) for b in ledger.blocks)
        for j, block in enumerate(ledger.blocks):
            last = block.transactions[-1]
            for damaged in (
                replace(block, endorsements=block.endorsements[:-1]),
                replace(block, transactions=(*block.transactions[:-1], replace(last, signature=bytes(64)))),
            ):
                changed = LedgerState(ledger.blocks[:j] + [damaged] + ledger.blocks[j + 1 :])
                assert validate_chain(ledger).ok
                report = validate_chain(changed)
                assert report.ok or report.violation.height == j  # genesis has a spare endorsement
                monkeypatch.setattr(ledger_mod, "_VALIDATED", ([], ledger_mod.Registry(), []))
                assert validate_chain(changed) == report

    def test_a_grown_chain_checks_only_the_new_blocks(self, chain, monkeypatch):
        ledger, _ = chain
        n, k = len(ledger.blocks), 3
        short = LedgerState()
        for block in ledger.blocks[: n - k]:
            short.append(block)
        assert validate_chain(short).ok
        checked = self._checked(monkeypatch)
        assert validate_chain(ledger).ok
        assert checked == list(range(n - k, n))

    def test_a_changed_chain_checks_nothing_below_the_change(self, chain, monkeypatch):
        ledger, _ = chain
        assert validate_chain(ledger).ok
        j = len(ledger.blocks) // 2
        thin = replace(ledger.blocks[j], endorsements=ledger.blocks[j].endorsements[:1])
        changed = LedgerState()
        for block in ledger.blocks:
            changed.append(thin if block.height == j else block)
        checked = self._checked(monkeypatch)
        report = validate_chain(changed)
        assert (report.violation.height, report.violation.rule) == (j, "quorum")
        assert checked == [j]
        # The failed chain found nothing valid past the shared prefix, so the
        # longer valid prefix stays.
        assert validate_chain(ledger).ok
        assert checked == [j]


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

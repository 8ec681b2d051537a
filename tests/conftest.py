import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from careledger import SimConfig, crypto, spawn_network
from careledger import ledger as ledger_mod
from careledger.ledger import (
    Block,
    Category,
    GrantAccess,
    Kind,
    PrincipalId,
    Registry,
    Transaction,
    build_block,
    compute_tx_root,
    endorse_block,
    sign_tx,
)

FIXTURES = Path(__file__).parent.parent / "fixtures"


@pytest.fixture(autouse=True)
def _empty_read_and_validate_reuse(monkeypatch):
    """Start every test with nothing kept by `read_ledger`, `validate_chain`
    or the signature verdict memo, so no test depends on the ledgers an
    earlier one read or validated, or on the signatures it made."""
    monkeypatch.setattr(ledger_mod, "_LAST_READ", (b"", [], []))
    monkeypatch.setattr(ledger_mod, "_VALIDATED", ([], Registry(), []))
    monkeypatch.setattr(crypto, "_verify_memo", {})


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


def build_care_sim(seed: int = 42):
    """Two-org network with a plan and one vitals+medication grant.

    Grant g001: nurse1 on plan1, window [1000, 600000), committed early.
    """
    sim = spawn_network(["hospital", "homecare"], SimConfig(seed=seed))
    sim.register_practitioner("nurse1", "homecare")
    sim.settle()
    sim.register_practitioner("drjones", "hospital")
    sim.settle()
    sim.register_person(Kind.PATIENT, "p001")
    sim.settle()
    sim.register_person(Kind.PATIENT, "p002")
    sim.settle()
    sim.create_plan("plan1", "p001", ["hospital", "homecare"], [("nurse1", "homecare"), ("drjones", "hospital")])
    sim.settle()
    sim.grant_access(
        "p001", "plan1", "nurse1",
        frozenset({Category.VITALS, Category.MEDICATION}),
        1000, 600_000,
    )
    sim.settle()
    return sim


def signed(sim, author, author_org, payload, at=None):
    """`payload` as a transaction `author` signs at `at` (default: now)."""
    tx = Transaction(sim.clock if at is None else at, author, author_org, payload)
    return sign_tx(tx, sim.private_keys[author])


def sealed_by_all(sim, tx, prev):
    """A block of `tx` after `prev` that the first org proposes and every org
    endorses with the key it registered at genesis."""
    first = next(iter(sim.nodes.values()))
    block = build_block([tx], prev, first.org, sim.clock, first.policy.principals)
    keys = sorted((org, key) for org, key in sim.private_keys.items() if org.kind is Kind.ORGANIZATION)
    return replace(block, endorsements=tuple((org, endorse_block(block, key)) for org, key in keys))


def rule_breaking_block(sim):
    """A block after hospital's tip in `build_care_sim()` that passes every
    block rule, carrying every member's endorsement, but whose one
    transaction breaks a transaction rule: drjones signs a grant that names
    p001 as its grantor (`not_author`)."""
    drjones = PrincipalId(Kind.PRACTITIONER, "drjones")
    p001, nurse1 = PrincipalId(Kind.PATIENT, "p001"), PrincipalId(Kind.PRACTITIONER, "nurse1")
    grant = GrantAccess("g900", "plan1", p001, nurse1, frozenset({Category.NOTES}), 0, 600_000)
    tx = signed(sim, drjones, PrincipalId(Kind.ORGANIZATION, "hospital"), grant)
    return sealed_by_all(sim, tx, sim.nodes["hospital"].ledger.tip())


def propose(sim, proposer: str, to: str, txs, height=None) -> list:
    """Deliver to `to` a proposal of `txs` that `proposer` signed at `height`
    (default: after its tip), bypassing its block building; return the
    (kind, detail) events that followed."""
    node = sim.nodes[proposer]
    prev = node.ledger.tip()
    height = prev.height + 1 if height is None else height
    block = Block(height, prev.hash, sim.clock, node.org, compute_tx_root(txs), tuple(txs))
    message = {"type": "propose", "round_id": 0, "block": block,
               "proposer_sig": endorse_block(block, sim.private_keys[node.org])}
    since = len(sim.trace)
    sim._schedule(0, "deliver", (proposer, to, message))
    sim.tick(0)
    return [(e.kind, e.detail) for e in sim.trace[since:]]


@pytest.fixture
def care_sim():
    return build_care_sim()

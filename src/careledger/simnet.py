"""Deterministic in-process network of organization nodes.

One event loop owns everything: message deliveries with seeded latency,
endorsement rounds at block-interval boundaries, fault toggles, and session
expiry timers. The trace and every committed chain are pure functions of
(script, seed). Nodes hold only plain data (bytes keys, dataclasses, dicts),
so a whole simulation can be forked with deepcopy for prefix exploration.

Transactions meet their payload type's rules (`policy.check_tx`) at
submission, at each peer's admission, in each endorser's check of a
proposal, and when a node takes a peer's block, against the state before
the block. A proposer takes one pending transaction per fold entry; a
commit checks every pending one again and drops (traced) those that no
longer pass.

Consensus is a minimal crash-fault round: the proposer for height h is the
h-th member organization round-robin (offline proposers are skipped), every
online member checks the proposal and endorses the header digest, and the
block commits once floor(2n/3)+1 endorsements are collected. A block from
a peer, by a commit message or by replay, must pass `check_block` and then
`policy.check_rules` against the node's folds. Rounds that cannot reach
quorum abort and leave their transactions pending.

Every block a node takes goes through one `_commit`: genesis, the
proposer's own commit, a `commit` message, and replay. One `_replay` serves
a returning node (before it takes new messages), a node that receives
commits out of order, and the node of a newly registered organization: it
takes the missing blocks from a peer's chain (the highest online node's, or
for a new organization the chain of the node that committed its
registration), checks each one as a commit is checked, and stops at the
first that fails.

The chain is the only channel for what the chain holds. A node answers
each data request whose sender organization it is when it commits the
request's block; a replay answers the requests it took once it ends, so
the node decides against the state it has caught up to. Off-chain
messages carry only what the chain cannot: the records of an allowed
request, and the match fan-out's salts.

Each node keeps the protocol state it owns. The proposer keeps its round
(`Node.round`): only the endorsements it receives count. The researcher's
node keeps its matches (`Node.matches`), and drops a reply for a match it
does not run as `unknown`. The sender organization's node keeps its
decision (`Node.decisions`); the requester organization's node keeps the
session, live in `Node.sessions` and, once expired, in `Node.ended`
without its records. A node judges `records` against the request in its
own mempool or chain, and the session's requester is the request's. The
reads across nodes that remain are `_replay`'s copy of a peer's chain, the
pacemaker (the proposer's turn, one round at a time, the `online` flags)
and the observers: `request_outcome`, `match_result`, `timeline_for` and
`consent_dashboard`.
"""

from __future__ import annotations

import copy
import heapq
import json
import random
from dataclasses import dataclass, field, replace
from typing import Optional

from . import consent as consent_mod
from . import crypto
from . import policy as policy_mod
from .consent import ConsentState, Quiz
from .errors import ConsentError, PolicyError, SimError
from .exchange import OffChainStore, RequestOutcome, Session, VaultRow, build_timeline
from .ledger import (
    AccessCompleted,
    Block,
    Category,
    DataRequestRecorded,
    EmergencyAccess,
    Kind,
    LedgerState,
    PrincipalId,
    QuizAttemptRecorded,
    RegisterPrincipal,
    Transaction,
    build_block,
    check_block,
    check_proposal,
    endorse_block,
    quorum,
    sign_tx,
    verify_tx,
)
from .policy import Decision, PolicyState, Verdict, apply_block, check_rules, check_tx

# Synthetic true identities for patients and participants. These are the
# only "real" identifiers in the system; they live in org vaults, never on
# chain, and double as the privacy-scan dictionary.
SYNTHETIC_NAMES = (
    "Avery Quillfeather",
    "Benno Oostindier",
    "Carlien Vandermeulen",
    "Dorukhan Yilmazoglu",
    "Edita Kristapsone",
    "Fenna Wubbelina",
    "Gerlof Tjeerdsma",
    "Hanneke Vroomshoop",
    "Ilse Bruninkhuis",
    "Jorrit Klazenga",
    "Katarzyna Wlodarska",
    "Lubbert Heidenrijk",
    "Marijke Zuiderveld",
    "Nikolaas Wterberg",
    "Odile Franekers",
    "Pieterjan Slochteren",
    "Quirina Moddergat",
    "Roelof Bontebok",
    "Saskia Idskenhuizen",
    "Tjalling Eernewoude",
    "Ulbe Grootegast",
    "Veerle Scharnegoutum",
    "Wopke Tytsjerk",
    "Xandra Lutjebroek",
    "Ynskje Warfhuizen",
    "Zwaantje Kornhorn",
)


@dataclass(frozen=True)
class SimConfig:
    seed: int = 0
    latency_min: int = 10
    latency_max: int = 100
    block_interval: int = 1000
    session_ttl: int = 600_000

    def __post_init__(self) -> None:
        if self.latency_min > self.latency_max:
            raise SimError("latency range inverted")
        if self.block_interval <= 0:
            raise SimError("block interval must be positive")


@dataclass
class ScenarioEvent:
    seq: int
    at: int
    kind: str
    detail: dict

    def line(self) -> str:
        return "\t".join(
            (
                str(self.seq),
                str(self.at),
                self.kind,
                json.dumps(self.detail, sort_keys=True, separators=(",", ":")),
            )
        )


@dataclass
class Node:
    org: PrincipalId
    online: bool = True
    ledger: LedgerState = field(default_factory=LedgerState)
    policy: PolicyState = field(default_factory=PolicyState)
    consent: ConsentState = field(default_factory=ConsentState)
    store: OffChainStore = None  # type: ignore[assignment]
    # This node's decisions, as sender organization, by request tx id.
    decisions: dict[bytes, Decision] = field(default_factory=dict)
    # Sessions at this node, as requester organization, by id: live, and
    # ended (kept without their records).
    sessions: dict[str, Session] = field(default_factory=dict)
    ended: dict[str, Session] = field(default_factory=dict)
    # Pending transactions by id, in arrival order.
    mempool: dict[bytes, Transaction] = field(default_factory=dict)
    parked: list[tuple[str, dict]] = field(default_factory=list)
    # Off-chain agent data for principals hosted at this node.
    struggles: dict[tuple[str, str], list[list[int]]] = field(default_factory=dict)
    profile_salts: dict[str, dict[str, bytes]] = field(default_factory=dict)
    # The same salts by descriptor: descriptor -> participant id -> salt.
    descriptor_salts: dict[str, dict[str, bytes]] = field(default_factory=dict)
    # The round this node proposes, while it runs.
    round: Optional[RoundState] = None
    # The matches this node runs, by id; a finished one keeps only its sorted result.
    matches: dict[int, MatchState | tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.store is None:
            self.store = OffChainStore(self.org.id)


def _sealed(block: Block, endorsements: dict[str, bytes]) -> Block:
    """`block` carrying `endorsements` (org id -> signature), sorted by org."""
    sealed = replace(
        block,
        endorsements=tuple((PrincipalId(Kind.ORGANIZATION, org), sig) for org, sig in sorted(endorsements.items())),
    )
    sealed.__dict__["hash"] = block.hash  # endorsements are outside the header; seeds the cached_property
    return sealed


@dataclass
class RoundState:
    round_id: int
    block: Block
    needed: int
    endorsements: dict[str, bytes] = field(default_factory=dict)


def _request(node: Node, tx_id: bytes) -> Optional[DataRequestRecorded]:
    """The data request `tx_id` names in `node`'s mempool or chain, if any."""
    tx = node.mempool.get(tx_id) or node.ledger.find_tx(tx_id)
    return tx.payload if tx is not None and isinstance(tx.payload, DataRequestRecorded) else None


def _session_id(request_tx_id: bytes) -> str:
    return "s" + request_tx_id.hex()[:12]


@dataclass
class MatchState:
    descriptors: tuple[str, ...]
    # Host organization -> the participant ids it has yet to answer for; a
    # host's reply is the only one that counts for its participants.
    outstanding: dict[str, set[str]] = field(default_factory=dict)
    matched: set[str] = field(default_factory=set)


_TIMER_FNS = frozenset({"session_expiry"})


class Simulation:
    """Event-loop owner of all nodes. Single writer, deterministic."""

    def __init__(self, orgs: list[str], config: SimConfig):
        if not orgs:
            raise SimError("a network needs at least one organization")
        if len(set(orgs)) != len(orgs):
            raise SimError("duplicate organization ids")
        self.config = config
        self.clock = 0
        self.rng = random.Random(config.seed)
        self.trace: list[ScenarioEvent] = []
        self.nodes: dict[str, Node] = {}
        self.private_keys: dict[PrincipalId, bytes] = {}
        self.host_org: dict[str, str] = {}
        # Host organization -> the participant ids it hosts.
        self.hosted: dict[str, set[str]] = {}
        self.identity_rows: dict[str, VaultRow] = {}
        self.quizzes: dict[str, Quiz] = {}
        self._queue: list[tuple[int, int, str, tuple]] = []
        self._eseq = 0
        self._seq = 0
        self._causal = 0
        self._attempt_scheduled = False
        self._round_ids = 0
        self._match_ids = 0
        self._grant_seq = 0
        self._identity_seq = 0
        self._spawn(orgs)

    # -- bootstrap ----------------------------------------------------------

    def _spawn(self, orgs: list[str]) -> None:
        registrations = []
        for name in orgs:
            principal = PrincipalId(Kind.ORGANIZATION, name)
            private, public = crypto.generate_keypair(self.rng)
            self.private_keys[principal] = private
            self.nodes[name] = Node(org=principal)
            tx = sign_tx(Transaction(0, principal, principal, RegisterPrincipal(principal, public)), private)
            self._trace("tx_submitted", {"org": name, "action": tx.action, "tx": tx.tx_id.hex()})
            registrations.append(tx)
        genesis = build_block(registrations, None, registrations[0].author, 0, {})
        self._trace_proposed(genesis)
        genesis = _sealed(genesis, {name: self._endorse(node, genesis) for name, node in self.nodes.items()})
        for node in self.nodes.values():
            self._commit(node, genesis)

    # -- trace and event plumbing -------------------------------------------

    def _trace(self, kind: str, detail: dict) -> ScenarioEvent:
        event = ScenarioEvent(self._seq, self.clock, kind, detail)
        self._seq += 1
        self.trace.append(event)
        return event

    def _drop(self, node: Node, message_type: str, rule: str, sender: Optional[str] = None, **detail) -> None:
        """Trace a message of `message_type` that `node` refused under `rule`,
        naming its `sender` when given."""
        if sender is not None:
            detail["from"] = sender
        self._trace("msg_delivered", {"to": node.org.id, "type": message_type, "dropped": rule, **detail})

    def _schedule(self, delay: int, fn: str, args: tuple) -> None:
        heapq.heappush(self._queue, (self.clock + delay, self._eseq, fn, args))
        self._eseq += 1
        if fn not in _TIMER_FNS:
            self._causal += 1

    def _pop_and_run(self) -> None:
        due, _, fn, args = heapq.heappop(self._queue)
        if fn not in _TIMER_FNS:
            self._causal -= 1
        self.clock = max(self.clock, due)
        getattr(self, "_ev_" + fn)(*args)

    def settle(self) -> None:
        """Run until only expiry timers remain. The clock follows the events."""
        while self._causal > 0:
            self._pop_and_run()

    def tick(self, ms: int) -> None:
        """Advance the clock by ms, firing everything due in the window."""
        if ms < 0:
            raise SimError("cannot tick backwards")
        target = self.clock + ms
        while self._queue and self._queue[0][0] <= target:
            self._pop_and_run()
        self.clock = target

    def fork(self) -> "Simulation":
        return copy.deepcopy(self)

    def _latency(self) -> int:
        return self.rng.randint(self.config.latency_min, self.config.latency_max)

    @staticmethod
    def _msg_detail(from_org: str, to_org: str, message: dict) -> dict:
        """Trace detail of a message, shared by its send and delivery events."""
        detail = {"from": from_org, "to": to_org, "type": message["type"]}
        if message["type"] == "match_challenge":
            detail["participants"] = len(message["participants"])
        elif message["type"] == "match_response":
            detail["participants"] = len(message["participants"])
            detail["disclosed"] = sorted(d for d, column in message["salts"].items() if column)
            detail["refused"] = len(message["refused"])
        return detail

    def _send(self, from_org: str, to_org: str, message: dict) -> None:
        self._trace("msg_sent", self._msg_detail(from_org, to_org, message))
        self._schedule(self._latency(), "deliver", (from_org, to_org, message))

    # -- commit and replay -----------------------------------------------------

    def _commit(self, node: Node, block: Block, sync: bool = False) -> None:
        """Fold `block` into `node` and act on it: drop the pending txs it
        invalidated, provision a node for each organization it registers,
        and answer the data requests sent to `node`, unless a replay commits
        it (`sync`): the replay answers them once it ends."""
        node.ledger.append(block)
        apply_block(node.policy, node.consent, block)
        for tx in block.transactions:
            node.mempool.pop(tx.tx_id, None)
        detail = {"height": block.height, "org": node.org.id, "hash": block.hash.hex()}
        if sync:
            detail["sync"] = True
        self._trace("block_committed", detail)
        # Every pending tx is checked again, so every one passes the rules
        # against the node's current state.
        for tx in list(node.mempool.values()):
            violation = check_tx(node.policy, node.consent, tx)
            if violation is not None:
                del node.mempool[tx.tx_id]
                self._trace("tx_dropped", {"org": node.org.id, "tx": tx.tx_id.hex(), "rule": violation.rule})
        for tx in block.transactions:
            payload = tx.payload
            if (
                isinstance(payload, RegisterPrincipal)
                and payload.subject.kind is Kind.ORGANIZATION
                and payload.subject.id not in self.nodes
            ):
                fresh = self.nodes[payload.subject.id] = Node(org=payload.subject)
                for patient, row in self.identity_rows.items():
                    fresh.store.vault[patient] = VaultRow(row.salt, row.true_id)
                self._replay(fresh, node)
                self._trace("node_up", {"org": fresh.org.id, "provisioned": True})
        if not sync:
            self._answer_requests(node, [block])
        self._maybe_schedule_attempt()

    def _take(self, node: Node, block: Block, message_type: str, sender: Optional[str] = None) -> bool:
        """Commit a peer's `block` at `node` if it passes `check_block` and then
        `check_rules`, else trace it as a dropped `message_type` message."""
        prev = node.ledger.blocks[-1] if node.ledger.blocks else None
        violation = check_block(prev, block, node.policy.principals) or check_rules(node.policy, node.consent, block)
        if violation is not None:
            self._drop(node, message_type, violation.rule, sender)
            return False
        self._commit(node, block, sync=message_type == "sync")
        return True

    def _replay(self, node: Node, source: Node) -> None:
        """Take the blocks of `source`'s chain that `node` lacks, each checked
        as a commit is checked; the first that fails stops the replay and is
        traced as a dropped `sync` message. Then answer the data requests
        sent to `node` in the blocks it took, against the state it has
        caught up to."""
        start = node.ledger.height + 1
        for block in source.ledger.blocks[start:]:
            if not self._take(node, block, "sync", source.org.id):
                break
        self._answer_requests(node, node.ledger.blocks[start:])

    # -- consensus ------------------------------------------------------------

    def _highest_online(self) -> Optional[Node]:
        """The online node with the longest chain, the first of equals."""
        return max((n for n in self.nodes.values() if n.online), key=lambda n: n.ledger.height, default=None)

    def _quorum_basis(self) -> Optional[Node]:
        """The highest online node, when a quorum of its members is online."""
        basis = self._highest_online()
        if basis is None:
            return None
        members = basis.policy.principals.members
        online = sum(self.nodes[m.id].online for m in members)
        return basis if online >= quorum(len(members)) else None

    def _maybe_schedule_attempt(self) -> None:
        # The pacemaker runs one round at a time, whichever node proposes it.
        if self._attempt_scheduled or any(n.round is not None for n in self.nodes.values()):
            return
        if not any(n.online and n.mempool for n in self.nodes.values()) or self._quorum_basis() is None:
            return
        boundary = (self.clock // self.config.block_interval + 1) * self.config.block_interval
        self._schedule(boundary - self.clock, "consensus_attempt", ())
        self._attempt_scheduled = True

    def _ev_consensus_attempt(self) -> None:
        self._attempt_scheduled = False
        basis = self._quorum_basis()
        if basis is None:
            return
        members = basis.policy.principals.members
        height = basis.ledger.height + 1
        turn = height % len(members)
        proposer = next(self.nodes[m.id] for m in members[turn:] + members[:turn] if self.nodes[m.id].online)
        if proposer.ledger.height != basis.ledger.height or not proposer.mempool:
            # The proposer has not seen the newest commit yet (possible when
            # the block interval undercuts message latency), and proposing
            # from a stale tip could re-propose a committed height; or gossip
            # is still in flight toward it. Try again at the next boundary.
            self._maybe_schedule_attempt()
            return
        block = build_block(
            list(proposer.mempool.values()),
            proposer.ledger.tip(),
            proposer.org,
            self.clock,
            proposer.policy.principals,
        )
        self._round_ids += 1
        state = proposer.round = RoundState(self._round_ids, block, quorum(len(members)))
        self._trace_proposed(block)
        # The proposer endorses locally; the other online members by message.
        # Ed25519 is deterministic, so its endorsement doubles as its
        # signature on the proposal.
        proposer_sig = state.endorsements[proposer.org.id] = self._endorse(proposer, block)
        for member in members:
            if member.id == proposer.org.id or not self.nodes[member.id].online:
                continue
            self._send(
                proposer.org.id,
                member.id,
                {
                    "type": "propose",
                    "round_id": state.round_id,
                    "block": block,
                    "proposer_sig": proposer_sig,
                },
            )
        # A round needs a propose + endorse round trip before it can commit;
        # the timeout must cover that even when the interval undercuts it.
        patience = max(self.config.block_interval, 3 * self.config.latency_max)
        self._schedule(patience, "round_timeout", (proposer.org.id, state.round_id))
        self._check_round_commit(proposer)

    def _ev_round_timeout(self, org_id: str, round_id: int) -> None:
        node = self.nodes[org_id]
        if node.round is None or node.round.round_id != round_id:
            return
        node.round = None
        self._maybe_schedule_attempt()

    def _trace_proposed(self, block: Block) -> None:
        txs, proposer = len(block.transactions), block.proposer.id
        self._trace("block_proposed", {"height": block.height, "proposer": proposer, "txs": txs, "hash": block.hash.hex()})

    def _endorse(self, node: Node, block: Block) -> bytes:
        self._trace("block_endorsed", {"height": block.height, "org": node.org.id})
        return endorse_block(block, self.private_keys[node.org])

    def _check_round_commit(self, node: Node) -> None:
        state = node.round
        if state is None or len(state.endorsements) < state.needed:
            return
        node.round = None
        final = _sealed(state.block, state.endorsements)
        members = [m.id for m in node.policy.principals.members]
        self._commit(node, final)
        for org_id in members:
            peer = self.nodes.get(org_id)
            if peer is not None and peer is not node and peer.online:
                self._send(node.org.id, org_id, {"type": "commit", "block": final})

    # -- message handlers -------------------------------------------------------

    def _ev_deliver(self, from_org: str, to_org: str, message: dict) -> None:
        node = self.nodes[to_org]
        if not node.online:
            node.parked.append((from_org, message))
            return
        self._trace("msg_delivered", self._msg_detail(from_org, to_org, message))
        handler = getattr(self, "_on_" + message["type"], None)
        if handler is None:
            self._drop(node, message["type"], "malformed", from_org)
        else:
            handler(node, from_org, message)

    def _on_tx(self, node: Node, from_org: str, message: dict) -> None:
        tx: Transaction = message["tx"]
        if tx.tx_id in node.mempool or node.ledger.find_tx(tx.tx_id) is not None:
            return
        verified = verify_tx(tx, node.policy.principals)
        dropped = getattr(check_tx(node.policy, node.consent, tx), "rule", None) if verified else "signature"
        if dropped is not None:
            self._drop(node, "tx", dropped, tx=tx.tx_id.hex())
            return
        node.mempool[tx.tx_id] = tx
        self._maybe_schedule_attempt()

    def _on_propose(self, node: Node, from_org: str, message: dict) -> None:
        block: Block = message["block"]
        proposer_key = node.policy.principals.get(block.proposer)
        if proposer_key is None or not crypto.verify(
            proposer_key, message["proposer_sig"], block.hash
        ):
            dropped = "signature"
        else:
            violation = check_proposal(node.ledger.tip(), block, node.policy.principals)
            if violation is None:  # the pending txs passed already
                unchecked = (tx for tx in block.transactions if tx.tx_id not in node.mempool)
                violation = next(filter(None, (check_tx(node.policy, node.consent, tx) for tx in unchecked)), None)
            dropped = getattr(violation, "rule", None)
        if dropped is not None:
            self._drop(node, "propose", dropped)
            return
        self._send(
            node.org.id,
            from_org,
            {"type": "endorse", "round_id": message["round_id"], "org": node.org, "sig": self._endorse(node, block)},
        )

    def _on_endorse(self, node: Node, from_org: str, message: dict) -> None:
        state = node.round
        if state is None or state.round_id != message["round_id"]:
            return
        org: PrincipalId = message["org"]
        key = node.policy.principals.get(org)
        if key is None or not crypto.verify(key, message["sig"], state.block.hash):
            dropped = "signature"
        elif org not in node.policy.principals.members:
            dropped = "endorsement"  # the block rule a non-member's endorsement breaks
        else:
            state.endorsements[org.id] = message["sig"]
            self._check_round_commit(node)
            return
        self._drop(node, "endorse", dropped)

    def _on_commit(self, node: Node, from_org: str, message: dict) -> None:
        block: Block = message["block"]
        if block.height > node.ledger.height + 1:
            # Commits can arrive out of order when latency exceeds the block
            # interval; pull the missing blocks from a peer instead of
            # dropping this one.
            self._replay(node, self._highest_online())
        if block.height == node.ledger.height + 1:
            self._take(node, block, "commit")
        else:
            self._drop(node, "commit", "height")

    # -- transaction submission ---------------------------------------------

    def _host_node(self, principal: PrincipalId) -> Node:
        org_id = self.host_org.get(principal.id)
        if org_id is None:
            raise PolicyError(f"unknown principal {principal}")
        return self.nodes[org_id]

    def _submit_tx(self, via: Node, tx: Transaction) -> Transaction:
        if not via.online:
            raise SimError(f"node {via.org.id} is offline; cannot submit")
        violation = check_tx(via.policy, via.consent, tx)
        if violation is not None:
            raise violation
        result = verify_tx(tx, via.policy.principals)
        if not result:
            raise SimError(f"refusing unverifiable transaction: {result.reason}")
        self._trace("tx_submitted", {"org": via.org.id, "action": tx.action, "tx": tx.tx_id.hex()})
        via.mempool[tx.tx_id] = tx
        for name in self.nodes:
            if name != via.org.id:
                self._send(via.org.id, name, {"type": "tx", "tx": tx})
        self._maybe_schedule_attempt()
        return tx

    def _sign_and_submit(self, via: Node, author: PrincipalId, author_org: PrincipalId, payload) -> Transaction:
        tx = Transaction(self.clock, author, author_org, payload)
        return self._submit_tx(via, sign_tx(tx, self.private_keys[author]))

    def _register(self, via: Node, author_org: PrincipalId, payload: RegisterPrincipal, key: bytes) -> Transaction:
        """Submit a registration the subject's new key signs; keep the key once it is accepted.

        A registration of the same id accepted earlier, even one not yet
        committed, refuses this one: its key is the one that will commit."""
        if payload.subject in self.private_keys:
            raise PolicyError.refuse("duplicate", f"duplicate id: {payload.subject} is already registered")
        tx = self._submit_tx(via, sign_tx(Transaction(self.clock, payload.subject, author_org, payload), key))
        self.private_keys[payload.subject] = key
        return tx

    def _entry_node(self) -> Node:
        for name in self.nodes:
            if self.nodes[name].online:
                return self.nodes[name]
        raise SimError("no online node to accept the submission")

    # -- registration operations ----------------------------------------------

    def register_organization(self, org_id: str) -> Transaction:
        via = self._entry_node()
        private, public = crypto.generate_keypair(self.rng)
        payload = policy_mod.make_registration(Kind.ORGANIZATION, org_id, public)
        return self._register(via, payload.subject, payload, private)

    def register_practitioner(self, practitioner_id: str, org_id: str) -> Transaction:
        org = PrincipalId(Kind.ORGANIZATION, org_id)
        node = self.nodes.get(org_id)
        if node is None:
            raise PolicyError(f"unknown organization {org_id}")
        private, public = crypto.generate_keypair(self.rng)
        payload = policy_mod.make_registration(Kind.PRACTITIONER, practitioner_id, public, org_binding=org)
        tx = self._register(node, org, payload, private)
        self.host_org[practitioner_id] = org_id
        return tx

    def register_person(self, kind: Kind, person_id: str) -> Transaction:
        """Register a patient, researcher, or participant at the first org node."""
        via = self._entry_node()
        private, public = crypto.generate_keypair(self.rng)
        row = None
        if kind in (Kind.PATIENT, Kind.PARTICIPANT):
            true_id = SYNTHETIC_NAMES[self._identity_seq % len(SYNTHETIC_NAMES)]
            if self._identity_seq >= len(SYNTHETIC_NAMES):
                true_id = f"{true_id} {self._identity_seq // len(SYNTHETIC_NAMES) + 1}"
            row = VaultRow(crypto.new_salt(self.rng), true_id)
        commitment = crypto.commitment(row.salt, row.true_id) if row else None
        payload = policy_mod.make_registration(kind, person_id, public, identity_commitment=commitment)
        tx = self._register(via, via.org, payload, private)
        self.host_org[person_id] = via.org.id
        if kind is Kind.PARTICIPANT:
            self.hosted.setdefault(via.org.id, set()).add(person_id)
        if row is not None:
            self._identity_seq += 1
            self.identity_rows[person_id] = row
            for node in self.nodes.values():
                node.store.vault[person_id] = VaultRow(row.salt, row.true_id)
        return tx

    # -- care-plan operations --------------------------------------------------

    def create_plan(
        self,
        plan_id: str,
        patient_id: str,
        member_orgs: list[str],
        practitioners: list[tuple[str, str]],
    ) -> Transaction:
        patient = PrincipalId(Kind.PATIENT, patient_id)
        via = self._host_node(patient)
        payload = policy_mod.make_plan(
            plan_id,
            patient,
            frozenset(PrincipalId(Kind.ORGANIZATION, o) for o in member_orgs),
            frozenset(
                (PrincipalId(Kind.PRACTITIONER, p), PrincipalId(Kind.ORGANIZATION, o))
                for p, o in practitioners
            ),
        )
        return self._sign_and_submit(via, patient, via.org, payload)

    def next_grant_id(self) -> str:
        self._grant_seq += 1
        return f"g{self._grant_seq:03d}"

    def grant_access(
        self,
        patient_id: str,
        plan_id: str,
        grantee_id: str,
        scope: frozenset[Category],
        valid_from: int,
        valid_until: int,
        grant_id: Optional[str] = None,
    ) -> tuple[str, Transaction]:
        patient = PrincipalId(Kind.PATIENT, patient_id)
        via = self._host_node(patient)
        gid = grant_id or self.next_grant_id()
        payload = policy_mod.make_grant(
            gid,
            plan_id,
            patient,
            PrincipalId(Kind.PRACTITIONER, grantee_id),
            scope,
            valid_from,
            valid_until,
        )
        return gid, self._sign_and_submit(via, patient, via.org, payload)

    def revoke_access(self, patient_id: str, grant_id: str) -> Transaction:
        patient = PrincipalId(Kind.PATIENT, patient_id)
        via = self._host_node(patient)
        payload = policy_mod.make_revocation(patient, grant_id)
        return self._sign_and_submit(via, patient, via.org, payload)

    # -- record exchange ---------------------------------------------------------

    def add_record(
        self, org_id: str, patient_id: str, category: Category, measured_at: int, value: str, author: str
    ) -> None:
        node = self.nodes.get(org_id)
        if node is None:
            raise SimError(f"unknown organization {org_id}")
        node.store.add_record(patient_id, category, measured_at, value, author)

    def start_request(
        self,
        requester: PrincipalId,
        requester_org: PrincipalId,
        sender_org: PrincipalId,
        patient: PrincipalId,
        category: Category,
        emergency: bool = False,
    ) -> bytes:
        if not isinstance(category, Category):
            raise SimError(f"malformed category {category!r}")
        node = self.nodes.get(requester_org.id)
        if node is None or not node.online:
            raise SimError(f"requester node {requester_org.id} is not available")
        payload = DataRequestRecorded(
            requester, requester_org, sender_org, patient, category, emergency
        )
        return self._sign_and_submit(node, requester, requester_org, payload).tx_id

    def _answer_requests(self, node: Node, blocks: list[Block]) -> None:
        """Answer each data request in the committed `blocks` whose sender
        organization `node` is. Each node commits a block once, so it answers
        each request once."""
        for tx in (tx for block in blocks for tx in block.transactions):
            if isinstance(tx.payload, DataRequestRecorded) and tx.payload.sender_org == node.org:
                self._answer_request(node, tx.tx_id, tx.payload)

    def _answer_request(self, node: Node, request_tx_id: bytes, payload: DataRequestRecorded) -> None:
        """Decide the request against `node`'s state, record the decision on
        chain and, when it allows, send the records to the requester."""
        decision = policy_mod.evaluate_request(
            node.policy,
            payload.requester,
            payload.requester_org,
            payload.sender_org,
            payload.patient,
            payload.category,
            at=self.clock,
            emergency=payload.emergency,
        )
        node.decisions[request_tx_id] = decision
        detail = {
            "org": node.org.id,
            "request": request_tx_id.hex(),
            "verdict": decision.verdict.value,
            "reason": decision.reason.value,
            "emergency": payload.emergency,
        }
        if decision.grant_id is not None:
            detail["grant"] = decision.grant_id
        self._trace("decision", detail)

        if decision.verdict is Verdict.ALLOW_EMERGENCY:
            emergency_payload = EmergencyAccess(
                request_tx_id, payload.requester, payload.patient, payload.category
            )
            self._sign_and_submit(node, node.org, node.org, emergency_payload)
        records = []
        if decision.allowed:
            records = node.store.fetch(payload.patient.id, payload.category)
        completion = AccessCompleted(
            request_tx_id,
            payload.patient,
            decision.verdict.value,
            decision.reason.value,
            len(records),
        )
        self._sign_and_submit(node, node.org, node.org, completion)
        if decision.allowed:
            self._send(
                node.org.id,
                payload.requester_org.id,
                {
                    "type": "records",
                    "request_tx_id": request_tx_id,
                    "records": list(records),
                },
            )

    def _on_records(self, node: Node, from_org: str, message: dict) -> None:
        """Open a session for the request's requester, when `node` holds the
        request, is its requester organization and the records come from its
        sender organization; drop any other `records` message."""
        request_tx_id: bytes = message["request_tx_id"]
        request = _request(node, request_tx_id)
        if request is None or (node.org, from_org) != (request.requester_org, request.sender_org.id):
            self._drop(node, "records", "not_author" if request else "unknown", from_org)
            return
        session_id = _session_id(request_tx_id)
        session = Session(
            session_id=session_id,
            request_tx=request_tx_id,
            requester=request.requester,
            records=list(message["records"]),
            opened_at=self.clock,
            ttl=self.config.session_ttl,
        )
        node.sessions[session_id] = session
        node.ended.pop(session_id, None)
        self._trace(
            "session_opened",
            {
                "org": node.org.id,
                "session": session_id,
                "request": request_tx_id.hex(),
                "records": len(session.records),
            },
        )
        self._schedule(self.config.session_ttl, "session_expiry", (node.org.id, session_id))

    def _ev_session_expiry(self, org_id: str, session_id: str) -> None:
        node = self.nodes[org_id]
        session = node.sessions.get(session_id)
        if session is None or not session.expired(self.clock):
            return
        node.ended[session_id] = replace(node.sessions.pop(session_id), records=[])
        self._trace("session_expired", {"org": org_id, "session": session_id})

    def request_outcome(self, request_tx_id: bytes) -> RequestOutcome:
        """The decision at the request's sender organization and the live
        session at its requester organization, for a data request any node
        holds."""
        request = next(filter(None, (_request(node, request_tx_id) for node in self.nodes.values())), None)
        if request is None:
            raise SimError("unknown request")
        decision = self.nodes[request.sender_org.id].decisions.get(request_tx_id)
        session = self.nodes[request.requester_org.id].sessions.get(_session_id(request_tx_id))
        return RequestOutcome(request_tx_id, decision, session)

    def timeline_for(
        self, practitioner_id: str, window: Optional[tuple[int, int]] = None
    ):
        """Merged view over the practitioner's unexpired sessions."""
        sessions = []
        for node in self.nodes.values():
            for session in node.sessions.values():
                if session.requester.id == practitioner_id and not session.expired(self.clock):
                    sessions.append(session)
        return build_timeline(sessions, window)

    def shred(self, org_id: str, patient_id: str) -> None:
        node = self.nodes.get(org_id)
        if node is None:
            raise SimError(f"unknown organization {org_id}")
        node.store.shred(patient_id)

    # -- consent operations -----------------------------------------------------

    def register_study(self, researcher_id: str, study_id: str, quiz: Quiz) -> Transaction:
        researcher = PrincipalId(Kind.RESEARCHER, researcher_id)
        via = self._host_node(researcher)
        payload = consent_mod.make_study_registration((researcher,), study_id, quiz)
        tx = self._sign_and_submit(via, researcher, via.org, payload)
        self.quizzes[study_id] = quiz
        return tx

    def invite(self, researcher_id: str, study_id: str, participant_id: str) -> Transaction:
        researcher = PrincipalId(Kind.RESEARCHER, researcher_id)
        participant = PrincipalId(Kind.PARTICIPANT, participant_id)
        via = self._host_node(researcher)
        payload = consent_mod.make_invitation(study_id, participant)
        return self._sign_and_submit(via, researcher, via.org, payload)

    def submit_attempt(self, participant_id: str, study_id: str, answers: list[int]) -> tuple[int, bool, Transaction]:
        participant = PrincipalId(Kind.PARTICIPANT, participant_id)
        via = self._host_node(participant)
        quiz = self.quizzes.get(study_id)
        if quiz is None:
            raise ConsentError(f"unknown study {study_id}")
        # An attempt is numbered from the committed fold, so one at a time.
        pending = (tx.payload for tx in via.mempool.values())
        if any(isinstance(q, QuizAttemptRecorded) and (q.study_id, q.participant) == (study_id, participant) for q in pending):
            raise ConsentError.refuse("duplicate", f"an attempt of {participant_id} at {study_id} is still pending")
        payload, wrong = consent_mod.make_attempt(via.consent, participant, study_id, quiz, answers)
        tx = self._sign_and_submit(via, participant, via.org, payload)
        via.struggles.setdefault((study_id, participant_id), []).append(wrong)
        return payload.mistakes, payload.passed, tx

    def sign_consent(self, participant_id: str, study_id: str) -> Transaction:
        participant = PrincipalId(Kind.PARTICIPANT, participant_id)
        via = self._host_node(participant)
        payload = consent_mod.make_signature(
            via.consent, participant, study_id, self.private_keys[participant]
        )
        return self._sign_and_submit(via, participant, via.org, payload)

    def withdraw_consent(self, participant_id: str, study_id: str) -> Transaction:
        participant = PrincipalId(Kind.PARTICIPANT, participant_id)
        via = self._host_node(participant)
        payload = consent_mod.make_withdrawal(participant, study_id)
        return self._sign_and_submit(via, participant, via.org, payload)

    def publish_profile(
        self,
        participant_id: str,
        descriptors: list[str],
        discoverable: bool,
        study_overrides: Optional[dict[str, bool]] = None,
    ) -> Transaction:
        participant = PrincipalId(Kind.PARTICIPANT, participant_id)
        via = self._host_node(participant)
        salts = {d: crypto.new_salt(self.rng) for d in descriptors}
        payload = consent_mod.make_profile(
            participant, descriptors, salts, discoverable, study_overrides
        )
        tx = self._sign_and_submit(via, participant, via.org, payload)
        for d in via.profile_salts.get(participant_id, ()):
            del via.descriptor_salts[d][participant_id]
        via.profile_salts[participant_id] = salts
        for d, salt in salts.items():
            via.descriptor_salts.setdefault(d, {})[participant_id] = salt
        return tx

    def consent_dashboard(self, researcher_id: str, study_id: str):
        researcher = PrincipalId(Kind.RESEARCHER, researcher_id)
        via = self._host_node(researcher)
        struggles: dict[str, list[list[int]]] = {}
        for node in self.nodes.values():
            for (sid, pid), detail in node.struggles.items():
                if sid == study_id:
                    struggles[pid] = detail
        return consent_mod.consent_status(via.consent, researcher, study_id, struggles)

    # -- selective-disclosure matching ------------------------------------------

    def start_match(
        self, researcher_id: str, descriptors: list[str], study: Optional[str] = None
    ) -> int:
        if not descriptors:
            raise ConsentError("empty match query")
        researcher = PrincipalId(Kind.RESEARCHER, researcher_id)
        via = self._host_node(researcher)
        if researcher not in via.policy.principals:
            raise ConsentError(f"unknown researcher {researcher_id}")
        if not via.online:
            raise SimError(f"node {via.org.id} is offline; cannot start a match")
        self._match_ids += 1
        match_id = self._match_ids
        state = MatchState(tuple(descriptors))
        visible = via.consent.visible(study)
        for host, ids in self.hosted.items():
            if named := ids & visible:
                state.outstanding[host] = named
        via.matches[match_id] = state if state.outstanding else ()
        # One challenge per host organization, naming its participants (a
        # copy: the pending set shrinks as replies arrive).
        for host in sorted(state.outstanding):
            self._send(
                via.org.id,
                host,
                {
                    "type": "match_challenge",
                    "match_id": match_id,
                    "participants": frozenset(state.outstanding[host]),
                    "descriptors": state.descriptors,
                    "study": study,
                    "reply_to": via.org.id,
                },
            )
        return match_id

    def _on_match_challenge(self, node: Node, from_org: str, message: dict) -> None:
        """Answer with the named participants `node` refuses (it does not see
        them discoverable) and, per queried descriptor, the salts of the
        others that hold it. Selective disclosure: only salts of queried
        descriptors ever cross the wire."""
        named = frozenset(message["participants"])
        ok = node.consent.visible(message["study"]) & named
        columns = {}
        for d in message["descriptors"]:
            holders = node.descriptor_salts.get(d, {})
            columns[d] = {pid: holders[pid] for pid in ok & holders.keys()}
        self._send(
            node.org.id,
            message["reply_to"],
            {
                "type": "match_response",
                "match_id": message["match_id"],
                "participants": named,
                "refused": named - ok,
                "salts": columns,
            },
        )

    def _on_match_response(self, node: Node, from_org: str, message: dict) -> None:
        """Check a host's reply against the participants' commitments: a
        participant matches when every queried descriptor is proven. Only a
        participant that is not refused and has a salt in every queried
        column is hashed, and its check stops at the first salt that fails.
        A reply counts only for participants still pending at its sender; one
        naming a participant pending at another host is traced as
        `not_author`, and that participant stays pending. A reply for a match
        `node` does not run is traced as `unknown`."""
        state = node.matches.get(message["match_id"])
        if not isinstance(state, MatchState):
            if state is None:
                self._drop(node, "match_response", "unknown", from_org)
            return
        named = frozenset(message["participants"])
        forged = any(not ids.isdisjoint(named) for host, ids in state.outstanding.items() if host != from_org)
        pending = state.outstanding.get(from_org, set())
        mine = pending & named
        pending -= mine
        if not pending:
            state.outstanding.pop(from_org, None)
        columns = message["salts"]
        candidates = mine.difference(message["refused"])
        for d in state.descriptors:
            candidates &= columns.get(d, {}).keys()
        for pid in candidates:
            profile = node.consent.profiles.get(pid)
            if profile is not None and all(
                consent_mod.verify_disclosure(profile, d, columns[d][pid]) for d in state.descriptors
            ):
                state.matched.add(pid)
        if not state.outstanding:
            node.matches[message["match_id"]] = tuple(sorted(state.matched))
        if forged:
            self._drop(node, "match_response", "not_author", from_org)

    def match_result(self, match_id: int) -> list[str]:
        state = next((n.matches[match_id] for n in self.nodes.values() if match_id in n.matches), None)
        if state is None:
            raise SimError("unknown match")
        if isinstance(state, MatchState):
            raise SimError("match still outstanding")
        return list(state)

    # -- faults ------------------------------------------------------------------

    def inject_fault(self, org_id: str, kind: str, at: Optional[int] = None) -> None:
        if org_id not in self.nodes:
            raise SimError(f"unknown organization {org_id}")
        if kind not in ("down", "up"):
            raise SimError(f"unknown fault kind {kind!r}")
        if at is None:
            self._ev_fault(org_id, kind)
        else:
            if at < self.clock:
                raise SimError("cannot schedule a fault in the past")
            self._schedule(at - self.clock, "fault", (org_id, kind))

    def _ev_fault(self, org_id: str, kind: str) -> None:
        node = self.nodes[org_id]
        if kind == "down":
            if not node.online:
                raise SimError(f"{org_id} is already down")
            node.online = False
            self._trace("node_down", {"org": org_id})
            return
        if node.online:
            raise SimError(f"{org_id} is already up")
        node.online = True
        self._trace("node_up", {"org": org_id})
        self._replay(node, self._highest_online())
        parked, node.parked = node.parked, []
        for from_org, message in parked:
            self._schedule(self._latency(), "deliver", (from_org, org_id, message))
        self._maybe_schedule_attempt()

    # -- invariants and snapshots ---------------------------------------------

    def committed_chains(self) -> dict[str, list[bytes]]:
        return {
            name: [b.hash for b in node.ledger.blocks] for name, node in self.nodes.items()
        }

    def assert_prefix_consistent(self) -> None:
        chains = list(self.committed_chains().items())
        for i in range(len(chains)):
            for j in range(i + 1, len(chains)):
                a, b = chains[i][1], chains[j][1]
                shorter = min(len(a), len(b))
                if a[:shorter] != b[:shorter]:
                    raise SimError(
                        f"chain divergence between {chains[i][0]} and {chains[j][0]}"
                    )

    def trace_lines(self) -> list[str]:
        return [event.line() for event in self.trace]


def spawn_network(orgs: list[str], config: Optional[SimConfig] = None) -> Simulation:
    return Simulation(orgs, config or SimConfig())

"""Smart-contract state: principals, treatment plans, grants, and request decisions.

State is a pure fold over committed transactions; `evaluate_request` reads
that state and nothing else, so the same committed prefix always yields the
same decision on every node. `PolicyState.check` holds the rules each
transaction must meet before it is applied; the operation builders only
build payloads, and signing and consensus are the simulator's job.

Window semantics are half-open: a grant admits timestamps in
[valid_from, valid_until), further capped by the revocation timestamp.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from .errors import PolicyError
from .ledger import (
    Category,
    CreatePlan,
    DataRequestRecorded,
    EmergencyAccess,
    GrantAccess,
    Kind,
    PrincipalId,
    RegisterPrincipal,
    Registry,
    RevokeAccess,
    Transaction,
)


class Verdict(str, enum.Enum):
    ALLOW = "allow"
    DENY = "deny"
    ALLOW_EMERGENCY = "allow_emergency"


class Reason(str, enum.Enum):
    VALID_GRANT = "valid_grant"
    NO_GRANT = "no_grant"
    EXPIRED = "expired"
    REVOKED = "revoked"
    OUT_OF_SCOPE = "out_of_scope"
    NOT_PLAN_MEMBER = "not_plan_member"
    UNKNOWN_PRINCIPAL = "unknown_principal"
    EMERGENCY_OVERRIDE = "emergency_override"


@dataclass(frozen=True)
class Decision:
    verdict: Verdict
    reason: Reason
    grant_id: Optional[str] = None

    def __post_init__(self) -> None:
        if self.verdict is Verdict.ALLOW and self.grant_id is None:
            raise PolicyError("allow decisions must name a grant")
        if self.verdict is Verdict.ALLOW_EMERGENCY and self.reason is not Reason.EMERGENCY_OVERRIDE:
            raise PolicyError("emergency allows must carry the emergency_override reason")

    @property
    def allowed(self) -> bool:
        return self.verdict in (Verdict.ALLOW, Verdict.ALLOW_EMERGENCY)


@dataclass(frozen=True)
class TreatmentPlan:
    plan_id: str
    patient: PrincipalId
    member_orgs: frozenset[PrincipalId]
    practitioners: frozenset[tuple[PrincipalId, PrincipalId]]


@dataclass
class GrantRecord:
    grant_id: str
    plan_id: str
    grantor: PrincipalId
    grantee: PrincipalId
    scope: frozenset[Category]
    valid_from: int
    valid_until: int
    order: tuple[int, int]  # (height, position) of the GrantAccess tx
    revoked_at: Optional[int] = None


@dataclass
class PolicyState:
    """Fold of registration, plan, grant, and revocation transactions.

    `patient_plans` and `pair_grants` index `plans` and `grants` by patient
    and by (grantor, grantee), in commit order. They hold the same objects,
    so a revocation shows in both, and a decision reads only the entries of
    the principals it names, whatever the size of the state.
    """

    principals: Registry = field(default_factory=Registry)
    practitioner_orgs: dict[str, PrincipalId] = field(default_factory=dict)
    plans: dict[str, TreatmentPlan] = field(default_factory=dict)
    grants: dict[str, GrantRecord] = field(default_factory=dict)
    patient_plans: dict[PrincipalId, list[TreatmentPlan]] = field(
        default_factory=dict, init=False, repr=False
    )
    pair_grants: dict[tuple[PrincipalId, PrincipalId], list[GrantRecord]] = field(
        default_factory=dict, init=False, repr=False
    )

    def check(self, tx: Transaction) -> Optional[PolicyError]:
        """None when `tx` meets its payload type's rules against this state,
        else the refusal naming the broken rule; other folds' types pass."""
        p = tx.payload
        if isinstance(p, RegisterPrincipal):
            if tx.author != p.subject:
                return _refuse("not_author", f"{tx.author} cannot register {p.subject}")
            if p.subject in self.principals:
                return _refuse("duplicate", f"duplicate id: {p.subject} is already registered")
            if p.subject.kind is Kind.PRACTITIONER and p.org_binding is None:
                return _refuse("malformed", "practitioner registration requires an organization")
            if p.org_binding is not None:
                return self._unknown((p.org_binding, Kind.ORGANIZATION))
        elif isinstance(p, CreatePlan):
            if tx.author != p.patient:
                return _refuse("not_author", f"{tx.author} cannot create a plan for {p.patient}")
            if p.plan_id in self.plans:
                return _refuse("duplicate", f"duplicate plan {p.plan_id}")
            if not p.member_orgs:
                return _refuse("malformed", "a plan needs at least one member organization")
            unknown = self._unknown(
                (p.patient, Kind.PATIENT),
                *((org, Kind.ORGANIZATION) for org in p.member_orgs),
                *((prac, Kind.PRACTITIONER) for prac, _ in p.practitioners),
            )
            if unknown is not None:
                return unknown
            for prac, org in p.practitioners:
                if org not in p.member_orgs or self.practitioner_orgs.get(prac.id) != org:
                    return _refuse("malformed", f"{prac.id} is not a practitioner of member organization {org.id}")
        elif isinstance(p, GrantAccess):
            if tx.author != p.grantor:
                return _refuse("not_author", f"{tx.author.id} is not the grantor {p.grantor.id}")
            if p.grant_id in self.grants:
                return _refuse("duplicate", f"duplicate grant {p.grant_id}")
            plan = self.plans.get(p.plan_id)
            if plan is None:
                return _refuse("unknown", f"unknown plan {p.plan_id}")
            if p.grantor != plan.patient:
                return _refuse("not_author", f"grantor {p.grantor.id} is not the plan's patient")
            if p.grantee not in {prac for prac, _ in plan.practitioners}:
                return _refuse("malformed", f"grantee {p.grantee.id} is not bound to plan {p.plan_id}")
            if not p.scope:
                return _refuse("malformed", "grant scope is empty")
            if not p.valid_from < p.valid_until:
                window = f"[{p.valid_from}, {p.valid_until})"
                return _refuse("malformed", f"grant window is empty or inverted: {window}")
        elif isinstance(p, RevokeAccess):
            if tx.author != p.patient:
                return _refuse("not_author", f"{tx.author.id} cannot revoke as {p.patient.id}")
            grant = self.grants.get(p.grant_id)
            if grant is None:
                return _refuse("unknown", f"unknown grant {p.grant_id}")
            if grant.revoked_at is not None:
                return _refuse("duplicate", f"grant {p.grant_id} already revoked")
            if grant.grantor != p.patient:
                return _refuse("not_author", f"{p.patient.id} did not issue grant {p.grant_id}")
        elif isinstance(p, DataRequestRecorded):
            if tx.author != p.requester or tx.author_org != p.requester_org:
                return _refuse("not_author", f"{tx.author.id} cannot request for {p.requester.id}")
            return self._unknown(
                (p.requester, Kind.PRACTITIONER),
                (p.requester_org, Kind.ORGANIZATION),
                (p.sender_org, Kind.ORGANIZATION),
                (p.patient, Kind.PATIENT),
            )
        elif isinstance(p, EmergencyAccess):
            return self._check_emergency(p)
        return None

    def _unknown(self, *named: tuple[PrincipalId, Kind]) -> Optional[PolicyError]:
        """The refusal of the first principal not registered as its kind."""
        for principal, kind in named:
            if principal.kind is not kind or principal not in self.principals:
                return _refuse("unknown", f"unknown {kind.value} {principal.id}")
        return None

    def _check_emergency(self, p: EmergencyAccess) -> Optional[PolicyError]:
        # The payload names no authoring organization, so no author rule.
        unknown = self._unknown((p.requester, Kind.PRACTITIONER), (p.patient, Kind.PATIENT))
        if unknown is not None:
            return unknown
        if not _practitioner_in_any_plan(self, p.requester, p.patient):
            return _refuse("not_author", f"{p.requester.id} is not a practitioner in any plan of {p.patient.id}")
        return None

    def apply(self, tx: Transaction, height: int, position: int) -> None:
        """Fold a transaction that passed `check` against this state."""
        p = tx.payload
        if isinstance(p, RegisterPrincipal):
            if self.principals.register(p) and p.subject.kind is Kind.PRACTITIONER:
                self.practitioner_orgs[p.subject.id] = p.org_binding
        elif isinstance(p, CreatePlan):
            plan = TreatmentPlan(p.plan_id, p.patient, p.member_orgs, p.practitioners)
            self.plans[p.plan_id] = plan
            self.patient_plans.setdefault(p.patient, []).append(plan)
        elif isinstance(p, GrantAccess):
            grant = GrantRecord(
                p.grant_id,
                p.plan_id,
                p.grantor,
                p.grantee,
                p.scope,
                p.valid_from,
                p.valid_until,
                order=(height, position),
            )
            self.grants[p.grant_id] = grant
            self.pair_grants.setdefault((p.grantor, p.grantee), []).append(grant)
        elif isinstance(p, RevokeAccess):
            self.grants[p.grant_id].revoked_at = tx.timestamp

    # -- lookups -----------------------------------------------------------

    def plans_of(self, patient: PrincipalId) -> list[TreatmentPlan]:
        """The patient's plans in commit order (the index's own list)."""
        return self.patient_plans.get(patient, [])


_refuse = PolicyError.refuse


# ---------------------------------------------------------------------------
# Operation builders: payloads for the simulator to sign and submit. The
# rules they must meet are in `PolicyState.check`.
# ---------------------------------------------------------------------------


def make_registration(
    kind: Kind,
    id: str,
    public_key: bytes,
    org_binding: Optional[PrincipalId] = None,
    identity_commitment: Optional[bytes] = None,
) -> RegisterPrincipal:
    return RegisterPrincipal(PrincipalId(kind, id), public_key, org_binding, identity_commitment)


def make_plan(
    plan_id: str,
    patient: PrincipalId,
    member_orgs: frozenset[PrincipalId],
    practitioners: frozenset[tuple[PrincipalId, PrincipalId]],
) -> CreatePlan:
    return CreatePlan(plan_id, patient, member_orgs, practitioners)


def make_grant(
    grant_id: str,
    plan_id: str,
    grantor: PrincipalId,
    grantee: PrincipalId,
    scope: frozenset[Category],
    valid_from: int,
    valid_until: int,
) -> GrantAccess:
    return GrantAccess(grant_id, plan_id, grantor, grantee, scope, valid_from, valid_until)


def make_revocation(grantor: PrincipalId, grant_id: str) -> RevokeAccess:
    return RevokeAccess(grant_id, grantor)


# ---------------------------------------------------------------------------
# Request evaluation
# ---------------------------------------------------------------------------


def _practitioner_in_any_plan(state: PolicyState, requester: PrincipalId, patient: PrincipalId) -> bool:
    for plan in state.plans_of(patient):
        if requester in {prac for prac, _ in plan.practitioners}:
            return True
    return False


def evaluate_request(
    state: PolicyState,
    requester: PrincipalId,
    requester_org: PrincipalId,
    sender_org: PrincipalId,
    patient: PrincipalId,
    category: Category,
    at: int,
    emergency: bool = False,
) -> Decision:
    """Decide one data request against committed state.

    Deny reasons are checked in a fixed order so outcomes are deterministic:
    unknown_principal, then not_plan_member, no_grant, out_of_scope, expired,
    revoked. An emergency flag turns any denial except unknown_principal into
    allow_emergency, provided the requester appears in at least one plan of
    the patient; a valid grant still wins as a plain allow.
    """
    unknown = state._unknown(
        (requester, Kind.PRACTITIONER),
        (requester_org, Kind.ORGANIZATION),
        (sender_org, Kind.ORGANIZATION),
        (patient, Kind.PATIENT),
    )
    if unknown is not None:
        return Decision(Verdict.DENY, Reason.UNKNOWN_PRINCIPAL)

    normal = _evaluate_grants(
        state, requester, requester_org, sender_org, patient, category, at
    )
    if normal.verdict is Verdict.ALLOW:
        return normal
    if emergency and _practitioner_in_any_plan(state, requester, patient):
        return Decision(Verdict.ALLOW_EMERGENCY, Reason.EMERGENCY_OVERRIDE)
    return normal


def _evaluate_grants(
    state: PolicyState,
    requester: PrincipalId,
    requester_org: PrincipalId,
    sender_org: PrincipalId,
    patient: PrincipalId,
    category: Category,
    at: int,
) -> Decision:
    candidate_plans = [
        plan
        for plan in state.plans_of(patient)
        if (requester, requester_org) in plan.practitioners
        and requester_org in plan.member_orgs
        and sender_org in plan.member_orgs
    ]
    if not candidate_plans:
        return Decision(Verdict.DENY, Reason.NOT_PLAN_MEMBER)
    plan_ids = {plan.plan_id for plan in candidate_plans}

    relevant = [g for g in state.pair_grants.get((patient, requester), ()) if g.plan_id in plan_ids]
    if not relevant:
        return Decision(Verdict.DENY, Reason.NO_GRANT)

    in_scope = [g for g in relevant if category in g.scope]
    if not in_scope:
        return Decision(Verdict.DENY, Reason.OUT_OF_SCOPE)

    in_window = [g for g in in_scope if g.valid_from <= at < g.valid_until]
    if not in_window:
        return Decision(Verdict.DENY, Reason.EXPIRED)

    live = [g for g in in_window if g.revoked_at is None or at < g.revoked_at]
    if not live:
        return Decision(Verdict.DENY, Reason.REVOKED)

    winner = min(live, key=lambda g: g.order)
    return Decision(Verdict.ALLOW, Reason.VALID_GRANT, winner.grant_id)


def make_emergency_access(
    state: PolicyState,
    requester: PrincipalId,
    patient: PrincipalId,
    category: Category,
    request_tx: bytes = bytes(32),
) -> tuple[Decision, EmergencyAccess]:
    """Break-glass access: always allowed, always flagged, never silent.

    Restricted to practitioners appearing in at least one plan of the
    patient; anyone else is an error rather than a quiet override.
    """
    payload = EmergencyAccess(request_tx, requester, patient, category)
    violation = state._check_emergency(payload)
    if violation is not None:
        raise violation
    return Decision(Verdict.ALLOW_EMERGENCY, Reason.EMERGENCY_OVERRIDE), payload

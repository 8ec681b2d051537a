"""Smart-contract state: principals, treatment plans, grants, and request decisions.

State is a pure fold over committed transactions; `evaluate_request` reads
that state and nothing else, so the same committed prefix always yields the
same decision on every node. Operation builders validate against a given
state and return payloads; signing and consensus are the simulator's job.

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
    EmergencyAccess,
    GrantAccess,
    Kind,
    PrincipalId,
    RegisterPrincipal,
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
    created_at: int


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
    """Fold of registration, plan, grant, and revocation transactions."""

    principals: dict[PrincipalId, bytes] = field(default_factory=dict)
    practitioner_orgs: dict[str, PrincipalId] = field(default_factory=dict)
    org_order: list[PrincipalId] = field(default_factory=list)
    plans: dict[str, TreatmentPlan] = field(default_factory=dict)
    grants: dict[str, GrantRecord] = field(default_factory=dict)

    def apply(self, tx: Transaction, height: int, position: int) -> None:
        p = tx.payload
        if isinstance(p, RegisterPrincipal):
            if p.subject in self.principals:
                raise PolicyError(f"duplicate registration of {p.subject}")
            self.principals[p.subject] = p.public_key
            if p.subject.kind is Kind.ORGANIZATION:
                self.org_order.append(p.subject)
            elif p.subject.kind is Kind.PRACTITIONER:
                if p.org_binding is None:
                    raise PolicyError(f"practitioner {p.subject.id} has no organization binding")
                self.practitioner_orgs[p.subject.id] = p.org_binding
        elif isinstance(p, CreatePlan):
            if p.plan_id in self.plans:
                raise PolicyError(f"duplicate plan {p.plan_id}")
            self.plans[p.plan_id] = TreatmentPlan(
                p.plan_id, p.patient, p.member_orgs, p.practitioners, tx.timestamp
            )
        elif isinstance(p, GrantAccess):
            if p.grant_id in self.grants:
                raise PolicyError(f"duplicate grant {p.grant_id}")
            self.grants[p.grant_id] = GrantRecord(
                p.grant_id,
                p.plan_id,
                p.grantor,
                p.grantee,
                p.scope,
                p.valid_from,
                p.valid_until,
                order=(height, position),
            )
        elif isinstance(p, RevokeAccess):
            grant = self.grants.get(p.grant_id)
            if grant is None:
                raise PolicyError(f"revocation of unknown grant {p.grant_id}")
            if grant.revoked_at is not None:
                raise PolicyError(f"grant {p.grant_id} already revoked")
            grant.revoked_at = tx.timestamp

    # -- lookups -----------------------------------------------------------

    def registry(self) -> dict[PrincipalId, bytes]:
        return self.principals

    def quorum_members(self) -> list[PrincipalId]:
        return list(self.org_order)

    def plans_of(self, patient: PrincipalId) -> list[TreatmentPlan]:
        return [pl for pl in self.plans.values() if pl.patient == patient]


# ---------------------------------------------------------------------------
# Operation builders (validate against committed state, return payloads)
# ---------------------------------------------------------------------------


def make_registration(
    state: PolicyState,
    kind: Kind,
    id: str,
    public_key: bytes,
    org_binding: Optional[PrincipalId] = None,
    identity_commitment: Optional[bytes] = None,
) -> RegisterPrincipal:
    subject = PrincipalId(kind, id)
    if subject in state.principals:
        raise PolicyError(f"duplicate id: {subject} is already registered")
    if kind is Kind.PRACTITIONER:
        if org_binding is None:
            raise PolicyError("practitioner registration requires an organization")
        if org_binding not in state.principals:
            raise PolicyError(f"unknown organization binding {org_binding.id}")
    elif org_binding is not None and org_binding.kind is not Kind.ORGANIZATION:
        raise PolicyError("org binding must name an organization")
    return RegisterPrincipal(subject, public_key, org_binding, identity_commitment)


def make_plan(
    state: PolicyState,
    plan_id: str,
    patient: PrincipalId,
    member_orgs: frozenset[PrincipalId],
    practitioners: frozenset[tuple[PrincipalId, PrincipalId]],
) -> CreatePlan:
    if plan_id in state.plans:
        raise PolicyError(f"duplicate plan {plan_id}")
    if not member_orgs:
        raise PolicyError("a plan needs at least one member organization")
    if patient not in state.principals or patient.kind is not Kind.PATIENT:
        raise PolicyError(f"unknown patient {patient.id}")
    for org in member_orgs:
        if org not in state.principals or org.kind is not Kind.ORGANIZATION:
            raise PolicyError(f"unknown member organization {org.id}")
    for prac, org in practitioners:
        if prac not in state.principals or prac.kind is not Kind.PRACTITIONER:
            raise PolicyError(f"unknown practitioner {prac.id}")
        if org not in member_orgs:
            raise PolicyError(
                f"practitioner {prac.id} bound to {org.id}, which is not a plan member"
            )
        if state.practitioner_orgs.get(prac.id) != org:
            raise PolicyError(
                f"practitioner {prac.id} is not registered with organization {org.id}"
            )
    return CreatePlan(plan_id, patient, member_orgs, practitioners)


def make_grant(
    state: PolicyState,
    grant_id: str,
    plan_id: str,
    grantor: PrincipalId,
    grantee: PrincipalId,
    scope: frozenset[Category],
    valid_from: int,
    valid_until: int,
) -> GrantAccess:
    if grant_id in state.grants:
        raise PolicyError(f"duplicate grant {grant_id}")
    plan = state.plans.get(plan_id)
    if plan is None:
        raise PolicyError(f"unknown plan {plan_id}")
    if grantor != plan.patient:
        raise PolicyError(f"grantor {grantor.id} is not the plan's patient")
    if grantee not in {prac for prac, _ in plan.practitioners}:
        raise PolicyError(f"grantee {grantee.id} is not bound to plan {plan_id}")
    if not scope:
        raise PolicyError("grant scope is empty")
    if not valid_from < valid_until:
        raise PolicyError(
            f"grant window is empty or inverted: [{valid_from}, {valid_until})"
        )
    return GrantAccess(grant_id, plan_id, grantor, grantee, scope, valid_from, valid_until)


def make_revocation(
    state: PolicyState, grantor: PrincipalId, grant_id: str
) -> RevokeAccess:
    grant = state.grants.get(grant_id)
    if grant is None:
        raise PolicyError(f"unknown grant {grant_id}")
    if grant.revoked_at is not None:
        raise PolicyError(f"grant {grant_id} already revoked")
    if grant.grantor != grantor:
        raise PolicyError(f"{grantor.id} did not issue grant {grant_id}")
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
    known = (
        state.principals.get(requester) is not None
        and requester.kind is Kind.PRACTITIONER
        and state.principals.get(requester_org) is not None
        and requester_org.kind is Kind.ORGANIZATION
        and state.principals.get(sender_org) is not None
        and sender_org.kind is Kind.ORGANIZATION
        and state.principals.get(patient) is not None
        and patient.kind is Kind.PATIENT
    )
    if not known:
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

    relevant = [
        g
        for g in state.grants.values()
        if g.grantor == patient and g.grantee == requester and g.plan_id in plan_ids
    ]
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
    if requester not in state.principals or requester.kind is not Kind.PRACTITIONER:
        raise PolicyError(f"unknown requester {requester.id}")
    if patient not in state.principals or patient.kind is not Kind.PATIENT:
        raise PolicyError(f"unknown patient {patient.id}")
    if not _practitioner_in_any_plan(state, requester, patient):
        raise PolicyError(
            f"{requester.id} is not a practitioner in any plan of {patient.id}"
        )
    decision = Decision(Verdict.ALLOW_EMERGENCY, Reason.EMERGENCY_OVERRIDE)
    payload = EmergencyAccess(request_tx, requester, patient, category)
    return decision, payload

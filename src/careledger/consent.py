"""Research-consent lifecycle: studies, quiz grading, signing, withdrawal,
dashboards, and commitment-based participant matching.

On-chain state carries study registrations (quiz hash only), invitations,
attempt counts with mistake totals, signatures, withdrawals, and profile
commitments. Quiz content, per-question struggle detail, and descriptor
salts stay on the participant's host node and are shared only under the
participant's layer policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from . import crypto
from .codec import U32, Seq, Str, Struct, wire
from .errors import ConsentError
from .ledger import (
    ConsentInvited,
    ConsentSigned,
    ConsentWithdrawn,
    HASH,
    Kind,
    PrincipalId,
    ProfilePublished,
    QuizAttemptRecorded,
    RegisterStudy,
    Transaction,
    ZERO_HASH,
)

PASS_MISTAKE_LIMIT = 0  # passing means zero mistakes on a single attempt


@dataclass(frozen=True)
class Question:
    prompt: str = wire(Str())
    choices: tuple[str, ...] = wire(Seq(Str()))
    correct: int = wire(U32)


@dataclass(frozen=True)
class Quiz:
    questions: tuple[Question, ...] = wire(Seq(Struct(Question)))

    def __post_init__(self) -> None:
        if not self.questions:
            raise ConsentError("a quiz needs at least one question")
        for i, q in enumerate(self.questions):
            if not 2 <= len(q.choices) <= 6:
                raise ConsentError(f"question {i} needs 2-6 choices")
            if not 0 <= q.correct < len(q.choices):
                raise ConsentError(f"question {i} correct index out of range")

    def grade(self, answers: list[int]) -> tuple[int, bool]:
        """Count of wrong answers and whether the attempt passes."""
        if len(answers) != len(self.questions):
            raise ConsentError(
                f"answer count {len(answers)} does not match {len(self.questions)} questions"
            )
        mistakes = sum(1 for a, q in zip(answers, self.questions) if a != q.correct)
        return mistakes, mistakes <= PASS_MISTAKE_LIMIT

    def wrong_indexes(self, answers: list[int]) -> list[int]:
        return [i for i, (a, q) in enumerate(zip(answers, self.questions)) if a != q.correct]


_QUIZ = Struct(Quiz)


def quiz_hash(quiz: Quiz) -> bytes:
    return crypto.sha256(_QUIZ.encode(quiz))


def parse_quiz(lines: Iterable[str]) -> Quiz:
    """Fixture format: a `Q <prompt>` line, `C <choice>` lines, then `A <index>`."""
    questions: list[Question] = []
    prompt: Optional[str] = None
    choices: list[str] = []
    correct: Optional[int] = None

    def flush() -> None:
        nonlocal prompt, choices, correct
        if prompt is None:
            return
        if correct is None:
            raise ConsentError(f"question {prompt!r} has no answer line")
        questions.append(Question(prompt, tuple(choices), correct))
        prompt, choices, correct = None, [], None

    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tag, _, rest = line.partition(" ")
        if tag == "Q":
            flush()
            prompt = rest.strip()
        elif tag == "C":
            if prompt is None:
                raise ConsentError("choice line before any question")
            choices.append(rest.strip())
        elif tag == "A":
            if prompt is None:
                raise ConsentError("answer line before any question")
            try:
                correct = int(rest.strip())
            except ValueError:
                raise ConsentError(f"answer index must be an integer: {rest.strip()!r}") from None
        else:
            raise ConsentError(f"unknown quiz line tag {tag!r}")
    flush()
    return Quiz(tuple(questions))


# ---------------------------------------------------------------------------
# On-chain fold
# ---------------------------------------------------------------------------

@dataclass
class LifecycleRecord:
    study_id: str
    participant: PrincipalId
    state: str = "invited"
    attempts: int = 0
    mistakes: int = 0
    passing_tx: Optional[bytes] = None
    signed_at: Optional[int] = None


@dataclass
class StudyRecord:
    study_id: str
    quiz_hash: bytes
    researchers: tuple[PrincipalId, ...]
    question_count: int


@dataclass
class ProfileRecord:
    participant: PrincipalId
    commitments: frozenset[bytes]
    discoverable: bool
    study_overrides: dict[str, bool]

    def effective_discoverable(self, study_id: Optional[str]) -> bool:
        if study_id is not None and study_id in self.study_overrides:
            return self.study_overrides[study_id]
        return self.discoverable


@dataclass
class ConsentState:
    """Fold of study, invitation, attempt, signature, withdrawal, and profile txs."""

    studies: dict[str, StudyRecord] = field(default_factory=dict)
    lifecycles: dict[tuple[str, str], LifecycleRecord] = field(default_factory=dict)
    profiles: dict[str, ProfileRecord] = field(default_factory=dict)

    def check(self, tx: Transaction, principals: dict[PrincipalId, bytes]) -> Optional[ConsentError]:
        """None when `tx` meets its payload type's rules against this state and
        the registered `principals`, else the refusal naming the broken rule;
        other folds' types pass."""
        p = tx.payload
        if isinstance(p, RegisterStudy):
            if tx.author not in p.researchers:
                return _refuse("not_author", f"{tx.author.id} is not a researcher of {p.study_id}")
            if p.study_id in self.studies:
                return _refuse("duplicate", f"duplicate study {p.study_id}")
            for r in p.researchers:
                if r not in principals or r.kind is not Kind.RESEARCHER:
                    return _refuse("unknown", f"unknown researcher {r.id}")
        elif isinstance(p, ConsentInvited):
            study = self.studies.get(p.study_id)
            if study is None:
                return _refuse("unknown", f"unknown study {p.study_id}")
            if tx.author not in study.researchers:
                return _refuse("not_author", f"{tx.author.id} is not a researcher of {p.study_id}")
            if p.participant not in principals or p.participant.kind is not Kind.PARTICIPANT:
                return _refuse("unknown", f"unknown participant {p.participant.id}")
            if (p.study_id, p.participant.id) in self.lifecycles:
                return _refuse("duplicate", f"{p.participant.id} already invited to {p.study_id}")
        elif isinstance(p, (QuizAttemptRecorded, ConsentSigned, ConsentWithdrawn)):
            if tx.author != p.participant:
                return _refuse("not_author", f"{tx.author.id} cannot act for {p.participant.id}")
            rec = self.lifecycles.get((p.study_id, p.participant.id))
            if rec is None or rec.participant != p.participant:
                return _refuse("unknown", f"{p.participant.id} was not invited to {p.study_id}")
            if isinstance(p, QuizAttemptRecorded):
                # Legal until signed or withdrawn; `apply` keeps a pass sticky.
                if rec.state in ("signed", "withdrawn"):
                    return _refuse("bad_transition", f"consent already {rec.state}; no further attempts")
            elif isinstance(p, ConsentSigned):
                if rec.state == "signed":
                    return _refuse("bad_transition", "consent already signed")
                if rec.state != "passed":
                    return _refuse("bad_transition", "consent can be signed only after a zero-mistake attempt")
                bound = (p.quiz_hash, p.passing_attempt_tx) == (self.studies[p.study_id].quiz_hash, rec.passing_tx)
                if not bound or not verify_consent_signature(p, principals[p.participant]):
                    return _refuse("consent_signature", "consent does not sign the quiz and passing attempt")
            elif rec.state != "signed":
                return _refuse("bad_transition", f"cannot withdraw from state {rec.state!r}")
        elif isinstance(p, ProfilePublished):
            if tx.author != p.participant:
                return _refuse("not_author", f"{tx.author.id} cannot publish for {p.participant.id}")
            if p.participant not in principals or p.participant.kind is not Kind.PARTICIPANT:
                return _refuse("unknown", f"unknown participant {p.participant.id}")
            if not p.commitments:
                return _refuse("malformed", "a profile needs at least one source descriptor")
        return None

    def apply(self, tx: Transaction, height: int, position: int) -> None:
        """Fold a transaction that passed `check` against this state."""
        p = tx.payload
        if isinstance(p, RegisterStudy):
            self.studies[p.study_id] = StudyRecord(
                p.study_id, p.quiz_hash, p.researchers, p.question_count
            )
        elif isinstance(p, ConsentInvited):
            self.lifecycles[(p.study_id, p.participant.id)] = LifecycleRecord(p.study_id, p.participant)
        elif isinstance(p, (QuizAttemptRecorded, ConsentSigned, ConsentWithdrawn)):
            rec = self.lifecycles[(p.study_id, p.participant.id)]
            if isinstance(p, QuizAttemptRecorded):
                rec.attempts += 1
                rec.mistakes += p.mistakes
                if p.passed:
                    rec.passing_tx = rec.passing_tx or tx.tx_id
                    rec.state = "passed"
                elif rec.state == "invited":
                    rec.state = "attempted"
            elif isinstance(p, ConsentSigned):
                rec.state = "signed"
                rec.signed_at = tx.timestamp
            else:
                rec.state = "withdrawn"
        elif isinstance(p, ProfilePublished):
            # Republishing replaces the profile: layer policy must be adjustable.
            self.profiles[p.participant.id] = ProfileRecord(
                p.participant,
                p.commitments,
                p.discoverable,
                {k: v for k, v in p.study_overrides},
            )


_refuse = ConsentError.refuse


# ---------------------------------------------------------------------------
# Operation builders: payloads for the simulator to sign and submit. The
# rules they must meet are in `ConsentState.check`.
# ---------------------------------------------------------------------------


def make_study_registration(
    researchers: tuple[PrincipalId, ...], study_id: str, quiz: Quiz
) -> RegisterStudy:
    return RegisterStudy(study_id, quiz_hash(quiz), researchers, len(quiz.questions))


def make_invitation(study_id: str, participant: PrincipalId) -> ConsentInvited:
    return ConsentInvited(study_id, participant)


def make_attempt(
    state: ConsentState,
    participant: PrincipalId,
    study_id: str,
    quiz: Quiz,
    answers: list[int],
) -> tuple[QuizAttemptRecorded, list[int]]:
    """Grade locally; only the mistake count and ordinal go on chain.

    Returns the payload and the wrong-question indexes, which stay on the
    participant's host node.
    """
    rec = state.lifecycles.get((study_id, participant.id))
    mistakes, passed = quiz.grade(answers)
    ordinal = rec.attempts + 1 if rec is not None else 1
    payload = QuizAttemptRecorded(study_id, participant, ordinal, mistakes, passed)
    return payload, quiz.wrong_indexes(answers)


@dataclass(frozen=True)
class _ConsentMessage:
    study_id: str = wire(Str())
    quiz_hash: bytes = wire(HASH)
    attempt_tx: bytes = wire(HASH)


_CONSENT_MESSAGE = Struct(_ConsentMessage)


def consent_message(study_id: str, quiz_digest: bytes, attempt_tx: bytes) -> bytes:
    """Exact bytes a participant signs when consenting."""
    return _CONSENT_MESSAGE.encode(_ConsentMessage(study_id, quiz_digest, attempt_tx))


def make_signature(
    state: ConsentState,
    participant: PrincipalId,
    study_id: str,
    private_key: bytes,
) -> ConsentSigned:
    """Zero hashes stand in for a quiz or passing attempt the state lacks."""
    study = state.studies.get(study_id)
    rec = state.lifecycles.get((study_id, participant.id))
    digest = study.quiz_hash if study is not None else ZERO_HASH
    attempt = rec.passing_tx if rec is not None and rec.passing_tx else ZERO_HASH
    signature = crypto.sign(private_key, consent_message(study_id, digest, attempt))
    return ConsentSigned(study_id, participant, digest, attempt, signature)


def verify_consent_signature(
    payload: ConsentSigned, participant_key: bytes
) -> bool:
    message = consent_message(payload.study_id, payload.quiz_hash, payload.passing_attempt_tx)
    return crypto.verify(participant_key, payload.consent_signature, message)


def make_withdrawal(participant: PrincipalId, study_id: str) -> ConsentWithdrawn:
    return ConsentWithdrawn(study_id, participant)


def make_profile(
    participant: PrincipalId,
    descriptors: list[str],
    salts: dict[str, bytes],
    discoverable: bool,
    study_overrides: Optional[dict[str, bool]] = None,
) -> ProfilePublished:
    commitments = frozenset(
        crypto.commitment(salts[d], d) for d in descriptors
    )
    overrides = frozenset((study_overrides or {}).items())
    return ProfilePublished(participant, commitments, discoverable, overrides)


# ---------------------------------------------------------------------------
# Dashboard
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DashboardRow:
    participant: str
    state: str
    attempts: int
    total_mistakes: int
    struggles: Optional[tuple[int, ...]]  # per-question wrong counts, None when private
    signed_at: Optional[int]


def consent_status(
    state: ConsentState,
    researcher: PrincipalId,
    study_id: str,
    struggle_detail: dict[str, list[list[int]]],
) -> list[DashboardRow]:
    """Per-participant dashboard for one study.

    Attempt and mistake totals fold over committed attempt transactions.
    `struggle_detail` maps participant id to per-attempt wrong-question
    indexes from the participants' host nodes; detail appears only when the
    participant's layer policy makes it discoverable for this study.
    """
    study = state.studies.get(study_id)
    if study is None:
        raise ConsentError(f"unknown study {study_id}")
    if researcher not in study.researchers:
        raise ConsentError(f"{researcher.id} is not a researcher of {study_id}")
    rows = []
    for (sid, participant_id), rec in sorted(state.lifecycles.items()):
        if sid != study_id:
            continue
        profile = state.profiles.get(participant_id)
        shared = profile is not None and profile.effective_discoverable(study_id)
        struggles: Optional[tuple[int, ...]] = None
        if shared:
            counts = [0] * study.question_count
            for wrong in struggle_detail.get(participant_id, []):
                for idx in wrong:
                    if 0 <= idx < study.question_count:
                        counts[idx] += 1
            struggles = tuple(counts)
        rows.append(
            DashboardRow(
                participant=participant_id,
                state=rec.state,
                attempts=rec.attempts,
                total_mistakes=rec.mistakes,
                struggles=struggles,
                signed_at=rec.signed_at,
            )
        )
    return rows


DASHBOARD_HEADER = "participant\tstate\tattempts\tmistakes\tstruggles\tsigned_at"


def dashboard_rows(rows: Iterable[DashboardRow]) -> list[str]:
    out = [DASHBOARD_HEADER]
    for r in rows:
        struggles = ",".join(str(c) for c in r.struggles) if r.struggles is not None else "-"
        signed = str(r.signed_at) if r.signed_at is not None else "-"
        out.append(
            f"{r.participant}\t{r.state}\t{r.attempts}\t{r.total_mistakes}\t{struggles}\t{signed}"
        )
    return out


# ---------------------------------------------------------------------------
# Selective-disclosure matching
# ---------------------------------------------------------------------------


def verify_disclosure(profile: ProfileRecord, descriptor: str, salt: bytes) -> bool:
    """A revealed salt proves membership of exactly the queried descriptor."""
    return crypto.commitment(salt, descriptor) in profile.commitments

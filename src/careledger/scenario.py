"""Line-oriented scenario scripts driving the simulator.

Commands execute in order; before each one the event loop is settled, so a
command always sees the previous commands' transactions committed. `tick`
advances simulated time (sessions expire, parked work resumes). A plan is
drafted by `plan create` and extended by immediately following `bind` lines;
any other command seals it into a single plan transaction.

Grammar (shell-style quoting, `#` starts a comment):

    org add <id>
    practitioner add <id> <org>
    patient add <id>
    researcher add <id>
    participant add <id>
    plan create <plan> <patient> <org>...
    bind <practitioner> <plan>
    grant <patient> <plan> <practitioner> <cat,...> <from> <until>
    revoke <patient> <grant>
    request <practitioner>@<org> <sender_org> <patient> <cat> [emergency]
    record add <org> <patient> <cat> <t> <value> <author>
    timeline <practitioner> [from to]
    study register <researcher> <study> <quizfile>
    invite <researcher> <study> <participant>
    attempt <participant> <study> <a,...>
    sign <participant> <study>
    withdraw <participant> <study>
    profile <participant> <desc,...> <discoverable>
    match <researcher> <desc,...>
    fault <org> down|up
    tick <ms>
    shred <org> <patient>

Grant ids are assigned in submission order as g001, g002, ...
"""

from __future__ import annotations

import shlex
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .consent import parse_quiz
from .errors import CareLedgerError, ScriptError
from .exchange import timeline_rows
from .ledger import Kind, PrincipalId, parse_category
from .simnet import SimConfig, Simulation, spawn_network

# Used when a script opens without `org add` lines (fixture default network).
DEFAULT_ORGS = ("org1", "org2", "org3")


@dataclass
class Command:
    line_no: int
    words: list[str]


@dataclass
class PlanDraft:
    line_no: int
    plan_id: str
    patient: str
    member_orgs: list[str]
    practitioners: list[tuple[str, str]] = field(default_factory=list)


def parse_script(text: str) -> list[Command]:
    commands = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            words = shlex.split(stripped, comments=True)
        except ValueError as exc:
            raise ScriptError(line_no, f"unparseable line: {exc}") from exc
        if words:
            commands.append(Command(line_no, words))
    return commands


def _parse_int(cmd: Command, token: str, label: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ScriptError(cmd.line_no, f"{label} must be an integer, got {token!r}") from None


def _parse_bool(cmd: Command, token: str) -> bool:
    if token.lower() in ("true", "yes", "1"):
        return True
    if token.lower() in ("false", "no", "0"):
        return False
    raise ScriptError(cmd.line_no, f"expected true/false, got {token!r}")


class ScenarioRunner:
    """Executes parsed commands against one simulation."""

    def __init__(self, sim: Simulation, base_dir: Optional[Path] = None):
        self.sim = sim
        self.base_dir = base_dir or Path.cwd()
        self.outputs: list[str] = []
        self._draft: Optional[PlanDraft] = None

    def run(self, commands: list[Command]) -> None:
        for cmd in commands:
            self._execute(cmd)
        self._flush_draft()
        self.sim.settle()

    def _execute(self, cmd: Command) -> None:
        head = cmd.words[0]
        if head != "bind":
            self._flush_draft()
        self.sim.settle()
        try:
            self._dispatch(cmd)
        except ScriptError:
            raise
        except CareLedgerError as exc:
            raise ScriptError(cmd.line_no, str(exc)) from exc

    def _flush_draft(self) -> None:
        draft = self._draft
        if draft is None:
            return
        self._draft = None
        try:
            self.sim.create_plan(
                draft.plan_id, draft.patient, draft.member_orgs, draft.practitioners
            )
        except CareLedgerError as exc:
            raise ScriptError(draft.line_no, str(exc)) from exc

    def _need(self, cmd: Command, count: int, usage: str) -> None:
        if len(cmd.words) != count:
            raise ScriptError(cmd.line_no, f"usage: {usage}")

    def _dispatch(self, cmd: Command) -> None:
        words = cmd.words
        head = words[0]

        if head == "org" and len(words) >= 2 and words[1] == "add":
            self._need(cmd, 3, "org add <id>")
            self.sim.register_organization(words[2])
        elif head == "practitioner" and len(words) >= 2 and words[1] == "add":
            self._need(cmd, 4, "practitioner add <id> <org>")
            self.sim.register_practitioner(words[2], words[3])
        elif head == "patient" and len(words) >= 2 and words[1] == "add":
            self._need(cmd, 3, "patient add <id>")
            self.sim.register_person(Kind.PATIENT, words[2])
        elif head == "researcher" and len(words) >= 2 and words[1] == "add":
            self._need(cmd, 3, "researcher add <id>")
            self.sim.register_person(Kind.RESEARCHER, words[2])
        elif head == "participant" and len(words) >= 2 and words[1] == "add":
            self._need(cmd, 3, "participant add <id>")
            self.sim.register_person(Kind.PARTICIPANT, words[2])
        elif head == "plan" and len(words) >= 2 and words[1] == "create":
            if len(words) < 5:
                raise ScriptError(cmd.line_no, "usage: plan create <plan> <patient> <org>...")
            self._draft = PlanDraft(cmd.line_no, words[2], words[3], words[4:])
        elif head == "bind":
            self._need(cmd, 3, "bind <practitioner> <plan>")
            draft = self._draft
            if draft is None or draft.plan_id != words[2]:
                raise ScriptError(
                    cmd.line_no,
                    f"bind must immediately follow `plan create {words[2]}`",
                )
            org = self.sim.host_org.get(words[1])
            if org is None:
                raise ScriptError(cmd.line_no, f"unknown practitioner {words[1]!r}")
            draft.practitioners.append((words[1], org))
        elif head == "grant":
            self._need(cmd, 7, "grant <patient> <plan> <practitioner> <cat,...> <from> <until>")
            self.sim.grant_access(
                words[1],
                words[2],
                words[3],
                frozenset(map(parse_category, words[4].split(","))),
                _parse_int(cmd, words[5], "from"),
                _parse_int(cmd, words[6], "until"),
            )
        elif head == "revoke":
            self._need(cmd, 3, "revoke <patient> <grant>")
            self.sim.revoke_access(words[1], words[2])
        elif head == "request":
            if len(words) not in (5, 6):
                raise ScriptError(
                    cmd.line_no,
                    "usage: request <practitioner>@<org> <sender_org> <patient> <cat> [emergency]",
                )
            requester_token = words[1]
            if "@" not in requester_token:
                raise ScriptError(cmd.line_no, "requester must be <practitioner>@<org>")
            prac, _, org = requester_token.partition("@")
            emergency = False
            if len(words) == 6:
                if words[5] != "emergency":
                    raise ScriptError(cmd.line_no, f"unexpected trailing word {words[5]!r}")
                emergency = True
            category = parse_category(words[4])
            self.sim.start_request(
                PrincipalId(Kind.PRACTITIONER, prac),
                PrincipalId(Kind.ORGANIZATION, org),
                PrincipalId(Kind.ORGANIZATION, words[2]),
                PrincipalId(Kind.PATIENT, words[3]),
                category,
                emergency,
            )
        elif head == "record" and len(words) >= 2 and words[1] == "add":
            self._need(cmd, 8, "record add <org> <patient> <cat> <t> <value> <author>")
            category = parse_category(words[4])
            self.sim.add_record(
                words[2], words[3], category, _parse_int(cmd, words[5], "t"), words[6], words[7]
            )
        elif head == "timeline":
            if len(words) not in (2, 4):
                raise ScriptError(cmd.line_no, "usage: timeline <practitioner> [from to]")
            window = None
            if len(words) == 4:
                window = (
                    _parse_int(cmd, words[2], "from"),
                    _parse_int(cmd, words[3], "to"),
                )
            entries = self.sim.timeline_for(words[1], window)
            self.outputs.extend(timeline_rows(entries))
        elif head == "study" and len(words) >= 2 and words[1] == "register":
            self._need(cmd, 5, "study register <researcher> <study> <quizfile>")
            quiz_path = self.base_dir / words[4]
            if not quiz_path.exists():
                raise ScriptError(cmd.line_no, f"quiz file not found: {words[4]}")
            quiz = parse_quiz(quiz_path.read_text().splitlines())
            self.sim.register_study(words[2], words[3], quiz)
        elif head == "invite":
            self._need(cmd, 4, "invite <researcher> <study> <participant>")
            self.sim.invite(words[1], words[2], words[3])
        elif head == "attempt":
            self._need(cmd, 4, "attempt <participant> <study> <a,...>")
            answers = [_parse_int(cmd, a, "answer") for a in words[3].split(",")]
            self.sim.submit_attempt(words[1], words[2], answers)
        elif head == "sign":
            self._need(cmd, 3, "sign <participant> <study>")
            self.sim.sign_consent(words[1], words[2])
        elif head == "withdraw":
            self._need(cmd, 3, "withdraw <participant> <study>")
            self.sim.withdraw_consent(words[1], words[2])
        elif head == "profile":
            self._need(cmd, 4, "profile <participant> <desc,...> <discoverable>")
            descriptors = words[2].split(",")
            self.sim.publish_profile(words[1], descriptors, _parse_bool(cmd, words[3]))
        elif head == "match":
            self._need(cmd, 3, "match <researcher> <desc,...>")
            match_id = self.sim.start_match(words[1], words[2].split(","))
            self.sim.settle()
            matched = self.sim.match_result(match_id)
            self.outputs.append(f"match\t{words[2]}\t{','.join(matched) if matched else '-'}")
        elif head == "fault":
            self._need(cmd, 3, "fault <org> down|up")
            self.sim.inject_fault(words[1], words[2])
        elif head == "tick":
            self._need(cmd, 2, "tick <ms>")
            self.sim.tick(_parse_int(cmd, words[1], "ms"))
        elif head == "shred":
            self._need(cmd, 3, "shred <org> <patient>")
            self.sim.shred(words[1], words[2])
        else:
            raise ScriptError(cmd.line_no, f"unknown command {' '.join(words[:2])!r}")


def run_scenario(
    text: str,
    config: Optional[SimConfig] = None,
    base_dir: Optional[Path] = None,
) -> tuple[Simulation, list[str]]:
    """Execute a script and return (simulation, printed output lines).

    Founding organizations come from leading `org add` lines, or are
    DEFAULT_ORGS when there are none; they seed the genesis block.
    """
    commands = parse_script(text)
    founding, rest = [], []
    for cmd in commands:
        if not rest and cmd.words[:2] == ["org", "add"] and len(cmd.words) == 3:
            founding.append(cmd.words[2])
        else:
            rest.append(cmd)
    sim = spawn_network(founding or list(DEFAULT_ORGS), config or SimConfig())
    runner = ScenarioRunner(sim, base_dir=base_dir)
    runner.run(rest)
    return sim, runner.outputs

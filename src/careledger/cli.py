"""Command-line front end.

Subcommands: run, verify, audit, timeline, dashboard, shred-check.
Exit codes: 0 success, 1 domain finding (ledger violation, expired session,
re-derivable commitment), 2 usage or parse error. Output goes to stdout,
diagnostics to stderr. A subcommand that fails raises `_Exit` with its code
and message, and `main` alone turns that into stderr and the exit status.
A ledger violation breaks a chain rule or a transaction rule.
CARELEDGER_SEED is the fallback for --seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import consent as consent_mod
from . import crypto
from .consent import ConsentState
from .errors import CareLedgerError, ChainError, ScriptError
from .exchange import RecordEntry, Session, build_timeline, timeline_rows
from .ledger import (
    Category,
    Kind,
    LedgerState,
    PrincipalId,
    RegisterPrincipal,
    query_audit,
    read_ledger,
    validate_chain,
    write_ledger,
)
from .policy import fold
from .scenario import run_scenario
from .simnet import SYNTHETIC_NAMES, SimConfig, Simulation

STATE_FILE = "state.json"
TRACE_FILE = "trace.tsv"
OUTPUT_FILE = "outputs.txt"
# The simulator settings `run` takes as options, beside --seed.
_SIM_SETTINGS = [f for f in dataclasses.fields(SimConfig) if f.name != "seed"]


class _Exit(Exception):
    """Ends a subcommand: `main` prints the message to stderr and returns the code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _read(path: str | Path) -> LedgerState:
    try:
        return read_ledger(str(path))
    except (ChainError, OSError) as exc:
        raise _Exit(2, f"unreadable ledger: {exc}") from exc


def _valid(ledger: LedgerState) -> ConsentState:
    """`ledger`'s consent fold once it passes `validate_chain`, then `fold`; else exit 1."""
    violation = validate_chain(ledger).violation
    if violation is None:
        _, consent, violation = fold(ledger.blocks)
    if violation is not None:
        raise _Exit(1, str(violation))
    return consent


def _load_state(out_dir: str) -> dict:
    path = Path(out_dir) / STATE_FILE
    if not path.exists():
        raise _Exit(2, f"no {STATE_FILE} under {out_dir}; run a scenario first")
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
        raise _Exit(2, str(exc)) from exc


def _state_dict(sim: Simulation) -> dict:
    sessions = []
    for node in sim.nodes.values():
        for expired, held in ((False, node.sessions), (True, node.ended)):
            for session in held.values():
                sessions.append(
                    {
                        "org": node.org.id,
                        "session_id": session.session_id,
                        "requester": session.requester.id,
                        "request_tx": session.request_tx.hex(),
                        "opened_at": 0 if expired else session.opened_at,
                        "ttl": 0 if expired else session.ttl,
                        "expired": expired,
                        "records": [dataclasses.asdict(r) for r in session.records],
                    }
                )
    sessions.sort(key=lambda s: s["session_id"])

    vaults = {
        node.org.id: {
            pseudonym: {"salt": row.salt.hex(), "true_id": row.true_id}
            for pseudonym, row in sorted(node.store.vault.items())
        }
        for node in sim.nodes.values()
    }

    struggles: dict = {}
    for node in sim.nodes.values():
        for (study_id, pid), detail in node.struggles.items():
            struggles.setdefault(study_id, {})[pid] = detail
    struggles = {s: dict(sorted(v.items())) for s, v in sorted(struggles.items())}

    return {
        "clock": sim.clock,
        "seed": sim.config.seed,
        "orgs": list(sim.nodes),
        "sessions": sessions,
        "vaults": vaults,
        "struggles": struggles,
    }


def cmd_run(args: argparse.Namespace) -> int:
    script_path = Path(args.script)
    if not script_path.is_file():
        raise _Exit(2, f"no script file at {script_path}")
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("CARELEDGER_SEED", "0"))
    config = SimConfig(seed=seed, **{f.name: getattr(args, f.name) for f in _SIM_SETTINGS})
    sim, outputs = run_scenario(script_path.read_text(), config, base_dir=script_path.parent)
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _Exit(2, f"cannot create output directory: {exc}") from exc
    (out_dir / TRACE_FILE).write_text("".join(line + "\n" for line in sim.trace_lines()))
    (out_dir / OUTPUT_FILE).write_text("".join(line + "\n" for line in outputs))
    with open(out_dir / STATE_FILE, "w") as fh:
        json.dump(_state_dict(sim), fh, sort_keys=True, indent=1)
        fh.write("\n")
    for name, node in sim.nodes.items():
        write_ledger(node.ledger, str(out_dir / f"{name}.ledger"))
    for line in outputs:
        print(line)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    ledger = _read(args.ledger)
    try:
        _valid(ledger)
    except _Exit as exc:  # the violation is verify's report, so it goes to stdout
        print(str(exc))
        return exc.code
    print(f"ok: {len(ledger.blocks)} blocks, {sum(len(b.transactions) for b in ledger.blocks)} transactions")
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    ledger = _read(args.ledger)
    _valid(ledger)
    try:
        entries = query_audit(
            ledger,
            subject=args.subject,
            actor=args.actor,
            action=args.action,
            time_from=getattr(args, "from"),
            time_to=args.to,
        )
    except ValueError as exc:
        raise _Exit(2, f"bad filter: {exc}") from exc
    for entry in entries:
        print(entry.to_json())
    return 0


def cmd_timeline(args: argparse.Namespace) -> int:
    state = _load_state(args.out)
    live, expired = [], []
    for row in state["sessions"]:
        if row["requester"] != args.practitioner:
            continue
        if row["expired"]:
            expired.append(row["session_id"])
            continue
        records = [
            RecordEntry(**{**r, "category": Category(r["category"])}) for r in row["records"]
        ]
        live.append(
            Session(
                session_id=row["session_id"],
                request_tx=bytes.fromhex(row["request_tx"]),
                requester=PrincipalId(Kind.PRACTITIONER, row["requester"]),
                records=records,
                opened_at=row["opened_at"],
                ttl=row["ttl"],
            )
        )
    if not live and expired:
        raise _Exit(1, f"sessions {', '.join(expired)} for {args.practitioner} have expired")
    window = None
    if getattr(args, "from") is not None or args.to is not None:
        if getattr(args, "from") is None or args.to is None:
            raise _Exit(2, "--from and --to must be given together")
        window = (getattr(args, "from"), args.to)
    try:
        entries = build_timeline(live, window)
    except CareLedgerError as exc:
        raise _Exit(2, str(exc)) from exc
    for line in timeline_rows(entries):
        print(line)
    return 0


def cmd_dashboard(args: argparse.Namespace) -> int:
    state = _load_state(args.out)
    ledgers = sorted(Path(args.out).glob("*.ledger"))
    if not ledgers:
        raise _Exit(2, f"no ledger under {args.out}; run a scenario first")
    consent = _valid(max((_read(path) for path in ledgers), key=lambda led: len(led.blocks)))
    struggles = state["struggles"].get(args.study, {})
    rows = consent_mod.consent_status(
        consent, PrincipalId(Kind.RESEARCHER, args.researcher), args.study, struggles
    )
    for line in consent_mod.dashboard_rows(rows):
        print(line)
    return 0


def cmd_shred_check(args: argparse.Namespace) -> int:
    state = _load_state(args.out)
    vault = state["vaults"].get(args.org)
    if vault is None:
        raise _Exit(2, f"unknown organization {args.org}")
    ledger = _read(Path(args.out) / f"{args.org}.ledger")
    _valid(ledger)
    commitments = set()
    for _, _, tx in ledger.transactions():
        if isinstance(tx.payload, RegisterPrincipal) and tx.payload.identity_commitment:
            commitments.add(tx.payload.identity_commitment)
    if args.identifiers:
        try:
            text = Path(args.identifiers).read_text()
        except OSError as exc:
            raise _Exit(2, f"unreadable identifiers file: {exc}") from exc
        identifiers = [line.strip() for line in text.splitlines() if line.strip()]
    else:
        identifiers = list(SYNTHETIC_NAMES)
    rows = vault.items()
    if args.patient is not None:
        if args.patient not in vault:
            print(f"no vault row for {args.patient} at {args.org}: unlinkable")
            return 0
        rows = [(args.patient, vault[args.patient])]
    linkable = []
    for pseudonym, row in rows:
        salt = bytes.fromhex(row["salt"])
        for identifier in identifiers:
            if crypto.commitment(salt, identifier) in commitments:
                linkable.append((pseudonym, identifier))
    if linkable:
        for pseudonym, identifier in linkable:
            print(f"linkable: {pseudonym} -> {identifier!r} via {args.org}'s vault")
        return 1
    print(f"unlinkable: {args.org} cannot re-derive any on-chain commitment")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="careledger",
        description="Permissioned-ledger engine and care-network simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario script")
    p_run.add_argument("script")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default="out")
    for f in _SIM_SETTINGS:
        p_run.add_argument("--" + f.name.replace("_", "-"), type=int, default=f.default)
    p_run.set_defaults(fn=cmd_run)

    p_verify = sub.add_parser("verify", help="validate a persisted ledger")
    p_verify.add_argument("ledger")
    p_verify.set_defaults(fn=cmd_verify)

    p_audit = sub.add_parser("audit", help="export the audit log as JSON lines")
    p_audit.add_argument("ledger")
    p_audit.add_argument("--subject")
    p_audit.add_argument("--actor")
    p_audit.add_argument("--action")
    p_audit.add_argument("--from", type=int, default=None)
    p_audit.add_argument("--to", type=int, default=None)
    p_audit.set_defaults(fn=cmd_audit)

    p_timeline = sub.add_parser("timeline", help="merged record view for a practitioner")
    p_timeline.add_argument("out")
    p_timeline.add_argument("practitioner")
    p_timeline.add_argument("--from", type=int, default=None)
    p_timeline.add_argument("--to", type=int, default=None)
    p_timeline.set_defaults(fn=cmd_timeline)

    p_dash = sub.add_parser("dashboard", help="consent dashboard for a study")
    p_dash.add_argument("out")
    p_dash.add_argument("researcher")
    p_dash.add_argument("study")
    p_dash.set_defaults(fn=cmd_dashboard)

    p_shred = sub.add_parser(
        "shred-check", help="check whether an org can still re-derive on-chain commitments"
    )
    p_shred.add_argument("out")
    p_shred.add_argument("org")
    p_shred.add_argument("--patient", default=None)
    p_shred.add_argument("--identifiers", default=None)
    p_shred.set_defaults(fn=cmd_shred_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _Exit as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except ScriptError as exc:
        print(f"script error: {exc}", file=sys.stderr)
        return 2
    except CareLedgerError as exc:
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

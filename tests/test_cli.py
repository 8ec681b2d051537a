"""CLI surface: subcommands, exit codes, byte-stable outputs."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from careledger.cli import STATE_FILE, _state_dict, main
from careledger.ledger import Kind, PrincipalId, RegisterPrincipal, read_ledger, write_ledger

from conftest import FIXTURES, build_care_sim, rule_breaking_block

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def case1_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("case1")
    code = main(["run", str(FIXTURES / "case1.scn"), "--seed", "42", "--out", str(out)])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def case2_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("case2")
    code = main(["run", str(FIXTURES / "case2.scn"), "--seed", "9", "--out", str(out)])
    assert code == 0
    return out


class TestRun:
    def test_run_twice_identical_outputs(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["run", str(FIXTURES / "case1.scn"), "--seed", "42", "--out", str(out)]) == 0
        for name in sorted(p.name for p in out_a.iterdir()):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_missing_script_exit_2(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.scn"), "--out", str(tmp_path / "o")]) == 2

    def test_script_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.scn"
        bad.write_text("org add a\nfrobnicate everything\n")
        assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_seed_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CARELEDGER_SEED", "42")
        out_env = tmp_path / "env"
        assert main(["run", str(FIXTURES / "case1.scn"), "--out", str(out_env)]) == 0
        out_flag = tmp_path / "flag"
        assert main(["run", str(FIXTURES / "case1.scn"), "--seed", "42", "--out", str(out_flag)]) == 0
        assert (out_env / "trace.tsv").read_bytes() == (out_flag / "trace.tsv").read_bytes()


class TestVerify:
    def test_untouched_ledger_ok_exit_0(self, case1_out, capsys):
        assert main(["verify", str(case1_out / "hospital.ledger")]) == 0
        assert capsys.readouterr().out.startswith("ok:")

    def test_hex_edited_byte_exit_1(self, case1_out, tmp_path, capsys):
        data = bytearray((case1_out / "hospital.ledger").read_bytes())
        data[len(data) // 2] ^= 0xFF
        target = tmp_path / "tampered.ledger"
        target.write_bytes(bytes(data))
        code = main(["verify", str(target)])
        out = capsys.readouterr()
        assert code in (1, 2)  # violation, or the record no longer parses
        if code == 1:
            assert "height" in out.out

    def test_empty_file_exit_2(self, tmp_path):
        empty = tmp_path / "empty.ledger"
        empty.write_bytes(b"")
        assert main(["verify", str(empty)]) == 2

    def test_truncated_file_exit_2(self, case1_out, tmp_path):
        data = (case1_out / "hospital.ledger").read_bytes()
        target = tmp_path / "trunc.ledger"
        target.write_bytes(data[:-9])
        assert main(["verify", str(target)]) == 2


class TestAudit:
    def test_no_flags_lists_every_committed_tx(self, case1_out, capsys):
        assert main(["audit", str(case1_out / "hospital.ledger")]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        from careledger.ledger import read_ledger

        ledger = read_ledger(str(case1_out / "hospital.ledger"))
        assert len(lines) == len(ledger.height_index)
        for line in lines:
            json.loads(line)

    def test_emergency_filter_returns_flagged_only(self, tmp_path, capsys):
        out = tmp_path / "em"
        assert main(["run", str(FIXTURES / "case1_emergency.scn"), "--seed", "4", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["audit", str(out / "hospital.ledger"), "--action", "EmergencyAccess"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        assert len(lines) == 2
        for line in lines:
            row = json.loads(line)
            assert row["action"] == "EmergencyAccess"
            assert row["detail"]["emergency"] is True

    def test_subject_and_action_compose_conjunctively(self, case1_out, capsys):
        assert main([
            "audit", str(case1_out / "hospital.ledger"),
            "--subject", "p001", "--action", "GrantAccess",
        ]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        assert len(lines) == 1
        row = json.loads(lines[0])
        assert row["subject"] == "p001" and row["action"] == "GrantAccess"

    def test_inverted_range_exit_2(self, case1_out):
        assert main([
            "audit", str(case1_out / "hospital.ledger"), "--from", "100", "--to", "50",
        ]) == 2


class TestTimeline:
    def test_case1_ordering(self, case1_out, capsys):
        assert main(["timeline", str(case1_out), "nurse1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            "10\thospital\tvitals\tBP 132/85",
            "20\thomecare\tvitals\tHR 72 bpm",
            "30\thospital\tvitals\tBP 128/82",
        ]

    def test_window_flags(self, case1_out, capsys):
        assert main(["timeline", str(case1_out), "nurse1", "--from", "15", "--to", "30"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["20\thomecare\tvitals\tHR 72 bpm"]

    def test_expired_sessions_exit_1(self, tmp_path, capsys):
        script = tmp_path / "expire.scn"
        script.write_text(
            "org add hospital\norg add homecare\n"
            "practitioner add nurse1 homecare\npatient add p001\n"
            "plan create plan1 p001 hospital homecare\nbind nurse1 plan1\n"
            'record add hospital p001 vitals 10 "BP 1" x\n'
            "grant p001 plan1 nurse1 vitals 0 99999999\n"
            "tick 2000\n"
            "request nurse1@homecare hospital p001 vitals\n"
            "tick 2000\n"
            "tick 700000\n"  # past the session ttl
        )
        out = tmp_path / "o"
        assert main(["run", str(script), "--seed", "3", "--out", str(out)]) == 0
        capsys.readouterr()
        code = main(["timeline", str(out), "nurse1"])
        err = capsys.readouterr().err
        assert code == 1
        assert "expired" in err

    def test_unknown_outdir_exit_2(self, tmp_path):
        assert main(["timeline", str(tmp_path / "missing"), "nurse1"]) == 2


class TestDashboard:
    def test_case2_rows(self, case2_out, capsys):
        assert main(["dashboard", str(case2_out), "drx", "sleepstudy"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "participant\tstate\tattempts\tmistakes\tstruggles\tsigned_at"
        by_participant = {l.split("\t")[0]: l.split("\t") for l in lines[1:]}
        assert by_participant["part1"][1:4] == ["signed", "3", "3"]
        assert by_participant["part2"][1] == "withdrawn"
        assert by_participant["part3"][1:4] == ["invited", "0", "0"]

    def test_empty_study_header_only(self, tmp_path, capsys):
        script = tmp_path / "empty.scn"
        script.write_text(
            "org add uni\nresearcher add drx\n"
            f"study register drx lonely {FIXTURES / 'consent_quiz.qz'}\n"
            "tick 1500\n"
        )
        out = tmp_path / "o"
        assert main(["run", str(script), "--seed", "2", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["dashboard", str(out), "drx", "lonely"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["participant\tstate\tattempts\tmistakes\tstruggles\tsigned_at"]

    def test_non_researcher_exit_1(self, case2_out):
        assert main(["dashboard", str(case2_out), "someone", "sleepstudy"]) == 1

    def test_rows_fold_from_a_chain_that_validates(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["run", str(FIXTURES / "case2.scn"), "--seed", "9", "--out", str(out)]) == 0
        for path in out.glob("*.ledger"):
            ledger = read_ledger(str(path))
            block = ledger.blocks[1]
            (org, _), *rest = block.endorsements
            ledger.blocks[1] = replace(block, endorsements=((org, bytes(64)), *rest))
            write_ledger(ledger, str(path))
        capsys.readouterr()
        assert main(["dashboard", str(out), "drx", "sleepstudy"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "endorsement" in captured.err


@pytest.fixture(scope="module")
def shred_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("shred")
    assert main(["run", str(FIXTURES / "shred.scn"), "--seed", "6", "--out", str(out)]) == 0
    return out


class TestShredCheck:
    def test_shredded_org_unlinkable_exit_0(self, shred_out, capsys):
        assert main(["shred-check", str(shred_out), "hospital", "--patient", "p001"]) == 0
        assert "unlinkable" in capsys.readouterr().out

    def test_surviving_org_linkable_exit_1(self, shred_out, capsys):
        assert main(["shred-check", str(shred_out), "homecare", "--patient", "p001"]) == 1
        assert "linkable" in capsys.readouterr().out

    def test_unknown_org_exit_2(self, shred_out):
        assert main(["shred-check", str(shred_out), "nowhere"]) == 2

    def test_scans_only_a_chain_that_validates(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["run", str(FIXTURES / "shred.scn"), "--seed", "6", "--out", str(out)]) == 0
        path = out / "homecare.ledger"
        p001 = PrincipalId(Kind.PATIENT, "p001")
        (commitment,) = [
            tx.payload.identity_commitment
            for _, _, tx in read_ledger(str(path)).transactions()
            if isinstance(tx.payload, RegisterPrincipal) and tx.payload.subject is p001
        ]
        data = bytearray(path.read_bytes())
        data[data.index(commitment)] ^= 1
        path.write_bytes(bytes(data))
        capsys.readouterr()
        assert main(["shred-check", str(out), "homecare", "--patient", "p001"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "tx_root" in captured.err


@pytest.fixture(scope="module")
def rule_breaking_out(tmp_path_factory):
    """`build_care_sim()`'s output directory, as `run` writes it, after every
    ledger took a block that passes the chain rules but not the transaction
    rules; returns the directory and that block."""
    out = tmp_path_factory.mktemp("rule_breaking")
    sim = build_care_sim()
    block = rule_breaking_block(sim)
    (out / STATE_FILE).write_text(json.dumps(_state_dict(sim)))
    for name, node in sim.nodes.items():
        node.ledger.append(block)
        write_ledger(node.ledger, str(out / f"{name}.ledger"))
    return out, block


class TestTransactionRules:
    def test_verify_names_height_position_and_rule(self, rule_breaking_out, capsys):
        out, block = rule_breaking_out
        assert main(["verify", str(out / "hospital.ledger")]) == 1
        tx_id = block.transactions[0].tx_id.hex()
        expected = f"height {block.height}: not_author: tx #0 ({tx_id}): drjones is not the grantor p001\n"
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize(
        "argv",
        [
            ["audit", "{out}/homecare.ledger"],
            ["dashboard", "{out}", "drx", "sleepstudy"],
            ["shred-check", "{out}", "hospital", "--patient", "p001"],
        ],
    )
    def test_readers_exit_1_on_a_rule_violation(self, rule_breaking_out, capsys, argv):
        out, block = rule_breaking_out
        assert main([arg.format(out=out) for arg in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"height {block.height}: not_author: tx #0 (")


class TestExitCodeTable:
    def test_canned_invocations(self, case1_out, case2_out, tmp_path):
        empty = tmp_path / "empty.ledger"
        empty.write_bytes(b"")
        taken = tmp_path / "taken"
        taken.write_text("a regular file, not a directory\n")
        bad_script = tmp_path / "bad.scn"
        bad_script.write_text("nonsense\n")
        not_utf8 = tmp_path / "not-utf8"
        not_utf8.mkdir()
        (not_utf8 / "state.json").write_bytes(b"\xff\xfe")
        table = [
            (["run", str(FIXTURES / "case1.scn"), "--seed", "1", "--out", str(tmp_path / "r1")], 0),
            (["run", str(tmp_path / "missing.scn"), "--out", str(tmp_path / "r2")], 2),
            (["run", str(bad_script), "--out", str(tmp_path / "r3")], 2),
            (["run", str(FIXTURES), "--out", str(tmp_path / "r4")], 2),  # a directory, not a script
            (["run", str(FIXTURES / "case1.scn"), "--seed", "1", "--out", str(taken)], 2),
            (["verify", str(case1_out / "hospital.ledger")], 0),
            (["verify", str(empty)], 2),
            (["audit", str(case1_out / "hospital.ledger")], 0),
            (["audit", str(case1_out / "hospital.ledger"), "--from", "9", "--to", "1"], 2),
            (["timeline", str(case1_out), "nurse1"], 0),
            (["timeline", str(tmp_path / "missing-dir"), "nurse1"], 2),
            (["timeline", str(not_utf8), "nurse1"], 2),
            (["dashboard", str(case2_out), "drx", "sleepstudy"], 0),
            (["dashboard", str(case2_out), "stranger", "sleepstudy"], 1),
            (["shred-check", str(case2_out), "uni"], 1),  # vault intact: linkable
            (["shred-check", str(case2_out), "uni", "--identifiers", str(tmp_path / "no.txt")], 2),
        ]
        for argv, expected in table:
            assert main(argv) == expected, argv

    def test_usage_error_exits_2_without_traceback(self, case2_out, tmp_path):
        argv = ["shred-check", str(case2_out), "uni", "--identifiers", str(tmp_path / "no.txt")]
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run(
            [sys.executable, "-m", "careledger.cli", *argv],
            capture_output=True, text=True, env=env, timeout=30,
        )
        assert proc.returncode == 2
        assert len(proc.stderr.splitlines()) == 1
        assert "Traceback" not in proc.stderr


def test_run_output_is_independent_of_the_hash_seed(tmp_path):
    """Set and dict iteration order varies with PYTHONHASHSEED; no output byte may."""
    outputs = []
    for hash_seed in ("0", "12345"):
        out = tmp_path / hash_seed
        env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": hash_seed}
        argv = ["run", str(FIXTURES / "case1.scn"), "--seed", "42", "--out", str(out)]
        proc = subprocess.run(
            [sys.executable, "-m", "careledger.cli", *argv], capture_output=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((proc.stdout, {p.name: p.read_bytes() for p in sorted(out.iterdir())}))
    assert len(outputs[0][1]) >= 4 and outputs[0] == outputs[1]

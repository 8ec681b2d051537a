"""Tiny-size checks of the benchmark harness itself. They are not collected
by the repository's test command; run them with

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import audit  # noqa: E402
import care  # noqa: E402
import common  # noqa: E402
import consent_match  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
from careledger.policy import Decision, Reason, Verdict  # noqa: E402


def tiny_burst() -> care.CareBurst:
    return care.CareBurst(patients=24, practitioners_per_org=3, round_size=12)


@pytest.fixture(autouse=True)
def work_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(common, "WORK_DIR", tmp_path)
    return tmp_path


def test_tiny_run_is_correct_and_reports_every_end_to_end_metric():
    out = run.run(tiny_burst(), seed=3, seconds=1, trace=False)
    assert out["checks"].failed == 0, out["checks"].first_failures
    assert set(out["values"]) == {name for name, *_ in metrics.END_TO_END}
    assert all(value > 0 for value in out["values"].values())


@pytest.mark.parametrize(
    "w",
    [
        care.CareStream(patients=20, practitioners_per_org=3),
        audit.LedgerAudit(patients=4, participants=2, requests_per_patient=1),
        consent_match.ConsentMatch(participants=150),
    ],
    ids=lambda w: w.name,
)
@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
def test_other_workloads_are_correct_at_tiny_size(w, trace):
    out = run.run(w, seed=3, seconds=1, trace=trace)
    assert out["checks"].failed == 0, out["checks"].first_failures


def test_consent_match_outlasts_its_registered_studies():
    # One cohort is the whole population, so every cycle needs a new study.
    w = consent_match.ConsentMatch(participants=consent_match.ConsentMatch.COHORT)
    st, checks = w.setup(3), common.Checks()
    w.measure(st, None, checks, traced=False)
    assert checks.failed == 0, checks.first_failures
    assert len({study for study, _ in st.lifecycles}) == w.TRACE_CYCLES > len(consent_match.STUDIES)


def test_planted_wrong_expectation_is_counted_in_failed_ratio(monkeypatch, capsys):
    real = care.request_for
    planted = []

    def plant_once(st, case):
        req = real(st, case)
        if not planted:
            req.want = Decision(Verdict.DENY, Reason.UNKNOWN_PRINCIPAL)
            planted.append(req)
        return req

    monkeypatch.setattr(care, "request_for", plant_once)
    w = tiny_burst()
    result = run.report(w, 3, False, run.run(w, seed=3, seconds=1, trace=False))
    assert (result["correct"], result["failed"]) == (False, 1)
    assert result["attempted"] > 1
    assert "failed_ratio" in capsys.readouterr().out


def test_diverging_setup_fails_the_run(monkeypatch):
    real = care.build_care_network

    def diverging(seed, *args):
        st = real(seed, *args)
        st.sim.register_practitioner("extra-w00", "hospital")
        st.sim.settle()
        st.fingerprint = common.sim_fingerprint(st.sim)
        return st

    # Only this process diverges; the set-ups in fresh interpreters do not.
    monkeypatch.setattr(care, "build_care_network", diverging)
    out = run.run(tiny_burst(), seed=3, seconds=1, trace=False)
    assert "set-ups of one seed diverged" in out["checks"].first_failures


def test_fingerprint_unlike_an_earlier_run_fails_the_run(work_dir):
    w = tiny_burst()
    assert run.run(w, seed=5, seconds=1, trace=False)["checks"].failed == 0
    (record,) = (work_dir / "fingerprints").glob("*.json")
    earlier = json.loads(record.read_text())
    earlier["run"]["tip"] = "00" * 32
    record.write_text(json.dumps(earlier, sort_keys=True))
    out = run.run(w, seed=5, seconds=1, trace=False)
    assert "fingerprint differs from an earlier run of this code and seed" in out["checks"].first_failures


def test_traced_counts_repeat_exactly():
    counts = [n for n, unit, *_ in metrics.PER_LAYER if unit != "s" and n != "trace.overhead_ratio"]
    runs = [run.run(tiny_burst(), seed=7, seconds=1, trace=True) for _ in range(2)]
    for out in runs:
        assert out["checks"].failed == 0, out["checks"].first_failures
        assert list(out["values"]) == [name for name, *_ in metrics.PER_LAYER]
    assert [runs[0]["values"][n] for n in counts] == [runs[1]["values"][n] for n in counts]
    assert runs[0]["values"]["policy.evaluate_request.calls"] == 24


def test_benchmark_json_lists_what_the_harness_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # care_burst stays runnable but is too unsteady here to carry a bound.
    assert [w["name"] for w in spec["workloads"]] == [name for name in run.workloads() if name != "care_burst"]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in metrics.PER_LAYER
    ]


def test_fails_without_the_library_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    args = ["--workload", "care_burst", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=tmp_path, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""Self-check of the benchmark harness.

Run with ``python3 -m pytest perfbench/tests -q`` from the root of the
checkout.  Reduced job lists of every workload run in-process, traced and
untraced; one full run of ``run.py`` checks the printed result line.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# the smallest job list of each workload that still holds its large class
REDUCED = {
    "ensemble": {"ENSEMBLE_DIMS": (2, 3)},
    "spectrum": {"SPECTRUM_DIMS": (3,), "LARGE_CLASS": {"spectrum": "d=3"}},
    "ground-space": {"PAPER_RINGS": (8, 9), "SEEDED_RINGS": (6,), "LARGE_CLASS": {"ground-space": "N=8"}},
}


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.BUILDERS)


@pytest.fixture(params=sorted(REDUCED))
def reduced(request, monkeypatch):
    for name, value in REDUCED[request.param].items():
        monkeypatch.setattr(workloads, name, value)
    return request.param, workloads.build(request.param, 3)


def test_untraced_run_reports_every_end_to_end_metric(reduced):
    name, jobs = reduced
    res = worker.result(name, 3, False, worker.measure(jobs, {}, 0.0, False))
    assert res["failed"] == 0, res["problems"]
    expected = {k: u for k, u in E2E.items() if k != "setup_s"}  # run.py measures set-up
    assert {k: m["unit"] for k, m in res["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_traced_run_nests_and_covers(reduced):
    name, jobs = reduced
    m = worker.measure(jobs, {}, 0.0, True)
    res = worker.result(name, 3, True, m)
    assert res["failed"] == 0, res["problems"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == PER_LAYER
    spans = m["tracer"].spans
    job_spans = {s["id"]: s for s in spans if s["parent"] is None}
    assert len(job_spans) == len(jobs)
    for s in spans:
        if s["parent"] is None:
            continue
        parent = job_spans[s["parent"]]
        assert parent["start"] <= s["start"] <= s["end"] <= parent["end"]
        assert (s["job"], s["pass"]) == (parent["job"], parent["pass"])
    assert worker.span_coverage(spans) >= 0.9
    called = {s["name"] for s in spans}
    for name in worker.LAYER_PEAKS:
        assert (res["metrics"][name + "_peak_mb"]["value"] > 0) == (name in called), name


def test_reference_mismatch_fails_a_job():
    job = next(j for j in workloads.build("spectrum", 0) if j.key == "paper")
    _, fingerprint = job.check(job.run(workloads.plain_call))
    assert workloads.compare(fingerprint, fingerprint) == []
    shifted = dict(fingerprint, kappa=[x + 1e-6 for x in fingerprint["kappa"]])
    assert workloads.compare(shifted, fingerprint)


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_run_prints_the_result_line():
    proc = _run(ROOT, "--workload", "ensemble", "--seed", "5", "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert {k: m["unit"] for k, m in last["metrics"].items()} == E2E
    for name, unit in E2E.items():
        assert any(name in line and line.split()[-1] == unit for line in lines[:-1]), name
    assert any("failed_frac" in line for line in lines[:-1])


def test_run_without_sources_fails_cleanly(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "ensemble", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""

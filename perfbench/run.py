"""hbts benchmark: run one workload and print its metrics.

Usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of an hbts checkout; the library is imported from its
``src/``.  The workload runs as a closed loop, one client with jobs back to
back, in a child process of its own (see ``worker.py``) whose BLAS is pinned
to one thread and whose address space is capped, so an over-allocation
fails a job instead of the machine.

With ``--trace 0`` the end-to-end metrics are printed; set-up is measured in
several processes and its median reported.  With ``--trace 1`` the per-layer
metrics of a traced run are printed instead.  Each metric is printed by name
with its unit, then the last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
A record of the run goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_SAMPLES = 11         # processes whose set-up time is measured; the median is reported
MEMORY_CAP = 3 << 30       # address-space cap of each workload process, bytes
CHILD_TIMEOUT = 170.0      # seconds a workload process may take beyond its run length
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class WorkerError(RuntimeError):
    """A workload process died or printed no result."""


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def run_worker(args, setup_only: bool):
    """Start one workload process; return (set-up seconds, its result or None)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **{var: "1" for var in PINNED})
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            preexec_fn=_cap_memory)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=args.seconds + CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError("workload process timed out") from None
    if ready.strip() != "ready" or proc.returncode != 0:
        raise WorkerError("workload process exited with code %s" % proc.returncode)
    if setup_only:
        return setup, None
    lines = [line for line in rest.splitlines() if line.strip()]
    if not lines:
        raise WorkerError("workload process printed no result")
    return setup, json.loads(lines[-1])


def report(res: dict) -> None:
    """Human-readable lines: every metric with its unit, failures, samples, environment."""
    tag = "%s seed=%d trace=%d" % (res["workload"], res["seed"], res["trace"])
    for name, m in res["metrics"].items():
        print("%s  %-40s %14.6g %s" % (tag, name, m["value"], m["unit"]))
    print("%s  %-40s %14.6g 1   (%d of %d jobs)" % (tag, "failed_frac", res["failed"] / res["attempted"],
                                                     res["failed"], res["attempted"]))
    print("%s  passes %d, samples %s, jobs checked against recorded references %d"
          % (tag, res["passes"], res["samples"], res["reference_checked"]))
    if "tracing" in res:
        print("%s  spans %d, smallest job coverage by layer spans %.3f, layer share of traced wall %.3f"
              % (tag, res["tracing"]["spans"], res["tracing"]["min_job_coverage"], res["tracing"]["layer_share_of_wall"]))
    print("%s  environment %s" % (tag, json.dumps(res["environment"], sort_keys=True)))
    for problem in res["problems"]:
        print("%s  FAILED %s" % (tag, problem))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Run one hbts benchmark workload.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "hbts" / "__init__.py").is_file():
        print("error: no hbts sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    extra = 0 if args.trace else SETUP_SAMPLES - 1
    try:
        # half the set-up samples before the run and half after, so a slow spell at one end weighs less
        setups = [run_worker(args, True)[0] for _ in range(extra // 2)]
        setup, res = run_worker(args, False)
        setups += [setup] + [run_worker(args, True)[0] for _ in range(extra - extra // 2)]
    except WorkerError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    if not args.trace:
        res["metrics"] = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **res["metrics"]}
        res["setup_samples_s"] = setups
    report(res)
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / ("result-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    out.write_text(json.dumps(res, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": res["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

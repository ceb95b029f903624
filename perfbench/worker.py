"""One workload process of the hbts benchmark; ``run.py`` starts it.

Usage: python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

The process imports hbts from ``src/`` of the checkout, draws the inputs
from the seed and warms up LAPACK, then prints ``ready``.  The time up to
that line is the workload's set-up.  It then runs passes over the fixed job
list, back to back in this one process, until ``--seconds`` are used up.
Each pass's outputs are checked after the pass, outside the timed region.
The last line of standard output is one JSON object with the measurements.

With ``--trace 1`` untraced and traced passes alternate.  A traced pass
wraps every call a job makes into hbts in a span.  One last pass, untimed,
takes the ``tracemalloc`` peaks of the calls whose peak is reported, so no
span's time includes the tracer's cost.  The spans stay in memory and go to
``.perfbench_out/`` when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

LAYERS = ("channels", "thermo", "correlators", "finite_state", "parent_ham")
LAYER_TIMES = (
    "channels.descend_channels", "channels.pair_descend_channel", "channels.extension_channel",
    "channels.choi_check",
    "thermo.single_site_infinity", "thermo.two_site_infinity", "thermo.classical_pair_infinity",
    "thermo.reduced_infinity_3", "thermo.reduced_infinity_4",
    "correlators.correlator_thermo", "correlators.exponent_spectrum", "correlators.powerlaw_check",
    "finite_state.recursion_check",
    "parent_ham.build_interaction", "parent_ham.adjoint_nullity_check", "parent_ham.assemble",
    "parent_ham.diagonalize", "parent_ham.grown_subspace_check",
)
LAYER_PEAKS = (
    "thermo.reduced_infinity_3", "thermo.reduced_infinity_4", "correlators.exponent_spectrum",
    "parent_ham.assemble", "parent_ham.diagonalize", "parent_ham.grown_subspace_check",
)
MB = 1024.0 * 1024.0

sys.path.insert(0, str(ROOT / "src"))
import numpy as np  # noqa: E402  (after the checkout's src/ is on the path)

import workloads  # noqa: E402


def call_name(fn, tag: str) -> str:
    return "%s.%s%s" % (fn.__module__.rsplit(".", 1)[-1], fn.__name__, tag)


class Tracer:
    """Spans around the benchmark's calls into hbts, one job span above each."""

    def __init__(self):
        self.spans = []
        self._job_span = None

    def open_job(self, pass_no: int, job_no: int, name: str) -> dict:
        span = {"id": len(self.spans), "name": "job:" + name, "parent": None, "job": job_no,
                "pass": pass_no, "start": time.perf_counter(), "end": None, "failed": False}
        self.spans.append(span)
        self._job_span = span
        return span

    def call(self, fn, *args, tag=""):
        job = self._job_span
        failed = True
        start = time.perf_counter()
        try:
            result = fn(*args)
            failed = False
            return result
        finally:
            end = time.perf_counter()
            self.spans.append({"id": len(self.spans), "name": call_name(fn, tag), "parent": job["id"],
                               "job": job["job"], "pass": job["pass"], "start": start, "end": end,
                               "failed": failed})


class PeakProbe:
    """The ``call`` of the untimed peak pass: the ``tracemalloc`` peak of each call whose peak is reported."""

    def __init__(self):
        self.peaks = {}

    def call(self, fn, *args, tag=""):
        name = call_name(fn, tag)
        if name not in LAYER_PEAKS:
            return fn(*args)
        tracemalloc.start()
        try:
            return fn(*args)
        finally:
            peak = tracemalloc.get_traced_memory()[1] / MB
            tracemalloc.stop()
            self.peaks[name] = max(self.peaks.get(name, 0.0), peak)


def run_pass(jobs, pass_no: int, tracer: Tracer | None = None, call=workloads.plain_call):
    """Run every job once, back to back; return the pass wall time and per-job records."""
    records = []
    wall_start = time.perf_counter()
    for job_no, job in enumerate(jobs):
        start = time.perf_counter()
        if tracer is not None:
            span = tracer.open_job(pass_no, job_no, job.key)
            call = tracer.call
        try:
            out, error = job.run(call), None
        except Exception as exc:  # a failed job is counted, never dropped
            out, error = None, "%s: %s" % (type(exc).__name__, exc)
        end = time.perf_counter()
        if tracer is not None:
            span["end"], span["failed"] = end, error is not None
        records.append((job, out, error, end - start))
    return time.perf_counter() - wall_start, records


def check_pass(records, reference: dict) -> tuple:
    """Check every job's outputs; return ([(class, latency, problems)], reference hits)."""
    checked, hits = [], 0
    for job, out, error, latency in records:
        if error is not None:
            found = ["raised " + error]
        else:
            found, fingerprint = job.check(out)
            ref = reference.get(job.key)
            if ref is not None:
                hits += 1
                found += workloads.compare(fingerprint, ref)
        checked.append((job.cls, latency, ["%s: %s" % (job.key, p) for p in found]))
    return checked, hits


def layer_metrics(spans: list, peaks: dict, traced_walls: list, plain_walls: list) -> dict:
    """Per-layer busy time per traced pass (median over passes) and peak memory of the peak pass."""
    per_pass = {}
    for s in spans:
        if s["parent"] is None:
            continue
        times = per_pass.setdefault(s["pass"], {})
        times[s["name"]] = times.get(s["name"], 0.0) + s["end"] - s["start"]
    passes = list(per_pass.values())
    metrics = {}
    for name in LAYER_TIMES:
        metrics[name + "_s"] = (statistics.median(t.get(name, 0.0) for t in passes), "s")
    for name in LAYER_PEAKS:
        metrics[name + "_peak_mb"] = (peaks.get(name, 0.0), "MB")
    for layer in LAYERS:
        failed = sum(1 for s in spans if s["failed"] and s["parent"] is not None and s["name"].startswith(layer + "."))
        metrics[layer + ".failed"] = (failed, "count")
    metrics["trace.overhead_s"] = (statistics.median(traced_walls) - statistics.median(plain_walls), "s")
    return metrics


def span_coverage(spans: list) -> float:
    """Smallest share of a job span's duration that its layer spans cover."""
    covered = {}
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] = covered.get(s["parent"], 0.0) + s["end"] - s["start"]
    jobs = [s for s in spans if s["parent"] is None]
    return min(covered.get(j["id"], 0.0) / (j["end"] - j["start"]) for j in jobs)


def blas_threads():
    """Thread count the bundled OpenBLAS reports, or None where it cannot be asked."""
    import ctypes
    import glob

    libs = Path(np.__file__).resolve().parents[1] / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def environment() -> dict:
    from importlib import metadata

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    with open("/proc/meminfo", encoding="ascii") as fh:
        mem_kb = int(fh.readline().split()[1])
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": mem_kb // 1024,
    }


def warm_up():
    """First calls into each LAPACK routine the jobs use, so set-up pays for them."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    h = a + a.conj().T
    np.linalg.eig(a)
    np.linalg.eigh(h)
    np.linalg.eigvalsh(h)
    np.linalg.svd(a)
    np.linalg.solve(a, a[:, 0])
    np.linalg.qr(a)
    np.linalg.lstsq(a, a[:, 0], rcond=None)


def measure(jobs, reference: dict, seconds: float, trace: bool) -> dict:
    """Run passes until ``seconds`` are used.

    With tracing, untraced and traced passes alternate, and one last pass
    takes the peaks.  Every pass's outputs are checked.
    """
    tracer, probe = (Tracer(), PeakProbe()) if trace else (None, None)
    kinds = ("plain", "traced") if trace else ("plain",)
    walls = {kind: [] for kind in kinds}
    checked, hits = [], 0

    def one_pass(kind, pass_no, **how):
        nonlocal hits
        wall, records = run_pass(jobs, pass_no, **how)
        found, hit = check_pass(records, reference)
        checked.extend((cls, latency, problems, kind) for cls, latency, problems in found)
        hits += hit
        return wall

    start = time.perf_counter()
    pass_no = 0
    while True:
        kind = kinds[pass_no % len(kinds)]
        pass_start = time.perf_counter()
        walls[kind].append(one_pass(kind, pass_no, tracer=tracer if kind == "traced" else None))
        pass_no += 1
        # start a cycle of passes (and, tracing, the peak pass) only if it would end less than half
        # its length after the run length, so that runs last the run length on average
        more = (len(kinds) + trace) * (time.perf_counter() - pass_start)
        if pass_no % len(kinds) == 0 and time.perf_counter() - start + more / 2 > seconds:
            break
    if trace:
        one_pass("peak", pass_no, call=probe.call)
        pass_no += 1
    return {"tracer": tracer, "peaks": probe.peaks if trace else None, "walls": walls, "passes": pass_no,
            "checked": checked, "hits": hits}


def result(name: str, seed: int, trace: bool, m: dict) -> dict:
    """Metrics and run record for one workload run (``setup_s`` is added by run.py)."""
    plain = [(cls, latency) for cls, latency, _, kind in m["checked"] if kind == "plain"]
    problems = [p for _, _, found, _ in m["checked"] for p in found]
    failed = sum(1 for _, _, found, _ in m["checked"] if found)
    large = [latency for cls, latency in plain if cls == workloads.LARGE_CLASS[name]]
    out = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "environment": environment(),
        "passes": m["passes"],
        "attempted": len(m["checked"]),
        "failed": failed,
        "reference_checked": m["hits"],
        "problems": problems[:20],
        "samples": {"wall_s": len(m["walls"]["plain"]), "job_p50_s": len(plain), "large_job_s": len(large)},
        "pass_walls_s": m["walls"],
        "job_latencies_s": plain,
    }
    if not trace:
        # wall_s and large_job_s are means: the host's speed drifts between levels for seconds at a
        # time, and a median over such samples jumps from one level to the next where a mean moves smoothly
        out["metrics"] = {
            "wall_s": (statistics.mean(m["walls"]["plain"]), "s"),
            "job_p50_s": (statistics.median(latency for _, latency in plain), "s"),
            "large_job_s": (statistics.mean(large), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        spans = m["tracer"].spans
        out["metrics"] = layer_metrics(spans, m["peaks"], m["walls"]["traced"], m["walls"]["plain"])
        layer_time = sum(s["end"] - s["start"] for s in spans if s["parent"] is not None)
        out["tracing"] = {
            "spans": len(spans),
            "min_job_coverage": span_coverage(spans),
            "layer_share_of_wall": layer_time / sum(m["walls"]["traced"]),
        }
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / ("spans-%s-seed%d.json" % (name, seed))
        path.write_text(json.dumps(spans))
        out["tracing"]["spans_file"] = str(path.relative_to(ROOT))
    out["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    if args.workload not in workloads.BUILDERS:
        print("unknown workload %r; choose from %s" % (args.workload, ", ".join(workloads.BUILDERS)), file=sys.stderr)
        return 2
    jobs = workloads.build(args.workload, args.seed)
    warm_up()
    print("ready", flush=True)
    if args.setup_only:
        return 0
    reference = json.loads(REFERENCE.read_text()).get(args.workload, {})
    m = measure(jobs, reference, args.seconds, bool(args.trace))
    print(json.dumps(result(args.workload, args.seed, bool(args.trace), m)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

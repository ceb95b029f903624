"""Record the reference outputs that the benchmark checks every job against.

Usage: python3 perfbench/record_reference.py

Runs each workload's job list once for every seed in ``SEEDS``, untimed,
checks the outputs, and writes their fingerprints to
``perfbench/reference.json``.  Jobs on seeds outside ``SEEDS`` are
still checked, against the invariants in ``workloads.py`` alone.  Record
only from a commit whose outputs are trusted.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
from pathlib import Path

from run import PINNED

for _var in PINNED:
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402

REFERENCE = Path(__file__).resolve().parent / "reference.json"
SEEDS = range(16)   # the seeds whose outputs are recorded
PROCESSES = 2       # workload-seed pairs recorded at once


def _round(value):
    """Drop the digits no comparison looks at, to keep the file small."""
    if isinstance(value, float):
        return float("%.13g" % value)
    if isinstance(value, list):
        return [_round(x) for x in value]
    return value


def record(task) -> tuple:
    name, seed = task
    prints = {}
    for job in workloads.build(name, seed):
        problems, fingerprint = job.check(job.run(workloads.plain_call))
        if problems:
            raise RuntimeError("%s seed %d %s: %s" % (name, seed, job.key, problems))
        prints[job.key] = {k: _round(v) for k, v in fingerprint.items()}
    return name, prints


def main() -> int:
    tasks = [(name, seed) for name in workloads.BUILDERS for seed in SEEDS]
    reference = {name: {} for name in workloads.BUILDERS}
    with multiprocessing.get_context("spawn").Pool(PROCESSES) as pool:
        for name, prints in pool.imap_unordered(record, tasks):
            reference[name].update(prints)
    REFERENCE.write_text(json.dumps(reference, sort_keys=True, separators=(",", ":")) + "\n")
    print("wrote %d fingerprints to %s" % (sum(map(len, reference.values())), REFERENCE))
    return 0


if __name__ == "__main__":
    sys.exit(main())

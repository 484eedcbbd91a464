"""The repository benchmark: one workload per process.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fifty-year --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload and prints every end-to-end metric;
``--trace 1`` runs it once untraced and once with the layers wrapped and
prints every per-layer metric.  Either way every output is checked
against ``perfbench/pinned.json``.  Human-readable lines come first; the
last line of standard output is the JSON result::

    {"correct": true, "attempted": 2, "failed": 0, "metrics": {...}}

The program is built from ``src/`` of the checkout the command runs in;
without it the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from layers import DECLARED

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"


def source_digest() -> str:
    """SHA-256 over every file under ``src/repro`` (path and bytes), so a
    result names the exact program it measured even outside git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def commit() -> str:
    try:
        found = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return found.stdout.strip() if found.returncode == 0 else "unknown"


def host_facts() -> dict:
    import numpy

    return {
        "hostname": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit(),
        "source_sha256": source_digest(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in DECLARED["workloads"]]
    )
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def run(args, workdir: str):
    if args.workload == "serve-mixed":
        from serve_mixed import ServeMixed

        workload = ServeMixed(workdir)
        if args.trace:
            return workload.trace(args.seed, args.seconds)
        return workload.measure(args.seed, args.seconds)
    from workloads import SIM_WORKLOADS

    workload = SIM_WORKLOADS[args.workload](workdir)
    if args.trace:
        return workload.trace(args.seed)
    return workload.measure(args.seed, args.seconds)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    scratch = REPO / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        outcome = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it

    print(f"# host {json.dumps(host_facts(), sort_keys=True)}")
    print(f"# run {json.dumps(outcome.facts, sort_keys=True, default=str)}")
    for problem in outcome.problems:
        print(f"# problem: {problem}")
    metrics = {}
    if outcome.correct and outcome.metrics:
        for declared in DECLARED["per_layer" if args.trace else "end_to_end"]:
            name, unit = declared["name"], declared["unit"]
            value = outcome.metrics[name]
            metrics[name] = {"value": value, "unit": unit}
            print(f"{args.workload:12s} {name:36s} {value:>16.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Recompute the output digests in ``pinned.json``.

Usage (from the repository root)::

    python3 perfbench/pin.py fifty-year city-cohort mc-chaos serve-mixed

For each named workload, every input of its pool is run once through the
benchmark's own set-up/execute path (serve bodies through the offline
``compute_response``) and its digests are written back.  Run it only
when a change is *meant* to alter outputs; the correctness gate exists
to catch the changes that are not.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402


def pin_sim(name: str, pins: dict, workdir: str) -> None:
    """Pin every input of a simulation workload's pool."""
    workload = workloads.SIM_WORKLOADS[name](workdir)
    outputs = {}
    for index, value in enumerate(pins["pool"]):
        inputs = workload.inputs(index)
        outputs[str(value)] = workload.pinned(inputs, workload.unit(inputs).output)
        print(name, value, flush=True)
    pins["outputs"] = outputs


def pin_serve_mixed(name: str, pins: dict, workdir: str) -> None:
    from repro.serve import parse_request
    from repro.serve.service import compute_response

    bodies = {}
    for scenario in pins["scenarios"]:
        for seed in range(pins["seeds_per_scenario"]):
            payload = dict(pins["request"], scenario=scenario, seed=seed)
            body = compute_response(parse_request(payload, "run"))
            bodies[f"{scenario}/{seed}"] = hashlib.sha256(body).hexdigest()
    pins["bodies"] = bodies
    print(f"{len(bodies)} serve bodies pinned", flush=True)


PINNERS = {name: pin_sim for name in workloads.SIM_WORKLOADS}
PINNERS["serve-mixed"] = pin_serve_mixed


def main(names) -> int:
    unknown = sorted(set(names) - set(PINNERS))
    if not names or unknown:
        print(f"usage: pin.py WORKLOAD...  (one of {sorted(PINNERS)})", file=sys.stderr)
        return 2
    document = workloads.load_pins()
    with tempfile.TemporaryDirectory(dir=HERE.parent) as workdir:
        for name in names:
            PINNERS[name](name, document[name], workdir)
    with open(workloads.PINNED, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Rewrite benchmarks/reference.json from the current program.

    python3 benchmarks/make_reference.py

Runs every workload once on each of its initial meshes (seed 0 and any
other seed) and stores the checked outputs.  Only run this when a change is
meant to alter the numerical results; otherwise the reference is what
catches such a change.
"""

import json

import workloads
from run import REFERENCE, run_worker


def main():
    reference = {}
    for workload in sorted(workloads.PRESET):
        reference[workload] = {}
        for seed in (0, 1):
            rec = run_worker(workload, seed, "plain")
            if "error" in rec:
                raise SystemExit(f"{workload} seed {seed}: {rec['error']}")
            initial = workloads.initial_elements(workload, seed)
            reference[workload][str(initial)] = rec["fingerprint"]
            print(f"{workload} {initial} elements: {rec['run_s']:.2f} s")
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

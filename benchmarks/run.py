"""bdmadapt benchmark: time one workload and check its outputs.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs repetitions of one workload, each in a fresh single-threaded process
(benchmarks/worker.py), until the next one would end after S seconds; at
least one always runs.  Every repetition's outputs are checked against
benchmarks/reference.json.  A machine-speed probe (benchmarks/probe.py) runs
after each repetition; the reported times are the measured medians scaled
by PROBE_REF_S / (median probe time of this run), i.e. wall time at the
machine speed where the probe takes PROBE_REF_S.  The shared machine's speed
drifts by 20-30 % over minutes (setup_s and run_s drift together); the
scaled times do not.  Unscaled medians are printed and recorded as well.  With --trace 0 the end-to-end metrics are
reported; with --trace 1 untraced and traced repetitions alternate and the
per-layer metrics of the traced ones are reported.  Human-readable lines
(environment, median and quartiles of every metric, check failures) come
first; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Full records go to .bench_out/.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads
from tracing import COUNT_METRICS
from worker import PIN_EXIT

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(HERE, "worker.py")
PROBE = os.path.join(HERE, "probe.py")
REFERENCE = os.path.join(HERE, "reference.json")

PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
       "MKL_NUM_THREADS": "1"}
WORKER_TIMEOUT_S = 120
# set-up is also sampled by set-up-only workers until a run has this many
MIN_SETUP_SAMPLES = 7
# probe time that defines the reference machine speed: the median of
# benchmarks/probe.py on a shared 2-vCPU Intel Xeon virtual machine in its
# faster state
PROBE_REF_S = 0.6

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "dofs_per_s": "1/s",
                    "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "solver.assemble_s": "s", "solver.solve_s": "s", "solver.factor_s": "s",
    "solver.dofs": "count", "solver.nnz": "count",
    "solver.rel_residual_max": "ratio",
    "estimators.error_norms_s": "s", "estimators.saturation_s": "s",
    "estimators.oscillation_s": "s", "postprocess.theta_s": "s",
    "estimators.exact_q_points": "count", "estimators.exact_u_points": "count",
    "postprocess.resmin_s": "s", "estimators.eta_improved_s": "s",
    "fields.stiffness_tensors_calls": "count",
    "fields.stiffness_tensors_s": "s",
    "mesh.build_s": "s", "mesh.refine_s": "s", "mesh.refine_calls": "count",
    "mesh.bisections_per_marked": "ratio", "adaptivity.mark_s": "s",
    "adaptivity.marked_frac": "ratio", "adaptivity.loop_self_s": "s",
    "experiments.write_s": "s",
    "method_s": "s", "diagnostics_s": "s", "other_s": "s",
    "traced_wall_s": "s", "trace_overhead_frac": "ratio",
    "run_raw_s": "s", "probe_s": "s",
}


class PinError(RuntimeError):
    """The BLAS thread pin is not in effect in a worker."""


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"pin": PIN, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu": cpu,
            "git_commit": commit}


def run_worker(workload: str, seed: int, mode: str) -> dict:
    env = dict(os.environ, **PIN)
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed",
           str(seed), "--mode", mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"worker timed out after {WORKER_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        rec = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"error": f"worker exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}"}
    if proc.returncode == PIN_EXIT:
        raise PinError(rec.get("error"))
    if proc.returncode != 0 and "error" not in rec:
        rec["error"] = f"worker exited {proc.returncode}"
    return rec


def run_probe() -> float:
    proc = subprocess.run([sys.executable, PROBE], cwd=ROOT,
                          env=dict(os.environ, **PIN), capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["probe_s"]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def collect(workload: str, seed: int, seconds: float, trace: bool,
            reference: dict) -> dict:
    """Run workers until the next one would end after `seconds`.

    Returns the completed repetitions by mode, the set-up samples, and the
    attempted/failed mesh counts with the reasons for each failure.  Stops
    at the first repetition that raises.
    """
    plan = ("plain", "traced") if trace else ("plain",)
    out = {"reps": {mode: [] for mode in plan}, "setup": [], "probe": [],
           "problems": [], "attempted": 0, "failed": 0, "versions": None}
    durations = []
    start = time.perf_counter()
    while True:
        mode = plan[len(durations) % len(plan)]
        t = time.perf_counter()
        rec = run_worker(workload, seed, mode)
        durations.append(time.perf_counter() - t)
        if "fingerprint" in rec:
            a, f, bad = workloads.check(rec["fingerprint"], reference)
        else:
            a = f = sum(len(r["n_elements"]) for r in reference.values())
            bad = [rec["error"]]
        out["attempted"] += a
        out["failed"] += f
        out["problems"] += bad
        if "error" in rec:
            break
        out["reps"][mode].append(rec)
        out["setup"].append(rec["setup_s"])
        out["versions"] = {"blas_threads": rec["blas_threads"],
                           **rec["versions"]}
        out["probe"].append(run_probe())
        if len(out["setup"]) < MIN_SETUP_SAMPLES:
            extra = run_worker(workload, seed, "setup")
            if "setup_s" in extra:
                out["setup"].append(extra["setup_s"])
            out["probe"].append(run_probe())
        elapsed = time.perf_counter() - start
        if (len(durations) >= len(plan) and
                elapsed + statistics.median(durations) > seconds):
            break
    out["elapsed"] = time.perf_counter() - start
    return out


def trace_samples(traces: list, run_s: list, probe: list,
                  problems: list) -> dict:
    """Per-layer samples (unscaled) of the traced repetitions; appends to
    problems when counts differ between them or the spans do not add up."""
    samples = {key: [t["metrics"][key] for t in traces]
               for key in traces[0]["metrics"]}
    samples["trace_overhead_frac"] = [
        statistics.median(samples["traced_wall_s"])
        / statistics.median(run_s) - 1.0]
    samples["run_raw_s"] = run_s
    samples["probe_s"] = probe
    for key in COUNT_METRICS:
        if len(set(samples[key])) > 1:
            problems.append(f"{key} differs between traced runs: "
                            f"{samples[key]}")
    if not all(t["consistent"] for t in traces):
        problems.append("span self times plus other_s do not add up to the "
                        "traced wall time")
    return samples


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.PRESET))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "bdmadapt",
                                       "__init__.py")):
        print(f"no bdmadapt sources under {ROOT}/src", file=sys.stderr)
        return 2
    initial = workloads.initial_elements(args.workload, args.seed)
    with open(REFERENCE) as fh:
        reference = json.load(fh)[args.workload][str(initial)]

    env = environment()
    try:
        run = collect(args.workload, args.seed, args.seconds,
                      bool(args.trace), reference)
    except PinError as exc:
        print(f"refusing to time: {exc}", file=sys.stderr)
        return 3
    reps, problems = run["reps"], run["problems"]
    if not all(reps.values()):
        print("no repetition completed:\n" + "\n".join(problems),
              file=sys.stderr)
        return 1
    env["versions"] = run["versions"]

    plain = reps["plain"]
    run_s = [r["run_s"] for r in plain]
    speed = PROBE_REF_S / statistics.median(run["probe"])
    dofs = sum(d["dofs"] for d in plain[0]["fingerprint"].values())
    samples = {
        "run_s": [t * speed for t in run_s],
        "setup_s": [t * speed for t in run["setup"]],
        "dofs_per_s": [dofs / (t * speed) for t in run_s],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    raw = {"run_s": run_s, "setup_s": run["setup"], "probe_s": run["probe"]}
    units = END_TO_END_UNITS
    os.makedirs(OUT, exist_ok=True)
    if args.trace:
        traces = [r["trace"] for r in reps["traced"]]
        samples = trace_samples(traces, run_s, run["probe"], problems)
        units = PER_LAYER_UNITS
        for name in traces[0]["absent"]:
            print(f"absent span: {name}")
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "environment": env, "traces": traces}, fh, indent=1)

    print(f"workload {args.workload} seed {args.seed} initial elements "
          f"{initial}: {len(plain)} untraced, "
          f"{len(reps.get('traced', []))} traced repetitions in "
          f"{run['elapsed']:.1f} s")
    print("environment " + json.dumps(env, sort_keys=True))
    print("unscaled medians: " + ", ".join(
        f"{key} {statistics.median(v):.6g} s" for key, v in raw.items())
        + f"; speed factor {speed:.4f}")
    metrics = {}
    for key, unit in units.items():
        q1, med, q3 = quartiles(samples[key])
        metrics[key] = {"value": med, "unit": unit}
        print(f"{key:32s} {med:14.6g} {unit:6s} q1 {q1:.6g} q3 {q3:.6g} "
              f"n {len(samples[key])}")
    print(f"failed_frac {run['failed'] / run['attempted']:.6g} "
          f"({run['failed']} of {run['attempted']} solved meshes)")
    for line in problems:
        print(f"check failed: {line}")

    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-"
                                f"trace{args.trace}.json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "initial_elements": initial, "environment": env,
                   "samples": samples, "unscaled": raw,
                   "speed_factor": speed, "problems": problems}, fh, indent=1)
    print(json.dumps({"correct": run["failed"] == 0 and not problems,
                      "attempted": run["attempted"], "failed": run["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

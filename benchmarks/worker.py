"""One benchmark repetition in a fresh process.

    python3 benchmarks/worker.py --workload NAME --seed N --mode setup|plain|traced

The process pays what a command-line user pays: the import of bdmadapt (and
numpy/scipy), the problem preset and the initial mesh, timed as setup_s
before the first assembly; then, unless --mode setup, one call of the
workload (run_s), untraced or traced.  The BLAS thread pin must be in effect
or the worker refuses to time.  The last line of standard output is one JSON
object; benchmarks/run.py starts the workers and aggregates them.
"""

import argparse
import ctypes
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
PIN_EXIT = 3

_THREAD_GETTERS = ("openblas_get_num_threads", "openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads",
                   "scipy_openblas_get_num_threads64_")


def blas_threads() -> dict:
    """Thread count of every OpenBLAS library loaded into this process."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and ".so" in line})
    found = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in _THREAD_GETTERS:
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                found[os.path.basename(path)] = getter()
                break
    return found


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.PRESET))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "plain", "traced"))
    args = parser.parse_args()
    initial = workloads.initial_elements(args.workload, args.seed)
    sys.path.insert(0, SRC)

    t0 = time.perf_counter()
    import bdmadapt
    problem = bdmadapt.preset(workloads.PRESET[args.workload])
    bdmadapt.build_initial_mesh(problem.domain, initial)
    setup_s = time.perf_counter() - t0

    import numpy
    import scipy
    threads = blas_threads()
    out = {"setup_s": setup_s, "blas_threads": threads,
           "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__,
                        "python": sys.version.split()[0]}}
    if not threads or any(n != 1 for n in threads.values()):
        out["error"] = f"BLAS thread pin not in effect: {threads}"
        print(json.dumps(out))
        return PIN_EXIT
    if not os.path.abspath(bdmadapt.__file__).startswith(SRC + os.sep):
        out["error"] = f"bdmadapt imported from {bdmadapt.__file__}, not {SRC}"
        print(json.dumps(out))
        return 2
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    os.makedirs(OUT, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    tracer = None
    wrap = None
    if args.mode == "traced":
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        problem = tracer.count_exact(problem)
        wrap = tracer.wrap
    try:
        start = time.perf_counter()
        result = workloads.call(args.workload, problem, initial, out_dir,
                                wrap=wrap)
        end = time.perf_counter()
        if tracer is not None:
            tracer.restore()
            out["trace"] = tracer.summary(start, end)
        out["run_s"] = end - start
        out["fingerprint"] = workloads.fingerprint(args.workload, result,
                                                   out_dir)
    except Exception:  # reported to run.py, which counts the failure
        out["error"] = traceback.format_exc()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 1 if "error" in out else 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark workloads: what each one runs and which outputs are checked.

Each workload is one caller that runs one public entry point of bdmadapt to
completion and then starts the next repetition (a closed loop of one client).
Seed 0 uses the README's initial meshes; every other seed uses the next
structured mesh of the same family (50 instead of 32 triangles on the unit
square, 150 instead of 96 on the L-shape), so a claim can be rechecked on a
mesh it was not tuned on.  Nothing else depends on the seed: the loop itself
is deterministic.

Sizes are cut down from the README commands so that one repetition takes a
few seconds and several fit in one timed run:

* smooth-uniform: 4 uniform iterations instead of 5 (2,048 or 3,200 final
  elements).  Few, large meshes; the global sparse LU of the beta = 0
  saddle system is the largest single stage.
* advdiff-adaptive: 16 adaptive iterations instead of 24 (meshes stay below
  700 elements).  Exact-error diagnostics dominate; the solve takes the
  nonsymmetric B - C path.
* lshape-method: the method path only (no exact errors, no theta solve) until
  eta <= 3e-4, about 28 iterations up to about 9,800 elements.  Mesh
  refinement, postprocessing and the estimator have their largest shares.
"""

import json
import math
import os

PRESET = {
    "smooth-uniform": "smooth",
    "advdiff-adaptive": "advdiff",
    "lshape-method": "lshape",
}

# initial element count for seed 0 and for every other seed
INITIAL_ELEMENTS = {
    "smooth-uniform": (32, 50),
    "advdiff-adaptive": (32, 50),
    "lshape-method": (96, 150),
}

SMOOTH_ITERATIONS = 4
ADVDIFF_ITERATIONS = 16
LSHAPE_ETA_TOL = 3e-4

# relative tolerance of the reference check; element counts must match exactly
RTOL = 1e-6


def initial_elements(workload: str, seed: int) -> int:
    return INITIAL_ELEMENTS[workload][0 if seed == 0 else 1]


def call(workload: str, problem, initial: int, out_dir: str, wrap=None):
    """Run the workload's entry point once and return what it returned.

    wrap(name, fn) may replace the entry point the benchmark calls directly
    (the traced run uses it to open the outermost span).
    """
    import bdmadapt

    if workload == "lshape-method":
        run_adaptive = bdmadapt.run_adaptive
        if wrap is not None:
            run_adaptive = wrap("adaptivity.run_adaptive", run_adaptive)
        return run_adaptive(problem, p=1, theta=0.5, iterations=200,
                            eta_tol=LSHAPE_ETA_TOL, with_errors=False,
                            with_theta=False, keep_meshes=False,
                            initial_elements=initial)
    if workload == "smooth-uniform":
        config = bdmadapt.ExperimentConfig(
            experiment="smooth", p_list=(1, 2, 3), mode="uniform",
            iterations=SMOOTH_ITERATIONS, out=out_dir,
            initial_elements=initial)
    else:
        config = bdmadapt.ExperimentConfig(
            experiment="advdiff", p_list=(1, 2, 3), mode="adaptive",
            iterations=ADVDIFF_ITERATIONS, out=out_dir,
            initial_elements=initial)
    return bdmadapt.run_experiment(config, problem=problem)


def _degree_entry(records, aborted, slopes):
    """records: dicts with n_elements, n_flux_dofs, n_scalar_dofs, eta, errors."""
    last = records[-1] if records else {}
    return {
        "n_elements": [r["n_elements"] for r in records],
        "dofs": sum(r["n_flux_dofs"] + r["n_scalar_dofs"] for r in records),
        "nonfinite": [i for i, r in enumerate(records)
                      if not math.isfinite(r["eta"])],
        "eta": last.get("eta"),
        "err_full": (last.get("errors") or {}).get("full"),
        "slopes": slopes,
        "aborted": bool(aborted),
    }


def fingerprint(workload: str, result, out_dir: str) -> dict:
    """Per degree: element counts, dofs, final eta and err_full, slopes.

    For the run_experiment workloads everything is read back from the files
    the program wrote (log_p{p}.json and summary.json), as a user would.
    """
    if workload == "lshape-method":
        records = [r.to_dict() for r in result.records]
        return {str(result.p): _degree_entry(records, result.aborted, None)}
    with open(os.path.join(out_dir, "summary.json")) as fh:
        summary = json.load(fh)
    out = {}
    for p, info in summary["per_degree"].items():
        with open(os.path.join(out_dir, f"log_p{p}.json")) as fh:
            log = json.load(fh)
        out[p] = _degree_entry(log["iterations"],
                               info["aborted"] or log["aborted"],
                               info["slopes"])
    return out


def _close(a, b, floor=0.0) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= RTOL * max(abs(b), floor)


def _slopes_close(got, ref) -> bool:
    if got is None or ref is None:
        return got is None and ref is None
    return got.keys() == ref.keys() and all(
        _close(got[k], ref[k], floor=1.0) for k in ref)


def check(got: dict, ref: dict):
    """Compare one repetition's fingerprint with the reference.

    Returns (attempted, failed, problems).  Each solved mesh of the
    reference is one attempted operation.  A mesh fails when its element
    count differs or is missing, when its eta is not finite, or, for the
    last mesh of a degree, when eta, err_full, the slopes or the abort flag
    differ.  Meshes the reference does not have count as attempted and
    failed.
    """
    attempted = failed = 0
    problems = []
    for p, r in ref.items():
        n_ref = r["n_elements"]
        attempted += len(n_ref)
        g = got.get(p)
        if g is None:
            failed += len(n_ref)
            problems.append(f"p={p}: no result")
            continue
        n_got = g["n_elements"]
        bad = {i for i in range(len(n_ref))
               if i >= len(n_got) or n_got[i] != n_ref[i]}
        bad.update(i for i in g["nonfinite"] if i < len(n_ref))
        extra = max(0, len(n_got) - len(n_ref))
        attempted += extra
        failed += extra
        final_ok = (_close(g["eta"], r["eta"])
                    and _close(g["err_full"], r["err_full"])
                    and _slopes_close(g["slopes"], r["slopes"])
                    and g["aborted"] == r["aborted"])
        if not final_ok:
            bad.add(len(n_ref) - 1)
        if bad or extra:
            problems.append(
                f"p={p}: {len(bad) + extra} mismatched meshes "
                f"(elements {n_got} vs {n_ref}, eta {g['eta']!r} vs "
                f"{r['eta']!r}, err_full {g['err_full']!r} vs "
                f"{r['err_full']!r}, aborted {g['aborted']} vs "
                f"{r['aborted']})")
        failed += len(bad)
    extra_degrees = set(got) - set(ref)
    for p in extra_degrees:
        attempted += len(got[p]["n_elements"])
        failed += len(got[p]["n_elements"])
        problems.append(f"p={p}: not in the reference")
    return attempted, failed, problems

"""Write tests/golden.json, the reference trajectories of test_golden.py.

Run from the repository root:

    PYTHONPATH=src python tests/make_golden.py               # rewrite the file
    PYTHONPATH=src python tests/make_golden.py CASE...       # rewrite these cases
    PYTHONPATH=src python tests/make_golden.py --diff        # compare, write nothing
    PYTHONPATH=src python tests/make_golden.py --floor 0 1 2 # round-off floor
    PYTHONPATH=src python tests/make_golden.py --hash        # bitwise digests

Cases: the smooth preset under uniform refinement (4 iterations) and the
lshape and advdiff presets under adaptive refinement (8 iterations each), all
at p = 1, 2, 3.  Each iteration stores the element count, eta, eta_tilde,
err_full, delta, max eta_K, the global sums of the estimator parts (squared
mismatch, jump and boundary terms, in units of eta^2) and, for adaptive
iterations that mark, the relative Doerfler gap at the cut.  Regenerate the
file only in a change that records the old and new values and the reason;
never to hide a defect.  Given case names (e.g. lshape-adaptive), only those
cases are rewritten and the others keep their committed values.

--diff prints, per case, its bound, any difference in the element counts and
the worst deviation of each stored quantity against the committed file:
relative for the scalars, in units of eta^2 for the estimator parts (the
measures of test_golden.py) and absolute for the Doerfler gap.  A gated
quantity over the case's bound is marked "OVER".

--floor SEEDS measures each case's round-off floor: for every seed, in a
fresh process, each node and weight of every Gauss rule (basis._gauss_jacobi,
the one source of every quadrature rule) is moved one ulp up or down with
signs drawn from the seed, and the nudged trajectories are compared with the
committed file.  It prints, per case, the worst deviation of each gated
quantity over the seeds and the bound that FLOOR_FACTOR makes of it.

--hash prints, per case, two SHA-256 digests of its trajectory, writing
nothing: "method" over every mesh (vertices and triangles), marked set and
indicator array (eta_K, eta_tilde_K, mismatch_K, jump_K, boundary_K), and
"errors" over every ErrorBlock field.  Two trees whose --hash output is the
same compute the same trajectories bit for bit, on the machine and BLAS
build that ran both (pin BLAS to one thread, OPENBLAS_NUM_THREADS=1, as a
threaded BLAS may split large products differently).
"""

from concurrent.futures import ProcessPoolExecutor
import dataclasses
import hashlib
import json
import multiprocessing
import pathlib
import sys

import numpy as np

from bdmadapt import basis, preset, run_adaptive

GOLDEN = pathlib.Path(__file__).with_name("golden.json")

# case name -> (preset, run_adaptive keyword arguments)
CASES = {
    "smooth-uniform": ("smooth", {"iterations": 4, "uniform": True}),
    "lshape-adaptive": ("lshape", {"iterations": 8, "theta": 0.5}),
    "advdiff-adaptive": ("advdiff", {"iterations": 8, "theta": 0.5}),
}
DEGREES = (1, 2, 3)
KEYS = tuple(f"{case}/p{p}" for case in CASES for p in DEGREES)

# Per case, the largest deviation of any gated quantity that --floor
# measured over FLOOR_SEEDS.  A case's bound is FLOOR_FACTOR times its floor,
# but never below 1e-9, so the gate sits above what a last-bit change of a
# rule can move and still as close to the committed values as round-off
# allows.  Change the table only with a new --floor measurement, recording
# the old and new values.
FLOOR_SEEDS = (0, 1, 2)
FLOOR_FACTOR = 4
FLOOR = {
    "smooth-uniform/p1": 6.8e-13,
    "smooth-uniform/p2": 4.5e-11,
    "smooth-uniform/p3": 7.4e-09,
    "lshape-adaptive/p1": 3.5e-11,
    "lshape-adaptive/p2": 2.1e-12,
    "lshape-adaptive/p3": 3.1e-13,
    "advdiff-adaptive/p1": 2.1e-14,
    "advdiff-adaptive/p2": 1.5e-14,
    "advdiff-adaptive/p3": 8.9e-15,
}


def bound(floor: float) -> float:
    return max(1e-9, FLOOR_FACTOR * floor)


BOUNDS = {key: bound(FLOOR[key]) for key in KEYS}


def dorfler_gap(eta_K, n_marked: int):
    """(last marked - first unmarked) / last marked indicator, in the
    descending order that dorfler_mark cuts; None when all are marked."""
    ordered = np.sort(np.asarray(eta_K))[::-1]
    if n_marked == 0 or n_marked >= len(ordered):
        return None
    last = ordered[n_marked - 1]
    return float((last - ordered[n_marked]) / last)


def _run(case: str, p: int):
    name, kwargs = CASES[case]
    run = run_adaptive(preset(name), p, keep_meshes=True, **kwargs)
    assert not run.aborted, run.abort_reason
    return run


def trajectory(case: str, p: int) -> list:
    """One record per solved mesh of the case at degree p."""
    run = _run(case, p)
    uniform = CASES[case][1].get("uniform")
    out = []
    for rec in run.records:
        rep = rec.report
        out.append({
            "n": rec.n_elements,
            "eta": rep.eta,
            "eta_tilde": rep.eta_tilde,
            "err_full": rep.errors.full,
            "delta": rep.delta,
            "max_eta_K": float(rep.eta_K.max()),
            "mismatch_sq": float(np.sum(rep.mismatch_K ** 2)),
            "jump": float(np.sum(rep.jump_K)),
            "boundary": float(np.sum(rep.boundary_K)),
            "dorfler_gap": (None if rec.marked is None or uniform
                            else dorfler_gap(rep.eta_K, len(rec.marked))),
        })
    return out


SCALARS = ("eta", "eta_tilde", "err_full", "delta", "max_eta_K")
PARTS = ("mismatch_sq", "jump", "boundary")


def deviations(got: list, want: list) -> dict:
    """Worst deviation per stored quantity over the common iterations."""
    worst = {}
    for g, w in zip(got, want):
        for name in SCALARS + PARTS + ("dorfler_gap",):
            if g[name] is None or w[name] is None:
                dev = 0.0 if g[name] == w[name] else float("inf")
            elif name in PARTS:
                dev = abs(g[name] - w[name]) / w["eta"] ** 2
            elif name == "dorfler_gap":
                dev = abs(g[name] - w[name])
            else:
                dev = abs(g[name] - w[name]) / abs(w[name])
            worst[name] = max(worst.get(name, 0.0), dev)
    return worst


def compare(key: str, golden: dict):
    """(element counts, golden counts, worst deviations) of a fresh
    trajectory of key."""
    case, p = key.split("/p")
    got, want = trajectory(case, int(p)), golden[key]
    return ([r["n"] for r in got], [r["n"] for r in want],
            deviations(got, want))


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def digests(case: str, p: int):
    """(method, errors) SHA-256 digests of the trajectory of case at p."""
    method, errors = [], []
    for rec in _run(case, p).records:
        rep = rec.report
        method += [rep.mesh.vertices, rep.mesh.triangles, rep.eta_K,
                   rep.eta_tilde_K, rep.mismatch_K, rep.jump_K, rep.boundary_K]
        if rec.marked is not None:
            method.append(rec.marked)
        errors += [getattr(rep.errors, f.name)
                   for f in dataclasses.fields(rep.errors)]
    return _digest(method), _digest(errors)


def hashes():
    for key in KEYS:
        case, p = key.split("/p")
        method, errors = digests(case, int(p))
        print(f"{key}: method {method} errors {errors}")


def diff():
    golden = json.loads(GOLDEN.read_text())
    for key in KEYS:
        got, want, worst = compare(key, golden)
        print(f"{key}: bound {BOUNDS[key]:.1e}, counts "
              + ("identical" if got == want else f"{got} != golden {want}"))
        print("  " + "  ".join(
            f"{name} {dev:.1e}"
            + (" OVER" if name in SCALARS + PARTS and dev > BOUNDS[key]
               else "")
            for name, dev in worst.items()))


def _nudge_rules(seed: int):
    """Replace basis._gauss_jacobi by a rule source whose every node and
    weight lies one ulp above or below the computed one, the direction
    drawn per entry from (seed, n, alpha)."""
    assert basis.quad_rule.cache_info().currsize == 0, "rules already built"
    exact = basis._gauss_jacobi

    def nudged(n, alpha):
        rng = np.random.default_rng([seed, n, alpha])
        out = []
        for a in exact(n, alpha):
            up = rng.integers(0, 2, size=a.shape).astype(bool)
            a = np.where(up, np.nextafter(a, np.inf), np.nextafter(a, -np.inf))
            a.setflags(write=False)
            out.append(a)
        return tuple(out)

    basis._gauss_jacobi = nudged


def _nudged_comparison(seed: int) -> dict:
    _nudge_rules(seed)
    golden = json.loads(GOLDEN.read_text())
    return {key: compare(key, golden) for key in KEYS}


def floor(seeds):
    # one fresh process per seed, so no rule or table cached before the
    # nudge survives into a measurement
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(1, mp_context=ctx, max_tasks_per_child=1) as ex:
        runs = list(ex.map(_nudged_comparison, seeds))
    print(f"round-off floor over seeds {list(seeds)}")
    for key in KEYS:
        same = all(run[key][0] == run[key][1] for run in runs)
        worst = {name: max(run[key][2][name] for run in runs)
                 for name in SCALARS + PARTS}
        top = max(worst, key=worst.get)
        print(f"{key}: counts " + ("identical" if same else "DIFFER")
              + f", floor {worst[top]:.1e} ({top}), "
              f"bound {bound(worst[top]):.1e}")
        print("  " + "  ".join(f"{name} {dev:.1e}"
                               for name, dev in worst.items()))


def main():
    if sys.argv[1:] == ["--diff"]:
        diff()
        return
    if sys.argv[1:] == ["--hash"]:
        hashes()
        return
    if sys.argv[1:2] == ["--floor"]:
        floor([int(s) for s in sys.argv[2:]] or list(FLOOR_SEEDS))
        return
    cases = sys.argv[1:] or list(CASES)
    unknown = set(cases) - set(CASES)
    if unknown:
        sys.exit(f"unknown cases {sorted(unknown)}; cases are {list(CASES)}")
    golden = json.loads(GOLDEN.read_text()) if sys.argv[1:] else {}
    golden.update({f"{case}/p{p}": trajectory(case, p)
                   for case in cases for p in DEGREES})
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {len(cases) * len(DEGREES)} trajectories to {GOLDEN}")


if __name__ == "__main__":
    main()

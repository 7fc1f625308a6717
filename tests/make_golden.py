"""Write tests/golden.json, the reference trajectories of test_golden.py.

Run from the repository root:

    PYTHONPATH=src python tests/make_golden.py          # rewrite the file
    PYTHONPATH=src python tests/make_golden.py --diff   # compare, write nothing

Cases: the smooth preset under uniform refinement (4 iterations) and the
lshape and advdiff presets under adaptive refinement (8 iterations each), all
at p = 1, 2, 3.  Each iteration stores the element count, eta, eta_tilde,
err_full, delta, max eta_K, the global sums of the estimator parts (squared
mismatch, jump and boundary terms, in units of eta^2) and, for adaptive
iterations that mark, the relative Doerfler gap at the cut.  Regenerate the
file only in a change that records the old and new values and the reason;
never to hide a defect.

--diff prints, per case, any difference in the element counts and the worst
deviation of each stored quantity against the committed file: relative for
the scalars, in units of eta^2 for the estimator parts (the measures of
test_golden.py) and absolute for the Doerfler gap.
"""

import json
import pathlib
import sys

import numpy as np

from bdmadapt import preset, run_adaptive

GOLDEN = pathlib.Path(__file__).with_name("golden.json")

# case name -> (preset, run_adaptive keyword arguments)
CASES = {
    "smooth-uniform": ("smooth", {"iterations": 4, "uniform": True}),
    "lshape-adaptive": ("lshape", {"iterations": 8, "theta": 0.5}),
    "advdiff-adaptive": ("advdiff", {"iterations": 8, "theta": 0.5}),
}
DEGREES = (1, 2, 3)


def dorfler_gap(eta_K, n_marked: int):
    """(last marked - first unmarked) / last marked indicator, in the
    descending order that dorfler_mark cuts; None when all are marked."""
    ordered = np.sort(np.asarray(eta_K))[::-1]
    if n_marked == 0 or n_marked >= len(ordered):
        return None
    last = ordered[n_marked - 1]
    return float((last - ordered[n_marked]) / last)


def trajectory(case: str, p: int) -> list:
    """One record per solved mesh of the case at degree p."""
    name, kwargs = CASES[case]
    run = run_adaptive(preset(name), p, keep_reports=True,
                       keep_meshes=False, **kwargs)
    assert not run.aborted, run.abort_reason
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
            "dorfler_gap": (None if rec.marked is None or kwargs.get("uniform")
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


def diff():
    golden = json.loads(GOLDEN.read_text())
    for case in CASES:
        for p in DEGREES:
            key = f"{case}/p{p}"
            got, want = trajectory(case, p), golden[key]
            counts = [r["n"] for r in got], [r["n"] for r in want]
            print(f"{key}: counts "
                  + ("identical" if counts[0] == counts[1]
                     else f"{counts[0]} != golden {counts[1]}"))
            print("  " + "  ".join(f"{name} {dev:.1e}" for name, dev
                                   in deviations(got, want).items()))


def main():
    if sys.argv[1:] == ["--diff"]:
        diff()
        return
    golden = {f"{case}/p{p}": trajectory(case, p)
              for case in CASES for p in DEGREES}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {GOLDEN} ({len(golden)} trajectories)")


if __name__ == "__main__":
    main()

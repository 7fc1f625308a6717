"""Golden trajectory gate: the refinement loop reproduces tests/golden.json.

Element counts must be identical.  eta, eta_tilde, err_full, delta and max
eta_K must agree to the case's relative bound; the global sums of the
estimator parts (squared mismatch, jump, boundary) to bound * eta^2, since a
part that is a few percent of eta^2 sits at round-off relative to itself.
The bounds live in make_golden.BOUNDS: 1e-9, or four times the case's
measured round-off floor where that is larger (smooth-uniform/p3).  On a count
mismatch the failure names the relative Doerfler gap at the preceding cut,
so a round-off flip at a near-tie can be told from a real change.  The file
is written by tests/make_golden.py.
"""

import json

import pytest

from make_golden import BOUNDS, GOLDEN, KEYS, PARTS, SCALARS, trajectory

_golden = json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("key", KEYS)
def test_trajectory_matches_golden(key):
    case, p = key.split("/p")
    got = trajectory(case, int(p))
    want = _golden[key]
    counts = [r["n"] for r in got], [r["n"] for r in want]
    if counts[0] != counts[1]:
        it = next((i for i, (a, b) in enumerate(zip(*counts)) if a != b),
                  min(len(got), len(want)))
        cut = it - 1
        gaps = ("n/a" if cut < 0 else f"{got[cut]['dorfler_gap']!r} "
                f"(golden {want[cut]['dorfler_gap']!r})")
        pytest.fail(f"{key}: element counts {counts[0]} != golden "
                    f"{counts[1]}; first difference at iteration {it}, "
                    f"relative Doerfler gap at the preceding cut {gaps}")
    rtol = BOUNDS[key]
    for i, (g, w) in enumerate(zip(got, want)):
        for name in SCALARS:
            assert g[name] == pytest.approx(w[name], rel=rtol, abs=0.0), \
                f"{key} iteration {i}: {name}"
        for name in PARTS:
            assert abs(g[name] - w[name]) <= rtol * w["eta"] ** 2, \
                f"{key} iteration {i}: {name} {g[name]!r} != {w[name]!r}"

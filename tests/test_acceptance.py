"""Acceptance criteria, one test per criterion, tolerances pinned here.

Each test prints one [C##] PASS line (visible with -v/-s) once its assertions
hold.  Fit windows: uniform and corner-singularity studies drop the first two
meshes; the boundary-layer study fits the final six iterations (the layer
must be resolved before the asymptotic regime starts).
"""

import math

import numpy as np
import pytest

from bdmadapt import (assemble, build_biorthogonal, build_initial_mesh,
                      error_norms, eta_improved, fit_slope, fortin_apply,
                      postprocess_resmin, preset, run_adaptive, solve)
from bdmadapt.basis import make_scalar_basis, quad_rule
from bdmadapt.fields import ElementClasses, stiffness_tensors
from bdmadapt.fortin import pairing_matrices, random_shape_regular_triangles
from bdmadapt.mesh import _LOCAL_EDGE_VERTS
from bdmadapt.postprocess import class_factors

from conftest import (boundary_moments, centroids, dual_norm_load,
                      dual_norm_oracle, eval_flux, make_linear_problem,
                      projection_moments, stenberg_oracle)

SLOPE_TOL = 0.15          # criterion 5
ADAPTIVE_SLACK = 0.3      # criteria 8 and 9
EFFECTIVITY_BAND = 0.20   # criterion 6


def _report(cid, detail):
    print(f"[{cid}] PASS {detail}")


def _decay(run, key, tail=None):
    nel = run.element_counts()
    vals = [r.errors[key] for r in run.records]
    slope = fit_slope(nel, vals, tail=tail)
    assert slope is not None
    return -slope


@pytest.fixture(scope="module")
def smooth_suite():
    smooth = preset("smooth")
    runs = {}
    for p, initial in ((1, 32), (2, 32), (3, 8)):
        runs[p] = run_adaptive(smooth, p, iterations=5, uniform=True,
                               initial_elements=initial, keep_meshes=True)
    return smooth, runs


@pytest.fixture(scope="module")
def cross_experiment_states():
    """(experiment, p) -> (problem, solution, post, direct LU (nu, theta))."""
    out = {}
    for name in ("smooth", "lshape", "advdiff"):
        problem = preset(name)
        initial = {"smooth": 32, "lshape": 96, "advdiff": 32}[name]
        mesh = build_initial_mesh(problem.domain, initial)
        mesh = mesh.refine(range(mesh.n_triangles))
        for p in (1, 2, 3):
            sol = solve(assemble(mesh, p, problem))
            post = postprocess_resmin(sol)
            out[(name, p)] = (problem, sol, post, stenberg_oracle(sol))
    return out


@pytest.fixture(scope="module")
def lshape_suite():
    lshape = preset("lshape")
    return lshape, {p: run_adaptive(lshape, p, theta=0.5, iterations=16,
                                    initial_elements=96)
                    for p in (1, 2, 3)}


@pytest.fixture(scope="module")
def advdiff_suite():
    adv = preset("advdiff")
    iters = {1: 26, 2: 24, 3: 18}
    return adv, {p: run_adaptive(adv, p, theta=0.5, iterations=iters[p],
                                 initial_elements=32)
                 for p in (1, 2, 3)}


def test_c01_exactness_smoke():
    lin = make_linear_problem()
    worst = 0.0
    for p in (1, 2, 3):
        mesh = build_initial_mesh(lin.domain, 8)
        sol = solve(assemble(mesh, p, lin))
        post = postprocess_resmin(sol)
        rep = eta_improved(post)
        err = error_norms(post)
        # u_h = elementwise projection of x, q_h = (-1, 0), nu = x,
        # eps = 0, eta = 0
        from bdmadapt.fields import mapped_points
        rule = quad_rule(2 * p + 8, "triangle")
        V = make_scalar_basis(p - 1).values(rule.points)
        phys = mapped_points(mesh, rule.points)
        proj = np.einsum("q,nq,qi->ni", rule.weights, phys[:, :, 0], V)
        worst = max(worst, float(np.abs(sol.scalar - proj).max()))
        pts = np.array([[0.25, 0.25], [0.6, 0.2], [0.1, 0.55]])
        for k in range(mesh.n_triangles):
            vals = eval_flux(sol.flux_space, sol.flux, k, pts)
            worst = max(worst, float(np.abs(vals - [-1.0, 0.0]).max()))
        worst = max(worst, err.nu_L2, float(np.abs(post.eps).max()), rep.eta)
    assert worst <= 1e-10
    _report("C01", f"pipeline residual {worst:.2e} <= 1e-10")


def test_c02_postprocessing_equivalence(cross_experiment_states):
    worst = 0.0
    for (name, p), (problem, sol, post, (ref, _)) in \
            cross_experiment_states.items():
        J = sol.flux_space.mesh.det_jacobians
        dev_K = np.sqrt(J[:, None]) * np.abs(post.nu - ref)
        norm = math.sqrt(float(np.sum(J[:, None] * ref ** 2)))
        rel = float(dev_K.max()) / max(norm, 1e-300)
        assert rel <= 1e-10, (name, p, rel)
        worst = max(worst, rel)
    _report("C02", f"max elementwise deviation {worst:.2e} (rel) <= 1e-10")


def test_c03_enrichment_identity(cross_experiment_states):
    worst = 0.0
    for (name, p), (problem, sol, post, (_, theta)) in \
            cross_experiment_states.items():
        S22 = stiffness_tensors(p, sol.flux_space.mesh.metric)
        diff = theta[:, 1:].copy()
        n1 = post.nu.shape[1] - 1
        diff[:, :n1] -= post.nu[:, 1:]
        lhs = np.sqrt(np.einsum("ni,nij,nj->n", diff, S22, diff))
        scale = max(1.0, float(post.eta_tilde_K.max()))
        tol = np.maximum(1e-10 * post.eta_tilde_K, 1e-12 * scale)
        dev = np.abs(lhs - post.eta_tilde_K)
        assert np.all(dev <= tol), (name, p, float((dev / tol).max()))
        worst = max(worst, float((dev / np.maximum(tol, 1e-300)).max()))
    _report("C03", f"identity holds on all experiments, p=1..3 "
                   f"(worst dev/tol {worst:.2e})")


def test_c04_local_efficiency(smooth_suite):
    _, runs = smooth_suite
    checked = 0
    for p, run in runs.items():
        for rec in run.records:
            err = rec.report.errors
            slack = 1e-8 * err.full
            ok1 = rec.report.eta_tilde_K <= err.grad_nu_K + err.q_star_K + slack
            ok2 = rec.report.eta_K <= err.one_h_K + err.q_L2_K + slack
            assert ok1.all() and ok2.all(), (p, rec.iteration)
            checked += rec.n_elements
    _report("C04", f"both per-element bounds hold on {checked} elements")


def test_c05_a_priori_rates(smooth_suite):
    _, runs = smooth_suite
    targets = {}
    for p, run in runs.items():
        q0 = _decay(run, "q_0h")
        oneh = _decay(run, "one_h")
        nu = _decay(run, "nu_L2")
        want_nu = 2.0 if p == 1 else p + 2.0
        assert abs(q0 - (p + 1)) <= SLOPE_TOL, (p, q0)
        assert abs(oneh - (p + 1)) <= SLOPE_TOL, (p, oneh)
        assert abs(nu - want_nu) <= SLOPE_TOL, (p, nu)
        targets[p] = (round(q0, 3), round(oneh, 3), round(nu, 3))
    _report("C05", f"rates (q_0h, 1h, nu_L2) per degree: {targets}")


def test_c06_effectivity_stabilization(smooth_suite):
    _, runs = smooth_suite
    bands = {}
    for p, run in runs.items():
        effs = [r.effectivity for r in run.records[-3:]]
        spread = max(effs) / min(effs) - 1.0
        assert spread < EFFECTIVITY_BAND, (p, effs)
        bands[p] = round(spread, 4)
    _report("C06", f"effectivity variation over last 3 meshes: {bands}")


def test_c07_saturation(smooth_suite):
    _, runs = smooth_suite
    for p, run in runs.items():
        deltas = [r.delta for r in run.records]
        assert all(d is not None and 0.0 <= d < 1.0 for d in deltas), (p, deltas)
    finest_common = 2048
    at = {}
    for p, run in runs.items():
        match = [r for r in run.records if r.n_elements == finest_common]
        assert match, (p, run.element_counts())
        at[p] = match[0].delta
    assert at[3] < at[2] < at[1], at
    _report("C07", "delta < 1 on every mesh; at Nel=2048 "
                   f"delta = {({k: round(v, 3) for k, v in at.items()})}")


def test_c08_lshape_adaptive(lshape_suite):
    _, runs = lshape_suite
    slopes = {}
    for p, run in runs.items():
        full = _decay(run, "full")
        nu = _decay(run, "nu_L2")
        assert full >= (p + 1) - ADAPTIVE_SLACK, (p, full)
        assert nu >= (p + 2) - ADAPTIVE_SLACK, (p, nu)
        slopes[p] = (round(full, 2), round(nu, 2))
    run3 = runs[3]
    pts = np.vstack([centroids(r.report.mesh)[r.marked]
                     for r in run3.records[5:]
                     if r.marked is not None and len(r.marked)])
    frac = float(np.mean(np.linalg.norm(pts, axis=1) < 0.25))
    assert frac >= 0.5, frac
    _report("C08", f"decays (full, nu_L2): {slopes}; corner-marked fraction "
                   f"{frac:.2f} >= 0.5")


def test_c09_advection_diffusion(advdiff_suite):
    _, runs = advdiff_suite
    slopes, gaps = {}, {}
    for p, run in runs.items():
        full = _decay(run, "full", tail=6)
        assert full >= (p + 1) - ADAPTIVE_SLACK, (p, full)
        slopes[p] = round(full, 2)
        final = run.records[-1].errors
        assert final["nu_L2"] < final["u_L2"], (p, final)
        gaps[p] = final["u_L2"] / final["nu_L2"]
    assert min(gaps[1], gaps[2]) > gaps[3], gaps
    # outflow-layer localization in late iterations
    run3 = runs[3]
    pts = np.vstack([centroids(r.report.mesh)[r.marked]
                     for r in run3.records[8:]
                     if r.marked is not None and len(r.marked)])
    in_strip = (pts[:, 0] > 0.9) | (pts[:, 1] > 0.9)
    density_strip = in_strip.mean() / 0.19
    density_rest = (1.0 - in_strip.mean()) / 0.81
    assert density_strip > density_rest
    _report("C09", f"tail decays {slopes}; L2 gaps "
                   f"{({k: round(v, 1) for k, v in gaps.items()})}; "
                   f"strip density {density_strip:.1f} > {density_rest:.2f}")


def test_c10_biorthogonal_verification(rng):
    bset = build_biorthogonal()
    assert abs(np.linalg.det(bset.A) - 1.0 / 14400.0) <= 1e-15
    mesh = random_shape_regular_triangles(100, seed=31)
    tri = mesh.tri_coords
    G = pairing_matrices(bset, mesh)
    worst_pairing = float(np.abs(G - np.eye(6)).max())
    rule = quad_rule(13, "edge")
    ratios = []

    def field(c):
        # smooth data with one coefficient row c[k] (4,) per element k;
        # the points come grouped by element
        def v(x):
            x0, x1 = x.reshape(len(c), -1, 2).transpose(2, 0, 1)
            return (c[:, :1] + c[:, 1:2] * np.sin(2 * x0)
                    + c[:, 2:3] * x1 ** 2 + c[:, 3:] * np.cos(x0 + x1)).ravel()
        return v

    # three fields per element, drawn element by element
    coeffs = rng.standard_normal((100, 3, 4))
    for r in range(3):
        v = field(coeffs[:, r])
        proj = fortin_apply(v, bset, mesh)
        nrm2 = np.zeros(100)
        for j, (a, b) in enumerate(_LOCAL_EDGE_VERTS):
            pts = ((1 - rule.points)[None, :, None] * tri[:, None, a]
                   + rule.points[None, :, None] * tri[:, None, b])
            vals = v(pts.reshape(-1, 2)).reshape(100, -1)
            nrm2 += mesh.tri_edge_lengths[:, j] * (vals ** 2 @ rule.weights)
        ratios.extend(proj.boundary_norm() / np.sqrt(np.maximum(nrm2,
                                                                1e-300)))
        # moment preservation = degree-1 normal-flux orthogonality
        for k in range(100):
            want = boundary_moments(tri[k], field(coeffs[k:k + 1, r]))
            got = projection_moments(
                tri[k], lambda j, t, k=k: proj.trace_values(j, t)[k])
            dev = np.abs(got - want).max() / max(1.0, np.abs(want).max())
            assert dev <= 1e-11, dev
    assert worst_pairing <= 1e-11
    c_pi = max(ratios)
    assert np.isfinite(c_pi) and c_pi < 50.0
    assert c_pi / np.median(ratios) < 10.0
    _report("C10", f"pairing residual {worst_pairing:.1e}; "
                   f"C_pi max {c_pi:.2f} (median {np.median(ratios):.2f})")


def test_c11_dual_norm_oracle(rng):
    # the class factors of the loop, on classes keyed by the advdiff beta,
    # against a dense eigen-oracle of each element's own stiffness
    advdiff = preset("advdiff")
    mesh = build_initial_mesh(advdiff.domain, 32).refine([0, 5, 11])
    classes = ElementClasses(mesh, advdiff.beta)
    worst = 0.0
    for p in (1, 2, 3):
        G = class_factors(p, classes.metric)
        for _ in range(50):
            k = int(rng.integers(0, mesh.n_triangles))
            c = rng.standard_normal((4, 2))

            def fld(x, c=c):
                return (c[None, 0] + c[None, 1] * x[:, 0:1]
                        + c[None, 2] * np.sin(x) + c[None, 3] * x ** 2)

            got = float(np.linalg.norm(G[classes.id[k]]
                                       @ dual_norm_load(mesh, p, k, fld)))
            want = dual_norm_oracle(mesh, p, k, fld)
            rel = abs(got - want) / max(want, 1e-300)
            assert rel <= 1e-10, (p, rel)
            worst = max(worst, rel)
    _report("C11", f"150 random pairs, worst relative deviation {worst:.2e}")

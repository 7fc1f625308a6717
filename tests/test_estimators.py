import dataclasses
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from bdmadapt import (DomainSpec, ExperimentConfig, TriMesh, assemble,
                      build_initial_mesh, error_norms, eta_improved,
                      full_report, oscillation_bound, postprocess_resmin,
                      preset, run_adaptive, run_experiment, solve)
from bdmadapt.basis import make_scalar_basis, quad_rule
import bdmadapt.basis as basis_mod
from bdmadapt import adaptivity, estimators, fields
from bdmadapt.bdm import edge_legendre
from bdmadapt.fields import ElementClasses, stiffness_tensors
from bdmadapt.postprocess import class_factors

import make_golden
from artifact_checks import load_strict, mismatches, null_floats
from conftest import (dual_norm_load, dual_norm_oracle,
                      element_flux_trace_sq, make_linear_problem,
                      reference_grads, single_element_mesh)


@pytest.fixture(scope="module")
def smooth_run():
    smooth = preset("smooth")
    mesh = build_initial_mesh(smooth.domain, 32).refine(range(32))
    out = {}
    for p in (1, 2, 3):
        sol = solve(assemble(mesh, p, smooth))
        post = postprocess_resmin(sol)
        out[p] = (smooth, sol, post, full_report(post))
    return out


def class_dual_norm(mesh, p, k, r):
    """||G b|| with the class factor G of element k, as the loop takes the
    dual norm, of the einsum load b of r."""
    classes = ElementClasses(mesh)
    G = class_factors(p, classes.metric)
    return float(np.linalg.norm(G[classes.id[k]]
                                @ dual_norm_load(mesh, p, k, r)))


def test_dual_norm_zero_field():
    mesh = single_element_mesh()
    val = class_dual_norm(mesh, 1, 0, lambda x: np.zeros((len(x), 2)))
    assert val == 0.0


@pytest.mark.parametrize("p", [1, 2, 3])
def test_dual_norm_riesz_identity(p, rng):
    # r = grad(phi) with mean-free phi of degree p+2 attains the supremum
    mesh = single_element_mesh()
    basis = make_scalar_basis(p + 2)
    c = np.concatenate([[0.0], rng.standard_normal(basis.size - 1)])
    Binv = mesh.inv_jacobians[0]
    v0 = mesh.tri_coords[0, 0]

    def r(x):
        ref = (x - v0) @ Binv.T
        g = np.einsum("qib,i->qb", reference_grads(basis, ref), c)
        return g @ Binv

    got = class_dual_norm(mesh, p, 0, r)
    S = stiffness_tensors(p, mesh.metric)[0]
    want = float(np.sqrt(c[1:] @ S @ c[1:]))
    assert abs(got - want) <= 1e-11 * max(want, 1.0)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_dual_norm_against_dense_eigen_oracle(p, rng):
    # brute force via eigendecomposition of the stiffness matrix
    mesh = build_initial_mesh(preset("smooth").domain, 8)
    for _ in range(10):
        k = int(rng.integers(0, mesh.n_triangles))
        coef = rng.standard_normal((4, 2))

        def fld(x, coef=coef):
            return (coef[None, 0] + coef[None, 1] * x[:, 0:1]
                    + coef[None, 2] * x[:, 1:2] ** 2
                    + coef[None, 3] * (x[:, 0:1] * x[:, 1:2]) ** 1)

        got = class_dual_norm(mesh, p, k, fld)
        want = dual_norm_oracle(mesh, p, k, fld)
        assert abs(got - want) <= 1e-10 * max(want, 1e-12)


def test_dual_norm_below_l2_norm(rng):
    # Cauchy-Schwarz: the stars norm never exceeds the plain L2 norm
    mesh = build_initial_mesh(preset("smooth").domain, 8)
    p = 2
    rule = quad_rule(2 * p + 8, "triangle")
    for _ in range(50):
        k = int(rng.integers(0, mesh.n_triangles))
        coef = rng.standard_normal((3, 2))

        def fld(x, coef=coef):
            return (coef[None, 0] + coef[None, 1] * np.sin(x[:, 0:1])
                    + coef[None, 2] * x[:, 1:2] ** 2)

        star = class_dual_norm(mesh, p, k, fld)
        v0 = mesh.tri_coords[k, 0]
        pts = v0[None, :] + rule.points @ mesh.jacobians[k].T
        vals = fld(pts)
        l2 = np.sqrt(mesh.det_jacobians[k]
                     * float(np.einsum("q,qa,qa->", rule.weights, vals, vals)))
        assert star <= l2 + 1e-12


@pytest.mark.parametrize("p", [1, 2, 3])
def test_eta_tilde_matches_postprocess(p, smooth_run):
    # ||z[n1:]|| from the factor equals ||grad eps||_K from the coefficients
    _, sol, post, rep = smooth_run[p]
    S22 = stiffness_tensors(p, sol.flux_space.mesh.metric)
    per = np.sqrt(np.einsum("ni,nij,nj->n", post.eps, S22, post.eps))
    assert np.abs(per - post.eta_tilde_K).max() <= 1e-12 * max(
        1.0, post.eta_tilde_K.max())
    glob = np.sqrt(np.sum(per ** 2))
    assert abs(rep.eta_tilde - glob) <= 1e-12 * max(glob, 1.0)


def test_estimator_zero_on_linear_solution():
    lin = make_linear_problem()
    mesh = build_initial_mesh(lin.domain, 8)
    for p in (1, 2, 3):
        sol = solve(assemble(mesh, p, lin))
        post = postprocess_resmin(sol)
        rep = eta_improved(post)
        assert rep.eta <= 1e-10


@pytest.mark.parametrize("p", [1, 2, 3])
def test_estimator_report_structure(p, smooth_run):
    prob, sol, post, rep = smooth_run[p]
    # eta^2 equals the sum of squared indicators, and eta_tilde_K <= eta_K
    assert abs(rep.eta ** 2 - np.sum(rep.eta_K ** 2)) <= 1e-12 * rep.eta ** 2
    assert np.all(rep.eta_tilde_K <= rep.eta_K + 1e-15)
    payload = rep.to_dict()
    assert payload["has_exact"] and payload["errors"]["full"] > 0
    assert rep.effectivity is not None and rep.delta is not None
    # the oscillation bound is filled in only by the caller that needs it
    assert rep.osc_K is None and "osc" not in payload


def test_osc_is_the_oscillation_bound_read_once(monkeypatch, tmp_path,
                                                smooth_run):
    # run_experiment sets osc_K of the final report from one
    # oscillation_bound pass, and the written report carries that bound
    real_bound, real_report = estimators.oscillation_bound, \
        adaptivity.full_report
    calls, reports = [], []

    def counted(*args):
        calls.append(args)
        return real_bound(*args)

    def kept(*args, **kwargs):
        reports.append(real_report(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(estimators, "oscillation_bound", counted)
    monkeypatch.setattr(adaptivity, "full_report", kept)
    run_experiment(ExperimentConfig(experiment="smooth", p_list=(2,),
                                    iterations=2, out=str(tmp_path),
                                    initial_elements=8))
    first, final = reports
    assert len(calls) == 1 and first.osc_K is None
    want = real_bound(preset("smooth"), final.mesh, 2)
    assert np.array_equal(final.osc_K, want)
    data = load_strict(str(tmp_path / "report_p2_final.json"))
    assert data["osc_K"] == want.tolist()
    assert data["osc"] == float(np.sqrt(np.sum(want ** 2)))
    _, _, post, _ = smooth_run[2]
    assert full_report(post, with_errors=False).osc_K is None


def test_serializing_a_report_evaluates_nothing(tmp_path):
    # to_dict and save write the fields a report holds, with or without
    # its oscillation bound, and evaluate no exact field
    smooth = preset("smooth")
    calls = []

    def counted(name):
        real = getattr(smooth, name)

        def fn(x):
            calls.append(name)
            return real(x)
        return fn

    prob = dataclasses.replace(smooth, exact_q=counted("exact_q"),
                               exact_u=counted("exact_u"))
    mesh = build_initial_mesh(prob.domain, 32)
    rep = full_report(postprocess_resmin(solve(assemble(mesh, 2, prob))))
    assert rep.has_exact and {"exact_q", "exact_u"} <= set(calls)
    calls.clear()
    path = str(tmp_path / "report.json")
    for osc_K in (None, oscillation_bound(smooth, mesh, 2)):
        rep.osc_K = osc_K
        payload = rep.to_dict()
        rep.save(path)
        assert ("osc" in payload) == ("osc" in load_strict(path)) \
            == (osc_K is not None)
    assert calls == []


@pytest.mark.parametrize("p", [1, 2, 3])
def test_local_efficiency_builtin(p, smooth_run):
    prob, sol, post, _ = smooth_run[p]
    err = error_norms(post)
    slack = 1e-8 * err.full
    assert np.all(post.eta_tilde_K <= err.grad_nu_K + err.q_star_K + slack)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_local_efficiency_improved(p, smooth_run):
    prob, sol, post, _ = smooth_run[p]
    rep = eta_improved(post)
    err = error_norms(post)
    slack = 1e-8 * err.full
    assert np.all(rep.eta_K <= err.one_h_K + err.q_L2_K + slack)


def test_error_norms_zero_for_exact_discrete():
    lin = make_linear_problem()
    mesh = build_initial_mesh(lin.domain, 8)
    sol = solve(assemble(mesh, 2, lin))
    post = postprocess_resmin(sol)
    err = error_norms(post)
    assert err.full <= 1e-10
    assert err.u_L2 <= 1e-10 and err.nu_L2 <= 1e-10


def test_flux_error_ratio_p3_uniform():
    # two successive h-halvings cut the flux error by about 2^(p+1)
    smooth = preset("smooth")
    p = 3
    vals = []
    mesh = build_initial_mesh(smooth.domain, 32)
    for _ in range(2):
        sol = solve(assemble(mesh, p, smooth))
        post = postprocess_resmin(sol)
        err = error_norms(post)
        vals.append(err.q_0h)
        mesh = mesh.refine(range(mesh.n_triangles))
        mesh = mesh.refine(range(mesh.n_triangles))
    ratio = vals[0] / vals[1]
    assert abs(ratio - 16.0) <= 0.15 * 16.0


@pytest.mark.parametrize("p", [1, 2])
def test_star_norm_below_l2_norm_in_error(p, smooth_run):
    prob, sol, post, _ = smooth_run[p]
    err = error_norms(post)
    assert np.all(err.q_star_K <= err.q_L2_K + 1e-12)
    assert err.q_star_h <= err.q_0h + 1e-12


def test_oscillation_zero_for_polynomial_flux():
    from bdmadapt.solver import ProblemSpec
    from bdmadapt.mesh import DomainSpec
    prob = ProblemSpec(
        domain=DomainSpec.unit_square(),
        f=lambda x: np.zeros(len(x)),
        u_D=lambda x: np.zeros(len(x)),
        exact_u=lambda x: x[:, 0] * x[:, 1],
        exact_q=lambda x: -np.stack([x[:, 1], x[:, 0]], axis=1),
        name="bilinear")
    mesh = build_initial_mesh(prob.domain, 8)
    per = oscillation_bound(prob, mesh, 1)
    assert np.sqrt(np.sum(per ** 2)) <= 1e-12


def test_oscillation_decay_rate_smooth():
    smooth = preset("smooth")
    p = 1
    vals, nels = [], []
    mesh = build_initial_mesh(smooth.domain, 32)
    for _ in range(3):
        per = oscillation_bound(smooth, mesh, p)
        vals.append(float(np.sqrt(np.sum(per ** 2))))
        nels.append(mesh.n_triangles)
        mesh = mesh.refine(range(mesh.n_triangles))
        mesh = mesh.refine(range(mesh.n_triangles))
    from bdmadapt import fit_slope
    slope = fit_slope(nels, vals, tail=len(vals))
    assert slope <= -(p + 1) + 0.2


@pytest.mark.parametrize("name,count", [("smooth", 32), ("lshape", 96),
                                        ("advdiff", 32)])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_flux_trace_matches_element_oracle(name, count, p):
    # per-edge q_h . n from the edge moments against the element-side
    # Piola evaluation on every local edge
    prob = preset(name)
    mesh = build_initial_mesh(prob.domain, count).refine([0, 5, 11])
    sol = solve(assemble(mesh, p, prob))
    err = error_norms(postprocess_resmin(sol))
    trace_sq, qn_sq = element_flux_trace_sq(prob, sol)
    got = err.q_trace_K ** 2
    want = mesh.h_K * trace_sq
    tol = 1e-10 * want + 1e-16 * mesh.h_K * qn_sq
    assert np.all(np.abs(got - want) <= tol)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_oscillation_evaluates_exact_q_once_per_edge_point(p):
    smooth = preset("smooth")
    seen = []

    def counted(x):
        seen.append(len(x))
        return smooth.exact_q(x)

    prob = dataclasses.replace(smooth, exact_q=counted)
    mesh = build_initial_mesh(prob.domain, 32)
    oscillation_bound(prob, mesh, p)
    assert sum(seen) == mesh.n_edges * (p + 6)


def test_quad_region_flags_elements_with_a_vertex_inside():
    from bdmadapt.estimators import _element_groups
    adv = preset("advdiff")
    mesh = build_initial_mesh(adv.domain, 32).refine(range(32))
    groups = _element_groups(mesh, adv, 1)
    assert len(groups) == 2
    xy = mesh.tri_coords
    strip = (xy[:, :, 0].max(axis=1) > 0.95) | (xy[:, :, 1].max(axis=1) > 0.95)
    assert strip.any() and not strip.all()
    assert np.array_equal(groups[1][0], np.nonzero(strip)[0])
    assert np.array_equal(groups[0][0], np.nonzero(~strip)[0])
    # the strip's rule is the base rule on 4 sub-triangles
    assert len(groups[1][1].points) == 4 * len(groups[0][1].points)


def test_oscillation_concentrates_at_corner():
    lshape = preset("lshape")
    mesh = build_initial_mesh(lshape.domain, 96)
    per = oscillation_bound(lshape, mesh, 1)
    worst = int(np.argmax(per))
    # the dominating element touches the re-entrant corner
    assert np.min(np.linalg.norm(mesh.tri_coords[worst], axis=1)) < 1e-12


def test_saturation_nonnegative_and_degenerate_flag(smooth_run):
    _, _, _, rep = smooth_run[1]
    assert rep.delta >= 0.0 and not rep.delta_degenerate
    lin = make_linear_problem()
    mesh = build_initial_mesh(lin.domain, 8)
    sol2 = solve(assemble(mesh, 1, lin))
    rep2 = full_report(postprocess_resmin(sol2))
    assert rep2.delta_degenerate and rep2.delta == 0.0


@pytest.mark.parametrize("p", [1, 2, 3])
def test_saturation_below_one_smooth(p, smooth_run):
    _, _, _, rep = smooth_run[p]
    assert 0.0 < rep.delta < 1.0


def test_eta_tilde_invariant_under_elementwise_constant_shift(smooth_run, rng):
    prob, sol, post, _ = smooth_run[2]
    shifted = sol.scalar.copy()
    shifted[:, 0] += rng.standard_normal(sol.flux_space.mesh.n_triangles)
    from bdmadapt.solver import MixedSolution
    sol2 = MixedSolution(flux=sol.flux, scalar=shifted,
                         flux_space=sol.flux_space,
                         classes=sol.classes, problem=sol.problem)
    post2 = postprocess_resmin(sol2)
    assert np.array_equal(post2.eta_tilde_K, post.eta_tilde_K)
    assert np.array_equal(post2.eps, post.eps)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_reliability_with_measured_saturation(p, smooth_run):
    # ||grad(u - nu)|| <= eta_tilde / (1 - delta) with the measured delta
    prob, sol, post, rep = smooth_run[p]
    err = error_norms(post)
    assert not rep.delta_degenerate and rep.delta < 1.0
    bound = rep.eta_tilde / (1.0 - rep.delta)
    assert err.grad_nu <= bound + 1e-8 * err.grad_nu


def test_report_json_roundtrip(tmp_path, smooth_run):
    prob, sol, post, rep = smooth_run[2]
    path = str(tmp_path / "report.json")
    rep.save(path)
    data = load_strict(path)
    expected = rep.to_dict()
    assert not mismatches(data, expected)
    assert not null_floats(data, expected)
    assert data["p"] == 2
    assert len(data["eta_K"]) == sol.flux_space.mesh.n_triangles
    assert abs(data["eta"] - rep.eta) < 1e-15
    assert data["errors"]["full"] == rep.errors.full


def test_full_report_computes_nu_jump_terms_once(monkeypatch):
    # the postprocessing takes the traces of nu, once per iteration; the
    # indicator and the exact-error block read them
    smooth = preset("smooth")
    mesh = build_initial_mesh(smooth.domain, 32)
    sol = solve(assemble(mesh, 2, smooth))
    real = fields.nu_jump_terms
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("bdmadapt") and \
                getattr(module, "nu_jump_terms", None) is real:
            monkeypatch.setattr(module, "nu_jump_terms", counted)
    report = full_report(postprocess_resmin(sol))
    assert len(calls) == 1
    # the shared traces are those of a fresh postprocess
    fresh = postprocess_resmin(sol)
    assert len(calls) == 2
    jump_K, bnd_K = real(mesh, fresh.nu, smooth.u_D, 2)
    assert np.array_equal(report.jump_K, jump_K)
    assert np.array_equal(report.boundary_K, bnd_K)
    alone = error_norms(fresh)
    assert np.array_equal(report.errors.one_h_K, alone.one_h_K)
    assert len(calls) == 2
    run_adaptive(smooth, 2, iterations=3, initial_elements=32)
    assert len(calls) == 5


def test_lshape_errors_do_not_depend_on_vertex_order():
    # the exact solution is symmetric about y = x, so the mirror image of an
    # adaptive mesh, (x, y) -> (y, x) with triangles (p, a, b) -> (p, b, a),
    # has the same exact errors; the corner rule must not see the local
    # vertex order that the mirror changes
    lshape = preset("lshape")
    for p, count in ((1, 124), (2, 120), (3, 118)):
        run = run_adaptive(lshape, p, iterations=6, theta=0.5,
                           with_errors=False)
        mesh = run.records[-1].report.mesh
        assert mesh.n_triangles == count
        mirror = TriMesh(mesh.vertices[:, ::-1], mesh.triangles[:, [0, 2, 1]])
        reports = []
        for m in (mesh, mirror):
            sol = solve(assemble(m, p, lshape))
            reports.append(full_report(postprocess_resmin(sol)))
        a, b = reports
        assert b.errors.full == pytest.approx(a.errors.full, rel=1e-12,
                                              abs=0.0), p
        assert b.delta == pytest.approx(a.delta, rel=1e-12, abs=0.0), p


# the motion x -> scale R x + SHIFT, R the rotation by 0.7 rad
SHIFT = np.array([3.0, -2.0])
ROT = np.array([[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]])
# measured on the meshes below at p = 1..3, both scales: at most 8e-13
# relative on eta, eta_tilde, eta_K (against its maximum) and err_full, but
# 1.2e-9 on the L-shape's err_full: its graded points crowd the moved corner
# (3, -2), where coordinates are held only to 4e-16
MOTION_RTOL, MOVED_CORNER_RTOL = 1e-11, 1e-8


def _moved(problem, scale):
    """problem on its domain moved by x -> scale R x + SHIFT: u and u_D
    pulled back, q rotated and divided by scale, f divided by scale^2, beta
    rotated and divided by scale, so the moved u solves the moved problem."""
    def pull(y):
        return (y - SHIFT) @ ROT / scale

    def back(fn):
        return None if fn is None else (lambda y: fn(pull(y)))

    point = problem.quad_singular_point
    return dataclasses.replace(
        problem,
        domain=DomainSpec(loop=problem.domain.vertices @ ROT.T * scale
                          + SHIFT),
        f=lambda y: problem.f(pull(y)) / scale ** 2, u_D=back(problem.u_D),
        exact_u=back(problem.exact_u),
        exact_q=lambda y: problem.exact_q(pull(y)) @ ROT.T / scale,
        beta=ROT @ problem.beta / scale, quad_region=back(problem.quad_region),
        quad_singular_point=(None if point is None
                             else ROT @ point * scale + SHIFT))


@pytest.mark.parametrize("scale", [1.0, 2.0], ids=["rigid", "scaled"])
@pytest.mark.parametrize("name", ["smooth", "lshape", "advdiff"])
def test_moving_the_problem_moves_nothing_else(name, scale):
    # a rigid motion of the domain, the data and a fixed mesh leaves the
    # estimates and the exact errors unchanged; so does a dilation by 2,
    # which changes det B by 4 (a rigid motion keeps it) and so sees the
    # Piola 1/J.  The moved mesh numbers the vertices backwards, so every
    # edge changes its global direction and every edge sign is exercised;
    # it keeps each triangle's local vertex order, so its metrics
    # B^T B / J, of determinant 1, are the same to round-off
    problem = preset(name)
    mesh = build_initial_mesh(problem.domain, 32)
    mesh = mesh.refine(range(0, mesh.n_triangles, 3))
    moved_mesh = TriMesh((mesh.vertices @ ROT.T * scale + SHIFT)[::-1],
                         mesh.n_vertices - 1 - mesh.triangles)
    T = mesh.metric
    assert np.abs(moved_mesh.metric - T).max() <= 1e-13 * np.abs(T).max()
    for m in (mesh, moved_mesh):
        assert np.abs(np.linalg.det(m.metric) - 1.0).max() <= 1e-14
    moved = _moved(problem, scale)
    err_rtol = MOVED_CORNER_RTOL if problem.quad_singular_point \
        else MOTION_RTOL
    for p in (1, 2, 3):
        a, b = (full_report(postprocess_resmin(solve(assemble(m, p, prob))))
                for m, prob in ((mesh, problem), (moved_mesh, moved)))
        assert b.eta == pytest.approx(a.eta, rel=MOTION_RTOL, abs=0.0), p
        assert b.eta_tilde == pytest.approx(a.eta_tilde, rel=MOTION_RTOL,
                                            abs=0.0), p
        assert np.abs(b.eta_K - a.eta_K).max() <= MOTION_RTOL * a.eta_K.max()
        assert b.errors.full == pytest.approx(a.errors.full, rel=err_rtol,
                                              abs=0.0), p


def _clear_rule_caches():
    for cached in (basis_mod.quad_rule, fields.ref_tables, edge_legendre):
        cached.cache_clear()


def test_lshape_exact_errors_are_converged(monkeypatch):
    # four more Gauss points in every direction of the graded corner rules
    # (element s and sigma, edge s) move no ErrorBlock quantity, per
    # element, by 1e-10 relative on the meshes of the lshape golden cases
    lshape = preset("lshape")
    _, kwargs = make_golden.CASES["lshape-adaptive"]
    states = []
    for p in (1, 2, 3):
        run = run_adaptive(lshape, p, with_errors=False, **kwargs)
        for rec in run.records:
            sol = solve(assemble(rec.report.mesh, p, lshape))
            states.append((sol, postprocess_resmin(sol)))
    blocks = [error_norms(post) for sol, post in states]
    try:
        with monkeypatch.context() as m:
            m.setattr(basis_mod, "GRADED_EXTRA_POINTS",
                      basis_mod.GRADED_EXTRA_POINTS + 4)
            _clear_rule_caches()
            finer = [error_norms(post) for sol, post in states]
    finally:
        # no table of the finer rules may outlive the test
        _clear_rule_caches()
    assert len(states) == 3 * kwargs["iterations"]
    for a, b in zip(blocks, finer):
        for name, value in vars(a).items():
            want = np.asarray(getattr(b, name))
            assert np.all(np.abs(value - want) <= 1e-10 * np.abs(want)), \
                (a.grad_nu_K.size, name)


def _lshape_state(refinements, p):
    lshape = preset("lshape")
    mesh = build_initial_mesh(lshape.domain, 150)
    for _ in range(refinements):
        mesh = mesh.refine(np.arange(mesh.n_triangles))
    return postprocess_resmin(solve(assemble(mesh, p, lshape)))


def _traced_peaks(fn):
    """Traced peak of fn(post) on lshape p = 2 at 2,400 and 9,600
    elements, after a first call has built the cached tables."""
    peaks = []
    for refinements in (4, 6):
        post = _lshape_state(refinements, 2)
        fn(post)
        tracemalloc.start()
        try:
            fn(post)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks


def test_error_norms_transient_does_not_grow_with_the_mesh():
    # lshape p = 2 on 2,400 and 9,600 elements: point blocks bound the
    # temporaries, and what still grows is the per-element output.  One
    # pass over all points measured 10.2 and 40.9 MB (ratio 4.0), the
    # blocked pass 5.0 and 6.7 MB (ratio 1.36)
    peaks = _traced_peaks(error_norms)
    assert peaks[1] <= 2.0 * peaks[0], peaks


def test_eta_improved_transient_does_not_grow_with_the_mesh():
    # the same meshes: grad nu_h and q_h at every point of the mesh at once
    # measured 3.2 and 12.7 MB (ratio 4.0), on point blocks 2.9 and 2.4 MB
    peaks = _traced_peaks(eta_improved)
    assert peaks[1] <= 2.0 * peaks[0], peaks


def test_error_norms_peak_is_three_block_arrays_on_advdiff():
    # the final p = 3 mesh of a 16-iteration advdiff run from 50 elements,
    # as in the advdiff-adaptive benchmark: 510 of its 624 elements take the
    # 256-point "region" rule, so the block-sized (n, nq, 2) arrays, not the
    # per-element outputs, set the peak.  Measured in block arrays (254
    # elements x 256 points, 0.99 MiB): 4.79 with the mapped points held to
    # the end (4.76 MiB), 3.79 with them freed after the exact fields, and
    # 3.20 (3.18 MiB) with u dropped after the value errors and q after the
    # flux difference
    advdiff = preset("advdiff")
    run = run_adaptive(advdiff, 3, iterations=16, initial_elements=50,
                       with_errors=False)
    mesh = run.records[-1].report.mesh
    assert mesh.n_triangles == 624
    post = postprocess_resmin(solve(assemble(mesh, 3, advdiff)))
    block = 2 * 8 * max(
        (b.stop - b.start) * len(T.weights)
        for group, T in estimators._element_groups(mesh, advdiff, 3)
        for b in fields.point_blocks(len(group), len(T.weights)))
    error_norms(post)
    tracemalloc.start()
    try:
        error_norms(post)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * block, peak / block


# one BLAS thread: a threaded BLAS splits a product by its size, so the bits
# of a row depend on the thread count and the product it is part of (also
# without blocks: the unblocked pass gives other bits with two threads)
_BLOCK_CHECK = """
import numpy as np
from bdmadapt import (assemble, build_initial_mesh, error_norms,
                      eta_improved, fields, postprocess_resmin, preset, solve)
from bdmadapt.bdm import load_vector
blocked = fields.BLOCK_POINTS
for name, initial in (("lshape", 150), ("advdiff", 50)):
    problem = preset(name)
    mesh = build_initial_mesh(problem.domain, initial)
    for _ in range(6):
        mesh = mesh.refine(np.arange(mesh.n_triangles))
    fields.BLOCK_POINTS = blocked
    assert len(fields.point_blocks(mesh.n_triangles, 36)) > 1
    for p in (1, 2, 3):
        post = postprocess_resmin(solve(assemble(mesh, p, problem)))
        runs = []
        for points in (blocked, 2 ** 40):
            fields.BLOCK_POINTS = points
            load = load_vector(mesh, p, problem.f)
            eta = eta_improved(post)
            runs.append([load, *vars(error_norms(post)).values(),
                         eta.eta_K, eta.mismatch_K])
        for a, b in zip(*runs):
            assert np.array_equal(a, b), (name, p)
"""


def test_point_blocks_change_no_bit():
    # lshape on 9,600 and advdiff on 3,200 elements span 6 to 20 blocks of
    # the "data" rule; one block over all points gives the same load vector,
    # ErrorBlock and improved indicator (eta_K, mismatch_K) bit for bit
    src = os.path.dirname(os.path.dirname(estimators.__file__))
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run([sys.executable, "-c", _BLOCK_CHECK], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


@pytest.mark.parametrize("n, n_points", [(0, 36), (1, 36), (910, 36),
                                         (2048, 49), (98304, 64),
                                         (7, 2016), (147456, 7)])
def test_point_blocks_cover_in_aligned_steps(n, n_points):
    blocks = fields.point_blocks(n, n_points)
    bounds = [b.start for b in blocks] + [n]
    assert bounds[0] == 0 and all(b.stop == e for b, e in
                                  zip(blocks, bounds[1:]))
    sizes = np.diff(bounds)
    assert np.all(sizes >= 0)
    assert np.all(sizes * n_points <= fields.BLOCK_POINTS) or len(blocks) == 1
    step = sizes[0]
    if len(blocks) > 1:
        assert np.all(sizes[:-1] == step) and step <= sizes[-1] < 2 * step
        assert step % 64 == 0 or step < 64


def _polynomial_problem(d, beta):
    """u = sum_i 0.3 (i + 1) x^i y^(d - i) + x - 2y of degree d, q = -grad u
    and f = div q - beta . q, from numpy polynomial coefficients
    (c[i, j] multiplies x^i y^j)."""
    P = np.polynomial.polynomial
    c = np.zeros((d + 1, d + 1))
    c[np.arange(d + 1), d - np.arange(d + 1)] = 0.3 * (np.arange(d + 1) + 1)
    c[1, 0] += 1.0
    c[0, 1] -= 2.0
    cx, cy = P.polyder(c, axis=0), P.polyder(c, axis=1)
    cxx, cyy = P.polyder(c, 2, axis=0), P.polyder(c, 2, axis=1)

    def at(coef, x):
        return P.polyval2d(x[:, 0], x[:, 1], coef)

    return dataclasses.replace(
        make_linear_problem(), beta=beta, name=f"degree {d}",
        exact_u=lambda x: at(c, x), u_D=lambda x: at(c, x),
        exact_q=lambda x: -np.stack([at(cx, x), at(cy, x)], axis=1),
        f=lambda x: (beta[0] * at(cx, x) + beta[1] * at(cy, x)
                     - at(cxx, x) - at(cyy, x)))


@pytest.fixture(scope="module")
def reproduction_meshes():
    """verify's ear-clipped pentagon (148 elements, 6 shape classes); the
    32-element square with its interior vertices moved by up to 1e-5, so
    that nearly congruent elements fall into distinct classes; and that
    square with every third element bisected."""
    square = build_initial_mesh(DomainSpec.unit_square(), 32)
    moved = square.vertices.copy()
    interior = np.ones(len(moved), dtype=bool)
    interior[square.edges[square.boundary_edge].ravel()] = False
    rng = np.random.default_rng(0)
    moved[interior] += rng.uniform(-1e-5, 1e-5, (int(interior.sum()), 2))
    pentagon = DomainSpec(((0, 0), (0.6, 0), (1, 0), (1, 1), (0, 1)))
    return {"pentagon": build_initial_mesh(pentagon, 148),
            "jittered": TriMesh(moved, square.triangles),
            "bisected": square.refine(np.arange(0, 32, 3))}


def _estimates(mesh, p, problem):
    """The largest entry of every estimator part and of every ErrorBlock
    field but u_L2, which compares u with u_h of degree p - 1."""
    report = full_report(postprocess_resmin(solve(assemble(mesh, p,
                                                           problem))))
    parts = {name: getattr(report, name) for name in (
        "eta_K", "eta_tilde_K", "mismatch_K", "jump_K", "boundary_K")}
    parts.update((f.name, getattr(report.errors, f.name))
                 for f in dataclasses.fields(report.errors)
                 if f.name != "u_L2")
    return {name: float(np.max(np.abs(v))) for name, v in parts.items()}


@pytest.mark.parametrize("mesh_name", ["pentagon", "jittered", "bisected"])
@pytest.mark.parametrize("beta", [(0.0, 0.0), (1.5, -0.5)],
                         ids=["beta0", "advection"])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_degree_p_plus_1_solutions_are_reproduced(reproduction_meshes,
                                                  mesh_name, beta, p):
    # BDM(p) holds every flux of P_p^2 and the degree-(p + 1)
    # postprocessing every u of P_(p+1): the residual representative, the
    # mismatch, the jumps and every exact error vanish.  One degree more,
    # they do not, so the check is sharp in the degree.  With beta = 0 the
    # multiplier system is factored in single precision, so this also
    # bounds what its one correction leaves
    mesh = reproduction_meshes[mesh_name]
    exact = _estimates(mesh, p, _polynomial_problem(p + 1, beta))
    assert max(exact.values()) <= 1e-12, exact
    control = _estimates(mesh, p, _polynomial_problem(p + 2, beta))
    assert control["eta_K"] >= 1e-6 and control["one_h_K"] >= 1e-6, control

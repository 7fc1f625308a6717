import math
from fractions import Fraction

import numpy as np
import pytest

from bdmadapt import (build_biorthogonal, build_initial_mesh, fortin_apply,
                      preset, scaled_trace_inequality_check, solve_problem)
from bdmadapt.basis import quad_rule
from bdmadapt.fields import edge_ref_points
from bdmadapt.fortin import (edge_lengths, fortin_report, pairing_matrix,
                             random_shape_regular_triangles, trace_basis_values,
                             xi_scale)

from conftest import boundary_moments, projection_moments, skewed_triangle

REF_TRI = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])

# frozen oracle values: rows are moment-0, moment-1, element-mean pairings of
# the three edge bubbles, from exact factorial/Beta integrals
A_EXPECTED = np.array([
    [Fraction(1, 6), Fraction(1, 12), Fraction(1, 12)],
    [Fraction(0), Fraction(-1, 20), Fraction(1, 20)],
    [Fraction(1, 24), Fraction(1, 60), Fraction(1, 60)],
], dtype=object)


@pytest.fixture(scope="module")
def bset():
    return build_biorthogonal()


def test_system_matrix_exact_values(bset):
    want = np.array([[float(x) for x in row] for row in A_EXPECTED])
    assert np.abs(bset.A - want).max() <= 1e-15
    # quadrature oracle for the same entries
    rule = quad_rule(9, "edge")
    t, w = rule.points, rule.weights
    bubbles = np.stack([(1 - t) * t, (1 - t) ** 2 * t, (1 - t) * t ** 2])
    leg = np.stack([np.ones_like(t), 3.0 * (2.0 * t - 1.0)])
    quad_rows = np.einsum("mq,kq,q->mk", leg, bubbles, w)
    assert np.abs(bset.A[:2] - quad_rows).max() <= 1e-13
    # invertibility: frozen determinant 1/14400
    det = np.linalg.det(bset.A)
    assert abs(det - 1.0 / 14400.0) <= 1e-15


def test_coefficients_solve_the_exact_system(bset):
    # columns solve A c = e_0 and A c = e_1 in rational arithmetic
    a = [list(row) for row in A_EXPECTED]
    want = []
    for m in range(2):
        rhs = [Fraction(int(i == m)) for i in range(3)]
        aug = [row[:] + [rhs[i]] for i, row in enumerate(a)]
        for col in range(3):
            piv = next(r for r in range(col, 3) if aug[r][col] != 0)
            aug[col], aug[piv] = aug[piv], aug[col]
            for r in range(3):
                if r != col:
                    fac = aug[r][col] / aug[col][col]
                    aug[r] = [x - fac * y for x, y in zip(aug[r], aug[col])]
        want.append([float(aug[r][3] / aug[r][r]) for r in range(3)])
    assert bset.coeffs.shape == (3, 2)
    assert np.abs(bset.coeffs - np.array(want).T).max() <= 1e-14


def test_reference_biorthogonality_all_36_pairs(bset):
    G = pairing_matrix(bset, REF_TRI)
    assert np.abs(G - np.eye(6)).max() <= 1e-12


def test_psi_zero_mean_and_vanishing_on_other_edges(bset):
    rule = quad_rule(8, "triangle")
    means = np.einsum("q,qk->k", rule.weights, bset.psi_values(rule.points))
    assert np.abs(means).max() <= 1e-14
    t = np.linspace(0.0, 1.0, 9)
    for j in range(3):
        trace = bset.psi_edge_trace(j, t)
        for k in range(6):
            if k // 2 != j:
                assert np.abs(trace[:, k]).max() <= 1e-13


def test_physical_biorthogonality_random_triangles(bset):
    for tri in random_shape_regular_triangles(100, seed=7):
        G = pairing_matrix(bset, tri)
        assert np.abs(G - np.eye(6)).max() <= 1e-11


def test_xi_is_one_on_reference(bset):
    assert abs(xi_scale(REF_TRI) - 1.0) <= 1e-15


def test_moment_preservation(bset):
    tri = skewed_triangle()

    def v(x):
        return np.sin(2.0 * x[:, 0]) + x[:, 1] ** 3 - 0.5

    proj = fortin_apply(v, bset, tri)
    want = boundary_moments(tri, v)
    got = projection_moments(proj)
    scale = max(1.0, np.abs(want).max())
    assert np.abs(got - want).max() <= 1e-11 * scale


def test_projection_reproduces_matching_moments(bset, rng):
    # a field already in the psi span is reproduced exactly
    tri = skewed_triangle()
    coeffs = rng.standard_normal(6)

    def v(x):
        # evaluate the psi combination on the boundary via edge parameters
        out = np.zeros(len(x))
        tri_arr = np.asarray(tri)
        from bdmadapt.mesh import _LOCAL_EDGE_VERTS
        for j, (a, b) in enumerate(_LOCAL_EDGE_VERTS):
            d = tri_arr[b] - tri_arr[a]
            rel = x - tri_arr[a]
            t = (rel @ d) / (d @ d)
            on = np.abs(rel[:, 0] * d[1] - rel[:, 1] * d[0]) < 1e-9
            mask = on & (t > -1e-12) & (t < 1 + 1e-12)
            if mask.any():
                out[mask] = bset.psi_edge_trace(j, t[mask]) @ coeffs
        return out

    proj = fortin_apply(v, bset, tri)
    assert np.abs(proj.alphas - coeffs).max() <= 1e-10 * max(
        1.0, np.abs(coeffs).max())


def test_bdm_flux_orthogonality_on_sample_run(bset, rng):
    # (p_h . n, v - Pi v)_{dK} = 0 for all degree-1 flux normal traces, with
    # v the normal error of an actual solve
    smooth = preset("smooth")
    mesh = build_initial_mesh(smooth.domain, 8)
    sol = solve_problem(mesh, 1, smooth)
    t13 = quad_rule(13, "edge")
    t, w = t13.points, t13.weights
    for k in (0, 3, 5):
        tri = mesh.tri_coords[k]

        def v(x, k=k):
            # (q - q_h) . n needs a per-edge normal; locate the edge first
            out = np.zeros(len(x))
            from bdmadapt.mesh import _LOCAL_EDGE_VERTS
            for j, (a, b) in enumerate(_LOCAL_EDGE_VERTS):
                d = tri[b] - tri[a]
                rel = x - tri[a]
                tpar = (rel @ d) / (d @ d)
                on = np.abs(rel[:, 0] * d[1] - rel[:, 1] * d[0]) < 1e-9
                mask = on & (tpar > -1e-12) & (tpar < 1 + 1e-12)
                if mask.any():
                    n = mesh.outward_normals[k, j]
                    ref = edge_ref_points(j, tpar[mask])
                    qh = sol.flux_space.eval_flux(sol.flux, k, ref)
                    q = smooth.exact_q(x[mask])
                    out[mask] = (q - qh) @ n
            return out

        proj = fortin_apply(v, bset, tri)
        le = edge_lengths(tri)
        # all 6 normal-trace basis functions: supported on one edge each
        for j in range(3):
            a, b = None, None
            pts = edge_ref_points(j, t)
            phys = tri[0][None, :] + pts @ (np.stack(
                [tri[1] - tri[0], tri[2] - tri[0]], axis=1)).T
            vals = v(phys)
            pvals = proj.trace_values(j, t)
            phi = trace_basis_values(tri, j, t)
            resid = le[j] * np.einsum("q,qm->m", w * (vals - pvals), phi)
            assert np.abs(resid).max() <= 1e-11 * max(
                1.0, np.abs(vals).max())


def test_boundedness_sweep(bset, rng):
    ratios = []
    for tri in random_shape_regular_triangles(100, seed=11):
        coeff = rng.standard_normal(5)

        def v(x, c=coeff):
            return (c[0] + c[1] * np.sin(3 * x[:, 0]) + c[2] * x[:, 1]
                    + c[3] * np.cos(x[:, 0] * x[:, 1]) + c[4] * x[:, 0] ** 2)

        proj = fortin_apply(v, bset, tri)
        rule = quad_rule(13, "edge")
        le = edge_lengths(tri)
        nrm2 = 0.0
        from bdmadapt.mesh import _LOCAL_EDGE_VERTS
        for j, (a, b) in enumerate(_LOCAL_EDGE_VERTS):
            pts = ((1 - rule.points)[:, None] * tri[a][None, :]
                   + rule.points[:, None] * tri[b][None, :])
            nrm2 += le[j] * float(np.dot(rule.weights, v(pts) ** 2))
        if nrm2 > 1e-16:
            ratios.append(proj.boundary_norm() / math.sqrt(nrm2))
    C = max(ratios)
    assert np.isfinite(C) and C < 50.0


def test_psi_boundary_norm_scaling(bset):
    # ||psi_i||_{dK} stays below a single constant times sqrt(xi_K)
    rule = quad_rule(13, "edge")
    worst = 0.0
    for tri in random_shape_regular_triangles(100, seed=23):
        xi = xi_scale(tri)
        le = edge_lengths(tri)
        for k in range(6):
            nrm2 = 0.0
            for j in range(3):
                vals = bset.psi_edge_trace(j, rule.points)[:, k]
                nrm2 += le[j] * float(np.dot(rule.weights, vals ** 2))
            worst = max(worst, math.sqrt(nrm2 / xi))
    assert worst < 10.0


@pytest.mark.parametrize("p", [1, 2, 3])
def test_trace_inequality_constants(p):
    out = scaled_trace_inequality_check(p, n_triangles=60, seed=5)
    assert np.isfinite(out["max_constant"])
    assert out["max_constant"] < 100.0
    assert out["min_constant"] > 0.0


def test_trace_inequality_scale_invariance():
    # h^{1/2} ||grad v|| / ||v||_{dK} is invariant under uniform scaling
    from bdmadapt.fortin import _triangle_mesh
    from bdmadapt.fields import stiffness_tensors
    from bdmadapt.basis import make_scalar_basis
    from scipy.linalg import eigh
    tri = skewed_triangle()
    vals = []
    for s in (1.0, 3.7):
        stri = tri * s
        mesh = _triangle_mesh(stri)
        p = 2
        basis = make_scalar_basis(p + 2)
        S = stiffness_tensors(mesh, p + 2, 2 * (p + 2))[0, 1:, 1:]
        rule = quad_rule(2 * (p + 2) + 1, "edge")
        le = edge_lengths(stri)
        T = np.zeros_like(S)
        for j in range(3):
            B = basis.values(edge_ref_points(j, rule.points))[:, 1:]
            T += le[j] * np.einsum("q,qi,qk->ik", rule.weights, B, B)
        evals, evecs = eigh(T)
        keep = evals > 1e-10 * evals.max()
        C = evecs[:, keep]
        lam = eigh(C.T @ S @ C, C.T @ T @ C, eigvals_only=True)
        vals.append(math.sqrt(max(lam) * le.max()))
    assert abs(vals[0] - vals[1]) <= 1e-10 * vals[0]


def test_fortin_report_contents():
    report = fortin_report(n_samples=25, seed=3, degrees=(1,))
    assert report["det_A"] > 0
    assert report["reference_biorthogonality_residual"] <= 1e-12
    assert report["physical_biorthogonality_residual"] <= 1e-11
    assert np.isfinite(report["stability_constant"])
    assert "1" in report["trace_inequality"]

import math
from fractions import Fraction

import numpy as np
import pytest

from bdmadapt import (assemble, build_biorthogonal, build_initial_mesh,
                      fortin_apply, preset, scaled_trace_inequality_check,
                      solve)
from bdmadapt.basis import quad_rule
from bdmadapt.fields import edge_ref_points
from bdmadapt.fortin import (FortinProjection, fortin_report,
                             pairing_matrices, random_shape_regular_triangles,
                             trace_basis_values, trace_constants, xi_scale)
from bdmadapt.mesh import _LOCAL_EDGE_VERTS

from conftest import (boundary_moments, eval_flux, outward_normals,
                      projection_moments, single_element_mesh,
                      skewed_triangle)

REF_TRI = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def edge_param_field(tri, edge_value):
    """A boundary field on one triangle: each point x is located on its
    local edge j at parameter t, and edge_value(j, t, x) gives the values."""
    tri = np.asarray(tri)

    def v(x):
        out = np.zeros(len(x))
        for j, (a, b) in enumerate(_LOCAL_EDGE_VERTS):
            d = tri[b] - tri[a]
            rel = x - tri[a]
            t = (rel @ d) / (d @ d)
            on = np.abs(rel[:, 0] * d[1] - rel[:, 1] * d[0]) < 1e-9
            mask = on & (t > -1e-12) & (t < 1 + 1e-12)
            if mask.any():
                out[mask] = edge_value(j, t[mask], x[mask])
        return out

    return v


def edge_norms_sq(mesh, v):
    """||v||_{dK}^2 per element by the 7-point Gauss rule on each edge, with
    points interpolated between the edge's end vertices; v is called on the
    points of all elements along one local edge at a time."""
    x, w = np.polynomial.legendre.leggauss(7)
    t, w = 0.5 * (x + 1.0), 0.5 * w
    tri = mesh.tri_coords
    out = np.zeros(mesh.n_triangles)
    for a, b in _LOCAL_EDGE_VERTS:
        d = tri[:, b] - tri[:, a]
        pts = tri[:, None, a] + t[None, :, None] * d[:, None, :]
        vals = np.asarray(v(pts.reshape(-1, 2))).reshape(len(tri), -1)
        out += np.hypot(d[:, 0], d[:, 1]) * (vals ** 2 @ w)
    return out

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
    G = pairing_matrices(bset, single_element_mesh(REF_TRI))
    assert G.shape == (1, 6, 6)
    assert np.abs(G[0] - np.eye(6)).max() <= 1e-12


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
    mesh = random_shape_regular_triangles(100, seed=7)
    assert mesh.n_triangles == 100 and mesh.boundary_edge.all()
    G = pairing_matrices(bset, mesh)
    assert np.abs(G - np.eye(6)).max() <= 1e-11


def test_sample_is_shape_regular():
    mesh = random_shape_regular_triangles(100, seed=7)
    assert mesh.min_angles.min() >= math.radians(15.0)


def test_xi_is_one_on_reference(bset):
    xi = xi_scale(single_element_mesh(REF_TRI))
    assert xi.shape == (1,) and abs(xi[0] - 1.0) <= 1e-15


def test_batched_equals_one_element_meshes(bset, rng):
    # every per-element result on the sample mesh is the one of the element
    # evaluated alone
    mesh = random_shape_regular_triangles(30, seed=13)
    c = rng.standard_normal((30, 3))

    def field(coeffs):
        def v(x):
            x0, x1 = x.reshape(len(coeffs), -1, 2).transpose(2, 0, 1)
            return (coeffs[:, :1] + coeffs[:, 1:2] * np.sin(x0 * x1)
                    + coeffs[:, 2:] * x1 ** 2).ravel()
        return v

    G = pairing_matrices(bset, mesh)
    proj = fortin_apply(field(c), bset, mesh)
    norms = proj.boundary_norm()
    consts = {p: trace_constants(mesh, p) for p in (1, 2, 3)}
    assert proj.alphas.shape == (30, 6) and norms.shape == (30,)
    for k in range(mesh.n_triangles):
        one = single_element_mesh(mesh.tri_coords[k])
        assert np.abs(pairing_matrices(bset, one)[0] - G[k]).max() <= 1e-14
        single = fortin_apply(field(c[k:k + 1]), bset, one)
        assert np.allclose(single.alphas[0], proj.alphas[k], rtol=1e-14,
                           atol=1e-14)
        assert abs(single.boundary_norm()[0] - norms[k]) <= 1e-14 * norms[k]
        for p, want in consts.items():
            got = trace_constants(one, p)[0]
            assert abs(got - want[k]) <= 1e-14 * want[k], (k, p)


def test_moment_preservation(bset):
    tri = skewed_triangle()

    def v(x):
        return np.sin(2.0 * x[:, 0]) + x[:, 1] ** 3 - 0.5

    proj = fortin_apply(v, bset, single_element_mesh(tri))
    want = boundary_moments(tri, v)
    got = projection_moments(tri, lambda j, t: proj.trace_values(j, t)[0])
    scale = max(1.0, np.abs(want).max())
    assert np.abs(got - want).max() <= 1e-11 * scale


def test_projection_reproduces_matching_moments(bset, rng):
    # a field already in the psi span is reproduced exactly
    tri = skewed_triangle()
    coeffs = rng.standard_normal(6)
    v = edge_param_field(
        tri, lambda j, t, x: bset.psi_edge_trace(j, t) @ coeffs)
    proj = fortin_apply(v, bset, single_element_mesh(tri))
    assert np.abs(proj.alphas[0] - coeffs).max() <= 1e-10 * max(
        1.0, np.abs(coeffs).max())


def test_bdm_flux_orthogonality_on_sample_run(bset, rng):
    # (p_h . n, v - Pi v)_{dK} = 0 for all degree-1 flux normal traces, with
    # v the normal error of an actual solve
    smooth = preset("smooth")
    mesh = build_initial_mesh(smooth.domain, 8)
    sol = solve(assemble(mesh, 1, smooth))
    t13 = quad_rule(13, "edge")
    t, w = t13.points, t13.weights
    normals = outward_normals(mesh)
    for k in (0, 3, 5):
        tri = mesh.tri_coords[k]

        def normal_error(j, tpar, x, k=k):
            # (q - q_h) . n on local edge j of element k
            ref = edge_ref_points(j, tpar)
            qh = eval_flux(sol.flux_space, sol.flux, k, ref)
            return (smooth.exact_q(x) - qh) @ normals[k, j]

        v = edge_param_field(tri, normal_error)
        one = single_element_mesh(tri)
        proj = fortin_apply(v, bset, one)
        le = one.tri_edge_lengths[0]
        # all 6 normal-trace basis functions: supported on one edge each
        for j in range(3):
            pts = edge_ref_points(j, t)
            phys = tri[0][None, :] + pts @ (np.stack(
                [tri[1] - tri[0], tri[2] - tri[0]], axis=1)).T
            vals = v(phys)
            pvals = proj.trace_values(j, t)[0]
            phi = trace_basis_values(one, j, t)[0]
            resid = le[j] * np.einsum("q,qm->m", w * (vals - pvals), phi)
            assert np.abs(resid).max() <= 1e-11 * max(
                1.0, np.abs(vals).max())


def test_boundedness_sweep(bset, rng):
    mesh = random_shape_regular_triangles(100, seed=11)
    c = rng.standard_normal((100, 5)).T[:, :, None]

    def v(x):
        x0, x1 = x.reshape(100, -1, 2).transpose(2, 0, 1)
        return (c[0] + c[1] * np.sin(3 * x0) + c[2] * x1
                + c[3] * np.cos(x0 * x1) + c[4] * x0 ** 2).ravel()

    proj = fortin_apply(v, bset, mesh)
    nrm2 = edge_norms_sq(mesh, v)
    ok = nrm2 > 1e-16
    C = (proj.boundary_norm()[ok] / np.sqrt(nrm2[ok])).max()
    assert np.isfinite(C) and C < 50.0


def test_psi_boundary_norm_scaling(bset):
    # ||psi_i||_{dK} stays below a single constant times sqrt(xi_K)
    rule = quad_rule(13, "edge")
    mesh = random_shape_regular_triangles(100, seed=23)
    xi = xi_scale(mesh)
    # psi_k on edge j: (nq, 6) traces, weighted by the edge lengths
    nrm2 = sum(np.outer(mesh.tri_edge_lengths[:, j],
                        rule.weights @ bset.psi_edge_trace(j, rule.points)
                        ** 2) for j in range(3))
    worst = np.sqrt(nrm2 / xi[:, None]).max()
    assert worst < 10.0
    # the projection's own norm agrees on each psi
    for k, e in enumerate(np.eye(6)):
        proj = FortinProjection(bset, mesh, np.tile(e, (100, 1)))
        assert np.allclose(proj.boundary_norm(), np.sqrt(nrm2[:, k]),
                           rtol=1e-13)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_trace_inequality_constants(p):
    out = scaled_trace_inequality_check(p, n_triangles=60, seed=5)
    assert np.isfinite(out["max_constant"])
    assert out["max_constant"] < 100.0
    assert out["min_constant"] > 0.0


def test_trace_inequality_scale_invariance():
    # h^{1/2} ||grad v|| / ||v||_{dK} is invariant under uniform scaling
    tri = skewed_triangle()
    vals = [trace_constants(single_element_mesh(tri * s), 2)[0]
            for s in (1.0, 3.7)]
    assert abs(vals[0] - vals[1]) <= 1e-10 * vals[0]


def test_fortin_report_contents():
    report = fortin_report(n_samples=25, seed=3)
    assert report["det_A"] > 0
    assert report["reference_biorthogonality_residual"] <= 1e-12
    assert report["physical_biorthogonality_residual"] <= 1e-11
    assert np.isfinite(report["stability_constant"])
    assert "1" in report["trace_inequality"]


@pytest.mark.parametrize("call, name", [
    (lambda n: random_shape_regular_triangles(n, seed=1), "n"),
    (lambda n: scaled_trace_inequality_check(1, n_triangles=n),
     "n_triangles"),
    (lambda n: fortin_report(n_samples=n), "n_samples"),
])
@pytest.mark.parametrize("n", [0, -3])
def test_empty_sample_is_rejected(call, name, n):
    with pytest.raises(ValueError, match=f"^{name} must be at least 1"):
        call(n)

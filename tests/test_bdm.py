import numpy as np
import pytest

import bdmadapt.basis as basis_mod
from bdmadapt import (DomainSpec, build_initial_mesh,
                      interpolate_boundary_term)
from bdmadapt.basis import _jacobi, basis_size, make_scalar_basis, quad_rule
from bdmadapt.bdm import BdmSpace, edge_legendre, local_dimension
from bdmadapt.fields import edge_ref_points
from bdmadapt.mesh import TriMesh

from conftest import (reference_grads, reference_shape_divs,
                      reference_shape_values)

from conftest import (bdm_mass_matrix, divergence_matrix, edge_elements,
                      eval_flux, interpolate, outward_normals,
                      single_element_mesh)


@pytest.mark.parametrize("p,dim", [(1, 6), (2, 12), (3, 20)])
def test_local_dimensions(p, dim):
    assert local_dimension(p) == dim
    mesh = single_element_mesh()
    space = BdmSpace(mesh, p)
    assert space.local_dim == dim
    assert space.n_dofs == 3 * (p + 1) + (p * p - 1 if p >= 2 else 0)


def test_dg_mass_is_block_diagonal():
    rule = quad_rule(6, "triangle")
    basis = make_scalar_basis(2)
    V = basis.values(rule.points)
    G = np.einsum("q,qi,qj->ij", rule.weights, V, V)
    # reference orthonormality means each block is J * I
    assert np.abs(G - np.eye(basis.size)).max() < 1e-13


def test_zero_coefficients_give_zero_field():
    mesh = single_element_mesh()
    space = BdmSpace(mesh, 2)
    vals = eval_flux(space, np.zeros(space.n_dofs), 0,
                     np.array([[0.3, 0.3], [0.1, 0.7]]))
    assert np.abs(vals).max() == 0.0


def test_constant_field_reproduced():
    mesh = single_element_mesh()
    space = BdmSpace(mesh, 1)
    coeffs = interpolate(space, lambda x: np.tile([1.0, 0.0], (len(x), 1)))
    pts = np.array([[0.25, 0.25], [0.1, 0.6], [0.55, 0.2]])
    vals = eval_flux(space, coeffs, 0, pts)
    assert np.abs(vals - [1.0, 0.0]).max() <= 1e-12


@pytest.mark.parametrize("p", [1, 2, 3])
def test_full_polynomial_space_reproduced(p, rng):
    mesh = single_element_mesh()
    space = BdmSpace(mesh, p)
    basis = make_scalar_basis(p)
    cx = rng.standard_normal(basis.size)
    cy = rng.standard_normal(basis.size)
    Binv = mesh.inv_jacobians[0]
    v0 = mesh.tri_coords[0, 0]

    def q(x):
        ref = (x - v0) @ Binv.T
        V = basis.values(ref)
        return np.stack([V @ cx, V @ cy], axis=1)

    coeffs = interpolate(space, q)
    pts = rng.uniform(0.05, 0.4, size=(15, 2))
    vals = eval_flux(space, coeffs, 0, pts)
    phys = v0[None, :] + pts @ mesh.jacobians[0].T
    want = q(phys)
    assert np.abs(vals - want).max() <= 1e-10 * max(1.0, np.abs(want).max())


@pytest.mark.parametrize("p", [1, 2, 3])
def test_normal_trace_continuity(p, rng):
    mesh = build_initial_mesh(DomainSpec.l_shape(), 24).refine([0, 3, 7])
    space = BdmSpace(mesh, p)
    coeffs = rng.standard_normal(space.n_dofs)
    t = quad_rule(9, "edge").points
    scale = np.abs(coeffs).max()
    edge_tris, edge_local = edge_elements(mesh)
    for e in np.nonzero(~mesh.boundary_edge)[0]:
        kp, km = edge_tris[e]
        lp, lm = edge_local[e]
        ap = mesh.elem_edge_aligned[kp, lp]
        am = mesh.elem_edge_aligned[km, lm]
        n = mesh.edge_normals[e]
        vp = eval_flux(space, coeffs, kp,
                       edge_ref_points(lp, t if ap else 1 - t))
        vm = eval_flux(space, coeffs, km,
                       edge_ref_points(lm, t if am else 1 - t))
        assert np.abs((vp - vm) @ n).max() <= 1e-11 * scale


@pytest.mark.parametrize("p", [1, 2, 3])
def test_divergence_degree(p):
    # div of every shape lies in the degree-(p-1) space exactly
    rule = quad_rule(2 * p + 4, "triangle")
    d = reference_shape_divs(p, rule.points)
    basis = make_scalar_basis(p)  # one degree above the claim
    V = basis.values(rule.points)
    proj = np.einsum("q,qi,ql->il", rule.weights, V, d)
    recon = V[:, : basis_size(p - 1)] @ proj[: basis_size(p - 1), :]
    assert np.abs(recon - d).max() <= 1e-10 * max(1.0, np.abs(d).max())


def test_divergence_free_field_gives_zero_column(rng):
    # curl of a scalar polynomial is divergence free and lies in (P_p)^2
    p = 2
    mesh = build_initial_mesh(DomainSpec.unit_square(), 8)
    space = BdmSpace(mesh, p)
    B = divergence_matrix(space)
    basis = make_scalar_basis(p + 1)
    c = rng.standard_normal(basis.size)

    def curl_w(x):
        g = np.einsum("qib,i->qb", reference_grads(basis, x), c)
        return np.stack([g[:, 1], -g[:, 0]], axis=1)

    coeffs = interpolate(space, curl_w)
    out = B @ coeffs
    assert np.abs(out).max() <= 1e-10 * max(1.0, np.abs(coeffs).max())


def test_divergence_theorem_per_shape():
    # row of B against v = 1 equals the net outward normal flux of the shape
    p = 1
    mesh = single_element_mesh()
    space = BdmSpace(mesh, p)
    B = divergence_matrix(space).toarray()
    t, w = quad_rule(11, "edge").points, quad_rule(11, "edge").weights
    for l in range(space.local_dim):
        coeffs = np.zeros(space.n_dofs)
        # build the global vector whose local coefficients are delta_l
        coeffs[space.l2g[0, l]] = space.signs[0, l]
        flux = 0.0
        for j in range(3):
            vals = eval_flux(space, coeffs, 0, edge_ref_points(j, t))
            le = mesh.tri_edge_lengths[0, j]
            flux += le * float(np.dot(w, vals @ outward_normals(mesh)[0, j]))
        # (div N_l, 1) with the constant reference function 1/sqrt(2)... the
        # DG basis constant is sqrt(2), so scale accordingly
        want = (B @ coeffs)[0] / np.sqrt(2.0)
        assert abs(flux - want) <= 1e-11 * max(1.0, abs(flux))


@pytest.mark.parametrize("p", [1, 2])
def test_divergence_consistency_random_field(p, rng):
    # (div q_h, 1)_Omega equals the boundary flux of q_h (edge oracle)
    mesh = build_initial_mesh(DomainSpec.unit_square(), 8)
    space = BdmSpace(mesh, p)
    B = divergence_matrix(space)
    coeffs = rng.standard_normal(space.n_dofs)
    ones = np.zeros((mesh.n_triangles, basis_size(p - 1)))
    ones[:, 0] = 1.0 / np.sqrt(2.0)  # the constant-1 field
    ones = ones.ravel()
    total_div = float(ones @ (B @ coeffs))
    erule = quad_rule(2 * p + 9, "edge")
    t, w = erule.points, erule.weights
    flux = 0.0
    normals = outward_normals(mesh)
    edge_tris, edge_local = edge_elements(mesh)
    for e in np.nonzero(mesh.boundary_edge)[0]:
        k = edge_tris[e, 0]
        j = edge_local[e, 0]
        vals = eval_flux(space, coeffs, k, edge_ref_points(j, t))
        flux += mesh.edge_lengths[e] * float(
            np.dot(w, vals @ normals[k, j]))
    assert abs(total_div - flux) <= 1e-11 * max(1.0, abs(flux))


def test_boundary_term_zero_data():
    mesh = build_initial_mesh(DomainSpec.unit_square(), 8)
    space = BdmSpace(mesh, 2)
    g = interpolate_boundary_term(space, lambda x: np.zeros(len(x)))
    assert np.abs(g).max() == 0.0


def test_boundary_term_constant_data_closed_form():
    # per-edge oracle: for u_D = 1 only the m = 0 moment survives and equals
    # -sigma_e; interior edges receive nothing
    mesh = build_initial_mesh(DomainSpec.unit_square(), 2)
    p = 2
    space = BdmSpace(mesh, p)
    g = interpolate_boundary_term(space, lambda x: np.ones(len(x)))
    edge_tris, edge_local = edge_elements(mesh)
    for e in range(mesh.n_edges):
        k = edge_tris[e, 0]
        j = edge_local[e, 0]
        for m in range(p + 1):
            got = g[e * (p + 1) + m]
            if not mesh.boundary_edge[e]:
                assert got == 0.0
            elif m > 0:
                assert abs(got) < 1e-14
            else:
                sigma = 1.0 if mesh.elem_edge_aligned[k, j] else -1.0
                assert abs(got - (-sigma)) < 1e-14
    assert np.abs(g[space.n_edge_dofs:]).max() == 0.0


@pytest.mark.parametrize("p", [1, 2, 3])
def test_commuting_interpolation(p, rng):
    # div(Pi q) = Q^{p-1}(div q) for a polynomial field one degree higher
    mesh = build_initial_mesh(DomainSpec.unit_square(), 8)
    space = BdmSpace(mesh, p)
    basis = make_scalar_basis(p + 1)
    cx = rng.standard_normal(basis.size)
    cy = rng.standard_normal(basis.size)

    def q(x):
        V = basis.values(x)
        return np.stack([V @ cx, V @ cy], axis=1)

    def div_q(x):
        G = reference_grads(basis, x)
        return G[:, :, 0] @ cx + G[:, :, 1] @ cy

    coeffs = interpolate(space, q)
    rule = quad_rule(2 * p + 6, "triangle")
    # Piola divergence: div(B N / J) = div_ref(N) / J
    d = reference_shape_divs(p, rule.points)
    got = (space.local_coeffs(coeffs) @ d.T) / mesh.det_jacobians[:, None]
    from bdmadapt.fields import mapped_points
    V = make_scalar_basis(p - 1).values(rule.points)
    pts = mapped_points(mesh, rule.points)
    want_vals = div_q(pts.reshape(-1, 2)).reshape(pts.shape[:2])
    proj = np.einsum("q,nq,qi->ni", rule.weights, want_vals, V)
    want = np.einsum("ni,qi->nq", proj, V)
    scale = max(1.0, np.abs(want).max())
    assert np.abs(got - want).max() <= 1e-10 * scale


def test_orientation_flip_invariance(rng):
    # relabelling the vertices reverses the stored direction of many edges;
    # matching edges by their vertex pair and compensating each flipped one
    # by (-1)^(m+1) on moment m leaves the assembled mass matrix unchanged
    mesh = build_initial_mesh(DomainSpec.unit_square(), 8).refine([0, 3])
    p = 2
    perm = rng.permutation(mesh.n_vertices)  # old vertex id -> new id
    verts = np.empty_like(mesh.vertices)
    verts[perm] = mesh.vertices
    relabelled = TriMesh(verts, perm[mesh.triangles])
    new_pairs = np.sort(perm[mesh.edges], axis=1)
    lookup = {tuple(pair): e for e, pair in enumerate(relabelled.edges)}
    new_edge = np.array([lookup[tuple(pair)] for pair in new_pairs])
    flipped = perm[mesh.edges[:, 0]] > perm[mesh.edges[:, 1]]
    assert flipped.sum() >= mesh.n_edges // 4

    space, space2 = BdmSpace(mesh, p), BdmSpace(relabelled, p)
    m = np.arange(p + 1)
    index = np.arange(space.n_dofs)  # interior dofs keep their element order
    index[: space.n_edge_dofs] = (new_edge[:, None] * (p + 1) + m).ravel()
    D = np.ones(space.n_dofs)
    D[: space.n_edge_dofs] = np.where(flipped[:, None], (-1.0) ** (m + 1),
                                      1.0).ravel()
    M = bdm_mass_matrix(space).toarray()
    M2 = bdm_mass_matrix(space2).toarray()[np.ix_(index, index)]
    M2_comp = (D[:, None] * M2) * D[None, :]
    assert np.abs(M2_comp - M).max() <= 1e-13 * np.abs(M).max()


@pytest.mark.parametrize("p", [1, 2, 3])
def test_reference_normal_traces_closed_form(p):
    # trace of the (edge j, moment m) shape on its own edge is
    # (2m+1) L_m(t) / |edge|; zero on the two other edges
    t = quad_rule(13, "edge").points
    leg = _jacobi(p, 0, 2.0 * t - 1.0)[0]
    lens = np.array([np.sqrt(2.0), 1.0, 1.0])
    normals = np.array([[1.0, 1.0] / np.sqrt(2.0), [-1.0, 0.0], [0.0, -1.0]])
    for j in range(3):
        vals = reference_shape_values(p, edge_ref_points(j, t))
        qn = vals @ normals[j]
        for jj in range(3):
            for m in range(p + 1):
                l = jj * (p + 1) + m
                if jj == j:
                    want = (2 * m + 1) * leg[m] / lens[j]
                    assert np.abs(qn[:, l] - want).max() <= 1e-11
                else:
                    assert np.abs(qn[:, l]).max() <= 1e-11
        # interior shapes have no normal trace
        if p >= 2:
            assert np.abs(qn[:, 3 * (p + 1):]).max() <= 1e-11


def test_legendre_recurrence_matches_high_precision():
    # the alpha = 0 rows of the Jacobi recurrence are L_m(2t - 1), and a
    # lower degree's table is a leading slice of a higher one's
    mpmath = pytest.importorskip("mpmath")
    t = np.linspace(0.0, 1.0, 41)
    table = _jacobi(8, 0, 2.0 * t - 1.0)[0]
    with mpmath.workdps(40):
        for m in range(9):
            want = np.array([float(mpmath.legendre(m, 2 * mpmath.mpf(ti) - 1))
                             for ti in t])
            assert np.abs(table[m] - want).max() <= 4e-15, m
            assert np.array_equal(_jacobi(m, 0, 2.0 * t - 1.0)[0][m],
                                  table[m])


@pytest.mark.parametrize("p, n_points, graded", [(1, 12, False),
                                                 (3, 8, False), (2, 7, True)])
def test_edge_legendre_table(p, n_points, graded):
    t, w, L = edge_legendre(p, n_points, graded)
    assert edge_legendre(p, n_points, graded)[2] is L
    assert abs(w.sum() - 1.0) <= 1e-14
    if graded:
        # Gauss nodes s on each half, at t = s^3 / 2 and 1 - s^3 / 2: the
        # s rule keeps the exactness 2 n - 1 in t, plus the extra points
        n = 3 * n_points + basis_mod.GRADED_EXTRA_POINTS
        s = 0.5 * (basis_mod._gauss_jacobi(n, 0)[0] + 1.0)
        assert len(t) == 2 * n
        assert np.array_equal(t[:n], 0.5 * s ** 3)
        assert np.array_equal(t[n:], 1.0 - t[:n][::-1])
        assert np.array_equal(w[n:], w[:n][::-1])
    else:
        rule = quad_rule(2 * n_points - 1, "edge")
        assert np.array_equal(t, rule.points)
    # row m does not depend on p
    assert np.array_equal(L, _jacobi(8, 0, 2.0 * t - 1.0)[0][:p + 1])
    for a in (t, w, L):
        assert not a.flags.writeable

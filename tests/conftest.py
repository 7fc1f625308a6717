from types import SimpleNamespace

import numpy as np
import pytest
from scipy.sparse import bmat

from bdmadapt import build_initial_mesh, preset, solve_problem
from bdmadapt.bdm import (BdmSpace, DgSpace, advection_matrix, bdm_mass_matrix,
                          divergence_matrix, interpolate_boundary_term,
                          reference_shape_values)
from bdmadapt.fields import edge_ref_points, mapped_points, subdivided_edge_rule


@pytest.fixture
def rng():
    return np.random.default_rng(20240612)


def saddle_system(mesh, p, problem):
    """Global saddle system [[M, -B^T], [B - C, 0]] x = (-g_D, F) as an oracle.

    Returns matrix (CSC), rhs and the two spaces; the program itself only
    solves the hybridized form of this system.
    """
    flux = BdmSpace(mesh, p)
    scalar = DgSpace(mesh, p - 1)
    M = bdm_mass_matrix(flux)
    B = divergence_matrix(flux, scalar)
    C = advection_matrix(flux, scalar, problem.beta)
    g = interpolate_boundary_term(flux, problem.u_D)
    F = scalar.load_vector(problem.f, 2 * p + 8)
    A = bmat([[M, -B.T], [B - C, None]], format="csc")
    return SimpleNamespace(matrix=A, rhs=np.concatenate([g, F]),
                           flux_space=flux, scalar_space=scalar)


def element_flux_trace_sq(problem, solution):
    """Element-side oracle for the exact normal-flux trace term.

    Per element, sums ||(q - q_h) . n_K||^2 and ||q . n_K||^2 over its three
    local edges, with q_h evaluated from the reference shape functions and
    the Piola map and the (p+5)-point Gauss rule (subdivided twice on edges
    touching quad_singular_point).  Returns (trace_sq, qn_sq).
    """
    mesh, p = solution.mesh, solution.p
    c_flux = solution.flux_space.local_coeffs(solution.flux)
    singular = np.zeros(mesh.n_edges, dtype=bool)
    if problem.quad_singular_point is not None:
        at = np.linalg.norm(mesh.vertices - problem.quad_singular_point,
                            axis=1) < 1e-12
        singular = at[mesh.edges].any(axis=1)
    trace_sq = np.zeros(mesh.n_triangles)
    qn_sq = np.zeros(mesh.n_triangles)
    for flagged, levels in ((False, 0), (True, 2)):
        t, w = subdivided_edge_rule(p + 5, levels)
        for j in range(3):
            ids = np.nonzero(singular[mesh.elem_edges[:, j]] == flagged)[0]
            if ids.size == 0:
                continue
            ref = np.einsum("nl,qla->nqa", c_flux[ids],
                            reference_shape_values(p, edge_ref_points(j, t)))
            qh = np.einsum("nqa,nba->nqb", ref, mesh.jacobians[ids]) \
                / mesh.det_jacobians[ids, None, None]
            pts = mapped_points(mesh, edge_ref_points(j, t), ids)
            qv = np.asarray(problem.exact_q(pts.reshape(-1, 2)), float)
            qv = qv.reshape(len(ids), len(t), 2)
            nrm = mesh.outward_normals[ids, j]
            le = mesh.tri_edge_lengths[ids, j]
            dn = np.einsum("nqa,na->nq", qv - qh, nrm)
            gn = np.einsum("nqa,na->nq", qv, nrm)
            trace_sq[ids] += np.einsum("nq,q->n", dn ** 2, w) * le
            qn_sq[ids] += np.einsum("nq,q->n", gn ** 2, w) * le
    return trace_sq, qn_sq


def make_linear_problem():
    return preset("linear")


@pytest.fixture(scope="session")
def linear_problem():
    return make_linear_problem()


@pytest.fixture(scope="session")
def smooth_problem():
    return preset("smooth")


@pytest.fixture(scope="session")
def small_smooth_solutions(smooth_problem):
    """(p -> (solution, mesh)) on a 128-element unit square mesh."""
    out = {}
    mesh = build_initial_mesh(smooth_problem.domain, 32).refine(range(32))
    for p in (1, 2, 3):
        out[p] = solve_problem(mesh, p, smooth_problem)
    return out


def skewed_triangle():
    """A reference-unlike triangle for single-element checks."""
    return np.array([[0.2, -0.1], [1.3, 0.4], [0.1, 1.1]])


def single_element_mesh(tri=None):
    from bdmadapt import TriMesh
    tri = skewed_triangle() if tri is None else np.asarray(tri, dtype=float)
    return TriMesh(tri, np.array([[0, 1, 2]]))

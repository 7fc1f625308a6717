from types import SimpleNamespace

import numpy as np
import pytest
from scipy.sparse import bmat

from bdmadapt import DomainSpec, ProblemSpec, build_initial_mesh, solve_problem
from bdmadapt.bdm import (BdmSpace, DgSpace, advection_matrix, bdm_mass_matrix,
                          divergence_matrix, interpolate_boundary_term)


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


def make_linear_problem():
    return ProblemSpec(
        domain=DomainSpec.unit_square(),
        f=lambda x: np.zeros(len(x)),
        u_D=lambda x: x[:, 0],
        exact_u=lambda x: x[:, 0],
        exact_q=lambda x: np.stack([-np.ones(len(x)), np.zeros(len(x))],
                                   axis=1),
        name="linear")


@pytest.fixture(scope="session")
def linear_problem():
    return make_linear_problem()


@pytest.fixture(scope="session")
def smooth_problem():
    from bdmadapt import preset
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

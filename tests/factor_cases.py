"""Multiplier systems of the three presets, shared by the factor tests and
the subprocess they start; importing this module loads no test tooling."""

import numpy as np

from bdmadapt import build_initial_mesh, preset


def multiplier_cases():
    """(name, problem, mesh, p) of three multiplier systems: advdiff on 512
    elements at p = 2, smooth on 512 at p = 3 and, at p = 1, an L-shape
    mesh graded by ten bisection rounds of the elements at the re-entrant
    corner, as the adaptive loop grades it."""
    cases = []
    for name, p in (("advdiff", 2), ("smooth", 3)):
        problem = preset(name)
        mesh = build_initial_mesh(problem.domain, 32)
        for _ in range(4):
            mesh = mesh.refine(range(mesh.n_triangles))
        cases.append((name, problem, mesh, p))
    lshape = preset("lshape")
    mesh = build_initial_mesh(lshape.domain, 384)
    for _ in range(10):
        at_corner = (mesh.vertices[mesh.triangles] == 0.0).all(axis=2)
        mesh = mesh.refine(np.nonzero(at_corner.any(axis=1))[0])
    cases.append(("lshape", lshape, mesh, 1))
    return cases

"""Self-contained identity and property battery behind the CLI verify command."""

import numpy as np

from .adaptivity import dorfler_mark
from .basis import make_scalar_basis, quad_rule
from .estimators import dual_norm_star, error_norms, eta_improved, full_report
from .fields import ElementClasses, stiffness_tensors
from .mesh import DomainSpec, build_initial_mesh
from .postprocess import class_factors, postprocess_resmin, residual_load
from .problems import preset
from .solver import solve_problem


def _check(name, passed, detail):
    return {"name": name, "passed": bool(passed), "detail": detail}


def run_verification(seed: int = 0, quick: bool = True) -> dict:
    from scipy.linalg import eigh  # only here: `bdmadapt run` needs none
    checks = []

    # quadrature exactness spot check
    rule = quad_rule(10, "triangle")
    val = float(np.einsum("q,q->", rule.weights,
                          rule.points[:, 0] ** 4 * rule.points[:, 1] ** 6))
    exact = 24.0 * 720.0 / 479001600.0  # 4! 6! / 12!
    checks.append(_check("quadrature_exactness",
                         abs(val - exact) <= 1e-13 * abs(exact),
                         f"|err|={abs(val - exact):.2e}"))

    # full-pipeline exactness on a linear solution
    lin = preset("linear")
    worst = 0.0
    for p in (1, 2, 3):
        mesh = build_initial_mesh(lin.domain, 8)
        sol = solve_problem(mesh, p, lin)
        post = postprocess_resmin(sol)
        rep = eta_improved(post)
        err = error_norms(post)
        worst = max(worst, rep.eta, err.full, err.nu_L2)
    checks.append(_check("linear_exactness", worst <= 1e-10,
                         f"max residual {worst:.2e}"))

    # the factored postprocessing solves its local systems S11 nu = rhs_1
    # and S22 theta = rhs, and eta_tilde_K is the energy norm of eps; S22 is
    # built per element, apart from the shape classes that the solver and
    # the postprocessing factor, on an ear-clipped unit square (148
    # elements in 6 classes)
    smooth = preset("smooth")
    square = DomainSpec(((0, 0), (0.6, 0), (1, 0), (1, 1), (0, 1)), "square")
    mesh = build_initial_mesh(square, 148)
    p = 2
    sol = solve_problem(mesh, p, smooth)
    post = postprocess_resmin(sol)
    S22 = stiffness_tensors(mesh, p)
    rhs = residual_load(sol)
    n1 = post.nu.shape[1] - 1
    worst = max(np.linalg.norm((S @ x[:, 1:, None])[..., 0] - b)
                / np.linalg.norm(b)
                for S, x, b in ((S22[:, :n1, :n1], post.nu, rhs[:, :n1]),
                                (S22, post.theta, rhs)))
    checks.append(_check("postprocessing_equivalence", worst <= 1e-10,
                         f"max relative residual {worst:.2e}"))
    lhs = np.sqrt(np.einsum("ni,nij,nj->n", post.eps, S22, post.eps))
    resid = np.abs(lhs - post.eta_tilde_K)
    tol = 1e-10 * np.maximum(post.eta_tilde_K, 1e-2 * post.eta_tilde_K.max())
    checks.append(_check("enrichment_identity", np.all(resid <= tol),
                         f"max residual {resid.max():.2e}"))

    # local efficiency of both indicators
    rep = full_report(post)
    err = rep.errors
    slack = 1e-8 * err.full
    eff1 = rep.eta_tilde_K <= err.grad_nu_K + err.q_star_K + slack
    eff2 = rep.eta_K <= err.one_h_K + err.q_L2_K + slack
    checks.append(_check("local_efficiency", bool(eff1.all() and eff2.all()),
                         f"violations {int((~eff1).sum() + (~eff2).sum())}"))
    checks.append(_check("saturation",
                         rep.delta is not None and 0 <= rep.delta < 1,
                         f"delta={rep.delta}"))

    # dual norm against a dense eigen-oracle, both on a one-element mesh
    # (dual_norm_star) and with the element's class factor
    rng = np.random.default_rng(seed)
    worst = 0.0
    for p in (1, 2):
        S22 = stiffness_tensors(mesh, p)
        classes = ElementClasses(mesh)
        G = class_factors(mesh, p, classes)
        for _ in range(3 if quick else 10):
            k = int(rng.integers(0, mesh.n_triangles))
            coef = rng.standard_normal((3, 2))

            def fld(x, c=coef):
                return (c[None, 0] + c[None, 1] * x[:, 0:1]
                        + c[None, 2] * (x ** 2))

            got = dual_norm_star(mesh, p, k, fld)
            basis = make_scalar_basis(p + 2)
            rule = quad_rule(2 * p + 8, "triangle")
            D = basis.grads(rule.points)[:, 1:, :]
            v0 = mesh.tri_coords[k, 0]
            pts = v0[None, :] + rule.points @ mesh.jacobians[k].T
            vals = fld(pts)
            pulled = np.einsum("qa,ba->qb", vals, mesh.inv_jacobians[k])
            b = mesh.det_jacobians[k] * np.einsum("q,qb,qib->i",
                                                  rule.weights, pulled, D)
            evals, evecs = eigh(S22[k])
            ref_val = float(np.linalg.norm((evecs.T @ b) / np.sqrt(evals)))
            for val in (got, float(np.linalg.norm(G[classes.id[k]] @ b))):
                worst = max(worst, abs(val - ref_val) / max(ref_val, 1e-14))
    checks.append(_check("dual_norm_oracle", worst <= 1e-10,
                         f"max rel dev {worst:.2e}"))

    # marking sanity
    marked = dorfler_mark(np.array([3.0, 1.0, 1.0, 1.0]), 0.6)
    checks.append(_check("dorfler_marking", marked.tolist() == [0],
                         f"marked={marked.tolist()}"))

    return {"passed": all(c["passed"] for c in checks), "checks": checks}

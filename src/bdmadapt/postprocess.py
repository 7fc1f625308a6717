"""Element-local postprocessing of the mixed solution.

All local problems live on the mean-free hierarchical bases, where the
degree-(p+1) basis is the leading slice of the degree-(p+2) one.  The
degree-(p+2) stiffness S22 depends on the element only through its metric,
so it is built from each class metric of the solver (fields.ElementClasses)
and factored once, S22 = L L^T, and G = L^{-1} is formed; its leading
block G11 = L11^{-1} inverts the factor of the degree-(p+1) stiffness S11.
With rhs_i = -(q_h, grad v_i)_K, z = G rhs, each product one GEMM per class:

  * theta_K = G^T z is the enriched degree-(p+2) elliptic postprocessing;
  * nu_K = G11^T z[:n1] is the classical (Stenberg) degree-(p+1) one, which
    coincides with the residual minimizer;
  * eps_K = theta_K - nu_K is the residual representative of the saddle
    problem (grad eps + grad nu, grad v) = -(q_h, grad v) for mean-free v of
    degree p+2, (grad w, grad eps) = 0 for mean-free w of degree p+1.  As
    G^T is upper triangular, eps_K = G^T [0; z[n1:]]: formed without the
    subtraction, it carries ||grad eps_K|| = eta_tilde_K to round-off even
    where eps_K is far smaller than theta_K;
  * eta_tilde_K = ||grad eps_K||_K = ||z[n1:]||.

The same factor gives discrete dual norms ||G b|| of other loads.  The
element mean constraint copies the constant coefficient of u_h because all
bases share the same normalized constant.  Each element is solved with its
class factor alone, so results do not depend on element order.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import basis_size
from .fields import nu_jump_terms, ref_tables, stiffness_tensors
from .solver import MixedSolution


@dataclass
class PostprocResult:
    """The postprocessed scalars and residual of solution, per element.

    nu (degree p+1) and theta (degree p+2) have full coefficients (column 0
    is the constant); eps has mean-free degree-(p+2) coefficients;
    eta_tilde_K holds ||grad eps||_K; chol_inv holds G = L^{-1}
    (n_classes, n2, n2) for the Cholesky factors L of the mean-free
    degree-(p+2) stiffnesses of solution.classes.  jump_K and boundary_K
    are the scaled traces of nu (fields.nu_jump_terms with the problem's
    u_D), which the improved indicator and the exact-error block both read.
    """

    solution: MixedSolution
    nu: np.ndarray
    eps: np.ndarray
    eta_tilde_K: np.ndarray
    theta: np.ndarray
    chol_inv: np.ndarray
    jump_K: np.ndarray
    boundary_K: np.ndarray


@lru_cache(maxsize=None)
def _flux_load_table(p: int) -> np.ndarray:
    """T[l, i] = sum_q w_q N_l . grad v_i on the reference element, for the
    BDM(p) shapes N_l and the mean-free degree-(p+2) scalars v_i."""
    T = ref_tables(p, "local")
    load = (T.N * np.repeat(T.weights, 2)) @ T.D[1:].T
    load.setflags(write=False)
    return load


def residual_load(solution: MixedSolution) -> np.ndarray:
    """Loads rhs (n, n2), rhs_i = -(q_h, grad v_i)_K, of the mean-free
    degree-(p+2) basis.  The load is geometry free: the Piola factor B / J
    of q_h cancels the B^{-T} of grad v_i and the J of the integral."""
    space = solution.flux_space
    return -(space.local_coeffs(solution.flux) @ _flux_load_table(space.p))


def class_factors(p: int, metric):
    """G = L^{-1} (n, n2, n2) for the Cholesky factors L of the stiffnesses
    on the mean-free degree-(p+2) basis of n classes of metrics (n, 2, 2)
    (ElementClasses.metric, also of classes keyed by beta)."""
    S22 = stiffness_tensors(p, metric)
    try:
        L = np.linalg.cholesky(S22)
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(
            "local stiffness not positive definite; the mean-free basis "
            "construction is broken") from exc
    return np.linalg.inv(L)


def _with_mean(solution: MixedSolution, mean_free: np.ndarray) -> np.ndarray:
    """Full coefficient rows whose constant matches the element mean of u_h."""
    out = np.empty((mean_free.shape[0], mean_free.shape[1] + 1))
    out[:, 0] = solution.scalar[:, 0]
    out[:, 1:] = mean_free
    return out


def postprocess_resmin(solution: MixedSolution) -> PostprocResult:
    """Factor each class stiffness once and derive all local solutions and
    the scaled traces of nu."""
    mesh, p = solution.flux_space.mesh, solution.flux_space.p
    classes = solution.classes
    n1 = basis_size(p + 1) - 1
    G = class_factors(p, classes.metric)
    z = classes.matmul(G, residual_load(solution))
    theta = classes.matmul(np.swapaxes(G, 1, 2), z)
    nu = _with_mean(
        solution, classes.matmul(np.swapaxes(G[:, :n1, :n1], 1, 2), z[:, :n1]))
    eps = classes.matmul(np.swapaxes(G[:, n1:, :], 1, 2), z[:, n1:])
    jump_K, boundary_K = nu_jump_terms(mesh, nu, solution.problem.u_D, p)
    return PostprocResult(solution, nu, eps, np.linalg.norm(z[:, n1:], axis=1),
                          _with_mean(solution, theta), G, jump_K, boundary_K)

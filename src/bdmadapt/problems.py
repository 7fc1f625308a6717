"""Built-in problem presets with closed-form exact solutions.

All callables are numpy-vectorized over (n, 2) point arrays.  The advective
preset evaluates its exponential layer factors in shifted form (arguments
always <= 0) so large Peclet numbers stay well conditioned.
"""

import numpy as np

from .mesh import DomainSpec
from .solver import ProblemSpec

ADVECTION_PECLET = 1.0e3 / 3.0


def _smooth() -> ProblemSpec:
    def u(x):
        return x[:, 0] * (1.0 - x[:, 0]) * np.sin(np.pi * x[:, 1])

    def q(x):
        sx = np.sin(np.pi * x[:, 1])
        cx = np.cos(np.pi * x[:, 1])
        return np.stack([(2.0 * x[:, 0] - 1.0) * sx,
                         -np.pi * x[:, 0] * (1.0 - x[:, 0]) * cx], axis=1)

    def f(x):
        return np.sin(np.pi * x[:, 1]) * (
            2.0 + np.pi ** 2 * x[:, 0] * (1.0 - x[:, 0]))

    def u_D(x):
        return np.zeros(len(x))

    spec = ProblemSpec(domain=DomainSpec.unit_square(), f=f, u_D=u_D,
                       exact_u=u, exact_q=q, name="smooth")
    g = np.linspace(0.15, 0.85, 4)
    spec.validate_exact(np.array([(a, b) for a in g for b in g]))
    return spec


def _lshape() -> ProblemSpec:
    def _polar(x):
        r = np.hypot(x[:, 0], x[:, 1])
        th = np.arctan2(x[:, 1], x[:, 0])
        return r, th

    def u(x):
        r, th = _polar(x)
        return r ** (2.0 / 3.0) * np.sin((2.0 / 3.0) * (np.pi - th))

    def q(x):
        r, th = _polar(x)
        rs = np.maximum(r, 1e-300) ** (-1.0 / 3.0)
        arg = (2.0 / 3.0) * (np.pi - th)
        er = np.stack([np.cos(th), np.sin(th)], axis=1)
        et = np.stack([-np.sin(th), np.cos(th)], axis=1)
        grad = (2.0 / 3.0) * rs[:, None] * (
            np.sin(arg)[:, None] * er - np.cos(arg)[:, None] * et)
        return -grad

    def f(x):
        return np.zeros(len(x))

    spec = ProblemSpec(domain=DomainSpec.l_shape(), f=f, u_D=u,
                       exact_u=u, exact_q=q, name="lshape",
                       quad_singular_point=(0.0, 0.0))
    pts = np.array([(0.5, 0.5), (0.7, -0.4), (-0.6, 0.5), (0.3, 0.8),
                    (0.8, 0.2), (-0.2, 0.9), (0.4, -0.7), (0.9, 0.9),
                    (-0.8, 0.3), (0.2, 0.4)])
    spec.validate_exact(pts)
    return spec


def _advdiff() -> ProblemSpec:
    P = ADVECTION_PECLET
    em = -np.expm1(-P)  # 1 - e^{-P}

    def g(s):
        return s - (np.exp(P * (s - 1.0)) - np.exp(-P)) / em

    def dg(s):
        return 1.0 - P * np.exp(P * (s - 1.0)) / em

    def d2g(s):
        return -P * P * np.exp(P * (s - 1.0)) / em

    def u(x):
        return g(x[:, 0]) * g(x[:, 1])

    def q(x):
        return -np.stack([dg(x[:, 0]) * g(x[:, 1]),
                          g(x[:, 0]) * dg(x[:, 1])], axis=1)

    def f(x):
        gx, gy = g(x[:, 0]), g(x[:, 1])
        lap = d2g(x[:, 0]) * gy + gx * d2g(x[:, 1])
        adv = P * (dg(x[:, 0]) * gy + gx * dg(x[:, 1]))
        return -lap + adv

    def u_D(x):
        return np.zeros(len(x))

    spec = ProblemSpec(domain=DomainSpec.unit_square(), f=f, u_D=u_D,
                       beta=(P, P), exact_u=u, exact_q=q, name="advdiff",
                       quad_region=lambda x: (x > 1.0 - 0.05).any(axis=1))
    grid = np.linspace(0.1, 0.85, 4)
    spec.validate_exact(np.array([(a, b) for a in grid for b in grid]))
    return spec


def _linear() -> ProblemSpec:
    """u = x on the unit square: every discrete space reproduces it."""
    def u(x):
        return x[:, 0]

    def q(x):
        return np.stack([-np.ones(len(x)), np.zeros(len(x))], axis=1)

    return ProblemSpec(domain=DomainSpec.unit_square(),
                       f=lambda x: np.zeros(len(x)), u_D=u,
                       exact_u=u, exact_q=q, name="linear")


_PRESETS = {"smooth": _smooth, "lshape": _lshape, "advdiff": _advdiff,
            "linear": _linear}


def preset(name: str) -> ProblemSpec:
    """Named problem preset: smooth, lshape, advdiff, or linear."""
    try:
        maker = _PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; available: {sorted(_PRESETS)}") from None
    return maker()

"""Built-in problem presets with closed-form exact solutions.

All callables are numpy-vectorized over (n, 2) point arrays and never write
into them.  The advective preset evaluates its exponential layer factors in
shifted form (arguments always <= 0) so large Peclet numbers stay well
conditioned, with one exponential per coordinate shared by u, q and f.
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
        # the angle runs over [-pi/2, pi] on the domain; its cut lies in the
        # middle of the missing quadrant, so a point a rounding error outside
        # the edge y = 0, x < 0 keeps an angle near pi, not -pi
        r = np.hypot(x[:, 0], x[:, 1])
        th = np.arctan2(x[:, 1], x[:, 0])
        return r, np.where(th < -0.75 * np.pi, th + 2.0 * np.pi, th)

    def u(x):
        r, th = _polar(x)
        return r ** (2.0 / 3.0) * np.sin((2.0 / 3.0) * (np.pi - th))

    def q(x):
        # grad u = (2/3) r^(-1/3) (sin(arg) e_r - cos(arg) e_t) with
        # e_r = (x, y) / r and e_t = (-y, x) / r folds into r^(-4/3) =
        # 1 / (r cbrt(r)): a power with the rounded exponent -4/3 would be
        # off by |ln r| 7e-17 relative.  The clamp keeps it finite, so q is
        # 0 at the corner itself.
        r, th = _polar(x)
        arg = (2.0 / 3.0) * (np.pi - th)
        s, c = np.sin(arg), np.cos(arg)
        r = np.maximum(r, 1e-200)
        r *= np.cbrt(r)
        scale = np.divide(-2.0 / 3.0, r, out=r)
        out = np.empty((len(x), 2))
        out[:, 0] = s * x[:, 0] + c * x[:, 1]
        out[:, 1] = s * x[:, 1] - c * x[:, 0]
        out *= scale[:, None]
        return out

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
    e_min = np.exp(-P)

    # u = g(x) g(y) with g(s) = s - (e(s) - e^{-P}) / em, e(s) = e^{P (s - 1)},
    # g'(s) = 1 - P e / em and g''(s) = -P^2 e / em

    def layer(x, keep_e=True):
        """g and e at every coordinate of the points x (n, 2); g alone,
        written over e, without keep_e."""
        e = x - 1.0
        e *= P
        np.exp(e, out=e)
        g = np.subtract(e, e_min, out=None if keep_e else e)
        g /= em
        np.subtract(x, g, out=g)
        return (g, e) if keep_e else g

    def slope(e):
        """g' from e, written over e."""
        e *= P
        e /= em
        return np.subtract(1.0, e, out=e)

    def crossed(a, g):
        """a(x) g(y) and a(y) g(x) of per-coordinate factors (n, 2), written
        over a column by column (a reversed-column view is several times
        slower)."""
        a[:, 0] *= g[:, 1]
        a[:, 1] *= g[:, 0]
        return a

    def u(x):
        g = layer(x, keep_e=False)
        return g[:, 0] * g[:, 1]

    def q(x):
        g, e = layer(x)
        d = crossed(slope(e), g)
        return np.negative(d, out=d)

    def f(x):
        # -(g''(x) g(y) + g(x) g''(y)) + P (g'(x) g(y) + g(x) g'(y))
        g, e = layer(x)
        lap = e * (-P * P)
        lap /= em
        crossed(lap, g)
        adv = crossed(slope(e), g)
        out = adv[:, 0] + adv[:, 1]
        out *= P
        out -= lap[:, 0] + lap[:, 1]
        return out

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

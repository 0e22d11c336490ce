"""Numerical Fenchel conjugation and the duality identities it supports.

The conjugate F*(xi) = sup_z <z, xi> - F(z) is computed by damped Newton on the
strictly concave objective.  For the strictly convex superlinear integrands in
this package the supremum is attained at the unique z with F'(z) = xi, which is
why the same iteration also inverts the gradient map.  Two identities of the
duality are measured on top of it: the Fenchel-Young gap, and the batched
ratios of the V-map monotonicity inequality.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import newton
from .integrands import Integrand, flatten_form, frob2, inner, v_map
from .model import Regime
from .newton import NonConvergenceError

DEFAULT_TOL = 1e-10
MAX_ITERS = 200  # Newton steps per conjugation, read at each call
CONDITION_LIMIT = 1e12
SEED_ITERS = 50  # cap on the scalar Newton steps of the seed
RAY_SCALES = np.array([0.0, 1.0, 2.0])[:, None, None]  # the s at which the seed samples F(s d)


@dataclass
class ConjugateResult:
    value: float
    argmax: np.ndarray
    newton_iters: int
    residual: float
    gradient_fallbacks: int = 0  # steps where a degenerate hessian gave way to a gradient step


def _newton_seed(F: Integrand, xi):
    """Start at the maximizer, along the ray of xi, of a two-power model of F.

    With (p, q) = F.growth_exponents() and d = xi/|xi|, the ray profile
    phi(s) = F(s d) - F(0) is fitted by a s^p + b s^q from its values at s = 1
    and 2 (at s = 1 alone when p = q), taken in one batched call of F.value.
    The seed is s d with a p s^(p-1) + b q s^(q-1) = |xi|, the maximizer of
    s |xi| - phi(s).  Every built-in is such a profile on every ray, so for the
    radial ones the seed is the maximizer itself.  Where the fit is unusable
    (p <= 1, a or b negative or not finite, or both zero) the seed is d."""
    xi = np.asarray(xi, dtype=float)
    norm = math.sqrt(float(frob2(xi)))
    if norm == 0.0:
        return np.zeros_like(xi)
    d = xi / norm
    p, q = (float(e) for e in F.growth_exponents())
    if p <= 1.0:
        return d
    f = F.value(RAY_SCALES[:3 if q > p else 2] * d).tolist()
    phi1 = f[1] - f[0]
    b = (f[2] - f[0] - 2.0 ** p * phi1) / (2.0 ** q - 2.0 ** p) if q > p else 0.0
    s = _ray_root(phi1 - b, p, b, q, norm)
    return d if s is None else s * d


def _ray_root(a, p, b, q, r):
    """The s > 0 with a p s^(p-1) + b q s^(q-1) = r, for p, q > 1 and r > 0.

    In t = log s the log of the left side is convex with slope in [p-1, q-1],
    so scalar Newton from the smaller one-term root falls monotonically onto the
    root.  Each term is kept as its log over r (-inf for a zero coefficient),
    which is at most 0 from there on, so no power overflows.  None when a or b
    is negative or not finite, when both are zero, or when s would overflow."""
    if not (a >= 0.0 and b >= 0.0 and a + b > 0.0 and math.isfinite(a + b)):
        return None
    la, lb = (math.log(c) + math.log(e) - math.log(r) if c > 0.0 else -math.inf
              for c, e in ((a, p), (b, q)))
    ka, kb = p - 1.0, q - 1.0
    t = min(-la / ka, -lb / kb)
    for _ in range(SEED_ITERS):
        u, v = math.exp(la + ka * t), math.exp(lb + kb * t)
        dt = math.log(u + v) * (u + v) / (ka * u + kb * v)
        t -= dt
        if abs(dt) <= 1e-15 * max(1.0, abs(t)):
            break
    return math.exp(t) if t < 700.0 else None


def conjugate(F: Integrand, xi, tol=DEFAULT_TOL) -> ConjugateResult:
    """F*(xi) with its maximizer: solves sup_z <z, xi> - F(z).

    `newton.minimize` minimizes F(z) - <z, xi> from `_newton_seed`, the
    maximizer along the ray of xi of a two-power fit of F, until the
    residual |F'(z) - xi| is at most tol, relative above |xi| = 1, and accepts a
    residual up to 100 tol where the objective is flat; it raises
    NonConvergenceError after MAX_ITERS steps.  A hessian that is
    singular, or too ill-conditioned by the Cholesky-diagonal proxy for its
    condition number, gives way to a gradient step scaled by the largest
    curvature, counted in `gradient_fallbacks`."""
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    # a row of a batched gradient is strided (batches are entry-major): every
    # Newton step reads xi, so read it from one C-contiguous copy
    xi = np.ascontiguousarray(xi, dtype=float)

    def objective(z):
        return float(F.value(z) - inner(z, xi))

    def gradient(z):
        g = F.gradient(z) - xi
        return g, math.sqrt(float(frob2(g)))

    fallbacks = 0

    def newton_step(z, g):
        nonlocal fallbacks
        H = flatten_form(F.hessian(z))
        rhs = -g.reshape(-1)
        step = None
        try:
            diag = np.diagonal(np.linalg.cholesky(H))
            if (diag.max() / diag.min()) ** 2 <= CONDITION_LIMIT:
                step = np.linalg.solve(H, rhs)
        except np.linalg.LinAlgError:
            pass
        if step is None or not np.all(np.isfinite(step)):
            # degenerate hessian: plain descent scaled by the largest curvature
            fallbacks += 1
            step = rhs / max(float(np.abs(H).sum(axis=1).max()), 1.0)
        return step.reshape(z.shape), -float(rhs @ step)

    # round-off in F'(z) grows with |xi|, so the residual test is relative above |xi| = 1
    scaled_tol = tol * max(1.0, math.sqrt(float(frob2(xi))))
    z, f, res, iters = newton.minimize(
        objective, gradient, newton_step, _newton_seed(F, xi),
        converged=lambda res, f, f_prev: res <= scaled_tol, stall_tol=100 * scaled_tol,
        max_iters=MAX_ITERS, partial=lambda z, f, res, iters: {"z": z, "residual": res})
    return ConjugateResult(value=-f, argmax=z, newton_iters=iters, residual=res,
                           gradient_fallbacks=fallbacks)


def inverse_gradient(F: Integrand, xi, tol=DEFAULT_TOL):
    """The unique z with F'(z) = xi (to tolerance); equals conjugate(F, xi).argmax."""
    return conjugate(F, xi, tol=tol).argmax


def fenchel_young_gap(F: Integrand, z, xi, tol=DEFAULT_TOL):
    """F(z) + F*(xi) - <z, xi>; nonnegative, zero exactly at xi = F'(z)."""
    z = np.asarray(z, dtype=float)
    star = conjugate(F, xi, tol=tol)
    return float(F.value(z) + star.value - inner(z, xi))


def monotonicity_ratios(F: Integrand, r: Regime, z1, z2):
    """Batched ratio <F'(z1)-F'(z2), z1-z2> / (|dV_{mu,p}|^2 + |dV_{1,q'}(F')|^2).

    Entries with z1 == z2 come back as NaN (0/0 pairs).
    """
    z1 = np.asarray(z1, dtype=float)
    z2 = np.asarray(z2, dtype=float)
    g1, g2 = F.gradient(z1), F.gradient(z2)
    num = inner(g1 - g2, z1 - z2)
    qc = r.q_conj
    den = frob2(v_map(r.mu, r.p, z1) - v_map(r.mu, r.p, z2))
    den = den + frob2(v_map(1.0, qc, g1) - v_map(1.0, qc, g2))
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), np.nan)
    return out

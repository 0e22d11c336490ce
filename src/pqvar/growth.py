"""Growth certification: sampled constants of the stress-controlled hessian
bounds with p-ellipticity checked from below, the exponents and alignment
defects of even polynomials, and the self-improving exponent arithmetic."""

import math
from dataclasses import dataclass, field

import numpy as np

from .integrands import (EvenPolynomial, HomogeneousForm, Integrand, ell_mu, flatten_form,
                         frob2)
from .model import InvalidRegimeError, Regime

RADIUS_FLOOR = 1e-3  # the least |z| that the certificates sample
DECOMPOSITION_SAMPLES = 2048  # sphere directions per component in homogeneous_decomposition
DELTA_SAMPLES = 4096  # sphere directions in delta_of_homogeneous


class DegenerateFormError(ValueError):
    """Homogeneous form is (numerically) zero, or not positive on the unit sphere
    of the span of its gradients."""


class NotEvenError(ValueError):
    """Polynomial carries a nonzero odd-degree component."""


class EllipticityViolationError(RuntimeError):
    """The p-ellipticity lower bound failed at a sample point."""

    def __init__(self, message, witness=None, margin=None):
        super().__init__(message)
        self.witness = witness
        self.margin = margin


@dataclass
class LegendreCertificate:
    """Empirical growth certificate: the recorded constants are sampled suprema,
    not proofs, and are only as good as the sampling law behind them."""

    constant_assf3: float
    constant_assf1: float
    samples: int
    worst_points: list = field(default_factory=list)


def sample_hessians(F: Integrand, shape, n_samples, radius, seed):
    """Gradients z drawn from `seed`, of uniform direction and log-uniform radius
    in [RADIUS_FLOOR, radius], which probes both the degenerate small-z regime
    and the blow-up regime; with the ascending eigenvalues of F''(z) and |F'(z)|
    at each sample.  Raises ValueError for a radius below RADIUS_FLOOR."""
    if not radius >= RADIUS_FLOOR:
        raise ValueError(f"radius must be at least the sampling floor {RADIUS_FLOOR:g}, "
                         f"got {radius:g}")
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(n_samples, shape[0] * shape[1]))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = np.exp(rng.uniform(math.log(RADIUS_FLOOR), math.log(radius), size=n_samples))
    z = (dirs * radii[:, None]).reshape((n_samples,) + tuple(shape))
    eigs = np.linalg.eigvalsh(flatten_form(F.hessian(z)))
    return z, eigs, np.sqrt(frob2(F.gradient(z)))


def stress_bound_ratio(eigs, grad_norm, q):
    """|F''(z)| / (1 + |F'(z)|^((q-2)/(q-1))), the sampled ratio that the
    stress-controlled hessian bound caps, from the eigenvalues of F''(z)."""
    return np.abs(eigs).max(axis=-1) / (1.0 + grad_norm ** ((q - 2.0) / (q - 1.0)))


def check_legendre(F: Integrand, r: Regime, n_samples: int, radius: float,
                   seed=0) -> LegendreCertificate:
    """Sample the quantified growth constants and verify p-ellipticity from below.

    Records sup |F''| / (1 + |F'|^((q-2)/(q-1))) and
    sup (|F''| / |z|^(p-2)) / (1 + |F'|^((q-p)/(q-1))); the lower bound
    <F''(z) xi, xi> >= L^-1 ell_mu(z)^(p-2) |xi|^2 is checked through the lowest
    eigenvalue, which covers every direction xi at once.  Raises ValueError for
    n_samples < 1 or a radius below RADIUS_FLOOR.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if not (r.p < r.q):
        raise InvalidRegimeError(
            "certification requires strict p < q; the equal-exponent case is classical")
    z, eigs, grad_norm = sample_hessians(F, (r.N, r.n), n_samples, radius, seed)
    lam_min = eigs[:, 0]
    hess_norm = np.abs(eigs).max(axis=1)
    znorm = np.sqrt(frob2(z))

    ratio3 = stress_bound_ratio(eigs, grad_norm, r.q)
    ratio1 = (hess_norm / znorm ** (r.p - 2.0)) / (1.0 + grad_norm ** ((r.q - r.p) / (r.q - 1.0)))

    floor = ell_mu(r.mu, z) ** (r.p - 2.0) / r.L
    margin = lam_min - floor
    if margin.min() < -1e-12 * (1.0 + floor.max()):
        k = int(np.argmin(margin))
        raise EllipticityViolationError(
            f"p-ellipticity lower bound fails: lambda_min={lam_min[k]:.6g} < "
            f"L^-1 ell_mu^(p-2)={floor[k]:.6g}", witness=z[k], margin=float(margin[k]))

    order = np.argsort(ratio3)[::-1][:3]  # the three largest stress-bound ratios
    return LegendreCertificate(
        constant_assf3=float(ratio3.max()),
        constant_assf1=float(ratio1.max()),
        samples=n_samples,
        worst_points=[z[k] for k in order],
    )


# ----------------------------------------------------------------- polynomials


@dataclass
class GradedComponent:
    degree: int
    form: HomogeneousForm
    nonnegative: bool


def _sphere(rng, d, count):
    w = rng.normal(size=(count, d))
    return w / np.linalg.norm(w, axis=1, keepdims=True)


def homogeneous_decomposition(P: EvenPolynomial, seed=0):
    """Graded components of P, with evenness and nonnegativity screening.

    A nonzero odd-degree component raises NotEvenError; components that go negative
    on DECOMPOSITION_SAMPLES sphere samples are flagged (nonnegative=False).
    """
    rng = np.random.default_rng(seed)
    out = []
    for comp in P.components:
        if comp.degree % 2 == 1 and comp.monomials:
            raise NotEvenError(f"degree-{comp.degree} component is nonzero")
        if comp.degree % 2 == 1:
            continue
        omega = _sphere(rng, P.N * P.n, DECOMPOSITION_SAMPLES).reshape(-1, P.N, P.n)
        vals = comp.value(omega)
        out.append(GradedComponent(comp.degree, comp, bool(vals.min() >= -1e-12)))
    return out


@dataclass
class PolyGrowthResult:
    q: float
    p_max: float
    constant: float


def polynomial_growth_exponents(P: EvenPolynomial, n_samples=4096, radius=100.0,
                                seed=0) -> PolyGrowthResult:
    """Exponents read off the graded structure: q is the degree, p_max the lowest
    nonconstant homogeneity; also records the sampled constant in
    |P''(z)| <= c (1 + |P'(z)|^((2d-2)/(2d-1))), sampled as `check_legendre`
    samples; raises ValueError for a radius below RADIUS_FLOOR."""
    comps = homogeneous_decomposition(P, seed=seed)
    bad = [c.degree for c in comps if not c.nonnegative]
    if bad:
        raise ValueError(f"components of degree {bad} take negative values on the sphere")
    degrees = [c.degree for c in comps if c.degree > 0 and c.form.monomials]
    if not degrees:
        raise DegenerateFormError("polynomial has no nonconstant component")
    q = max(degrees)
    p_max = min(degrees)
    _, eigs, grad_norm = sample_hessians(P, (P.N, P.n), n_samples, radius, seed)
    c = stress_bound_ratio(eigs, grad_norm, q).max()
    return PolyGrowthResult(q=float(q), p_max=float(p_max), constant=float(c))


def delta_of_homogeneous(H: HomogeneousForm, s: int, seed=0):
    """Alignment defect of H' against the radial direction, in [0, 1).

    Estimated on DELTA_SAMPLES sphere directions restricted to the span where H'
    is nonzero; exact optimization is not attempted, so the value is an empirical
    certificate that can overestimate the true constant.  Raises
    DegenerateFormError when H' vanishes on every sample, or when H is not
    positive on the sampled unit sphere of that span.
    """
    if s < 2 or s != H.degree:
        raise ValueError(f"degree mismatch or s < 2: s={s}, form degree {H.degree}")
    rng = np.random.default_rng(seed)
    d = H.N * H.n
    omega = _sphere(rng, d, DELTA_SAMPLES)
    # include coordinate directions so axis-aligned spans are found exactly
    omega = np.vstack([omega, np.eye(d), -np.eye(d)])
    zs = omega.reshape(-1, H.N, H.n)
    grads = H.gradient(zs).reshape(-1, d)
    gnorm = np.linalg.norm(grads, axis=1)
    scale = gnorm.max()
    if scale <= 0.0:
        raise DegenerateFormError("form has vanishing gradient on all samples")
    # span of the gradient image
    _, sv, vt = np.linalg.svd(grads / scale, full_matrices=False)
    rank = int((sv > 1e-10 * sv[0]).sum())
    basis = vt[:rank]  # (rank, d)
    proj = omega @ basis.T
    pnorm = np.linalg.norm(proj, axis=1)
    keep = pnorm > 1e-8
    vdirs = (proj[keep] / pnorm[keep, None]) @ basis  # unit directions inside the span
    zz = vdirs.reshape(-1, H.N, H.n)
    vals = H.value(zz)
    sigma = max(float(vals.min()), 0.0) ** (1.0 / s)
    w = sigma * zz
    hw = H.value(w)
    gw = H.gradient(w).reshape(len(w), d)
    gn = np.linalg.norm(gw, axis=1)
    ok = gn > 1e-12 * max(1.0, gn.max())
    if not ok.any():  # sigma is 0 or round-off: H is not positive on the whole span
        raise DegenerateFormError("form is not positive on the unit sphere of its span")
    ratio = (s * hw[ok]) ** 2 / (sigma ** 2 * gn[ok] ** 2)
    delta2 = max(0.0, float(1.0 - ratio.min()))
    if delta2 < 1e-12:  # radial-on-span forms: exact alignment up to roundoff
        return 0.0
    return min(math.sqrt(delta2), 1.0 - 1e-15)


# ----------------------------------------------------------------- Gehring arithmetic


def gehring_exponent(c0: float, M: float, m: float) -> float:
    """Self-improvement exponent t = (2 c0 M - m) / (2 c0 M - 1), always in (1, 2),
    decreasing to 1 as M grows.

    Evaluated as 1 + (1 - m)/(2 c0 M - 1), which keeps t strictly above 1 in
    floating point far longer than the raw quotient."""
    if not (1.0 <= c0 < math.inf):
        raise ValueError(f"c0 must be finite and >= 1, got {c0}")
    if not (1.0 <= M < math.inf):
        raise ValueError(f"M must be finite and >= 1, got {M}")
    if not (0.0 < m < 1.0):
        raise ValueError(f"m must lie in (0, 1), got {m}")
    return 1.0 + (1.0 - m) / (2.0 * c0 * M - 1.0)

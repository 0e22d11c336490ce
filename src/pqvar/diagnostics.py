"""Measurement of the regularity estimates on solved fields, plus the exponent
chain and the Moser iteration arithmetic they rely on, and the log-log exponent
fits over amplitude sweeps.

V-fields are piecewise constant in the PL discretization, so their gradients
are formed on the dual grid: per-simplex values are averaged per cell and
differenced centrally between cell centers (one-sided at the array edge).
Measured left/right-hand sides are reported as ratios; fitted exponents come
from log-log least squares over amplitude sweeps and are never asserted against
the structural exponents, which are existential.
"""

import math
from dataclasses import dataclass

import numpy as np

from .integrands import Integrand, MoserWeight, frob2, v_map
from .model import DiagnosticsEntry, DiscreteField, Region, RegionError, Regime


class InadmissibleSobolevExponent(ValueError):
    """Chosen sphere Sobolev exponent is too small for the interpolation split."""


class ScalarOnlyError(ValueError):
    """This measurement is defined for scalar fields only."""


# ------------------------------------------------------------- exponent chain


@dataclass(frozen=True)
class ExponentChain:
    regime: Regime
    sobolev_exp: float
    lam: float
    beta0: float
    alpha0: float
    kappa1: float
    kappa2: float
    b: float


def hd_exponents(r: Regime, sobolev_exp: float) -> ExponentChain:
    """Interpolation exponents for the higher-differentiability estimate.

    With s the sphere Sobolev exponent, lambda solves 2 lambda + (1-lambda) s
    = 2q/p; the chain requires s > 2q/p so that lambda lies in (0, 1].
    """
    s = float(sobolev_exp)
    p, q, n = r.p, r.q, r.n
    if not math.isfinite(s):
        raise InadmissibleSobolevExponent(f"sobolev_exp must be finite, got {s}")
    if s <= 2.0 * q / p:
        raise InadmissibleSobolevExponent(
            f"sobolev_exp must exceed 2q/p = {2*q/p:.6g}, got {s}")
    lam = (p * s - 2.0 * q) / (p * (s - 2.0))
    beta0 = (p * (1.0 - lam) / (2.0 * q)) * (n - 1.0 - s * (n - 3.0) / 2.0)
    alpha0 = 2.0 * q * beta0 / (lam * p)
    kappa1 = (3.0 * q - p) / (lam * p)
    kappa2 = (q - p) / (lam * p)
    return ExponentChain(regime=r, sobolev_exp=s, lam=lam, beta0=beta0,
                         alpha0=alpha0, kappa1=kappa1, kappa2=kappa2, b=kappa2 + 1.0)


def default_sobolev_exponent(r: Regime) -> float:
    """A safe default above the 2q/p threshold (the exponent is free in low dimension)."""
    return 4.0 * r.q / r.p


# ------------------------------------------------------------- V-field machinery


def v_fields(field: DiscreteField, F: Integrand, r: Regime):
    """Per-simplex V_{mu,p}(grad u) and V_{1,q'}(F'(grad u))."""
    z = field.gradients
    vp = v_map(r.mu, r.p, z)
    vq = v_map(1.0, r.q_conj, F.gradient(z))
    return vp, vq


def _noise_floor_sq(W, h, dim):
    """Squared magnitude of dual-grid differences attributable to roundoff in the
    cell averages; anything below it is a discrete zero (constant fields then
    measure exactly 0 instead of amplified last-bit noise)."""
    scale = float(np.abs(W).max(initial=0.0))
    per_component = 16.0 * np.finfo(float).eps * scale / h
    return dim * W[(0,) * dim].size * per_component ** 2


def _dual_grid(grid, per_simplex):
    """The dual-grid discretization of a per-simplex matrix field: its cell
    averages W, (m,)*dim + (N, n), and the differences of W between cell centers
    along each axis, central inside and one-sided at the array edge."""
    W = grid.per_cell(per_simplex)
    return W, np.gradient(W, grid.h, axis=tuple(range(grid.dim)), edge_order=1)


def _cell_gradient_sq(grid, per_simplex):
    """|grad_h W|^2 per cell, (m,)*dim, for a per-simplex matrix field W."""
    W, parts = _dual_grid(grid, per_simplex)
    total = np.zeros(W.shape[:grid.dim])
    for gpart in parts:
        total += (gpart ** 2).sum(axis=(-2, -1))
    total[total <= _noise_floor_sq(W, grid.h, grid.dim)] = 0.0
    return total


def v_gradient_sq(field: DiscreteField, F: Integrand, r: Regime):
    """Per-cell |grad_h V_{mu,p}(grad u)|^2 and |grad_h V_{1,q'}(F'(grad u))|^2."""
    vp, vq = v_fields(field, F, r)
    return _cell_gradient_sq(field.grid, vp), _cell_gradient_sq(field.grid, vq)


def region_mask(grid, region: Region, by_cell=False):
    """Mask of the cells (by center) or simplices (by barycenter) inside the
    region; raises RegionError when the grid puts none there."""
    mask = region.contains(grid.cell_centers if by_cell else grid.barycenters)
    if not mask.any():
        what = "cell centers" if by_cell else "simplex barycenters"
        raise RegionError(f"no {what} inside {region}; refine the grid or enlarge the region")
    return mask


def _region_cell_mean(grid, cell_values, region: Region):
    mask = region_mask(grid, region, by_cell=True).reshape(cell_values.shape)
    return float(cell_values[mask].mean())


def _region_cell_integral(grid, cell_values, region: Region):
    mask = region_mask(grid, region, by_cell=True).reshape(cell_values.shape)
    cellvol = grid.h ** grid.dim
    return float(cell_values[mask].sum() * cellvol)


def region_energy_average(field: DiscreteField, F: Integrand, region: Region) -> float:
    """Volume-weighted average of F(grad u) over simplices with barycenter in the region."""
    mask = region_mask(field.grid, region)
    vals = F.value(field.gradients[mask])
    return float(vals.mean())


def check_higher_diff_region(B: Region):
    """Raise RegionError unless B/2, where the higher differentiability is
    averaged, sits inside the solved unit box."""
    if not B.scaled(0.5).inside_unit_box():
        raise RegionError("B/2 must sit inside the solved unit box")


def higher_diff_measure(field: DiscreteField, F: Integrand, r: Regime,
                        chain: ExponentChain, B: Region) -> DiagnosticsEntry:
    """lhs: average over B/2 of |grad_h V_{mu,p}|^2 + |grad_h V_{1,q'}(F')|^2;
    rhs: (average of F over B, plus 1) to the chain exponent b."""
    check_higher_diff_region(B)
    half = B.scaled(0.5)
    gp, gq = v_gradient_sq(field, F, r)
    lhs = _region_cell_mean(field.grid, gp + gq, half)
    rhs = (region_energy_average(field, F, B) + 1.0) ** chain.b
    return DiagnosticsEntry("hdes", lhs=lhs, rhs=rhs, grid=field.grid.cells_per_side)


def sup_grad_measure(field: DiscreteField, F: Integrand, B: Region,
                     b: float = 1.0) -> DiagnosticsEntry:
    """lhs: sup over simplices in B/8 of |grad u|; rhs: (avg_B F + 1)^b.

    The exponent b is supplied by the caller (a chain value or a sweep fit)."""
    mask = region_mask(field.grid, B.scaled(1.0 / 8.0))
    lhs = float(np.sqrt(frob2(field.gradients[mask])).max())
    rhs = (region_energy_average(field, F, B) + 1.0) ** b
    return DiagnosticsEntry("sup_grad", lhs=lhs, rhs=rhs, grid=field.grid.cells_per_side)


def check_reverse_holder(dim: int, t_grid):
    """Raise ValueError unless a reverse Holder scan can run: 2d, every t in (1, 2)."""
    if dim != 2:
        raise ValueError("reverse Holder scan is a 2d measurement")
    if any(not (1.0 < t < 2.0) for t in t_grid):
        raise ValueError("t_grid entries must lie in (1, 2)")


def reverse_holder_scan(field: DiscreteField, F: Integrand, r: Regime, t_grid,
                        B: Region, b: float = 1.0):
    """Integrability scan on a 2d solve: for each t in (1, 2) the averaged
    L^{2t} norm of the V-field gradients over B/8 against (avg_B F + 1)^b.

    Returns a list of (t, lhs, ratio); across an amplitude sweep `run_diagnose`
    fits the exponent of each t's lhs against the base.
    """
    check_reverse_holder(field.grid.dim, t_grid)
    eighth = B.scaled(1.0 / 8.0)
    gp, gq = v_gradient_sq(field, F, r)
    base = region_energy_average(field, F, B) + 1.0
    out = []
    for t in t_grid:
        mean_pow = _region_cell_mean(field.grid, gp ** t + gq ** t, eighth)
        lhs = mean_pow ** (1.0 / (2.0 * t))
        out.append((float(t), lhs, lhs / base ** b))
    return out


@dataclass
class LogDecayResult:
    radii: list
    masses: list
    gamma: float
    decay_exponent: float
    amplitude: float
    fit_residual: float


def log_decay_profile(field: DiscreteField, F: Integrand, r: Regime, radii,
                      B: Region) -> LogDecayResult:
    """L^2 masses of the V-field gradients on shrinking balls, fitted against
    C log(r/sigma)^-(gamma+2) with gamma = (q+p)/(2q).

    The fit adjusts only the prefactor C (least squares on logs); the residual
    is the rms log deviation.  Needs at least 3 radii, decreasing, with the
    largest ball inside B/2.
    """
    radii = [float(s) for s in radii]
    if len(radii) < 3:
        raise ValueError("need at least 3 radii for a decay fit")
    if any(b >= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly decreasing")
    half = B.scaled(0.5)
    if radii[0] >= half.radius:
        raise RegionError("largest profile ball must sit strictly inside B/2")
    gp, gq = v_gradient_sq(field, F, r)
    masses = [_region_cell_integral(field.grid, gp + gq, Region(B.center, s, "ball"))
              for s in radii]
    gamma = (r.q + r.p) / (2.0 * r.q)
    expo = gamma + 2.0
    xs = np.array([math.log(B.radius / s) for s in radii])
    positive = [m > 0.0 for m in masses]
    if not all(positive):
        # affine data: all masses vanish and the profile is exact with C = 0
        return LogDecayResult(radii, masses, gamma, expo, 0.0, 0.0)
    ys = np.log(masses) + expo * np.log(xs)
    logC = float(ys.mean())
    resid = float(np.sqrt(((ys - logC) ** 2).mean()))
    return LogDecayResult(radii, masses, gamma, expo, math.exp(logC), resid)


# ------------------------------------------------------------- scalar estimates


@dataclass
class CaccioppoliResult:
    lhs: float
    rhs: float
    ratio: float
    alpha: float
    a_alpha: float
    big_m: float


def moser_a_alpha(alpha: float, alpha0: float = -1.0) -> float:
    """The iteration prefactor: 1 at the base power, (alpha+2)/(alpha+1) above it."""
    if alpha < alpha0:
        raise ValueError(f"alpha must be >= alpha0 = {alpha0}")
    if alpha == alpha0:
        return 1.0
    return (alpha + 2.0) / (alpha + 1.0)


def check_caccioppoli(N: int):
    """Raise ScalarOnlyError unless the field is scalar (N = 1)."""
    if N != 1:
        raise ScalarOnlyError("the power Caccioppoli measurement needs a scalar field")


def caccioppoli_check(field: DiscreteField, F: Integrand, r: Regime, alpha: float,
                      cutoff) -> CaccioppoliResult:
    """Energy estimate for powers of the gradient weight on a scalar solve.

    With eta the PL cutoff between the region pair, compares
    lhs = ||eta grad_h l_alpha(grad u)||_L2 against
    rhs = A_alpha M^(1/2) ||l_alpha(grad u) grad eta||_L2, where
    M = max(1, sup_{supp eta} |F'(grad u)|^((q-p)/(q-1))).  Raises RegionError
    when no simplex barycenter lies in the outer region, the support of eta.
    """
    check_caccioppoli(field.N)
    inner_r, outer_r = cutoff
    if inner_r.kind != outer_r.kind or inner_r.center != outer_r.center:
        raise RegionError("cutoff regions must be concentric and of the same kind")
    if not (inner_r.radius < outer_r.radius):
        raise RegionError("cutoff needs inner radius < outer radius")
    grid = field.grid
    weight = MoserWeight(r, alpha)
    l_alpha = weight.eval(field.gradients)["l_alpha"]  # per simplex
    cell_l = grid.per_cell(l_alpha)

    def eta_of(points):
        gauge = inner_r.gauge(points)
        dist = np.sqrt(gauge) if inner_r.kind == "ball" else gauge
        ramp = (outer_r.radius - dist) / (outer_r.radius - inner_r.radius)
        return np.clip(ramp, 0.0, 1.0), dist

    eta_c, dist_c = eta_of(grid.cell_centers)
    eta_c = eta_c.reshape(cell_l.shape)
    ramp_mask = ((dist_c > inner_r.radius) & (dist_c < outer_r.radius)).reshape(cell_l.shape)
    grad_eta = np.where(ramp_mask, 1.0 / (outer_r.radius - inner_r.radius), 0.0)

    grad_l2 = _cell_gradient_sq(grid, l_alpha[:, None, None])

    cellvol = grid.h ** grid.dim
    lhs = math.sqrt(float((eta_c ** 2 * grad_l2).sum() * cellvol))
    rhs_norm = math.sqrt(float((cell_l ** 2 * grad_eta ** 2).sum() * cellvol))

    supp = region_mask(grid, outer_r)  # eta > 0 at the barycenter
    gnorm = np.sqrt(frob2(F.gradient(field.gradients[supp])))
    big_m = max(1.0, float(gnorm.max() ** ((r.q - r.p) / (r.q - 1.0))))
    a_alpha = moser_a_alpha(alpha)
    rhs = a_alpha * math.sqrt(big_m) * rhs_norm
    ratio = 0.0 if lhs == 0.0 else (math.inf if rhs == 0.0 else lhs / rhs)
    return CaccioppoliResult(lhs=lhs, rhs=rhs, ratio=ratio, alpha=alpha,
                             a_alpha=a_alpha, big_m=big_m)


# ------------------------------------------------------------- Moser arithmetic


@dataclass(frozen=True)
class MoserParams:
    alpha0: float
    gamma: float
    c0: float
    M: float
    tau1: float
    tau2: float

    def __post_init__(self):
        if not (-1.0 <= self.alpha0 < math.inf):
            raise ValueError(f"alpha0 must be finite and >= -1, got {self.alpha0}")
        if not (0.0 < self.gamma < 1.0):
            raise ValueError(f"gamma must lie in (0, 1), got {self.gamma}")
        if not (1.0 <= self.c0 < math.inf and 1.0 <= self.M < math.inf):
            raise ValueError(f"c0 and M must be finite and >= 1, got {self.c0} and {self.M}")
        if not (0.125 <= self.tau2 < self.tau1 < math.inf):
            raise ValueError("radii must satisfy 1/8 <= tau2 < tau1 < inf")


def moser_alpha_sequence(params: MoserParams, i: int) -> float:
    """alpha_i = (2 + alpha0) / gamma^i - 2 (the closed form of the power ladder)."""
    if i < 0:
        raise ValueError("index must be >= 0")
    return (2.0 + params.alpha0) / params.gamma ** i - 2.0


def moser_bound(params: MoserParams, V0: float, tail_tol=1e-15) -> float:
    """Limit of the iterated sup bound: prefactor series evaluated to convergence.

    The bound has the shape
        C * M^(gamma/((2+alpha0)(1-gamma))) / (tau1-tau2)^a0 * V0^(2/(alpha0+2)),
    where C and a0 come from summing the per-rung factors
    [c0 A_{alpha_m}^2 (2^m/(tau1-tau2))^((gamma+1)/gamma)]^(e_m) with weights
    e_m = gamma^m / ((2+alpha0)(1-gamma)); the series is truncated once a term
    drops below tail_tol.  The product is formed in log space: the result is
    math.inf when the bound passes the float range, and 0 when V0 = 0.
    """
    if not (0.0 <= V0 < math.inf):
        raise ValueError(f"V0 must be finite and nonnegative, got {V0}")
    if V0 == 0.0:
        return 0.0
    g = params.gamma
    a0_weight = (g + 1.0) / g
    denom = (2.0 + params.alpha0) * (1.0 - g)
    log_pref = 0.0
    a0 = 0.0
    m = 1
    while True:
        e_m = g ** m / denom
        alpha_m = moser_alpha_sequence(params, m)
        a_m = moser_a_alpha(alpha_m, params.alpha0)
        term = e_m * (math.log(params.c0) + 2.0 * math.log(a_m)
                      + a0_weight * m * math.log(2.0))
        log_pref += term
        a0 += a0_weight * e_m
        if e_m * (1.0 + a0_weight * (m + 1)) < tail_tol or m > 100000:
            break
        m += 1
    m_expo = g / denom
    gap = params.tau1 - params.tau2
    log_bound = (log_pref + m_expo * math.log(params.M) - a0 * math.log(gap)
                 + 2.0 / (params.alpha0 + 2.0) * math.log(V0))
    try:
        return math.exp(log_bound)
    except OverflowError:
        return math.inf


# ------------------------------------------------------------- stress + fits


def stress_integrability(field: DiscreteField, F: Integrand, r: Regime,
                         B: Region) -> float:
    """||F'(grad u)||_{q'}^{q'} over B divided by (energy over B + 1)."""
    z = field.gradients[region_mask(field.grid, B)]
    vol = field.grid.simplex_volume
    qc = r.q_conj
    num = float(vol * (np.sqrt(frob2(F.gradient(z))) ** qc).sum())
    den = float(vol * F.value(z).sum()) + 1.0
    return num / den


def fit_exponent(bases, lhs_values):
    """Least-squares exponent b with lhs ~ C * base^b on logs; returns (b, rms
    residual).  Needs >= 4 positive points."""
    bases = np.asarray(bases, dtype=float)
    lhs_values = np.asarray(lhs_values, dtype=float)
    keep = (bases > 0) & (lhs_values > 0)
    if keep.sum() < 4:
        raise ValueError("need at least 4 positive points to fit an exponent")
    x = np.log(bases[keep])
    y = np.log(lhs_values[keep])
    A = np.stack([x, np.ones_like(x)], axis=1)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = float(np.sqrt(((A @ coef - y) ** 2).mean()))
    return float(coef[0]), resid

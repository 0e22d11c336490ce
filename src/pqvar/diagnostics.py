"""Measurement of the regularity estimates on solved fields, plus the exponent
chain and the Moser iteration arithmetic they rely on, and the log-log exponent
fits over amplitude sweeps.

`measure_field` is the one implementation of the estimates on a field (hdes,
sup_grad, rh_t=*, cacc_a=*, stress, decay_r=*): per field it forms the region
masks, F over B, the V-field gradients and the Caccioppoli cutoff, weight and
M once, and fits the decay profile's prefactor.  `check_regions` declares the
regions each estimate reads, so a grid is refused before any solve when it
leaves one empty; every region is concentric with B, so its mask is one
comparison of a gauge taken once per point set.

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

from .integrands import Integrand, frob2, v_map
from .model import DiagnosticsEntry, DiscreteField, Region, RegionError, Regime

MOSER_TAIL_TOL = 1e-15  # the series of moser_bound stops at a term below this


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


def _cell_gradient_sq(grid, W):
    """|grad_h W|^2 per cell, (m,)*dim, for the cell averages W, (m,)*dim + (N, n),
    of a per-simplex matrix field: the differences of W between cell centers
    along each axis, central inside and one-sided at the array edge."""
    total = np.zeros(W.shape[:grid.dim])
    for gpart in np.gradient(W, grid.h, axis=tuple(range(grid.dim)), edge_order=1):
        total += (gpart ** 2).sum(axis=(-2, -1))
    total[total <= _noise_floor_sq(W, grid.h, grid.dim)] = 0.0
    return total


def v_gradient_sq(field: DiscreteField, F: Integrand, r: Regime):
    """Per-cell |grad_h V_{mu,p}(grad u)|^2 and |grad_h V_{1,q'}(F'(grad u))|^2."""
    grid = field.grid
    return tuple(_cell_gradient_sq(grid, grid.per_cell(v)) for v in v_fields(field, F, r))


# ------------------------------------------------------------- the estimates on a field


ESTIMATES = ("hd", "sup", "rh", "cacc", "stress", "decay")  # in measure_field's row order
DECAY_FRACTIONS = (0.45, 0.35, 0.25, 0.18)  # the decay profile's ball radii over B's radius
CACC_FRACTIONS = (0.4, 0.8)  # the Caccioppoli cutoff's inner and outer radii over B's


def check_regions(grid, B: Region, estimates):
    """Raise RegionError unless the grid resolves every region the selected
    estimates read: B/2 inside the unit box (hd); simplex barycenters in B (hd,
    sup, rh, stress), in B/8 (sup) and in the outer cutoff region, the cutoff's
    support (cacc); cell centers in B/2 (hd), in B/8 (rh) and in the decay balls
    (decay), which are nested, so the smallest decides.

    Every region is concentric with B, so each mask compares one gauge per
    point set, B's of the barycenters and of the cell centers, against the
    region's bound; a cube B adds a ball gauge of the cell centers for the
    decay balls.  Returns the masks that `measure_field` reads, by name (the
    decay balls' as a list, largest first), and B's gauge of the cell centers,
    which the Caccioppoli cutoff reads."""
    est = set(estimates)
    if "hd" in est and not B.scaled(0.5).inside_unit_box():
        raise RegionError("B/2 must sit inside the solved unit box")
    simplices, cells = B.gauge(grid.barycenters), B.gauge(grid.cell_centers)

    def inside(gauge, region, what):
        mask = gauge < region.bound
        if not mask.any():
            raise RegionError(f"no {what} inside {region}; refine the grid or enlarge the region")
        return mask

    eighth = B.scaled(1.0 / 8.0)
    masks = {}
    if est & {"hd", "sup", "rh", "stress"}:
        masks["B"] = inside(simplices, B, "simplex barycenters")
    if "sup" in est:
        masks["B/8"] = inside(simplices, eighth, "simplex barycenters")
    if "cacc" in est:
        masks["cutoff"] = inside(simplices, B.scaled(CACC_FRACTIONS[1]), "simplex barycenters")
    if "hd" in est:
        masks["B/2 cells"] = inside(cells, B.scaled(0.5), "cell centers")
    if "rh" in est:
        masks["B/8 cells"] = inside(cells, eighth, "cell centers")
    if "decay" in est:
        *larger, smallest = (Region(B.center, B.radius * f, "ball") for f in DECAY_FRACTIONS)
        dist = cells if B.kind == "ball" else smallest.gauge(grid.cell_centers)
        masks["decay"] = [dist < ball.bound for ball in larger] + [
            inside(dist, smallest, "cell centers")]
    return masks, cells


def measure_field(field: DiscreteField, F: Integrand, r: Regime, chain: ExponentChain,
                  B: Region, estimates, t_grid):
    """The selected estimates on one solved field, as DiagnosticsEntry rows in
    the order of ESTIMATES.  With base = avg_B F + 1:

    - hdes: the average over B/2 of |grad_h V_{mu,p}|^2 + |grad_h V_{1,q'}(F')|^2
      against base^b, b the chain exponent;
    - sup_grad: the sup over simplices in B/8 of |grad u| against base^b;
    - rh_t=<t>, for each t of t_grid (2d only): the averaged L^{2t} norm of the
      V-field gradients over B/8 against base^b;
    - cacc_a=<alpha>, for alpha in -1, 0, 2 (scalar only): the energy
      estimate for powers of the gradient weight.  With L = ell_mu(grad u)^p,
      l_alpha = L^((alpha+2)/2) + 1 and eta the PL cutoff between B scaled by
      CACC_FRACTIONS, ||eta grad_h l_alpha||_L2 against
      A_alpha M^(1/2) ||l_alpha grad eta||_L2, where A_alpha is
      `moser_a_alpha` and M = max(1, sup_{supp eta} |F'(grad u)|^((q-p)/(q-1)));
    - stress: ||F'(grad u)||_{q'}^{q'} over B divided by (energy over B + 1),
      against 1;
    - decay_r=<s>, for s the radii DECAY_FRACTIONS of B's: the mass over the
      ball of radius s of the cell density |grad_h V_{mu,p}|^2 +
      |grad_h V_{1,q'}(F')|^2 against C log(B's radius/s)^-(gamma+2), gamma =
      (q+p)/(2q).  Only the prefactor C is fitted, by least squares on logs
      over the positive masses; C = 0 when every mass vanishes, as for affine
      data, where the profile is exact.

    The region masks (from `check_regions`), F over B, the V-field gradients,
    and the cutoff, L and M are formed once; per alpha only l_alpha, its cell
    means and their dual-grid gradient.  Raises ValueError for rh off 2d or a
    t_grid it cannot scan, ScalarOnlyError for cacc on a vector field, and
    RegionError as `check_regions` does.
    """
    est = set(estimates)
    if "rh" in est:
        check_reverse_holder(field.grid.dim, t_grid)
    if "cacc" in est:
        check_caccioppoli(field.N)
    grid, z = field.grid, field.gradients
    masks, cell_gauge = check_regions(grid, B, est)
    if est & {"hd", "rh", "decay"}:
        gp, gq = v_gradient_sq(field, F, r)
        density = gp + gq
    if "B" in masks:
        zB = z[masks["B"]]
        FB = F.value(zB)
        rhs = (float(FB.mean()) + 1.0) ** chain.b
    entries = []
    if "hd" in est:
        lhs = float(density.reshape(-1)[masks["B/2 cells"]].mean())
        entries.append(DiagnosticsEntry("hdes", lhs=lhs, rhs=rhs))
    if "sup" in est:
        lhs = float(np.sqrt(frob2(z[masks["B/8"]])).max())
        entries.append(DiagnosticsEntry("sup_grad", lhs=lhs, rhs=rhs))
    if "rh" in est:
        inside = masks["B/8 cells"]
        gp8, gq8 = gp.reshape(-1)[inside], gq.reshape(-1)[inside]
        for t in t_grid:
            mean_pow = float((gp8 ** t + gq8 ** t).mean())
            entries.append(DiagnosticsEntry(f"rh_t={float(t):g}",
                                            lhs=mean_pow ** (1.0 / (2.0 * t)), rhs=rhs))
    if "cacc" in est:
        inner, outer = (B.scaled(f).radius for f in CACC_FRACTIONS)
        gauge = cell_gauge.reshape((grid.cells_per_side,) * grid.dim)
        dist = np.sqrt(gauge) if B.kind == "ball" else gauge
        eta = np.clip((outer - dist) / (outer - inner), 0.0, 1.0)
        grad_eta = np.where((dist > inner) & (dist < outer), 1.0 / (outer - inner), 0.0)
        gnorm = np.sqrt(frob2(F.gradient(z[masks["cutoff"]])))
        sqrt_m = math.sqrt(max(1.0, float(gnorm.max() ** ((r.q - r.p) / (r.q - 1.0)))))
        L = (r.mu ** 2 + frob2(z)) ** (r.p / 2.0)
        cellvol = grid.h ** grid.dim
        for alpha in (-1.0, 0.0, 2.0):
            cell_l = grid.per_cell(L ** ((alpha + 2.0) / 2.0) + 1.0)
            grad_l2 = _cell_gradient_sq(grid, cell_l[..., None, None])
            lhs = math.sqrt(float((eta ** 2 * grad_l2).sum() * cellvol))
            norm = math.sqrt(float((cell_l ** 2 * grad_eta ** 2).sum() * cellvol))
            entries.append(DiagnosticsEntry(f"cacc_a={alpha:g}", lhs=lhs,
                                            rhs=moser_a_alpha(alpha) * sqrt_m * norm))
    if "stress" in est:
        vol = grid.simplex_volume
        num = float(vol * (np.sqrt(frob2(F.gradient(zB))) ** r.q_conj).sum())
        den = float(vol * FB.sum()) + 1.0
        entries.append(DiagnosticsEntry("stress", lhs=num / den, rhs=1.0))
    if "decay" in est:
        cells, cellvol = density.reshape(-1), grid.h ** grid.dim
        masses = [float(cells[ball].sum() * cellvol) for ball in masks["decay"]]
        radii = [B.radius * f for f in DECAY_FRACTIONS]
        logs = [math.log(B.radius / s) for s in radii]
        expo = (r.q + r.p) / (2.0 * r.q) + 2.0
        m, xs = np.array(masses), np.array(logs)
        positive = m > 0.0
        C = 0.0
        if positive.any():
            C = math.exp(float((np.log(m[positive]) + expo * np.log(xs[positive])).mean()))
        for s, x, mass in zip(radii, logs, masses):
            entries.append(DiagnosticsEntry(f"decay_r={s:g}", lhs=mass, rhs=C * x ** -expo))
    return entries


def check_reverse_holder(dim: int, t_grid):
    """Raise ValueError unless a reverse Holder scan can run: 2d, and a t_grid
    of at least one value, every one in (1, 2)."""
    if dim != 2:
        raise ValueError("reverse Holder scan is a 2d measurement")
    if not t_grid:
        raise ValueError("t_grid needs at least one value")
    if any(not (1.0 < t < 2.0) for t in t_grid):
        raise ValueError("t_grid entries must lie in (1, 2)")


# ------------------------------------------------------------- scalar estimates


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


def moser_bound(params: MoserParams, V0: float) -> float:
    """Limit of the iterated sup bound: prefactor series evaluated to convergence.

    The bound has the shape
        C * M^(gamma/((2+alpha0)(1-gamma))) / (tau1-tau2)^a0 * V0^(2/(alpha0+2)),
    where C and a0 come from summing the per-rung factors
    [c0 A_{alpha_m}^2 (2^m/(tau1-tau2))^((gamma+1)/gamma)]^(e_m) with weights
    e_m = gamma^m / ((2+alpha0)(1-gamma)); the series is truncated once a term
    drops below MOSER_TAIL_TOL.  The product is formed in log space: the result
    is math.inf when the bound passes the float range, and 0 when V0 = 0.
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
        if e_m * (1.0 + a0_weight * (m + 1)) < MOSER_TAIL_TOL or m > 100000:
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


# ------------------------------------------------------------- exponent fits


def fit_exponent(bases, lhs_values):
    """Least-squares exponent b with lhs ~ C * base^b on logs; returns (b, rms
    residual).  Needs >= 4 positive points, not all at one base."""
    bases = np.asarray(bases, dtype=float)
    lhs_values = np.asarray(lhs_values, dtype=float)
    keep = (bases > 0) & (lhs_values > 0)
    if keep.sum() < 4:
        raise ValueError("need at least 4 positive points to fit an exponent")
    x = np.log(bases[keep])
    if (x == x[0]).all():
        raise ValueError("the positive points share one base, so no slope fits them")
    y = np.log(lhs_values[keep])
    A = np.stack([x, np.ones_like(x)], axis=1)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = float(np.sqrt(((A @ coef - y) ** 2).mean()))
    return float(coef[0]), resid

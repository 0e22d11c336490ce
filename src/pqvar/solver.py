"""Regularized Dirichlet minimization on the Kuhn grid.

The discrete energy sum_T vol(T) F(grad u|_T) is the exact continuum energy of
the piecewise-linear interpolant (gradients are constant per simplex), so the
minimization scheme is isolated from quadrature artifacts.  The vanishing-
viscosity ladder adds gamma_eps ell_1(z)^q to the integrand, mollifies the
boundary data, and tracks the convergence monitors of the approximation.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .integrands import Integrand, PowerNorm, Scaled, Sum, frob2
from .model import AssemblyPlan, DiscreteField, Grid, SolveReport


class NonConvergenceError(RuntimeError):
    """Newton ran out of iterations; carries the partial field and report."""

    def __init__(self, message, field=None, report=None):
        super().__init__(message)
        self.field = field
        self.report = report


class SchemeViolationError(RuntimeError):
    """A monitored quantity of the approximation ladder moved the wrong way."""


@dataclass
class Schedule:
    epsilons: list
    mollifier_widths: list | None = None
    tol_energy: float = 1e-12
    tol_residual: float = 1e-9
    max_newton_iters: int = 100

    def __post_init__(self):
        eps = list(self.epsilons)
        if not eps or any(e <= 0.0 or e > 1.0 for e in eps):
            raise ValueError("epsilons must be a non-empty list inside (0, 1]")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError("epsilons must be strictly decreasing")
        if self.tol_energy <= 0 or self.tol_residual <= 0:
            raise ValueError("tolerances must be positive")
        self.epsilons = eps
        if self.mollifier_widths is None:
            self.mollifier_widths = list(eps)
        elif len(self.mollifier_widths) != len(eps):
            raise ValueError("mollifier_widths must match epsilons in length")

    @classmethod
    def dyadic(cls, k: int, **kw):
        """The default ladder eps_k = 2^-k, k = 1..k_max."""
        return cls(epsilons=[2.0 ** -(i + 1) for i in range(k)], **kw)


class RegularizedIntegrand(Sum):
    """F_eps(z) = F(z) + gamma_eps * ell_1(z)^q: strictly convex with q-growth
    from above and below regardless of the degeneracy of the base integrand.
    The Sum of the base and the scaled power norm, tagged with its parameters."""

    def __init__(self, base: Integrand, gamma_eps: float, q: float):
        if not (0.0 < gamma_eps < 1.0):
            raise ValueError(f"gamma_eps must lie in (0, 1), got {gamma_eps}")
        self.base = base
        self.gamma_eps = float(gamma_eps)
        self.q = float(q)
        super().__init__([base, Scaled(self.gamma_eps, PowerNorm(1.0, self.q))])


def gamma_eps(eps: float, grad_q_norm: float, q: float) -> float:
    """gamma_eps = (1 + 1/eps + (1/eps) ||grad u~_eps||_q^(2q))^-1."""
    if not (0.0 < eps <= 1.0):
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    if grad_q_norm < 0.0:
        raise ValueError("grad_q_norm must be nonnegative")
    if q <= 1.0:
        raise ValueError(f"q must exceed 1, got {q}")
    return 1.0 / (1.0 + 1.0 / eps + grad_q_norm ** (2.0 * q) / eps)


def mollify_boundary(grid: Grid, values: np.ndarray, eps: float) -> np.ndarray:
    """Smooth the boundary rows of a nodal array by a normalized bump kernel of
    width eps over the boundary node set; data is returned exactly when eps is
    below one grid cell.  The kernel is sparse: only pairs of boundary nodes
    closer than eps are ever formed, and each pair is applied in both directions
    by np.bincount, with no kernel matrix built."""
    if eps <= 0.0:
        raise ValueError(f"mollifier width must be positive, got {eps}")
    values = np.asarray(values, dtype=float)
    out = values.copy()
    if eps <= grid.h:
        return out
    # imported here: scipy.spatial would add about 0.09 s to every `import pqvar`
    from scipy.spatial import cKDTree

    bidx = np.flatnonzero(grid.boundary_mask)
    nb = len(bidx)
    pts = grid.node_coords[bidx]
    # the slack keeps every pair with t2 < 1; t2 itself is computed from the
    # coordinates, so the weights do not depend on the tree's distances
    a, b = cKDTree(pts).query_pairs(eps * (1.0 + 1e-9), output_type="ndarray").T
    t2 = sum((x[a] - x[b]) ** 2 for x in pts.T) / (eps * eps)
    inside = t2 < 1.0
    a, b = a[inside], b[inside]
    w = np.exp(-1.0 / (1.0 - t2[inside]))
    w_self = math.exp(-1.0)  # the kernel at t2 = 0
    norm = w_self + np.bincount(a, weights=w, minlength=nb)
    norm += np.bincount(b, weights=w, minlength=nb)
    vb = values[bidx]
    v = vb.reshape(nb, -1)
    acc = w_self * v
    for k in range(v.shape[1]):
        acc[:, k] += np.bincount(a, weights=w * v[b, k], minlength=nb)
        acc[:, k] += np.bincount(b, weights=w * v[a, k], minlength=nb)
    out[bidx] = (acc / norm[:, None]).reshape(vb.shape)
    return out


# ----------------------------------------------------------------- assembly
#
# Every assembly goes through the grid's AssemblyPlan: one sparse PL-gradient
# operator, its transpose for weak forms, and a fixed interior CSR pattern.


def simplex_gradients(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Exact per-simplex gradients (n_simplices, N, dim) of the PL interpolant."""
    return grid.assembly_plan(values.shape[1]).gradients(values)


def energy(F: Integrand, grid: Grid, values: np.ndarray) -> float:
    z = simplex_gradients(grid, values)
    return float(grid.simplex_volume * F.value(z).sum())


def assemble_gradient(F: Integrand, grid: Grid, values: np.ndarray) -> np.ndarray:
    """Nodal energy gradient; row (v, i) is the weak residual of the i-th
    component hat function at node v."""
    plan = grid.assembly_plan(values.shape[1])
    return plan.assemble_vector(F.gradient(plan.gradients(values)))


def assemble_hessian(F: Integrand, grid: Grid, values: np.ndarray) -> sp.csr_matrix:
    """Sparse energy hessian over the interior dofs (node-major, component-minor),
    in the order of the plan's `interior_dofs`."""
    plan = grid.assembly_plan(values.shape[1])
    return plan.assemble_matrix(F.hessian(plan.gradients(values)))


class LinearSolveError(ArithmeticError):
    """An interior system is not positive definite to the solver (banded Cholesky
    in 2d, Jacobi-preconditioned CG in 3d), or its solution is not finite."""


CG_RTOL = 1e-12


def _solve_spd(plan: AssemblyPlan, K: sp.csr_matrix, rhs: np.ndarray) -> np.ndarray:
    """Solve K x = rhs for a symmetric positive definite K assembled by `plan`.

    The method is fixed by the grid dimension, as measured on the Newton systems
    of the benchmark ladders.  In 2d the node-major interior numbering makes K
    banded, and LAPACK banded Cholesky beats Jacobi-preconditioned CG, which needs
    hundreds of iterations per system.  In 3d the band is wide, and CG with a
    Jacobi preconditioner to relative residual CG_RTOL wins.  Raises
    LinearSolveError when the factorization finds K not positive definite, the
    diagonal is not positive, CG does not converge, or x is not finite."""
    if plan.grid.dim == 2:
        try:
            factor = sla.cholesky_banded(plan.upper_band(K), overwrite_ab=True,
                                         check_finite=False)
        except sla.LinAlgError as exc:
            raise LinearSolveError(f"banded Cholesky failed: {exc}") from exc
        x = sla.cho_solve_banded((factor, False), rhs, check_finite=False)
    else:
        diag = K.diagonal()
        if not np.all(diag > 0.0):
            raise LinearSolveError("hessian diagonal is not positive")
        x, info = spla.cg(K, rhs, rtol=CG_RTOL, M=sp.diags(1.0 / diag))
        if info != 0:
            raise LinearSolveError(f"CG did not converge (info {info})")
    if not np.all(np.isfinite(x)):
        raise LinearSolveError("non-finite solution")
    return x


def el_residual(F: Integrand, fld: DiscreteField) -> float:
    """Sup norm over interior nodes of the discrete weak residual <F'(grad u), grad w>."""
    g = assemble_gradient(F, fld.grid, fld.values)
    return float(np.abs(g[fld.grid.interior_mask]).max())


def grad_lp_norm(grid: Grid, values: np.ndarray, p: float) -> float:
    """(integral of |grad u|^p)^(1/p) over the box, exact for PL fields."""
    z = simplex_gradients(grid, values)
    return float((grid.simplex_volume * frob2(z) ** (p / 2.0)).sum() ** (1.0 / p))


def w1p_norm(grid: Grid, values: np.ndarray, p: float) -> float:
    """Discrete W^{1,p} norm with a vertex-lumped zero-order part."""
    z = simplex_gradients(grid, values)
    grad_part = (grid.simplex_volume * frob2(z) ** (p / 2.0)).sum()
    lump = np.zeros(grid.n_nodes)
    np.add.at(lump, grid.simplex_vertices.ravel(),
              np.full(grid.simplex_vertices.size, grid.simplex_volume / (grid.dim + 1)))
    val_part = (lump * (values ** 2).sum(axis=1) ** (p / 2.0)).sum()
    return float((grad_part + val_part) ** (1.0 / p))


# ----------------------------------------------------------------- minimization

FLAT_DECREASE = 1e-15  # relative to max(1, |energy|)


def minimize_dirichlet(F: Integrand, grid: Grid, boundary: np.ndarray,
                       tol_energy=1e-12, tol_residual=1e-9, max_iters=100,
                       init: np.ndarray | None = None,
                       energy_trace: list | None = None):
    """Damped Newton minimization of the discrete energy over interior nodal values.

    `boundary` is a full nodal array whose boundary rows fix the Dirichlet data;
    its interior rows seed the first iterate unless `init` is given.  The energy
    decreases monotonically; iteration stops once the relative energy decrease
    drops below tol_energy while the Euler-Lagrange residual sup-norm is below
    tol_residual.
    """
    boundary = np.asarray(boundary, dtype=float)
    if boundary.ndim == 1:
        boundary = boundary[:, None]
    N = boundary.shape[1]
    u = np.array(init if init is not None else boundary, dtype=float)
    if u.ndim == 1:
        u = u[:, None]
    if u.shape != boundary.shape:
        raise ValueError(f"init shape {u.shape} does not match boundary shape {boundary.shape}")
    u[grid.boundary_mask] = boundary[grid.boundary_mask]
    plan = grid.assembly_plan(N)
    int_dofs = plan.interior_dofs

    E = energy(F, grid, u)
    if not math.isfinite(E):
        raise NonConvergenceError("energy not finite at the initial iterate")
    if energy_trace is not None:
        energy_trace.append(E)
    prev_E = math.inf
    residual = math.inf
    fallbacks = 0
    it = 0
    g = None  # the gradient at u, when the flat branch below has assembled it
    for it in range(1, max_iters + 1):
        if g is None:
            g = assemble_gradient(F, grid, u)
        residual = float(np.abs(g[grid.interior_mask]).max())
        rel_dec = abs(prev_E - E) / max(abs(E), 1.0)
        if residual < tol_residual and rel_dec < tol_energy:
            it -= 1
            break
        gi = g.reshape(-1)[int_dofs]
        K = assemble_hessian(F, grid, u)
        try:
            step = _solve_spd(plan, K, -gi)
        except LinearSolveError:
            # degenerate system: fall back to a safeguarded gradient step
            fallbacks += 1
            step = -gi / max(float(K.diagonal().max()), 1.0)
        # a predicted decrease of a few ulps of the energy is invisible to the
        # line search, which would halve t some 60 times before giving up
        flat = -float(gi @ step) <= FLAT_DECREASE * max(1.0, abs(E))
        du = np.zeros((grid.n_nodes * N,))
        du[int_dofs] = step
        du = du.reshape(u.shape)

        t = 0.0 if flat else 1.0
        accepted = False
        while t > 1e-18:
            cand = u + t * du
            Ec = energy(F, grid, cand)
            if math.isfinite(Ec) and Ec < E:
                prev_E, E = E, Ec
                u, g = cand, None
                accepted = True
                if energy_trace is not None:
                    energy_trace.append(E)
                break
            t *= 0.5
        if not accepted:
            # energy flat to machine precision: accept the full Newton step if it
            # still contracts the first-order residual, else stop here
            cand = u + du
            gc = assemble_gradient(F, grid, cand)
            cres = float(np.abs(gc[grid.interior_mask]).max())
            if math.isfinite(cres) and cres < residual:
                prev_E, E = E, energy(F, grid, cand)
                u, g = cand, gc
                continue
            if residual <= tol_residual:
                break
            raise NonConvergenceError(
                f"line search stalled at residual {residual:.3e}",
                field=DiscreteField(grid, u),
                report=SolveReport(E, residual, it, gradient_fallbacks=fallbacks))
    else:
        raise NonConvergenceError(
            f"no convergence after {max_iters} iterations (residual {residual:.3e})",
            field=DiscreteField(grid, u),
            report=SolveReport(E, residual, max_iters, gradient_fallbacks=fallbacks))

    fld = DiscreteField(grid, u)
    report = SolveReport(energy=E, residual_sup=residual, iterations=it,
                         gradient_fallbacks=fallbacks)
    if isinstance(F, RegularizedIntegrand):
        report.gamma_eps = F.gamma_eps
    return fld, report


HARMONIC_TOL = 1e-10


def harmonic_extension(grid: Grid, boundary: np.ndarray) -> np.ndarray:
    """Interior values of the discrete |z|^2 minimizer with the given boundary rows.

    One solve with the plan's interior Laplacian; raises NonConvergenceError
    unless the sup norm of the interior residual ends at most HARMONIC_TOL."""
    u = np.array(boundary, dtype=float)
    if u.ndim == 1:
        u = u[:, None]
    plan = grid.assembly_plan(u.shape[1])
    dofs = plan.interior_dofs

    def residual(v):
        # gradient of sum_T vol(T) |grad v|^2 at the interior dofs
        return plan.assemble_vector(2.0 * plan.gradients(v)).reshape(-1)[dofs]

    step = np.zeros(u.size)
    try:
        step[dofs] = _solve_spd(plan, plan.laplacian, -residual(u))
    except LinearSolveError as exc:
        raise NonConvergenceError(f"harmonic extension: {exc}",
                                  field=DiscreteField(grid, u)) from exc
    u = u + step.reshape(u.shape)
    res = float(np.abs(residual(u)).max())
    if not res <= HARMONIC_TOL:
        raise NonConvergenceError(f"harmonic extension residual {res:.3e} > {HARMONIC_TOL:g}",
                                  field=DiscreteField(grid, u))
    return u


# ----------------------------------------------------------------- the scheme


@dataclass
class SchemeResult:
    reports: list
    field: DiscreteField
    energies: list
    gamma_terms: list
    w1p_increments: list
    enes_margins: list
    violations: list = field(default_factory=list)
    fields: list = field(default_factory=list)


def run_scheme(F: Integrand, r, grid: Grid, boundary: np.ndarray, schedule: Schedule,
               keep_fields=False, strict=False) -> SchemeResult:
    """The vanishing-viscosity ladder: mollify data, regularize, solve, monitor.

    Per epsilon the boundary data is mollified at the scheduled width, extended
    harmonically to estimate ||grad u~_eps||_q, and the regularized energy is
    minimized warm-started from the previous rung.  Monitors: the regularized
    energies, the viscosity terms gamma_eps ||grad u_eps||_q^q (expected to
    decrease), W^{1,p} increments between consecutive rungs, and the minimality
    margins L^-1 ||grad u||_p^p + gamma ||grad u||_q^q <= E_eps(u_eps)
    <= E_eps(u~_eps).  A non-monotone viscosity term and per-rung solver
    failures are aggregated into `violations`; with strict=True they raise
    SchemeViolationError at the end instead.
    """
    boundary = np.asarray(boundary, dtype=float)
    if boundary.ndim == 1:
        boundary = boundary[:, None]
    reports, energies, gamma_terms, increments, margins, fields = [], [], [], [], [], []
    violations = []
    prev_values = None
    fld = None
    for eps, width in zip(schedule.epsilons, schedule.mollifier_widths):
        g_eps = mollify_boundary(grid, boundary, width)
        tilde = harmonic_extension(grid, g_eps)
        norm_q = grad_lp_norm(grid, tilde, r.q)
        gam = gamma_eps(eps, norm_q, r.q)
        Feps = RegularizedIntegrand(F, gam, r.q)
        if prev_values is None:
            init = tilde
        else:
            init = prev_values.copy()
            init[grid.boundary_mask] = g_eps[grid.boundary_mask]
        try:
            fld, rep = minimize_dirichlet(Feps, grid, g_eps,
                                          tol_energy=schedule.tol_energy,
                                          tol_residual=schedule.tol_residual,
                                          max_iters=schedule.max_newton_iters,
                                          init=init)
        except NonConvergenceError as exc:
            violations.append(f"eps={eps}: {exc}")
            if exc.field is None:
                raise
            fld, rep = exc.field, exc.report
        rep.epsilon = eps
        rep.gamma_eps = gam
        reports.append(rep)
        energies.append(rep.energy)
        gterm = gam * grad_lp_norm(grid, fld.values, r.q) ** r.q
        if gamma_terms and gterm > gamma_terms[-1] * (1.0 + 1e-9):
            violations.append(
                f"viscosity term increased: {gamma_terms[-1]:.6e} -> {gterm:.6e} at eps={eps}")
        gamma_terms.append(gterm)
        lhs = grad_lp_norm(grid, fld.values, r.p) ** r.p / r.L + gterm
        e_tilde = energy(Feps, grid, tilde)
        margins.append((rep.energy - lhs, e_tilde - rep.energy))
        if prev_values is not None:
            increments.append(w1p_norm(grid, fld.values - prev_values, r.p))
        prev_values = np.array(fld.values)
        if keep_fields:
            fields.append(fld)
    if strict and violations:
        raise SchemeViolationError("; ".join(violations))
    return SchemeResult(reports=reports, field=fld, energies=energies,
                        gamma_terms=gamma_terms, w1p_increments=increments,
                        enes_margins=margins, violations=violations, fields=fields)


# ----------------------------------------------------------------- boundary data


def boundary_family(name: str, grid: Grid, amplitude: float, N: int, seed=0) -> np.ndarray:
    """Named nodal boundary data families; interior rows are filled too so the
    array can seed the first solve."""
    x = grid.node_coords
    g = np.zeros((grid.n_nodes, N))
    if name == "affine":
        for j in range(N):
            g[:, j] = amplitude * x[:, j % grid.dim]
    elif name == "sine":
        for j in range(N):
            g[:, j] = amplitude * np.sin(2.0 * np.pi * x[:, 0] + j * np.pi / 4.0)
    elif name == "sinecos":
        for j in range(N):
            g[:, j] = amplitude * np.sin(2.0 * np.pi * x[:, 0] + j * np.pi / 4.0) \
                * np.cos(2.0 * np.pi * x[:, (1 if grid.dim > 1 else 0)])
    elif name == "random":
        rng = np.random.default_rng(seed)
        g = amplitude * rng.normal(size=(grid.n_nodes, N))
    else:
        raise ValueError(f"unknown boundary family {name!r}")
    return g


# ----------------------------------------------------------------- exports


def _fmt(x):
    return f"{x:.17g}"


def export_field_csv(fld: DiscreteField, path):
    """Node snapshot: index, coordinates, values; 17 significant digits."""
    dim = fld.grid.dim
    cols = ["node"] + ["xyz"[k] for k in range(dim)] + [f"v{j+1}" for j in range(fld.N)]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for i in range(fld.grid.n_nodes):
            row = [str(i)] + [_fmt(c) for c in fld.grid.node_coords[i]] \
                + [_fmt(v) for v in fld.values[i]]
            fh.write(",".join(row) + "\n")


def export_gradients_csv(fld: DiscreteField, path):
    """Per-simplex gradient snapshot: index, barycenter, row-major gradient entries."""
    dim = fld.grid.dim
    cols = ["simplex"] + [f"b{'xyz'[k]}" for k in range(dim)] \
        + [f"g{i+1}{j+1}" for i in range(fld.N) for j in range(dim)]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for s in range(fld.grid.n_simplices):
            row = [str(s)] + [_fmt(c) for c in fld.grid.barycenters[s]] \
                + [_fmt(v) for v in fld.gradients[s].reshape(-1)]
            fh.write(",".join(row) + "\n")

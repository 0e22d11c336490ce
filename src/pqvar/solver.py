"""Regularized Dirichlet minimization on the Kuhn grid.

The discrete energy sum_T vol(T) F(grad u|_T) is the exact continuum energy of
the piecewise-linear interpolant (gradients are constant per simplex), so the
minimization scheme is isolated from quadrature artifacts.  The vanishing-
viscosity ladder adds gamma_eps ell_1(z)^q to the integrand, mollifies the
boundary data, and tracks the convergence monitors of the approximation.

scipy is imported inside the functions that use it, never at module level, so
`import pqvar` and the duality and certification paths load numpy alone; its
functions are looked up on the module objects at call time.
"""

import contextlib
import csv
import functools
import logging
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import newton
from .integrands import Integrand, PowerNorm, Scaled, Sum, frob2
from .model import AssemblyPlan, DiscreteField, Grid, SolveReport, nodal_array
from .newton import NonConvergenceError


@dataclass
class Schedule:
    """The viscosity ladder: strictly decreasing epsilons in (0, 1]; each rung
    mollifies the boundary data at its own epsilon."""

    epsilons: list

    def __post_init__(self):
        eps = list(self.epsilons)
        if not eps or any(not (0.0 < e <= 1.0) for e in eps):
            raise ValueError("epsilons must be a non-empty list inside (0, 1]")
        if any(not (b < a) for a, b in zip(eps, eps[1:])):
            raise ValueError("epsilons must be strictly decreasing")
        self.epsilons = eps

    @classmethod
    def dyadic(cls, k: int):
        """The default ladder eps_k = 2^-k, k = 1..k_max."""
        return cls(epsilons=[2.0 ** -(i + 1) for i in range(k)])


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
    below one grid cell.  The result has the input's shape; ShapeMismatchError
    unless there is one row per grid node.

    Both sums of the kernel run on the node lattice: the boundary indicator and
    the boundary rows (zero elsewhere) are convolved with the bump sampled at the
    lattice offsets closer than eps, by one batched real FFT padded by the kernel
    radius so that nothing wraps around, and divided at the boundary nodes."""
    if not eps > 0.0:
        raise ValueError(f"mollifier width must be positive, got {eps}")
    out = np.array(values, dtype=float)
    v = nodal_array(grid, out).reshape(grid.n_nodes, -1)  # a view of out
    if eps <= grid.h:
        return out
    import scipy.fft

    m, d = grid.cells_per_side, grid.dim
    r = min(math.ceil(eps * m) - 1, m)  # no offset beyond r is closer than eps
    k2 = (np.arange(-r, r + 1) * grid.h) ** 2
    t2 = sum(np.meshgrid(*[k2] * d, indexing="ij", sparse=True)) / (eps * eps)
    kernel = np.zeros(t2.shape)
    inside = t2 < 1.0
    kernel[inside] = np.exp(-1.0 / (1.0 - t2[inside]))
    bm = grid.boundary_mask
    # channel 0 is the boundary indicator, the others are the boundary rows
    channels = np.concatenate([bm[:, None], v * bm[:, None]], axis=1).T
    size = [scipy.fft.next_fast_len(m + 1 + 2 * r, real=True)] * d
    axes = tuple(range(1, d + 1))
    spectrum = scipy.fft.rfftn(channels.reshape((-1,) + (m + 1,) * d), size, axes=axes)
    spectrum *= scipy.fft.rfftn(kernel, size)
    conv = scipy.fft.irfftn(spectrum, size, axes=axes)[(slice(None),) + (slice(r, r + m + 1),) * d]
    sums = conv.reshape(len(channels), -1)[:, bm]
    v[bm] = (sums[1:] / sums[0]).T
    return out


# ----------------------------------------------------------------- assembly
#
# Every assembly goes through the grid's AssemblyPlan: signed sums and shifts of
# node-lattice arrays, with no sparse operator, and one fixed stencil of
# diagonals on which every interior matrix is stored.


def _plan_and_gradients(grid: Grid, values):
    """The assembly plan and the per-simplex gradients of `values`: a nodal
    array, whose gradients are formed here, or a DiscreteField on `grid`, whose
    cached gradients are read."""
    if isinstance(values, DiscreteField):
        if values.grid is not grid:
            raise ValueError("the field lives on another grid")
        return grid.assembly_plan(values.N), values.gradients
    plan = grid.assembly_plan(values.shape[1])
    return plan, plan.gradients(values)


def energy(F: Integrand, grid: Grid, values) -> float:
    """The discrete energy of a nodal array or a DiscreteField."""
    z = _plan_and_gradients(grid, values)[1]
    return float(grid.simplex_volume * F.value(z).sum())


def assemble_gradient(F: Integrand, grid: Grid, values) -> np.ndarray:
    """Nodal energy gradient of a nodal array or a DiscreteField; row (v, i) is
    the weak residual of the i-th component hat function at node v."""
    plan, z = _plan_and_gradients(grid, values)
    return plan.assemble_vector(F.gradient(z))


def assemble_hessian(F: Integrand, grid: Grid, values) -> "scipy.sparse.dia_matrix":
    """Sparse energy hessian of a nodal array or a DiscreteField, over the
    interior dofs (node-major, component-minor), in the order of the plan's
    `interior_dofs`, stored by its diagonals on the plan's fixed stencil."""
    plan, z = _plan_and_gradients(grid, values)
    return plan.assemble_matrix(F.hessian(z))


class LinearSolveError(ArithmeticError):
    """A Newton system is not positive definite to the solver (the banded Cholesky
    factorization of its lower band fails, or CG meets a non-positive main
    diagonal or a non-positive curvature p.Kp), CG does not reach its tolerance
    within its iteration cap, or the solution is not finite."""


CG_RTOL = 1e-12  # the least forcing term: the tolerance of a nearly converged step
REFACTOR_ITERS = 4  # a held 2d factor is replaced after a PCG that needed more iterations


def _pcg(K: "scipy.sparse.dia_matrix", rhs: np.ndarray, rtol: float, precondition):
    """Preconditioned conjugate gradients from x = 0, stopping once
    ||K x - rhs||_2 <= rtol ||rhs||_2 within 10 n iterations; `precondition(r)`
    applies the inverse of an SPD approximation of K.  Every Newton system is
    solved here, and each iteration's K @ p runs over K's diagonals.  Returns x
    and the iteration count; raises LinearSolveError on a non-positive curvature
    p.Kp, at the cap, or when x is not finite."""
    x, r = np.zeros_like(rhs), rhs.copy()
    p, scaled = np.empty_like(rhs), np.empty_like(rhs)  # the direction; alpha p or alpha Kp
    tol, rz = rtol * math.sqrt(float(rhs @ rhs)), 0.0
    for it in range(10 * len(rhs)):
        if math.sqrt(float(r @ r)) <= tol:
            if not np.all(np.isfinite(x)):
                raise LinearSolveError("non-finite solution")
            return x, it
        z = precondition(r)
        rz, rz_prev = float(r @ z), rz
        if it:  # p = z + beta p, in place
            p *= rz / rz_prev
            p += z
        else:
            p[:] = z
        Kp = K @ p
        curvature = float(p @ Kp)
        if not curvature > 0.0:
            raise LinearSolveError(f"non-positive curvature p.Kp = {curvature:.3e} in CG")
        alpha = rz / curvature
        x += np.multiply(p, alpha, out=scaled)
        r -= np.multiply(Kp, alpha, out=scaled)
    raise LinearSolveError(f"CG did not converge in {10 * len(rhs)} iterations")


@functools.cache
def _scipy_blas_threads():
    """The getter and setter of the thread count of scipy's OpenBLAS pool, found
    among the symbols that scipy's LAPACK extension reaches, at the first call;
    None, after one warning on the `pqvar` logger, when either is missing."""
    import ctypes

    import scipy.linalg._flapack as flapack

    try:
        lib = ctypes.CDLL(flapack.__file__)
        get, set_threads = lib.scipy_openblas_get_num_threads, lib.scipy_openblas_set_num_threads
    except (AttributeError, OSError) as exc:
        logging.getLogger("pqvar").warning(
            "scipy's OpenBLAS thread count cannot be set (%s): the 2d banded Cholesky "
            "factorizations run on its default threads", exc)
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    return get, set_threads


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with scipy's OpenBLAS pool at one thread and give the caller's
    count back on the way out, also when the block raises; with no setter found
    the block runs on the pool as it is."""
    threads = _scipy_blas_threads()
    if threads is None:
        yield
        return
    get, set_threads = threads
    caller = get()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(caller)


def _preconditioner(plan: AssemblyPlan, K: "scipy.sparse.dia_matrix"):
    """A fresh preconditioner for the Newton system K assembled by `plan`, fixed by
    the grid dimension as measured on the benchmark ladders.  In 3d it is Jacobi,
    r -> r / diag K, with diag K read from K's stored main diagonal.  In 2d the
    node-major interior numbering makes K banded, and it is the LAPACK banded
    Cholesky factor of K, from its lower band (`AssemblyPlan.lower_band`): an
    exact solve for this K and, held across Newton steps, a preconditioner that
    needs a few CG iterations where Jacobi needs hundreds.  The factorization
    runs with scipy's OpenBLAS pool at one thread, which on these narrow bands is
    faster than two; the triangular solves run on the pool as the caller left it.
    Raises LinearSolveError when the diagonal is not positive or the
    factorization finds K not positive definite."""
    if plan.grid.dim == 2:
        import scipy.linalg as sla

        try:
            with _one_blas_thread():
                factor = sla.cholesky_banded(plan.lower_band(K), lower=True,
                                             overwrite_ab=True, check_finite=False)
        except sla.LinAlgError as exc:
            raise LinearSolveError(f"banded Cholesky failed: {exc}") from exc
        pbtrs, = sla.get_lapack_funcs(("pbtrs",), (factor,))

        def solve_banded(r):
            x, info = pbtrs(factor, r, lower=1)
            if info != 0:
                raise LinearSolveError(f"banded triangular solves failed: pbtrs info = {info}")
            return x

        return solve_banded
    diag = K.diagonal()
    if not np.all(diag > 0.0):
        raise LinearSolveError("hessian diagonal is not positive")
    inv_diag = 1.0 / diag
    return lambda r: inv_diag * r


def grad_lp_norm(grid: Grid, values, p: float) -> float:
    """(integral of |grad u|^p)^(1/p) over the box, exact for PL fields, of a
    nodal array or a DiscreteField."""
    z = _plan_and_gradients(grid, values)[1]
    return float((grid.simplex_volume * frob2(z) ** (p / 2.0)).sum() ** (1.0 / p))


def w1p_norm(grid: Grid, values: np.ndarray, p: float) -> float:
    """Discrete W^{1,p} norm with a vertex-lumped zero-order part."""
    z = _plan_and_gradients(grid, values)[1]
    grad_part = (grid.simplex_volume * frob2(z) ** (p / 2.0)).sum()
    val_part = (grid.lumped_mass * (values ** 2).sum(axis=1) ** (p / 2.0)).sum()
    return float((grad_part + val_part) ** (1.0 / p))


# ----------------------------------------------------------------- minimization


def minimize_dirichlet(F: Integrand, grid: Grid, boundary: np.ndarray,
                       tol_energy=1e-12, tol_residual=1e-9, max_iters=100,
                       init: np.ndarray | None = None,
                       energy_trace: list | None = None):
    """Damped Newton minimization of the discrete energy over interior nodal values.

    `boundary` is a full nodal array whose boundary rows fix the Dirichlet data;
    its interior rows seed the first iterate unless `init` is given.  The energy
    decreases monotonically; iteration stops once the relative energy decrease
    drops below tol_energy while the Euler-Lagrange residual sup-norm is below
    tol_residual, or, when the energy is flat to machine precision, once that
    residual is at most tol_residual.  The loop is `newton.minimize`.

    Each iterate's PL gradients are formed once: the energy, the gradient and
    the hessian at an iterate read them from one DiscreteField, and the field
    returned is the last iterate's.  A solve thus makes one pass at the start
    and one per candidate that the line search evaluates.

    Every Newton system is solved by `_pcg`, inexactly (Dembo, Eisenstat and
    Steihaug): to the relative residual
    max(CG_RTOL, min(0.01, max(||g||_2^2, 0.1 tol_residual / ||g||_2))) of the
    interior gradient g (0.01 when g = 0), so far from the minimizer a step costs
    few CG iterations and near it the step is as accurate as an exact one.  The
    floor 0.1 tol_residual / ||g||_2 never asks for a linear residual
    ||K dx + g||_2 below 0.1 tol_residual: the next gradient's sup norm then
    stays under the residual test by that margin, and CG iterations beyond it
    buy accuracy that the stopping rule cannot see.  In 3d each system is
    preconditioned by its own Jacobi diagonal.  In 2d the preconditioner is the
    banded Cholesky factor of a recent hessian of this solve, factored from its
    lower band on one thread of scipy's BLAS pool.  It is factored at the first
    step, at the step after a PCG that needed more than REFACTOR_ITERS
    iterations, and at once when a PCG with the held factor fails.  The factor
    lives in this call alone, so solves stay independent of each other.  A system
    that a fresh preconditioner cannot solve is replaced by a diagonally scaled
    gradient step, counted in `gradient_fallbacks`.
    """
    boundary = nodal_array(grid, boundary)
    u = nodal_array(grid, boundary if init is None else init).copy()
    if u.shape != boundary.shape:
        raise ValueError(f"init shape {u.shape} does not match boundary shape {boundary.shape}")
    u[grid.boundary_mask] = boundary[grid.boundary_mask]
    plan = grid.assembly_plan(u.shape[1])
    int_dofs = plan.interior_dofs
    hold = grid.dim == 2  # a banded factor is worth keeping across steps; a diagonal is not
    held = None  # the held 2d preconditioner, None when the next step must refactor
    fallbacks = linear_iterations = factorizations = 0
    last = (None, None)  # the last iterate asked for, and its field

    def field(v):
        nonlocal last
        if last[0] is not v:
            last = (None, None)  # free the last field's gradients before forming v's
            last = (v, DiscreteField(grid, v))
        return last[1]

    def gradient(v):
        gi = assemble_gradient(F, grid, field(v)).reshape(-1)[int_dofs]
        return gi, float(np.abs(gi).max())

    def solve(K, rhs, forcing):
        nonlocal held, factorizations, linear_iterations
        x = None
        if held is not None:
            try:
                x, its = _pcg(K, rhs, forcing, held)
            except LinearSolveError:
                held = None  # the held factor cannot precondition K: refactor now
        if x is None:
            factorizations += hold
            precondition = _preconditioner(plan, K)
            x, its = _pcg(K, rhs, forcing, precondition)
            held = precondition if hold else None
        linear_iterations += its
        if its > REFACTOR_ITERS:
            held = None
        return x

    def newton_step(v, gi):
        nonlocal fallbacks
        K = assemble_hessian(F, grid, field(v))
        gg = float(gi @ gi)
        floor = 0.1 * tol_residual / math.sqrt(gg) if gg > 0.0 else math.inf
        try:
            step = solve(K, -gi, max(CG_RTOL, min(0.01, max(gg, floor))))
        except LinearSolveError:
            # degenerate system: fall back to a safeguarded gradient step
            fallbacks += 1
            step = -gi / max(float(K.diagonal().max()), 1.0)
        du = np.zeros(v.size)
        du[int_dofs] = step
        return du.reshape(v.shape), float(gi @ step)

    def converged(res, E, E_prev):
        return res < tol_residual and abs(E_prev - E) / max(abs(E), 1.0) < tol_energy

    def partial(v, E, res, iters):
        return {"field": field(v),
                "report": SolveReport(E, res, iters, gradient_fallbacks=fallbacks,
                                      linear_iterations=linear_iterations,
                                      factorizations=factorizations)}

    u, E, residual, iters = newton.minimize(
        lambda v: energy(F, grid, field(v)), gradient, newton_step, u, converged,
        stall_tol=tol_residual, max_iters=max_iters, partial=partial, values=energy_trace)
    report = SolveReport(energy=E, residual_sup=residual, iterations=iters,
                         gradient_fallbacks=fallbacks, linear_iterations=linear_iterations,
                         factorizations=factorizations)
    return field(u), report


HARMONIC_TOL = 1e-10


def harmonic_extension(grid: Grid, boundary: np.ndarray) -> DiscreteField:
    """The discrete |z|^2 minimizer with the given boundary rows, as a field.

    On the Kuhn grid the diagonal couplings of the P1 Laplacian assemble to 0, so
    its interior hessian is 2 h^(d-2) times the (2d+1)-point stencil, which the
    type-I discrete sine transform along every lattice axis diagonalizes.  The
    solve applies scipy's DST-I, divides by the eigenvalues
    2 h^(d-2) sum_axes (2 - 2 cos(pi j / m)), j = 1..m-1, and applies its
    inverse: no factorization and no iteration.  The right-hand side applies the
    stencil to the nodal lattice by slicing.  Raises NonConvergenceError unless
    the sup norm of the assembled interior residual ends at most HARMONIC_TOL;
    that residual is assembled from the gradients the returned field caches."""
    import scipy.fft

    u = nodal_array(grid, boundary).copy()
    N = u.shape[1]
    plan = grid.assembly_plan(N)
    m, d = grid.cells_per_side, grid.dim

    lattice = u.reshape((m + 1,) * d + (N,))
    inner = (slice(1, -1),) * d
    stencil = 2 * d * lattice[inner]
    for a in range(d):
        for side in (slice(None, -2), slice(2, None)):
            stencil -= lattice[inner[:a] + (side,) + inner[a + 1:]]
    rhs = -2.0 * grid.h ** (d - 2) * stencil

    lam = 2.0 - 2.0 * np.cos(np.pi * np.arange(1, m) / m)
    eig = 2.0 * grid.h ** (d - 2) * sum(np.meshgrid(*[lam] * d, indexing="ij", sparse=True))
    axes = tuple(range(d))
    step = scipy.fft.idstn(scipy.fft.dstn(rhs, type=1, axes=axes) / eig[..., None],
                           type=1, axes=axes)
    u[grid.interior_mask] += step.reshape(-1, N)
    fld = DiscreteField(grid, u)
    # gradient of sum_T vol(T) |grad u|^2 at the interior dofs
    residual = plan.assemble_vector(2.0 * fld.gradients).reshape(-1)[plan.interior_dofs]
    res = float(np.abs(residual).max())
    if not res <= HARMONIC_TOL:
        raise NonConvergenceError(f"harmonic extension residual {res:.3e} > {HARMONIC_TOL:g}",
                                  field=fld)
    return fld


# ----------------------------------------------------------------- the scheme


@dataclass
class SchemeResult:
    reports: list
    field: DiscreteField
    gamma_terms: list
    w1p_increments: list
    enes_margins: list
    violations: list = field(default_factory=list)
    fields: list = field(default_factory=list)


def run_scheme(F: Integrand, r, grid: Grid, boundary: np.ndarray, schedule: Schedule,
               keep_fields=False) -> SchemeResult:
    """The vanishing-viscosity ladder: mollify data, regularize, solve, monitor.

    Per epsilon the boundary data is mollified at width epsilon, extended
    harmonically to estimate ||grad u~_eps||_q, and the regularized energy is
    minimized.  The first rung starts from the harmonic extension; each later one
    from the previous minimizer plus the harmonic extension of the change in the
    mollified data, which carries the new boundary rows into the interior with no
    boundary layer.  Monitors: the regularized energies, the viscosity terms
    gamma_eps ||grad u_eps||_q^q (expected to decrease), W^{1,p} increments
    between consecutive rungs, and the minimality margins
    L^-1 ||grad u||_p^p + gamma ||grad u||_q^q <= E_eps(u_eps) <= E_eps(u~_eps).
    A non-monotone viscosity term and per-rung solver failures are aggregated
    into `violations`.
    """
    boundary = nodal_array(grid, boundary)
    reports, gamma_terms, increments, margins, fields = [], [], [], [], []
    violations = []
    prev_values = None
    fld = None
    for eps in schedule.epsilons:
        g_eps = mollify_boundary(grid, boundary, eps)
        tilde_field = harmonic_extension(grid, g_eps)
        gam = gamma_eps(eps, grad_lp_norm(grid, tilde_field, r.q), r.q)
        Feps = RegularizedIntegrand(F, gam, r.q)
        e_tilde = energy(Feps, grid, tilde_field)
        tilde = tilde_field.values
        del tilde_field  # its gradients are not held through the solve
        if prev_values is None:
            init = tilde
        else:
            init = prev_values + (tilde - prev_tilde)
        try:
            fld, rep = minimize_dirichlet(Feps, grid, g_eps, init=init)
        except NonConvergenceError as exc:
            violations.append(f"eps={eps}: {exc}")
            if not math.isfinite(exc.report.energy):
                raise  # the rung never had a finite energy to go on from
            fld, rep = exc.field, exc.report
        rep.epsilon = eps
        rep.gamma_eps = gam
        reports.append(rep)
        gterm = gam * grad_lp_norm(grid, fld, r.q) ** r.q
        if gamma_terms and gterm > gamma_terms[-1] * (1.0 + 1e-9):
            violations.append(
                f"viscosity term increased: {gamma_terms[-1]:.6e} -> {gterm:.6e} at eps={eps}")
        gamma_terms.append(gterm)
        lhs = grad_lp_norm(grid, fld, r.p) ** r.p / r.L + gterm
        margins.append((rep.energy - lhs, e_tilde - rep.energy))
        if prev_values is not None:
            increments.append(w1p_norm(grid, fld.values - prev_values, r.p))
        prev_values, prev_tilde = fld.values, tilde
        if keep_fields:
            fields.append(fld)
    return SchemeResult(reports=reports, field=fld, gamma_terms=gamma_terms,
                        w1p_increments=increments, enes_margins=margins,
                        violations=violations, fields=fields)


# ----------------------------------------------------------------- boundary data


BOUNDARY_FAMILIES = ("affine", "sine", "sinecos", "random")


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
        raise ValueError(f"unknown boundary family {name!r}; choose from {BOUNDARY_FAMILIES}")
    return g


# ----------------------------------------------------------------- exports


def _fmt(x):
    """One CSV cell: floats with 17 significant digits, integers as integers,
    None as an empty cell, anything else through str."""
    if x is None:
        return ""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{x:.17g}" if isinstance(x, (float, np.floating)) else str(x)


def write_csv(dest, header, rows):
    """A header line and one line per row, each cell through `_fmt`; a cell that
    holds a comma, a quote or a line break is quoted.  `dest` is a path or an
    open text stream."""
    if isinstance(dest, (str, os.PathLike)):
        with open(dest, "w") as fh:
            return write_csv(fh, header, rows)
    out = csv.writer(dest, lineterminator="\n")
    out.writerow(header)
    out.writerows([_fmt(v) for v in row] for row in rows)


def export_field_csv(fld: DiscreteField, path):
    """Node snapshot: index, coordinates, values; 17 significant digits."""
    dim = fld.grid.dim
    cols = ["node"] + ["xyz"[k] for k in range(dim)] + [f"v{j+1}" for j in range(fld.N)]
    write_csv(path, cols, ([i, *fld.grid.node_coords[i], *fld.values[i]]
                           for i in range(fld.grid.n_nodes)))


def export_gradients_csv(fld: DiscreteField, path):
    """Per-simplex gradient snapshot: index, barycenter, row-major gradient entries."""
    dim = fld.grid.dim
    cols = ["simplex"] + [f"b{'xyz'[k]}" for k in range(dim)] \
        + [f"g{i+1}{j+1}" for i in range(fld.N) for j in range(dim)]
    write_csv(path, cols, ([s, *fld.grid.barycenters[s], *fld.gradients[s].reshape(-1)]
                           for s in range(fld.grid.n_simplices)))

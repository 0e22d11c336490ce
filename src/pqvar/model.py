"""Core value types: regimes, regions, simplicial grids, discrete fields, reports.

Everything here is immutable after construction so that solver assembly and
diagnostics sweeps can read the same objects from several workers.  The one
exception is a grid's assembly plans, built on first use and then fixed.
"""

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp


class InvalidRegimeError(ValueError):
    """Exponent tuple violates the basic ordering 2 <= p <= q, or n/N/mu/L are out of range."""


class ShapeMismatchError(ValueError):
    """A gradient matrix does not match the (N, n) shape expected by its context."""


class RegionError(ValueError):
    """A measurement region falls outside the solved domain."""


# --------------------------------------------------------------------------- regimes


@dataclass(frozen=True)
class Regime:
    """Structural tuple (n, N, p, q, mu, L) governing assumptions and thresholds."""

    n: int
    N: int
    p: float
    q: float
    mu: float
    L: float

    def __post_init__(self):
        if self.n < 2 or int(self.n) != self.n:
            raise InvalidRegimeError(f"space dimension n must be an integer >= 2, got {self.n}")
        if self.N < 1 or int(self.N) != self.N:
            raise InvalidRegimeError(f"target dimension N must be an integer >= 1, got {self.N}")
        if not (2.0 <= self.p <= self.q < math.inf):
            raise InvalidRegimeError(f"exponents must satisfy 2 <= p <= q < inf, got p={self.p}, q={self.q}")
        if not (0.0 <= self.mu <= 1.0):
            raise InvalidRegimeError(f"degeneracy parameter mu must lie in [0, 1], got {self.mu}")
        if not (self.L > 1.0):
            raise InvalidRegimeError(f"structural constant L must exceed 1, got {self.L}")

    @property
    def q_conj(self):
        """Conjugate exponent q' = q/(q-1)."""
        return self.q / (self.q - 1.0)

    @property
    def p_conj(self):
        return self.p / (self.p - 1.0)

    def with_exponents(self, p=None, q=None):
        return Regime(self.n, self.N, self.p if p is None else p,
                      self.q if q is None else q, self.mu, self.L)


@dataclass(frozen=True)
class Admissibility:
    admissible: bool
    threshold: float  # math.inf in low dimension
    rule: str


def validate_regime(r: Regime) -> Admissibility:
    """Gap condition on (n, p, q): q below p(n-1)/(n-3) for n >= 4, unbounded for n in {2, 3}."""
    if r.n >= 4:
        threshold = r.p * (r.n - 1) / (r.n - 3)
        return Admissibility(r.q < threshold, threshold, "q<p(n-1)/(n-3)")
    return Admissibility(True, math.inf, "n in {2,3}: unbounded")


def classical_gates(r: Regime) -> dict:
    """Evaluate the classical exponent gates for comparison against the main gap condition.

    Returns named booleans plus the Holder exponent 1-(n-2)/p when p > n-2 (n >= 3).
    """
    n, p, q = r.n, r.p, r.q
    gates = {
        # q < np/(n-2) (unbounded for n = 2)
        "w1q_gap": q < n * p / (n - 2) if n >= 3 else True,
        # q < p + 2p/n
        "w1p_lipschitz_gap": q < p + 2.0 * p / n,
        # q < p + 2p/(n-1)
        "sphere_refined_gap": q < p + 2.0 * p / (n - 1),
        # q <= np/(n-2) (non-strict: gradient L^q integrability)
        "grad_lq_gap": q <= n * p / (n - 2) if n >= 3 else True,
        "holder": p > n - 2 and n >= 3,
    }
    gates["holder_exponent"] = 1.0 - (n - 2) / p if gates["holder"] else None
    return gates


# --------------------------------------------------------------------------- regions


@dataclass(frozen=True)
class Region:
    """Ball or cube used for region-restricted averages; radius is the half-side for cubes."""

    center: tuple
    radius: float
    kind: str = "ball"

    def __post_init__(self):
        if self.radius <= 0:
            raise RegionError(f"region radius must be positive, got {self.radius}")
        if self.kind not in ("ball", "cube"):
            raise RegionError(f"region kind must be 'ball' or 'cube', got {self.kind!r}")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))

    def scaled(self, factor: float) -> "Region":
        """Concentric region with radius scaled by `factor` (e.g. B/2 = B.scaled(0.5))."""
        return Region(self.center, self.radius * factor, self.kind)

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask for points of shape (..., dim)."""
        d = points - np.asarray(self.center)
        if self.kind == "ball":
            return (d ** 2).sum(axis=-1) < self.radius ** 2
        return np.abs(d).max(axis=-1) < self.radius

    def inside_unit_box(self) -> bool:
        c = np.asarray(self.center)
        return bool(np.all(c - self.radius >= 0.0) and np.all(c + self.radius <= 1.0))


# --------------------------------------------------------------------------- grids

def _kuhn_offsets(dim):
    """Vertex offsets of the Kuhn simplices of the unit cell, one (dim+1, dim) block per type.

    Each permutation pi orders the coordinate increments: v0 = 0, v_k = v_{k-1} + e_{pi(k)}.
    """
    blocks = []
    for perm in itertools.permutations(range(dim)):
        verts = [np.zeros(dim)]
        for axis in perm:
            verts.append(verts[-1] + np.eye(dim)[axis])
        blocks.append(np.array(verts))
    return np.array(blocks)  # (dim!, dim+1, dim)


def _kuhn_hat_gradients(offsets, cells_per_side):
    """Exact hat-function gradients (types, dim+1, dim) of the Kuhn simplices with
    the given unit-cell vertex offsets, on cells of side h = 1/cells_per_side.

    With v_k = v_{k-1} + h e_pi(k), the barycentric coordinates in y = x/h are
    lambda_k = y_pi(k) - y_pi(k+1), where y_pi(0) = 1 and y_pi(d+1) = 0, so
    grad lambda_k = (e_pi(k) - e_pi(k+1)) / h with e_pi(0) = e_pi(d+1) = 0.  Every
    entry is 0 or +-cells_per_side exactly: the PL-gradient operator keeps two
    entries per row and a constant field has gradient exactly 0.
    """
    steps = np.diff(offsets, axis=1)  # rows e_pi(1..d)
    pad = np.zeros_like(steps[:, :1])
    e = np.concatenate([pad, steps, pad], axis=1)
    return (e[:, :-1] - e[:, 1:]) * cells_per_side


class Grid:
    """Kuhn triangulation of the unit box [0,1]^dim with cells_per_side cells per axis.

    Simplices are stored grouped by type (the permutation defining each Kuhn
    simplex), so simplex `t * n_cells + c` is the type-`t` simplex of cell `c`.
    The triangulation is fixed, which makes per-simplex gradients reproducible
    bit-for-bit across runs, and lets every assembly reuse one AssemblyPlan per
    number of field components.
    """

    def __init__(self, dim: int, cells_per_side: int):
        if dim not in (2, 3):
            raise ValueError(f"grid dimension must be 2 or 3, got {dim}")
        if cells_per_side < 2 or int(cells_per_side) != cells_per_side:
            raise ValueError(f"cells_per_side must be an integer >= 2, got {cells_per_side}")
        self.dim = dim
        self.cells_per_side = int(cells_per_side)
        m = self.cells_per_side
        self.h = 1.0 / m
        self.nodes_per_side = m + 1
        self.n_nodes = (m + 1) ** dim
        self.n_cells = m ** dim
        self.n_types = math.factorial(dim)
        self.n_simplices = self.n_cells * self.n_types

        axes = [np.arange(m + 1) for _ in range(dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        self.node_coords = np.stack([g.ravel() for g in mesh], axis=-1) * self.h  # (n_nodes, dim)

        # boundary nodes: any lattice index at 0 or m
        lattice = np.stack([g.ravel() for g in mesh], axis=-1)
        self.boundary_mask = np.any((lattice == 0) | (lattice == m), axis=1)
        self.interior_mask = ~self.boundary_mask

        offsets = _kuhn_offsets(dim)  # (types, dim+1, dim)
        self.hat_grads = _kuhn_hat_gradients(offsets, m)  # (types, dim+1, dim)
        self.simplex_volume = self.h ** dim / math.factorial(dim)

        caxes = [np.arange(m) for _ in range(dim)]
        cmesh = np.meshgrid(*caxes, indexing="ij")
        cell_idx = np.stack([g.ravel() for g in cmesh], axis=-1)  # (n_cells, dim)
        shape = (m + 1,) * dim
        vert_ids = []
        for t in range(self.n_types):
            ids = [np.ravel_multi_index((cell_idx + offsets[t][a]).astype(int).T, shape)
                   for a in range(dim + 1)]
            vert_ids.append(np.stack(ids, axis=-1))  # (n_cells, dim+1)
        self.simplex_vertices = np.concatenate(vert_ids, axis=0)  # (n_simplices, dim+1)
        self.barycenters = self.node_coords[self.simplex_vertices].mean(axis=1)
        self.cell_centers = (cell_idx + 0.5) * self.h  # (n_cells, dim)

        for arr in (self.node_coords, self.simplex_vertices, self.barycenters, self.cell_centers):
            arr.setflags(write=False)
        self._plans = {}

    def assembly_plan(self, N: int) -> "AssemblyPlan":
        """The assembly plan for N-component fields on this grid, built at first use."""
        plan = self._plans.get(N)
        if plan is None:
            plan = self._plans[N] = AssemblyPlan(self, N)
        return plan

    def simplices_in(self, region: Region) -> np.ndarray:
        """Mask of simplices whose barycenter lies in the region."""
        return region.contains(self.barycenters)

    def cells_in(self, region: Region) -> np.ndarray:
        return region.contains(self.cell_centers)

    def per_cell(self, simplex_values: np.ndarray) -> np.ndarray:
        """Average a per-simplex quantity over the simplices of each cell; leading axis reshaped
        to the (m, m[, m]) cell lattice."""
        m = self.cells_per_side
        byc = simplex_values.reshape((self.n_types, self.n_cells) + simplex_values.shape[1:])
        return byc.mean(axis=0).reshape((m,) * self.dim + simplex_values.shape[1:])


class AssemblyPlan:
    """Fixed sparse operators of a Grid for N-component fields.

    Nodal arrays (n_nodes, N) are flattened node-major, component-minor.  The
    PL-gradient operator maps them to per-simplex gradients (n_simplices, N, dim):
    the gradient of the interpolant is sum_a u_a (x) hatgrad_a on every simplex.
    Its transpose assembles weak forms.  The interior CSR pattern and the map
    scattering element blocks into it are built at the first matrix assembly, so
    fields that are only differentiated never pay for them; the map from that
    pattern to banded storage is built at the first banded solve.
    """

    def __init__(self, grid: Grid, N: int):
        self.grid = grid
        self.N = N
        S, d = grid.n_simplices, grid.dim
        verts = grid.simplex_vertices
        comp = np.arange(N)
        G = np.repeat(grid.hat_grads, grid.n_cells, axis=0)  # (S, dim+1, dim)
        # entry (s, i, a, k): d(grad u)[s, i, k] / du[verts[s, a], i] = G[s, a, k]
        rows = (np.arange(S)[:, None, None, None] * N + comp[None, :, None, None]) * d \
            + np.arange(d)[None, None, None, :]
        cols = verts[:, None, :, None] * N + comp[None, :, None, None]
        rows, cols = np.broadcast_arrays(rows, cols)
        vals = np.broadcast_to(G[:, None, :, :], rows.shape)
        shape = (S * N * d, grid.n_nodes * N)
        self.grad_op = sp.csr_matrix((vals.ravel(), (rows.ravel(), cols.ravel())), shape=shape)
        self.grad_op.eliminate_zeros()  # the hat gradients of a Kuhn simplex are sparse
        self.grad_op_t = self.grad_op.T.tocsr()
        int_nodes = np.flatnonzero(grid.interior_mask)
        self.interior_dofs = (int_nodes[:, None] * N + comp[None, :]).reshape(-1)

    def gradients(self, values) -> np.ndarray:
        """Exact per-simplex gradients (n_simplices, N, dim) of the PL interpolant."""
        g = self.grid
        flat = np.asarray(values, dtype=float).reshape(-1)
        return (self.grad_op @ flat).reshape(g.n_simplices, self.N, g.dim)

    def assemble_vector(self, flux) -> np.ndarray:
        """Nodal weak form (n_nodes, N): row (v, i) is sum_T vol(T) <flux_T[i], hatgrad_v>."""
        g = self.grid
        flat = np.asarray(flux, dtype=float).reshape(-1)
        return (self.grad_op_t @ (g.simplex_volume * flat)).reshape(g.n_nodes, self.N)

    @cached_property
    def _interior_pattern(self):
        """(scatter, indices, indptr, GG): CSR pattern of the interior-interior
        matrix, the CSR slot of every element-block entry (nnz for entries that
        touch a boundary dof), and the per-type tensors vol * hatgrad_a,k hatgrad_b,l
        as (types, dim*dim, (dim+1)^2) matrices."""
        g, N = self.grid, self.N
        d1 = g.dim + 1
        verts = g.simplex_vertices
        comp = np.arange(N)
        n_int = len(self.interior_dofs)
        pos = np.full(g.n_nodes * N, -1, dtype=np.int64)
        pos[self.interior_dofs] = np.arange(n_int)
        # element-block entries in the order (simplex, i, j, a, b) of assemble_matrix
        rows = pos[verts[:, None, None, :, None] * N + comp[None, :, None, None, None]]
        cols = pos[verts[:, None, None, None, :] * N + comp[None, None, :, None, None]]
        rows, cols = np.broadcast_arrays(rows, cols)
        keep = ((rows >= 0) & (cols >= 0)).ravel()
        keys, slots = np.unique(rows.ravel()[keep] * n_int + cols.ravel()[keep],
                                return_inverse=True)
        scatter = np.full(rows.size, len(keys), dtype=np.int64)
        scatter[keep] = slots
        indptr = np.zeros(n_int + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys // n_int, minlength=n_int), out=indptr[1:])
        GG = g.simplex_volume * np.einsum("tak,tbl->tklab", g.hat_grads, g.hat_grads)
        GG = GG.reshape(g.n_types, g.dim * g.dim, d1 * d1)
        return scatter, keys % n_int, indptr, GG

    def assemble_matrix(self, H) -> sp.csr_matrix:
        """Interior-interior matrix sum_T vol(T) H_T[i,k,j,l] hatgrad_a,k hatgrad_b,l
        from per-simplex forms H (n_simplices, N, dim, N, dim); rows and columns
        follow `interior_dofs`."""
        g, N = self.grid, self.N
        scatter, indices, indptr, GG = self._interior_pattern
        Hij = np.asarray(H, dtype=float).transpose(0, 1, 3, 2, 4)
        blocks = Hij.reshape(g.n_types, g.n_cells * N * N, g.dim * g.dim) @ GG
        nnz = len(indices)
        data = np.bincount(scatter, weights=blocks.reshape(-1), minlength=nnz + 1)[:nnz]
        n = len(self.interior_dofs)
        return sp.csr_matrix((data, indices, indptr), shape=(n, n))

    @cached_property
    def _band_map(self):
        """(slots, dest, u): the slots of the interior CSR pattern's upper triangle,
        their flat positions in Fortran-ordered LAPACK upper-band storage of shape
        (u + 1, n), and the half-bandwidth u.  Entry (r, c), r <= c, sits at row
        u + r - c of column c."""
        _, indices, indptr, _ = self._interior_pattern
        n = len(self.interior_dofs)
        rows = np.repeat(np.arange(n), np.diff(indptr))
        slots = np.flatnonzero(indices >= rows)
        r, c = rows[slots], indices[slots]
        u = int((c - r).max())
        return slots, (u + r - c) + (u + 1) * c, u

    def upper_band(self, K: sp.csr_matrix) -> np.ndarray:
        """The upper triangle of a symmetric interior matrix assembled by this plan,
        in Fortran-ordered LAPACK upper-band storage (u + 1, n).  With node-major
        interior dofs the half-bandwidth u is small in 2d: m*N + N - 1 on m cells."""
        slots, dest, u = self._band_map
        n = K.shape[0]
        band = np.zeros((u + 1) * n)
        band[dest] = K.data[slots]
        return band.reshape(u + 1, n, order="F")

    @cached_property
    def laplacian(self) -> sp.csr_matrix:
        """Interior hessian of the energy sum_T vol(T) |grad u|^2."""
        g, N = self.grid, self.N
        form = 2.0 * np.einsum("ij,kl->ikjl", np.eye(N), np.eye(g.dim))
        return self.assemble_matrix(np.broadcast_to(form, (g.n_simplices,) + form.shape))


class DiscreteField:
    """Piecewise-linear vector field on a Grid; per-simplex gradients cached at construction."""

    def __init__(self, grid: Grid, nodal_values: np.ndarray):
        nodal_values = np.asarray(nodal_values, dtype=float)
        if nodal_values.ndim == 1:
            nodal_values = nodal_values[:, None]
        if nodal_values.shape[0] != grid.n_nodes:
            raise ShapeMismatchError(
                f"nodal_values has {nodal_values.shape[0]} rows, grid has {grid.n_nodes} nodes")
        self.grid = grid
        self.values = nodal_values.copy()
        self.N = nodal_values.shape[1]
        self.gradients = grid.assembly_plan(self.N).gradients(self.values)
        self.values.setflags(write=False)
        self.gradients.setflags(write=False)

    def replace_values(self, nodal_values) -> "DiscreteField":
        return DiscreteField(self.grid, nodal_values)


# --------------------------------------------------------------------------- reports


@dataclass
class CheckReport:
    passed: bool
    worst_ratio: float
    witness: np.ndarray | None = None


@dataclass
class SolveReport:
    energy: float
    residual_sup: float
    iterations: int
    epsilon: float = 0.0
    gamma_eps: float = 0.0
    gradient_fallbacks: int = 0


@dataclass
class DiagnosticsEntry:
    estimate_id: str
    lhs: float
    rhs: float
    fitted_exponent: float | None = None
    grid: int | None = None
    amplitude: float | None = None
    epsilon: float | None = None

    @property
    def ratio(self):
        if self.rhs == 0.0:
            return 0.0 if self.lhs == 0.0 else math.inf
        return self.lhs / self.rhs


@dataclass
class DiagnosticsReport:
    entries: list = field(default_factory=list)

    def add(self, entry: DiagnosticsEntry):
        if not (entry.lhs >= 0.0 and entry.rhs >= 0.0):
            raise ValueError(f"diagnostics entries need lhs, rhs >= 0, got {entry}")
        self.entries.append(entry)

    def by_id(self, estimate_id: str):
        return [e for e in self.entries if e.estimate_id == estimate_id]

    def extend(self, other: "DiagnosticsReport"):
        for e in other.entries:
            self.add(e)

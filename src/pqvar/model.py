"""Core value types: regimes, regions, simplicial grids, discrete fields, reports.

Everything here is immutable after construction so that solver assembly and
diagnostics sweeps can read the same objects from several workers.  The one
exception is a grid's assembly plans, built on first use and then fixed.

scipy is imported inside the functions that use it, never at module level, so
`import pqvar` and the duality and certification paths load numpy alone; its
functions are looked up on the module objects at call time.
"""

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


class InvalidRegimeError(ValueError):
    """Exponent tuple violates the basic ordering 2 <= p <= q, or n/N/mu/L are out of range."""


class ShapeMismatchError(ValueError):
    """A gradient matrix or nodal array does not match the shape expected by its context."""


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


def _index_dtype(largest):
    """The index dtype scipy.sparse picks for indices up to `largest`: int32 when
    they fit."""
    return np.int32 if largest <= np.iinfo(np.int32).max else np.int64


class AssemblyPlan:
    """Fixed sparse operators of a Grid for N-component fields.

    Nodal arrays (n_nodes, N) are flattened node-major, component-minor.  The
    PL-gradient operator maps them to per-simplex gradients (n_simplices, N, dim):
    the gradient of the interpolant is sum_a u_a (x) hatgrad_a on every simplex.
    Its transpose assembles weak forms.  The interior matrices are stored by
    their diagonals (scipy's DIA format): with node-major interior dofs on the
    fixed Kuhn lattice they all have the same few diagonals, the plan's stencil.
    The stencil and the operator summing element blocks into it are built at
    the first matrix assembly, so fields that are only differentiated never pay
    for them.

    Logical shapes are as stated, but the batches are entry-major in memory, as
    in `integrands`: the gradients come out with the simplex axis last in memory,
    so each entry (i, k) is one contiguous vector over the simplices.  The
    assemblies read a flux or a hessian through views in that order, and accept
    any other layout at the cost of one copy.
    """

    def __init__(self, grid: Grid, N: int):
        import scipy.sparse as sp

        self.grid = grid
        self.N = N
        S, d = grid.n_simplices, grid.dim
        verts = grid.simplex_vertices
        comp = np.arange(N)
        G = np.repeat(grid.hat_grads, grid.n_cells, axis=0)  # (S, dim+1, dim)
        # entry (s, i, a, k): d(grad u)[s, i, k] / du[verts[s, a], i] = G[s, a, k],
        # on row (i, k, s) of the operator: the entry-major order of the gradients
        rows = (comp[None, :, None, None] * d + np.arange(d)[None, None, None, :]) * S \
            + np.arange(S)[:, None, None, None]
        cols = verts[:, None, :, None] * N + comp[None, :, None, None]
        rows, cols = np.broadcast_arrays(rows, cols)
        vals = np.broadcast_to(G[:, None, :, :], rows.shape)
        shape = (S * N * d, grid.n_nodes * N)
        self.grad_op = sp.csr_matrix((vals.ravel(), (rows.ravel(), cols.ravel())), shape=shape)
        self.grad_op.eliminate_zeros()  # the hat gradients of a Kuhn simplex are sparse
        int_nodes = np.flatnonzero(grid.interior_mask)
        self.interior_dofs = (int_nodes[:, None] * N + comp[None, :]).reshape(-1)

    def gradients(self, values) -> np.ndarray:
        """Exact per-simplex gradients (n_simplices, N, dim) of the PL interpolant,
        entry-major: a view of the operator's (N, dim, n_simplices) output."""
        g = self.grid
        flat = np.asarray(values, dtype=float).reshape(-1)
        return (self.grad_op @ flat).reshape(self.N, g.dim, g.n_simplices).transpose(2, 0, 1)

    def assemble_vector(self, flux) -> np.ndarray:
        """Nodal weak form (n_nodes, N): row (v, i) is sum_T vol(T) <flux_T[i], hatgrad_v>.
        The flux is read in the operator's row order, entry-major; the transpose
        is a CSC view of the operator, not a stored copy."""
        g = self.grid
        flat = np.asarray(flux, dtype=float).transpose(1, 2, 0).reshape(-1)
        return (self.grad_op.T @ (g.simplex_volume * flat)).reshape(g.n_nodes, self.N)

    @cached_property
    def _interior_pattern(self):
        """(gather, offsets, GG): the fixed stencil of the interior matrices, the
        0/1 sparse operator that sums the element-block entries of assemble_matrix
        into their DIA data, and the per-type tensors vol * hatgrad_a,k hatgrad_b,l
        as (types, (dim+1)^2, dim*dim) matrices.

        With node-major interior dofs the offset col - row of an element-block
        entry depends on its block (i, j, type, a, b) alone: the interior-lattice
        offset of Kuhn vertex b from vertex a, times N, plus j - i.  `offsets`
        holds, sorted and int32 when they fit, the offsets of the blocks that keep
        an entry once the entries touching a boundary dof are dropped.  An entry
        (row, col) on offsets[k] goes to slot k * n + col of the flat (n_offsets, n)
        data array, scipy's data[k, col] = K[col - offsets[k], col].  The gather
        lists each slot's entries in block order, so its product adds them in
        that order, from zero; a dropped entry is in no slot."""
        import scipy.sparse as sp

        g, N = self.grid, self.N
        d1, m = g.dim + 1, g.cells_per_side
        n = len(self.interior_dofs)
        # (types, dim+1, cells): the interior node of the vertices of simplex
        # t * n_cells + c, -1 on the boundary
        node = np.full(g.n_nodes, -1)
        node[g.interior_mask] = np.arange(n // N)
        node = node[g.simplex_vertices.reshape(g.n_types, g.n_cells, d1).transpose(0, 2, 1)]
        inner = node >= 0
        keep = inner[:, :, None, :] & inner[:, None, :, :]  # (type, a, b, cell)
        # (types, dim+1): the index offset of each Kuhn vertex in the interior
        # lattice, and the offset col - row of every block (i, j, type, a, b)
        vertex = _kuhn_offsets(g.dim).astype(int) @ (m - 1) ** np.arange(g.dim - 1, -1, -1)
        comp = np.arange(N)
        block_offsets = N * (vertex[:, None, :] - vertex[:, :, None]) \
            + (comp[None, :] - comp[:, None])[:, :, None, None, None]
        offsets = np.unique(block_offsets[:, :, keep.any(axis=-1)]).astype(_index_dtype(n))
        diagonal = np.searchsorted(offsets, block_offsets)
        n_slots, n_entries = len(offsets) * n, N * N * keep.size
        entry_index = _index_dtype(max(n_slots, n_entries))

        def block_entries():
            """(entries, slots) of every block, in the entry order (i, j, type, a,
            b, cell) of assemble_matrix; a block's slots are distinct."""
            for block, (i, j, t, a, b) in enumerate(np.ndindex(N, N, g.n_types, d1, d1)):
                cells = np.flatnonzero(keep[t, a, b])
                yield (block * g.n_cells + cells,
                       diagonal[i, j, t, a, b] * n + node[t, b, cells] * N + j)

        # a counting sort, block after block, lists every slot's entries in block order
        gather_ptr = np.zeros(n_slots + 1, dtype=entry_index)
        for _, slots in block_entries():
            gather_ptr[1:][slots] += 1
        np.cumsum(gather_ptr, out=gather_ptr)
        entries = np.empty(gather_ptr[-1], dtype=entry_index)
        cursor = gather_ptr[:-1].copy()
        for ids, slots in block_entries():
            entries[cursor[slots]] = ids
            cursor[slots] += 1
        gather = sp.csr_matrix((np.ones(len(entries)), entries, gather_ptr),
                               shape=(n_slots, n_entries))
        GG = g.simplex_volume * np.einsum("tak,tbl->tabkl", g.hat_grads, g.hat_grads)
        GG = GG.reshape(g.n_types, d1 * d1, g.dim * g.dim)
        return gather, offsets, GG

    def assemble_matrix(self, H) -> "scipy.sparse.dia_matrix":
        """Interior-interior matrix sum_T vol(T) H_T[i,k,j,l] hatgrad_a,k hatgrad_b,l
        from per-simplex forms H (n_simplices, N, dim, N, dim); rows and columns
        follow `interior_dofs`.  It is stored by its diagonals, on the plan's fixed
        stencil: every matrix shares the plan's offsets array.  Each type's block
        matrix GG[t] multiplies, from the left, the (dim*dim, n_cells) entry
        vectors of H for every component pair (i, j): for an entry-major H these
        are strided views, with no copy, and the blocks come out C-ordered."""
        import scipy.sparse as sp

        g, N, d = self.grid, self.N, self.grid.dim
        gather, offsets, GG = self._interior_pattern
        Hij = np.asarray(H, dtype=float).transpose(1, 3, 2, 4, 0)  # (i, j, k, l, simplex)
        Hij = Hij.reshape(N, N, d * d, g.n_types, g.n_cells).transpose(0, 1, 3, 2, 4)
        blocks = np.matmul(GG, Hij)  # (i, j, type, a * b, cell)
        n = len(self.interior_dofs)
        data = (gather @ blocks.reshape(-1)).reshape(len(offsets), n)
        return sp.dia_matrix((data, offsets), shape=(n, n))

    def upper_band(self, K: "scipy.sparse.dia_matrix") -> np.ndarray:
        """The upper triangle of a symmetric interior matrix assembled by this plan,
        in Fortran-ordered LAPACK upper-band storage (u + 1, n), u the largest
        offset: the diagonal on offset k >= 0 is band row u - k, column for column.
        With node-major interior dofs u is small in 2d: m*N + N - 1 on m cells."""
        offsets = K.offsets
        upper = np.flatnonzero(offsets >= 0)
        u = int(offsets[-1])
        band = np.zeros((u + 1, K.shape[0]), order="F")
        band[u - offsets[upper]] = K.data[upper]
        return band


def nodal_array(grid: Grid, values) -> np.ndarray:
    """Nodal values as a float (n_nodes, N) array, not copied when they already
    are one; a 1-d input becomes one column.  Raises ShapeMismatchError unless
    there is one row per grid node."""
    out = np.asarray(values, dtype=float)
    if out.ndim == 1:
        out = out[:, None]
    if out.shape[0] != grid.n_nodes:
        raise ShapeMismatchError(
            f"nodal array has {out.shape[0]} rows, grid has {grid.n_nodes} nodes")
    return out


class DiscreteField:
    """Piecewise-linear vector field on a Grid; per-simplex gradients cached at construction."""

    def __init__(self, grid: Grid, nodal_values: np.ndarray):
        self.grid = grid
        self.values = nodal_array(grid, nodal_values).copy()
        self.N = self.values.shape[1]
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
    linear_iterations: int = 0  # PCG iterations over the solve, a failed PCG's not counted
    factorizations: int = 0  # banded Cholesky factorizations over the solve; 0 in 3d


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

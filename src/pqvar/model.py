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
        if not (1.0 < self.L < math.inf):
            raise InvalidRegimeError(f"structural constant L must satisfy 1 < L < inf, got {self.L}")

    @property
    def q_conj(self):
        """Conjugate exponent q' = q/(q-1)."""
        return self.q / (self.q - 1.0)

    def with_exponents(self, q):
        """The regime with the upper exponent q in place of its own."""
        return Regime(self.n, self.N, self.p, q, self.mu, self.L)


@dataclass(frozen=True)
class Admissibility:
    admissible: bool
    threshold: float  # math.inf in low dimension


def validate_regime(r: Regime) -> Admissibility:
    """Gap condition on (n, p, q): q below p(n-1)/(n-3) for n >= 4, unbounded for n in {2, 3}."""
    if r.n >= 4:
        threshold = r.p * (r.n - 1) / (r.n - 3)
        return Admissibility(r.q < threshold, threshold)
    return Admissibility(True, math.inf)


# --------------------------------------------------------------------------- regions


@dataclass(frozen=True)
class Region:
    """Ball or cube used for region-restricted averages; radius is the half-side for cubes."""

    center: tuple
    radius: float
    kind: str = "ball"

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        if not all(math.isfinite(c) for c in self.center):
            raise RegionError(f"region center must be finite, got {self.center}")
        if not (0.0 < self.radius < math.inf):
            raise RegionError(f"region radius must be positive and finite, got {self.radius}")
        if self.kind not in ("ball", "cube"):
            raise RegionError(f"region kind must be 'ball' or 'cube', got {self.kind!r}")

    def scaled(self, factor: float) -> "Region":
        """Concentric region with radius scaled by `factor` (e.g. B/2 = B.scaled(0.5))."""
        return Region(self.center, self.radius * factor, self.kind)

    def gauge(self, points: np.ndarray) -> np.ndarray:
        """The offset of points of shape (..., dim) from the center, measured in the
        region's norm: its squared Euclidean length for a ball, its sup norm for a
        cube.  The columns are combined one at a time in axis order, each a vector
        op over the points; for dim < 8 that is numpy's own order, so a ball's
        gauge is bit-identical to ((points - center) ** 2).sum(axis=-1), which
        would run an inner loop of length dim per point."""
        points = np.asarray(points, dtype=float)
        if points.shape[-1:] != (len(self.center),):
            raise ShapeMismatchError(
                f"points of shape {points.shape} do not match a center in {len(self.center)}d")
        cols = [points[..., k] - c for k, c in enumerate(self.center)]
        if self.kind == "ball":
            out = cols[0] * cols[0]
            for x in cols[1:]:
                out += x * x
            return out
        out = np.abs(cols[0])
        for x in cols[1:]:
            out = np.maximum(out, np.abs(x))
        return out

    @property
    def bound(self) -> float:
        """The gauge below which a point lies inside: radius² for a ball, radius for a cube."""
        return self.radius ** 2 if self.kind == "ball" else self.radius

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask for points of shape (..., dim)."""
        return self.gauge(points) < self.bound

    def inside_unit_box(self) -> bool:
        c = np.asarray(self.center)
        return bool(np.all(c - self.radius >= 0.0) and np.all(c + self.radius <= 1.0))


# --------------------------------------------------------------------------- grids

def _kuhn_offsets(dim):
    """Vertex offsets of the Kuhn simplices of the unit cell, one (dim+1, dim) block per type.

    Each permutation pi orders the coordinate increments: v0 = 0, v_k = v_{k-1} + e_{pi(k)}.
    """
    steps = np.eye(dim, dtype=int)[list(itertools.permutations(range(dim)))]  # rows e_pi(k)
    return np.concatenate([np.zeros_like(steps[:, :1]), np.cumsum(steps, axis=1)], axis=1)


def _kuhn_hat_gradients(offsets, cells_per_side):
    """Exact hat-function gradients (types, dim+1, dim) of the Kuhn simplices with
    the given unit-cell vertex offsets, on cells of side h = 1/cells_per_side.

    With v_k = v_{k-1} + h e_pi(k), the barycentric coordinates in y = x/h are
    lambda_k = y_pi(k) - y_pi(k+1), where y_pi(0) = 1 and y_pi(d+1) = 0, so
    grad lambda_k = (e_pi(k) - e_pi(k+1)) / h with e_pi(0) = e_pi(d+1) = 0.  Every
    entry is 0 or +-cells_per_side exactly: a PL gradient entry is m times a
    difference of two nodal values, and a constant field has gradient exactly 0.
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

        # the node and cell lattices, as (points, dim) arrays in C order
        nodes = np.indices((m + 1,) * dim).reshape(dim, -1).T.copy()
        cells = np.indices((m,) * dim).reshape(dim, -1).T.copy()
        self.node_coords = nodes * self.h  # (n_nodes, dim)
        self.boundary_mask = np.any((nodes == 0) | (nodes == m), axis=1)
        self.interior_mask = ~self.boundary_mask

        kuhn = _kuhn_offsets(dim)  # a type-t simplex of cell c has vertex a at c + kuhn[t, a]
        self.hat_grads = _kuhn_hat_gradients(kuhn, float(m))  # (types, dim+1, dim)
        self.simplex_volume = self.h ** dim / math.factorial(dim)

        # the flat index of each cell's corner plus the flat offset of each Kuhn
        # vertex, type-major as the simplices are numbered
        strides = (m + 1) ** np.arange(dim - 1, -1, -1)  # of the flat node lattice
        self.simplex_vertices = ((cells @ strides)[None, :, None] + (kuhn @ strides)[:, None, :]
                                 ).reshape(self.n_simplices, dim + 1)
        # barycenter coordinate i of type t: the vertex coordinates (c_i + kuhn[t, a, i]) * h
        # summed in vertex order a, over d+1; a line in c_i broadcast over the cell lattice
        coord = np.arange(m + 1) * self.h  # node coordinates along an axis
        bary = np.empty((self.n_types,) + (m,) * dim + (dim,))
        for t, i in np.ndindex(self.n_types, dim):
            line = sum(coord[o:o + m] for o in kuhn[t, :, i]) / (dim + 1)
            bary[t, ..., i] = line.reshape((-1,) + (1,) * (dim - 1 - i))
        self.barycenters = bary.reshape(self.n_simplices, dim)
        self.cell_centers = (cells + 0.5) * self.h  # (n_cells, dim)
        # vertex-lumped nodal mass: each simplex puts a (dim+1)-th of its volume on each vertex
        self.lumped_mass = np.zeros(self.n_nodes)
        np.add.at(self.lumped_mass, self.simplex_vertices.ravel(), self.simplex_volume / (dim + 1))

        for arr in (self.node_coords, self.simplex_vertices, self.barycenters, self.cell_centers,
                    self.lumped_mass):
            arr.setflags(write=False)
        self._plans = {}

    def assembly_plan(self, N: int) -> "AssemblyPlan":
        """The assembly plan for N-component fields on this grid, built at first use."""
        plan = self._plans.get(N)
        if plan is None:
            plan = self._plans[N] = AssemblyPlan(self, N)
        return plan

    def per_cell(self, simplex_values: np.ndarray) -> np.ndarray:
        """Average a per-simplex quantity over the simplices of each cell; leading axis reshaped
        to the (m, m[, m]) cell lattice."""
        m = self.cells_per_side
        byc = simplex_values.reshape((self.n_types, self.n_cells) + simplex_values.shape[1:])
        return byc.mean(axis=0).reshape((m,) * self.dim + simplex_values.shape[1:])


def _signed_sum(array, terms, out):
    """Write the sum of sign * array[entry] over the (sign, entry) terms, two or
    more, into `out`, divided by the sign s of the first term; return s."""
    (s, first), (sign, second), *rest = terms
    (np.add if sign == s else np.subtract)(array[first], array[second], out=out)
    for sign, entry in rest:
        (np.add if sign == s else np.subtract)(out, array[entry], out=out)
    return s


class AssemblyPlan:
    """The assembly operators of a Grid for N-component fields, on its node lattice.

    Every Kuhn hat gradient is 0 or +-m times a unit vector, so each operator is
    a few signed sums and shifts of lattice arrays, tabled from `_kuhn_offsets`:
    the sums run on whole flat arrays, and a shift is an offset into a flat array
    or a copy between lattice views.  Nodal arrays (n_nodes, N) and the interior
    dofs are node-major, so every interior matrix has the same few diagonals,
    the plan's `offsets`, and is stored by them (scipy's DIA format).

    Logical shapes are as stated, but the batches are entry-major in memory, as
    in `integrands`: the gradients come out with the simplex axis last in memory,
    so each entry (i, k) is one contiguous vector over the simplices.  The
    assemblies read a flux or a hessian through views in that order, and accept
    any other layout at the cost of one copy.
    """

    def __init__(self, grid: Grid, N: int):
        self.grid, self.N = grid, N
        d, m = grid.dim, grid.cells_per_side
        int_nodes = np.flatnonzero(grid.interior_mask)
        self.interior_dofs = (int_nodes[:, None] * N + np.arange(N)).reshape(-1)
        kuhn = _kuhn_offsets(d)  # a type-t simplex of cell c has vertex a at c + kuhn[t, a]
        hat = _kuhn_hat_gradients(kuhn, 1)  # 0 or +-1
        nz = [[np.flatnonzero(row) for row in rows] for rows in hat]  # axes where hat[t, a] != 0
        every = (slice(None),)
        self._strides = (m + 1) ** np.arange(d - 1, -1, -1)  # of the flat node lattice
        # gradients: step j of type t runs along axis k from its vertex j-1
        self._steps = [(every + (int(np.argmax(v[j] - v[j - 1])), t),
                        every + tuple(slice(c, c + m) for c in v[j - 1]))
                       for t, v in enumerate(kuhn) for j in range(1, d + 1)]
        # weak forms: the flux entries [:, k, t] that reach each corner, by offset
        self._corners = {}
        for t, a in np.ndindex(hat.shape[:2]):
            self._corners.setdefault(int(self._strides @ kuhn[t, a]), []).extend(
                (hat[t, a, k], every + (k, t)) for k in nz[t][a])
        # matrices: the hessian entries [:, k, :, l, t] of each vertex pair a <= b
        # of a Kuhn chain.  Its entry (i, j) couples the interior nodes c + oa and
        # c + ob of the cells c where both are interior, on the upper diagonal
        # N * dv + j - i, dv the interior-lattice offset of ob from oa, at the
        # column of c + ob; those columns leave out the first layer along each
        # axis the pair steps along.  The lower diagonals mirror the upper ones.
        pairs = {}
        for t, a, b in np.ndindex(hat.shape[0], d + 1, d + 1):
            if a <= b:
                pairs.setdefault((tuple(kuhn[t, a]), tuple(kuhn[t, b])), []).extend(
                    (hat[t, a, k] * hat[t, b, l], every + (k,) + every + (l, t))
                    for k in nz[t][a] for l in nz[t][b])
        kept = []  # terms, cells, their columns, the layers outside those, targets
        for (oa, ob), terms in pairs.items():
            step = np.subtract(ob, oa)
            if np.any(step >= m - 1):
                continue  # on a 2-cell grid only a == b has interior cells
            dv = int(step @ (m - 1) ** np.arange(d - 1, -1, -1))
            cells = every * 2 + tuple(slice(1 - x, m - y) for x, y in zip(oa, ob))
            kept.append((terms, cells, every * 2 + tuple(slice(s, m - 1) for s in step),
                         [every * (2 + ax) + (0,) for ax in np.flatnonzero(step)],
                         [(N * dv + j - i, i, j) for i, j in np.ndindex(N, N) if dv > 0 or j >= i]))
        upper = sorted({o for *_, targets in kept for o, _, _ in targets})
        self.offsets = np.array([-o for o in upper[:0:-1]] + upper, dtype=np.int32)
        self._pairs = [(*pair, [((upper.index(o), slice(None), j), (i, j)) for o, i, j in targets])
                       for *pair, targets in kept]

    def gradients(self, values) -> np.ndarray:
        """Exact per-simplex gradients (n_simplices, N, dim) of the PL interpolant,
        entry-major.  The nodal lattice, scaled by m once, is differenced along
        each axis by a flat shift; the gradient along the axis of step j of a
        Kuhn chain is that difference at vertex j-1, copied from its window."""
        g, N, m = self.grid, self.N, self.grid.cells_per_side
        u = np.empty((N, g.n_nodes))
        u = np.multiply(np.asarray(values, dtype=float).reshape(g.n_nodes, N).T, m, out=u).ravel()
        diff = np.empty((g.dim, N) + (m + 1,) * g.dim)  # the last stride entries unused
        with np.errstate(invalid="ignore"):  # infinite values have NaN gradients, quietly
            for k, stride in enumerate(self._strides):
                np.subtract(u[stride:], u[:-stride], out=diff[k].reshape(-1)[:-stride])
        out = np.empty((N, g.dim, g.n_types) + (m,) * g.dim)
        for entry, tail in self._steps:
            out[entry] = diff[entry[1]][tail]
        return out.reshape(N, g.dim, g.n_simplices).transpose(2, 0, 1)

    def assemble_vector(self, flux) -> np.ndarray:
        """Nodal weak form (n_nodes, N): row (v, i) is sum_T vol(T) <flux_T[i], hatgrad_v>.
        For each corner of the unit cell the signed sum of the flux entry vectors
        that reach it is placed on the cells of the lattice and added at the
        corner's flat offset; the sum is scaled once by vol * m."""
        g, N, m = self.grid, self.N, self.grid.cells_per_side
        f = np.asarray(flux, dtype=float).transpose(1, 2, 0)
        f = f.reshape((N, g.dim, g.n_types) + (m,) * g.dim)
        acc = np.zeros((N, g.n_nodes))
        buf = np.empty((N,) + (m,) * g.dim)
        placed = np.zeros((N,) + (m + 1,) * g.dim)  # buf on the cells, zero elsewhere
        cells = placed[(slice(None),) + (slice(m),) * g.dim]
        flat, moved = acc.reshape(-1), placed.reshape(-1)
        for shift, terms in self._corners.items():
            s = _signed_sum(f, terms, buf)
            cells[...] = buf
            target = flat[shift:]
            (np.add if s > 0 else np.subtract)(target, moved[:len(moved) - shift], out=target)
        out = np.empty((g.n_nodes, N))
        np.multiply(acc.T, g.simplex_volume * m, out=out)
        return out

    def assemble_matrix(self, H) -> "scipy.sparse.dia_matrix":
        """Interior-interior matrix sum_T vol(T) H_T[i,k,j,l] hatgrad_a,k hatgrad_b,l
        from symmetric per-simplex forms H (n_simplices, N, dim, N, dim); rows and
        columns follow `interior_dofs`.  It is stored by its diagonals, on the
        plan's fixed stencil: every matrix shares the plan's offsets array.  For
        each Kuhn vertex pair the signed sum of the entry vectors of H that it
        couples is moved to the columns of its second vertex and added, per
        component pair, onto an upper diagonal.  These are scaled once by vol *
        m^2, and each lower diagonal is copied from its mirror: K is symmetric."""
        import scipy.sparse as sp

        g, N, m, d = self.grid, self.N, self.grid.cells_per_side, self.grid.dim
        h = np.asarray(H, dtype=float).transpose(1, 2, 3, 4, 0)
        h = h.reshape((N, d, N, d, g.n_types) + (m,) * d)
        n, n_upper = len(self.interior_dofs), (len(self.offsets) + 1) // 2
        data = np.empty((len(self.offsets), n))
        data[n_upper - 1:] = 0.0
        lanes = data[n_upper - 1:].reshape(n_upper, -1, N)  # component j of every interior node
        buf = np.empty((N, N) + (m,) * d)
        moved = np.zeros((N, N) + (m - 1,) * d)  # buf on the columns, zero elsewhere
        blocks = moved.reshape(N, N, -1)
        for terms, cells, cols, layers, targets in self._pairs:
            add = np.add if _signed_sum(h, terms, buf) > 0 else np.subtract
            for layer in layers:
                moved[layer] = 0.0
            moved[cols] = buf[cells]
            for diagonal, block in targets:
                add(lanes[diagonal], blocks[block], out=lanes[diagonal])
        data[n_upper - 1:] *= g.simplex_volume * m * m
        # the lower diagonal -o is the upper diagonal o moved left by o columns,
        # and zero in its last o columns, which lie past the matrix
        data[:n_upper - 1, n - self.offsets[-1]:] = 0.0
        for q, o in enumerate(self.offsets[n_upper:].tolist(), start=1):
            data[n_upper - 1 - q, :n - o] = data[n_upper - 1 + q, o:]
        return sp.dia_matrix((data, self.offsets), shape=(n, n))

    def lower_band(self, K: "scipy.sparse.dia_matrix") -> np.ndarray:
        """The lower triangle of a symmetric interior matrix assembled by this plan,
        in Fortran-ordered LAPACK lower-band storage (l + 1, n), l the largest
        offset: the diagonal on offset -k <= 0 is band row k, column for column,
        and the rows of the offsets missing from the stencil are zero.  With
        node-major interior dofs l is small in 2d: m*N + N - 1 on m cells."""
        offsets = K.offsets
        lower = np.flatnonzero(offsets <= 0)
        band = np.zeros((1 - int(offsets[0]), K.shape[0]), order="F")
        band[-offsets[lower]] = K.data[lower]
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


# --------------------------------------------------------------------------- reports


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

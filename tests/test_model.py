import gc
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqvar import registry
from pqvar.model import (DiscreteField, Grid, InvalidRegimeError, Region, RegionError,
                         Regime, ShapeMismatchError, _kuhn_offsets, validate_regime)
from pqvar.solver import RegularizedIntegrand

from test_integrands import PublicOnly


class TestRegimeGates:
    def test_n4_threshold(self):
        adm = validate_regime(Regime(4, 1, 2.0, 5.0, 0.0, 2.0))
        assert adm.admissible and adm.threshold == 6.0

    def test_n4_strict_inequality(self):
        adm = validate_regime(Regime(4, 1, 2.0, 6.0, 0.0, 2.0))
        assert not adm.admissible

    def test_low_dimension_unbounded(self):
        adm = validate_regime(Regime(3, 1, 2.0, 100.0, 0.0, 2.0))
        assert adm.admissible and adm.threshold == math.inf

    def test_invalid_ordering_is_distinct_error(self):
        with pytest.raises(InvalidRegimeError):
            Regime(2, 1, 3.0, 2.0, 0.0, 2.0)
        with pytest.raises(InvalidRegimeError):
            Regime(2, 1, 1.5, 3.0, 0.0, 2.0)

    @pytest.mark.parametrize("L", [math.inf, math.nan, 1.0])
    def test_structural_constant_must_be_finite_above_one(self, L):
        with pytest.raises(InvalidRegimeError, match="1 < L < inf"):
            Regime(2, 1, 2.0, 4.0, 0.0, L)

    @given(p=st.floats(2.0, 10.0))
    def test_threshold_closed_forms(self, p):
        assert validate_regime(Regime(4, 1, p, p, 0.0, 2.0)).threshold == pytest.approx(3 * p)
        assert validate_regime(Regime(5, 1, p, p, 0.0, 2.0)).threshold == pytest.approx(2 * p)

    @given(n=st.integers(2, 8), p=st.floats(2.0, 10.0),
           q1=st.floats(0.0, 1.0), q2=st.floats(0.0, 1.0))
    @settings(max_examples=200)
    def test_monotone_in_q(self, n, p, q1, q2):
        # if (n, p, q) is admissible, so is every q' <= q
        hi = p + 20.0 * max(q1, q2)
        lo = p + 20.0 * min(q1, q2)
        r_hi = Regime(n, 1, p, hi, 0.0, 2.0)
        r_lo = Regime(n, 1, p, lo, 0.0, 2.0)
        if validate_regime(r_hi).admissible:
            assert validate_regime(r_lo).admissible


class TestGrid:
    @pytest.mark.parametrize("dim,cells", [(2, 2), (2, 7), (3, 2), (3, 4)])
    def test_volumes_tile_the_box(self, dim, cells):
        g = Grid(dim, cells)
        assert g.simplex_volume > 0
        assert abs(g.simplex_volume * g.n_simplices - 1.0) < 1e-12

    def test_simplex_count(self):
        assert Grid(2, 4).n_simplices == 4 * 4 * 2
        assert Grid(3, 3).n_simplices == 27 * 6

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            Grid(4, 4)
        with pytest.raises(ValueError):
            Grid(2, 1)

    def test_vertex_consistency(self):
        g = Grid(3, 2)
        # every simplex has dim+1 distinct vertices forming a nondegenerate cell
        for s in range(g.n_simplices):
            verts = g.node_coords[g.simplex_vertices[s]]
            edges = verts[1:] - verts[0]
            assert abs(abs(np.linalg.det(edges)) / math.factorial(3) - g.simplex_volume) < 1e-15

    @pytest.mark.parametrize("dim,cells", [(2, 2), (2, 7), (3, 2), (3, 5)])
    def test_tables_match_an_unstructured_construction(self, dim, cells):
        # the simplex vertices ravelled type by type from the cell lattice, and the
        # barycenters as means of gathered vertex coordinates, to the bit
        g = Grid(dim, cells)
        shape = (cells + 1,) * dim
        cell_idx = np.stack([c.ravel() for c in np.meshgrid(*[np.arange(cells)] * dim,
                                                            indexing="ij")], axis=-1)
        kuhn = _kuhn_offsets(dim)
        verts = np.concatenate([np.stack([np.ravel_multi_index((cell_idx + o).T, shape)
                                          for o in offsets], axis=-1) for offsets in kuhn])
        assert np.array_equal(g.simplex_vertices, verts)
        assert np.array_equal(g.barycenters, g.node_coords[g.simplex_vertices].mean(axis=1))
        assert np.array_equal(g.cell_centers, (cell_idx + 0.5) * g.h)

    def test_build_peak_stays_near_the_tables(self):
        # 32^3 cells keep 13 MB of tables; the build makes no (simplices, dim+1, dim)
        # gather or per-type index arrays on the way
        gc.collect()
        tracemalloc.start()
        try:
            Grid(3, 32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 << 20

    def test_kuhn_hat_gradients_are_exact(self):
        # every hat gradient is a difference of two axis vectors over h, so no
        # round-off may stand where a zero or +-1/h belongs, and the gradient
        # along the axis of each Kuhn step is m u[v_b] - m u[v_a] to the bit
        g = Grid(3, 20)
        m = g.cells_per_side
        assert set(np.unique(np.abs(g.hat_grads)).tolist()) == {0.0, 20.0}
        u = np.random.default_rng(3).normal(size=(g.n_nodes, 2))
        z = g.assembly_plan(2).gradients(u)
        simplices = np.arange(g.n_simplices)
        for step in range(1, g.dim + 1):
            va, vb = g.simplex_vertices[:, step - 1], g.simplex_vertices[:, step]
            axis = np.argmax(g.node_coords[vb] - g.node_coords[va], axis=1)
            assert np.array_equal(z[simplices, :, axis], m * u[vb] - m * u[va])
        const = np.full((g.n_nodes, 2), 0.3)
        assert np.all(g.assembly_plan(2).gradients(const) == 0.0)


class TestAssemblyLayout:
    # per-simplex gradients and the kernels' outputs are entry-major; the
    # assemblies read that layout through views and accept any other by a copy
    CASES = [(2, 6, 2, "aniso2d_q4_vec"), (3, 4, 1, "aniso3d_q4")]

    @staticmethod
    def case(dim, cells, N, name):
        grid = Grid(dim, cells)
        plan = grid.assembly_plan(N)
        F = RegularizedIntegrand(registry.get(name).integrand, 0.01, 4.0)
        u = np.random.default_rng(20).normal(size=(grid.n_nodes, N))
        return grid, plan, F, plan.gradients(u)

    @pytest.mark.parametrize("dim, cells, N, name", CASES)
    def test_gradient_entries_are_contiguous(self, dim, cells, N, name):
        grid, _, _, z = self.case(dim, cells, N, name)
        assert z.shape == (grid.n_simplices, N, dim)
        assert all(z[:, i, k].flags.c_contiguous for i in range(N) for k in range(dim))

    @pytest.mark.parametrize("dim, cells, N, name", CASES)
    def test_matrix_from_any_hessian_layout(self, dim, cells, N, name):
        _, plan, F, z = self.case(dim, cells, N, name)
        H = F.hessian(z)
        K = plan.assemble_matrix(H)
        K_c = plan.assemble_matrix(np.ascontiguousarray(H))
        assert np.array_equal(K.offsets, K_c.offsets)
        assert np.abs(K_c.data - K.data).max() <= 1e-13 * np.abs(K.data).max()
        # a form that is not an _Accumulating term: PublicOnly's 1.5 |z|^2, whose
        # hessian is a read-only broadcast, against its C-ordered copy
        H_p = PublicOnly().hessian(z)
        K_p = plan.assemble_matrix(H_p)
        K_3 = plan.assemble_matrix(np.ascontiguousarray(H_p))
        assert np.abs((K_p - K_3).toarray()).max() <= 1e-13 * np.abs(K_3.data).max()

    @pytest.mark.parametrize("dim, cells, N, name", CASES)
    def test_vector_from_any_flux_layout(self, dim, cells, N, name):
        _, plan, F, z = self.case(dim, cells, N, name)
        g = F.gradient(z)
        assert np.array_equal(plan.assemble_vector(np.ascontiguousarray(g)),
                              plan.assemble_vector(g))

    def test_matrices_share_the_pattern_indices(self):
        # the stencil is stored in the index dtype scipy picks, so no assembly
        # converts and copies it
        _, plan, F, z = self.case(*self.CASES[0])
        K1, K2 = plan.assemble_matrix(F.hessian(z)), plan.assemble_matrix(F.hessian(2.0 * z))
        assert plan.offsets.dtype == np.int32
        assert np.shares_memory(K1.offsets, plan.offsets)
        assert np.shares_memory(K2.offsets, plan.offsets)

    def test_plan_holds_small_tables(self):
        # the plan keeps lattice tables and the interior dofs, no operator over
        # the simplices: on 32^3 cells it holds under 1 MB after a matrix assembly
        import scipy.sparse  # noqa: F401  (imported before tracing: the plan is measured)
        grid = Grid(3, 32)
        H = np.broadcast_to(2.0 * np.eye(3).reshape(1, 3, 1, 3), (grid.n_simplices, 1, 3, 1, 3))
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            plan = grid.assembly_plan(1)
            K = plan.assemble_matrix(H)
            assert K.shape == (31 ** 3, 31 ** 3)
            del K
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held <= 1 << 20

    @staticmethod
    def dense_assembly(grid, N, H):
        """The interior matrix summed element by element into a dense array, and
        the offsets col - row of the entries it received."""
        dofs = grid.assembly_plan(N).interior_dofs
        pos = np.full(grid.n_nodes * N, -1)
        pos[dofs] = np.arange(len(dofs))
        K = np.zeros((len(dofs), len(dofs)))
        offsets = set()
        for s, verts in enumerate(grid.simplex_vertices):
            G = grid.hat_grads[s // grid.n_cells]
            block = grid.simplex_volume * np.einsum("ikjl,ak,bl->aibj", H[s], G, G)
            for (a, va), (b, vb) in itertools.product(enumerate(verts), repeat=2):
                for i, j in itertools.product(range(N), repeat=2):
                    r, c = pos[va * N + i], pos[vb * N + j]
                    if r >= 0 and c >= 0:
                        K[r, c] += block[a, i, b, j]
                        offsets.add(int(c - r))
        return K, sorted(offsets)

    # a 2-cell grid has one interior node: only the offsets j - i receive entries
    DIA_CASES = CASES + [(2, 2, 2, "aniso2d_q4_vec")]

    @pytest.mark.parametrize("dim, cells, N, name", DIA_CASES)
    def test_diagonals_match_a_dense_assembly(self, dim, cells, N, name):
        grid, plan, F, z = self.case(dim, cells, N, name)
        H = F.hessian(z)
        K = plan.assemble_matrix(H)
        dense, _ = self.dense_assembly(grid, N, H)
        assert K.format == "dia"
        assert np.abs(K.toarray() - dense).max() <= 1e-13 * np.abs(dense).max()

    @pytest.mark.parametrize("dim, cells, N, name", DIA_CASES)
    def test_every_offset_receives_an_entry(self, dim, cells, N, name):
        grid, plan, F, z = self.case(dim, cells, N, name)
        H = F.hessian(z)
        _, received = self.dense_assembly(grid, N, H)
        assert plan.assemble_matrix(H).offsets.tolist() == received

    @pytest.mark.parametrize("dim, cells, N, name", DIA_CASES + [(2, 16, 2, "aniso2d_q4_vec")])
    def test_matrices_are_exactly_symmetric(self, dim, cells, N, name):
        _, plan, F, z = self.case(dim, cells, N, name)
        K = plan.assemble_matrix(F.hessian(z)).toarray()
        assert np.array_equal(K, K.T)

    @pytest.mark.parametrize("dim, cells, N, name", DIA_CASES)
    def test_matvec_matches_the_dense_product(self, dim, cells, N, name):
        _, plan, F, z = self.case(dim, cells, N, name)
        K = plan.assemble_matrix(F.hessian(z))
        assert K.format == "dia"
        p = np.random.default_rng(21).normal(size=K.shape[0])
        ref = K.toarray() @ p
        assert np.abs(K @ p - ref).max() <= 1e-13 * np.abs(K.toarray()).sum(axis=1).max()


class TestDiscreteField:
    def test_affine_gradient_exact(self):
        g = Grid(2, 5)
        a = np.array([[1.25, -0.5], [0.0, 2.0]])  # two components
        vals = g.node_coords @ a.T
        fld = DiscreteField(g, vals)
        assert np.abs(fld.gradients - a[None]).max() < 1e-13

    def test_gradient_reproduces_vertex_differences(self):
        g = Grid(3, 2)
        rng = np.random.default_rng(0)
        fld = DiscreteField(g, rng.normal(size=(g.n_nodes, 2)))
        for s in range(0, g.n_simplices, 7):
            verts = g.simplex_vertices[s]
            x = g.node_coords[verts]
            v = fld.values[verts]
            for a in range(1, 4):
                pred = fld.gradients[s] @ (x[a] - x[0])
                assert np.abs(pred - (v[a] - v[0])).max() < 1e-12

    def test_values_are_frozen(self):
        g = Grid(2, 3)
        fld = DiscreteField(g, np.zeros((g.n_nodes, 1)))
        with pytest.raises(ValueError):
            fld.values[0] = 1.0


class TestRegion:
    def test_scaled_and_contains(self):
        B = Region((0.5, 0.5), 0.4, "ball")
        half = B.scaled(0.5)
        assert half.radius == pytest.approx(0.2)
        pts = np.array([[0.5, 0.5], [0.65, 0.5], [0.95, 0.5]])
        assert list(B.contains(pts)) == [True, True, False]
        assert list(half.contains(pts)) == [True, True, False][:2] + [False]

    def test_cube_uses_half_side(self):
        Q = Region((0.5, 0.5), 0.25, "cube")
        assert bool(Q.contains(np.array([0.7, 0.7])))
        assert not bool(Q.contains(np.array([0.8, 0.5])))

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("kind", ["ball", "cube"])
    def test_gauge_is_the_axis_reduction_bit_for_bit(self, dim, kind):
        # the columns are combined one at a time, in the order numpy's reduction
        # over the last axis adds them
        grid = Grid(dim, 10)
        rng = np.random.default_rng(23)
        pts = np.concatenate([grid.barycenters, rng.uniform(-0.5, 1.5, size=(500, dim))])
        for center, radius in [((0.5,) * dim, 0.3), (tuple(rng.uniform(0, 1, dim)), 0.1234)]:
            R = Region(center, radius, kind)
            d = pts - np.asarray(center)
            want = (d ** 2).sum(axis=-1) if kind == "ball" else np.abs(d).max(axis=-1)
            assert np.array_equal(R.gauge(pts), want)
            bound = radius ** 2 if kind == "ball" else radius
            assert np.array_equal(R.contains(pts), want < bound)
            assert R.contains(pts[3]) == (want[3] < bound)

    def test_gauge_rejects_points_of_another_dimension(self):
        with pytest.raises(ShapeMismatchError):
            Region((0.5, 0.5), 0.25).contains(np.zeros((4, 3)))

    def test_rejects_bad_region(self):
        with pytest.raises(RegionError):
            Region((0.5, 0.5), -1.0, "ball")
        with pytest.raises(RegionError):
            Region((0.5, 0.5), 0.1, "disk")

    @pytest.mark.parametrize("center, radius", [((0.5, math.nan), 0.1), ((math.inf, 0.5), 0.1),
                                                ((0.5, 0.5), math.nan), ((0.5, 0.5), math.inf)])
    def test_rejects_non_finite_center_or_radius(self, center, radius):
        with pytest.raises(RegionError, match="finite"):
            Region(center, radius, "ball")

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqvar.model import (DiscreteField, Grid, InvalidRegimeError, Region, RegionError,
                         Regime, classical_gates, validate_regime)


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


class TestClassicalGates:
    def test_holder_clause(self):
        gates = classical_gates(Regime(3, 1, 2.0, 3.0, 0.0, 2.0))
        assert gates["holder"] and gates["holder_exponent"] == pytest.approx(0.5)

    def test_n4_p2_q3(self):
        gates = classical_gates(Regime(4, 1, 2.0, 3.0, 0.0, 2.0))
        # q < p + 2p/(n-1) = 2 + 4/3; q < p + 2p/n = 3 fails at equality
        assert gates["sphere_refined_gap"] is True
        assert gates["w1p_lipschitz_gap"] is False

    def test_n3_p2_q5(self):
        gates = classical_gates(Regime(3, 1, 2.0, 5.0, 0.0, 2.0))
        assert gates["w1q_gap"] is True  # 5 < 6

    def test_n2_unbounded_gates(self):
        gates = classical_gates(Regime(2, 1, 2.0, 50.0, 0.0, 2.0))
        assert gates["w1q_gap"] and gates["grad_lq_gap"]
        assert not gates["holder"]


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

    def test_kuhn_hat_gradients_are_exact(self):
        # every hat gradient is a difference of two axis vectors over h, so no
        # round-off may stand where a zero or +-1/h belongs
        g = Grid(3, 20)
        assert set(np.unique(np.abs(g.hat_grads)).tolist()) == {0.0, 20.0}
        assert np.all(np.diff(g.assembly_plan(1).grad_op.indptr) == 2)
        const = np.full((g.n_nodes, 2), 0.3)
        assert np.all(g.assembly_plan(2).gradients(const) == 0.0)


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

    def test_rejects_bad_region(self):
        with pytest.raises(RegionError):
            Region((0.5, 0.5), -1.0, "ball")
        with pytest.raises(RegionError):
            Region((0.5, 0.5), 0.1, "disk")

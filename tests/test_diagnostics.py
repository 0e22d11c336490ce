import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqvar import registry
from pqvar.diagnostics import (CaccioppoliResult, InadmissibleSobolevExponent,
                               MoserParams, ScalarOnlyError, caccioppoli_check,
                               default_sobolev_exponent, fit_exponent, hd_exponents,
                               higher_diff_measure, log_decay_profile, moser_a_alpha,
                               moser_alpha_sequence, moser_bound, reverse_holder_scan,
                               stress_integrability, sup_grad_measure, v_fields)
from pqvar.duality import monotonicity_ratios
from pqvar.growth import gehring_exponent
from pqvar.integrands import PowerNorm, ell_mu, frob2, v_map
from pqvar.model import DiscreteField, Grid, Region, RegionError, Regime
from pqvar.solver import Schedule, boundary_family, minimize_dirichlet, run_scheme

B = Region((0.5, 0.5), 0.45, "ball")


class TestExponentChain:
    def test_reference_point(self):
        r = Regime(4, 1, 2.0, 3.0, 0.0, 2.0)
        ch = hd_exponents(r, 6.0)
        assert ch.lam == pytest.approx(0.75)
        assert ch.beta0 == pytest.approx(0.0)
        assert ch.kappa1 == pytest.approx(14.0 / 3.0)
        assert ch.kappa2 == pytest.approx(2.0 / 3.0)
        assert ch.b == pytest.approx(5.0 / 3.0)

    @given(p=st.floats(2.0, 8.0), dq=st.floats(0.01, 6.0), ds=st.floats(0.01, 40.0),
           n=st.integers(2, 6))
    @settings(max_examples=200)
    def test_split_identity(self, p, dq, ds, n):
        q = p + dq
        s = 2.0 * q / p + ds
        ch = hd_exponents(Regime(n, 1, p, q, 0.0, 2.0), s)
        assert 0.0 < ch.lam <= 1.0
        assert 2 * ch.lam + (1 - ch.lam) * s == pytest.approx(2 * q / p, abs=1e-12)

    def test_rejects_small_sobolev_exponent(self):
        with pytest.raises(InadmissibleSobolevExponent):
            hd_exponents(Regime(4, 1, 2.0, 3.0, 0.0, 2.0), 3.0)

    def test_two_dimensional_asymptotics(self):
        # as s grows, b = kappa2 + 1 decreases to q/p from above
        r = Regime(2, 1, 2.0, 4.0, 0.0, 8.0)
        bs = [hd_exponents(r, s).b for s in (5.0, 10.0, 100.0, 10000.0)]
        assert all(b2 < b1 for b1, b2 in zip(bs, bs[1:]))
        assert bs[-1] == pytest.approx(r.q / r.p, abs=1e-2)
        assert all(b > r.q / r.p for b in bs)


class TestDualGridOracle:
    """The dual-grid |grad_h W|^2 of the PL gradients of u = prod sin(pi x_i),
    averaged over the unit box, converges to the integral of |D^2 u|^2, which is
    pi^4 d^2 / 2^d, at second order."""

    @pytest.mark.parametrize("dim, cells, finest_tol", [(2, (16, 32, 64), 2e-3),
                                                        (3, (6, 12, 24), 2e-2)])
    def test_second_order_convergence(self, dim, cells, finest_tol):
        from pqvar.diagnostics import _cell_gradient_sq

        exact = math.pi ** 4 * dim ** 2 / 2 ** dim
        errors = []
        for m in cells:
            grid = Grid(dim, m)
            fld = DiscreteField(grid, np.prod(np.sin(np.pi * grid.node_coords), axis=1))
            measured = float(_cell_gradient_sq(grid, fld.gradients).mean())
            errors.append(abs(measured - exact) / exact)
        orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
        assert all(order >= 1.8 for order in orders), (errors, orders)
        assert errors[-1] <= finest_tol, errors


class TestVFields:
    def test_affine_field_constant_v(self, scalar_entry):
        grid = Grid(2, 8)
        vals = 1.5 * grid.node_coords[:, 0:1]
        fld = DiscreteField(grid, vals)
        vp, vq = v_fields(fld, scalar_entry.integrand, scalar_entry.regime)
        assert np.abs(vp - vp[0]).max() < 1e-13
        assert np.abs(vq - vq[0]).max() < 1e-13

    def test_zero_field_nondegenerate(self):
        e = registry.get("nondeg_quad")
        grid = Grid(2, 8)
        fld = DiscreteField(grid, np.zeros((grid.n_nodes, 1)))
        vp, vq = v_fields(fld, e.integrand, e.regime)
        assert np.abs(vp).max() == 0.0
        assert np.abs(vq - vq[0]).max() == 0.0

    def test_vp_norm_identity(self, scalar_entry, solve_battery):
        # |V_{mu,p}(z)| = ell_mu(z)^((p-2)/2) |z| per simplex
        fld = solve_battery[("scalar", 32, 1.0)].field
        r = scalar_entry.regime
        vp, _ = v_fields(fld, scalar_entry.integrand, r)
        z = fld.gradients
        expect = ell_mu(r.mu, z) ** ((r.p - 2.0) / 2.0) * np.sqrt(frob2(z))
        assert np.abs(np.sqrt(frob2(vp)) - expect).max() < 1e-12


class TestHigherDiff:
    def test_affine_field_zero_lhs(self, scalar_entry):
        grid = Grid(2, 16)
        fld = DiscreteField(grid, 2.0 * grid.node_coords[:, 0:1])
        ch = hd_exponents(scalar_entry.regime,
                          default_sobolev_exponent(scalar_entry.regime))
        ent = higher_diff_measure(fld, scalar_entry.integrand, scalar_entry.regime, ch, B)
        assert ent.lhs == 0.0 and ent.rhs >= 1.0

    def test_refinement_stability(self, scalar_entry, solve_battery):
        ch = hd_exponents(scalar_entry.regime,
                          default_sobolev_exponent(scalar_entry.regime))
        ratios = {}
        for cells in (32, 64):
            fld = solve_battery[("scalar", cells, 1.0)].field
            ent = higher_diff_measure(fld, scalar_entry.integrand, scalar_entry.regime,
                                      ch, B)
            ratios[cells] = ent.ratio
        assert abs(ratios[64] - ratios[32]) / ratios[32] < 0.2

    def test_amplitude_sweep_bounded_with_fit(self, scalar_entry, solve_battery):
        ch = hd_exponents(scalar_entry.regime,
                          default_sobolev_exponent(scalar_entry.regime))
        bases, lhss = [], []
        for amp in (0.5, 1.0, 2.0, 4.0):
            fld = solve_battery[("scalar", 32, amp)].field
            ent = higher_diff_measure(fld, scalar_entry.integrand, scalar_entry.regime,
                                      ch, B)
            assert np.isfinite(ent.ratio)
            bases.append(ent.rhs ** (1.0 / ch.b))
            lhss.append(ent.lhs)
        fitted, resid = fit_exponent(bases, lhss)
        assert np.isfinite(fitted) and np.isfinite(resid)


class TestSupGrad:
    def test_affine_unit_gradient(self, scalar_entry):
        grid = Grid(2, 16)
        fld = DiscreteField(grid, grid.node_coords[:, 0:1])
        ent = sup_grad_measure(fld, scalar_entry.integrand, B, b=1.0)
        assert ent.lhs == pytest.approx(1.0)
        assert np.isfinite(ent.ratio)

    def test_fit_stability_on_doubled_amplitudes(self, scalar_entry, solve_battery):
        # refitting on the doubled amplitude set moves the exponent by < 10%
        def fit_for(amps):
            bases, lhss = [], []
            for amp in amps:
                fld = solve_battery[("scalar", 32, amp)].field
                ent = sup_grad_measure(fld, scalar_entry.integrand, B, b=1.0)
                bases.append(ent.rhs)
                lhss.append(ent.lhs)
            return fit_exponent(bases, lhss)[0]

        b1 = fit_for((0.5, 1.0, 2.0, 4.0))
        b2 = fit_for((1.0, 2.0, 4.0, 8.0))
        assert abs(b2 - b1) < 0.1 * max(abs(b1), abs(b2))

    def test_3d_sup_bounded_under_refinement(self):
        # fast-growth anisotropic model, q = 5 (admissible: n = 3 is unconstrained);
        # the cube region keeps B/8 populated with tet barycenters at these sizes
        e = registry.get("aniso3d_q5")
        from pqvar.solver import Schedule, run_scheme

        sups = []
        B3 = Region((0.5, 0.5, 0.5), 0.48, "cube")
        for cells in (14, 18):
            grid = Grid(3, cells)
            g = boundary_family("sine", grid, 1.0, 1)
            res = run_scheme(e.integrand, e.regime, grid, g, Schedule.dyadic(3))
            sups.append(sup_grad_measure(res.field, e.integrand, B3, b=1.0).lhs)
        assert sups[1] <= 1.2 * sups[0]


class TestReverseHolder:
    def test_affine_passes_all_t(self, scalar_entry):
        grid = Grid(2, 16)
        fld = DiscreteField(grid, grid.node_coords[:, 0:1])
        scan = reverse_holder_scan(fld, scalar_entry.integrand, scalar_entry.regime,
                                   [1.1, 1.5, 1.9], B)
        assert all(lhs == 0.0 for _, lhs, _ in scan)

    def test_ratios_increase_with_t(self, scalar_entry, solve_battery):
        fld = solve_battery[("scalar", 32, 2.0)].field
        scan = reverse_holder_scan(fld, scalar_entry.integrand, scalar_entry.regime,
                                   [1.1, 1.3, 1.5, 1.7, 1.9], B, b=2.0)
        ratios = [ratio for _, _, ratio in scan]
        assert all(b >= a for a, b in zip(ratios, ratios[1:]))

    def test_arithmetic_prediction_achievable_on_field(self, scalar_entry, solve_battery):
        # cross-module: the closed-form exponent, fed the field's own oscillation
        # constant and the enforced floor s0 = q/p, satisfies the self-improved
        # inequality on the measured V-gradient density
        from pqvar.diagnostics import _cell_gradient_sq

        fld = solve_battery[("scalar", 32, 1.0)].field
        r = scalar_entry.regime
        vp, vq = v_fields(fld, scalar_entry.integrand, r)
        v = _cell_gradient_sq(fld.grid, vp) + _cell_gradient_sq(fld.grid, vq)
        sup_stress = float(np.sqrt(frob2(
            scalar_entry.integrand.gradient(fld.gradients))).max())
        M = max(1.0, sup_stress ** ((r.q - r.p) / (r.q - 1.0)))
        t_pred = gehring_exponent(max(r.q / r.p, 1.0), M, 0.5)
        side = v.shape[0]
        lo, hi = side // 4, side - side // 4
        central = v[lo:hi, lo:hi]
        lhs = float((central ** t_pred).mean() ** (1.0 / t_pred))
        rhs = 2.0 ** (4 * 2 + 4) * float(v.mean())
        assert 1.0 < t_pred < 2.0
        assert lhs <= rhs

    def test_requires_2d(self, scalar_entry):
        grid = Grid(3, 4)
        fld = DiscreteField(grid, np.zeros((grid.n_nodes, 1)))
        with pytest.raises(ValueError):
            reverse_holder_scan(fld, scalar_entry.integrand, scalar_entry.regime,
                                [1.5], Region((0.5,) * 3, 0.45, "ball"))


class TestLogDecay:
    def test_gamma_arithmetic(self, scalar_entry, solve_battery):
        fld = solve_battery[("scalar", 32, 1.0)].field
        out = log_decay_profile(fld, scalar_entry.integrand, scalar_entry.regime,
                                [0.2, 0.15, 0.1, 0.07], B)
        assert out.gamma == pytest.approx((4.0 + 2.0) / 8.0)  # (q+p)/(2q) = 3/4
        assert out.decay_exponent == pytest.approx(11.0 / 4.0)
        assert all(b < a for a, b in zip(out.masses, out.masses[1:]))

    def test_affine_zero_masses(self, scalar_entry):
        grid = Grid(2, 16)
        fld = DiscreteField(grid, grid.node_coords[:, 0:1])
        out = log_decay_profile(fld, scalar_entry.integrand, scalar_entry.regime,
                                [0.2, 0.15, 0.1], B)
        assert out.masses == [0.0, 0.0, 0.0]
        assert out.amplitude == 0.0 and out.fit_residual == 0.0

    def test_ball_without_cells_is_region_error(self, scalar_entry):
        # the CLI's decay radii on 8 cells: the smallest ball (radius 0.081)
        # holds no cell center, which must not read as an exact fit with C = 0
        grid = Grid(2, 8)
        g = boundary_family("sine", grid, 1.0, 1)
        res = run_scheme(scalar_entry.integrand, scalar_entry.regime, grid, g,
                         Schedule.dyadic(2))
        radii = [B.radius * f for f in (0.45, 0.35, 0.25, 0.18)]
        with pytest.raises(RegionError):
            log_decay_profile(res.field, scalar_entry.integrand, scalar_entry.regime,
                              radii, B)

    def test_needs_three_radii(self, scalar_entry):
        grid = Grid(2, 8)
        fld = DiscreteField(grid, np.zeros((grid.n_nodes, 1)))
        with pytest.raises(ValueError):
            log_decay_profile(fld, scalar_entry.integrand, scalar_entry.regime,
                              [0.2, 0.1], B)


class TestCaccioppoli:
    CUT = (Region((0.5, 0.5), 0.18, "ball"), Region((0.5, 0.5), 0.36, "ball"))

    def test_prefactor_values(self):
        assert moser_a_alpha(-1.0) == 1.0
        assert moser_a_alpha(0.0) == 2.0
        assert moser_a_alpha(2.0) == pytest.approx(4.0 / 3.0)

    def test_affine_gives_zero_lhs(self, scalar_entry):
        grid = Grid(2, 16)
        fld = DiscreteField(grid, grid.node_coords[:, 0:1] * 1.3)
        out = caccioppoli_check(fld, scalar_entry.integrand, scalar_entry.regime,
                                0.0, self.CUT)
        assert out.lhs == 0.0

    def test_bounded_across_alphas(self, scalar_entry, solve_battery):
        fld = solve_battery[("scalar", 32, 1.0)].field
        ratios = [caccioppoli_check(fld, scalar_entry.integrand, scalar_entry.regime,
                                    alpha, self.CUT).ratio
                  for alpha in (-1.0, 0.0, 2.0)]
        assert all(np.isfinite(r) for r in ratios)
        assert max(ratios) <= 1.0

    def test_cutoff_without_barycenters_raises_region_error(self, scalar_entry):
        grid = Grid(2, 6)
        fld = DiscreteField(grid, grid.node_coords[:, 0:1] ** 2)
        B0 = Region((0.5, 0.5), 0.05)
        with pytest.raises(RegionError, match="no simplex barycenters"):
            caccioppoli_check(fld, scalar_entry.integrand, scalar_entry.regime, 0.0,
                              (B0.scaled(0.4), B0.scaled(0.8)))

    def test_scalar_only(self, vector_entry, solve_battery):
        fld = solve_battery[("vector", 32, 1.0)].field
        with pytest.raises(ScalarOnlyError):
            caccioppoli_check(fld, vector_entry.integrand, vector_entry.regime,
                              0.0, self.CUT)


class TestMoserArithmetic:
    def test_closed_form_ladder(self):
        mp = MoserParams(alpha0=-1.0, gamma=0.5, c0=1.0, M=1.0, tau1=0.25, tau2=0.125)
        assert [moser_alpha_sequence(mp, i) for i in range(4)] == [-1.0, 0.0, 2.0, 6.0]

    @given(alpha0=st.floats(-1.0, 8.0), gamma=st.floats(0.05, 0.95),
           i=st.integers(1, 40))
    @settings(max_examples=300)
    def test_recursion_identity(self, alpha0, gamma, i):
        mp = MoserParams(alpha0=alpha0, gamma=gamma, c0=1.0, M=1.0,
                         tau1=0.25, tau2=0.125)
        prev = moser_alpha_sequence(mp, i - 1)
        cur = moser_alpha_sequence(mp, i)
        rec = prev / gamma + 2.0 * (1.0 / gamma - 1.0)
        assert abs(cur - rec) <= 1e-12 * max(1.0, abs(cur), abs(rec))

    def test_strictly_increasing_to_infinity(self):
        mp = MoserParams(alpha0=0.5, gamma=0.7, c0=1.0, M=1.0, tau1=0.3, tau2=0.15)
        seq = [moser_alpha_sequence(mp, i) for i in range(30)]
        assert all(b > a for a, b in zip(seq, seq[1:]))
        assert seq[-1] > 1e3

    def test_bound_exponent_and_monotonicity(self):
        mp1 = MoserParams(alpha0=-1.0, gamma=0.5, c0=1.0, M=1.0, tau1=0.25, tau2=0.125)
        mp2 = MoserParams(alpha0=-1.0, gamma=0.5, c0=1.0, M=10.0, tau1=0.25, tau2=0.125)
        b1, b2 = moser_bound(mp1, 1.0), moser_bound(mp2, 1.0)
        # M exponent gamma/((2+alpha0)(1-gamma)) = 1 at this corner
        assert b2 / b1 == pytest.approx(10.0, rel=1e-10)
        assert moser_bound(mp1, 2.0) > b1

    def test_bound_is_zero_at_zero_data_past_the_float_range(self):
        mp = MoserParams(alpha0=-1.0, gamma=0.9, c0=1.0, M=1e300, tau1=0.25, tau2=0.125)
        assert moser_bound(mp, 1.0) == math.inf
        assert moser_bound(mp, 0.0) == 0.0

    def test_bound_blows_up_as_radii_merge(self):
        vals = [moser_bound(MoserParams(-1.0, 0.5, 1.0, 1.0, 0.25, tau2), 1.0)
                for tau2 in (0.125, 0.2, 0.24, 0.249)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("alpha0,gamma", [(-1.0, 0.5), (0.0, 0.25), (2.0, 0.8)])
    def test_bound_dominates_exact_ladder_product(self, alpha0, gamma):
        # the per-rung factors are all >= 1, and the implemented series uses the
        # enlarged rung weights gamma^m/((2+alpha0)(1-gamma)); the exact unrolled
        # product carries weight 1/(alpha_m + 2) per rung and must come out lower
        import math as _math

        mp = MoserParams(alpha0=alpha0, gamma=gamma, c0=1.5, M=3.0,
                         tau1=0.3, tau2=0.15)
        gap = mp.tau1 - mp.tau2
        log_exact = 0.0
        for m_idx in range(1, 4000):
            w = gamma ** m_idx / (2.0 + alpha0)  # = 1/(alpha_m + 2)
            alpha_m = moser_alpha_sequence(mp, m_idx)
            a_m = moser_a_alpha(alpha_m, alpha0)
            bracket = (_math.log(mp.c0) + 2.0 * _math.log(a_m) + _math.log(mp.M)
                       + ((gamma + 1.0) / gamma) * (m_idx * _math.log(2.0)
                                                    - _math.log(gap)))
            log_exact += w * bracket
            if w * bracket < 1e-16:
                break
        exact = _math.exp(log_exact) * 1.0 ** (2.0 / (alpha0 + 2.0))
        assert exact <= moser_bound(mp, 1.0) * (1.0 + 1e-12)


class TestSecondOrderOnFields:
    """The monotonicity ratio between neighbouring cell averages of a solved
    field: the difference form of the second-order bound on the dual grid."""

    @pytest.mark.parametrize("case", ["scalar", "vector"])
    def test_positive_between_neighbour_cells(self, case, scalar_entry, vector_entry,
                                              solve_battery):
        entry = scalar_entry if case == "scalar" else vector_entry
        fld = solve_battery[(case, 32, 1.0)].field
        W = fld.grid.per_cell(fld.gradients)
        pairs = [(W[:-1], W[1:]), (W[:, :-1], W[:, 1:])]
        ratios = np.concatenate([monotonicity_ratios(entry.integrand, entry.regime, a, b).ravel()
                                 for a, b in pairs])
        assert ratios.size == 2 * 31 * 32
        assert np.all(np.isfinite(ratios)) and np.all(ratios > 0.0)


class TestStress:
    def test_zero_field(self):
        e = registry.get("nondeg_quad")
        grid = Grid(2, 8)
        fld = DiscreteField(grid, np.zeros((grid.n_nodes, 1)))
        out = stress_integrability(fld, e.integrand, e.regime, B)
        assert np.isfinite(out) and out >= 0.0

    def test_resolution_stability(self, scalar_entry, solve_battery):
        vals = [stress_integrability(solve_battery[("scalar", cells, 1.0)].field,
                                     scalar_entry.integrand, scalar_entry.regime, B)
                for cells in (32, 64)]
        assert abs(vals[1] - vals[0]) / vals[0] < 0.2


class TestFitExponent:
    def test_recovers_power_law(self):
        xs = np.array([1.5, 2.0, 3.0, 5.0, 8.0])
        ys = 0.7 * xs ** 1.8
        b, resid = fit_exponent(xs, ys)
        assert b == pytest.approx(1.8, abs=1e-12)
        assert resid < 1e-12

    def test_needs_four_points(self):
        with pytest.raises(ValueError):
            fit_exponent([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])

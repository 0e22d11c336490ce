import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqvar import diagnostics, registry
from pqvar.diagnostics import (CACC_FRACTIONS, DECAY_FRACTIONS, InadmissibleSobolevExponent,
                               MoserParams, ScalarOnlyError, check_regions,
                               default_sobolev_exponent, fit_exponent, hd_exponents,
                               measure_field, moser_a_alpha, moser_alpha_sequence,
                               moser_bound, v_fields, v_gradient_sq)
from pqvar.duality import monotonicity_ratios
from pqvar.growth import gehring_exponent
from pqvar.integrands import PowerNorm, ell_mu, frob2, v_map
from pqvar.model import DiscreteField, Grid, Region, RegionError, Regime
from pqvar.solver import boundary_family

B = Region((0.5, 0.5), 0.45, "ball")
ALL_ESTIMATES = ("hd", "sup", "rh", "cacc", "stress", "decay")


def chain_of(entry):
    return hd_exponents(entry.regime, default_sobolev_exponent(entry.regime))


def measure(fld, entry, estimates, t_grid=(), region=B):
    """measure_field's entries on the field, by estimate id."""
    entries = measure_field(fld, entry.integrand, entry.regime, chain_of(entry), region,
                            estimates, t_grid)
    return {e.estimate_id: e for e in entries}


def v_density(fld, entry):
    """The per-cell V-gradient density |grad_h V_{mu,p}|^2 + |grad_h V_{1,q'}(F')|^2."""
    gp, gq = v_gradient_sq(fld, entry.integrand, entry.regime)
    return gp + gq


class TestMeasureField:
    """measure_field forms its inputs once per field, and measures on every
    grid that check_regions accepts."""

    # one gauge of B per point set, barycenters and cell centers; a cube B adds
    # a ball gauge of the cell centers for the decay balls
    @pytest.mark.parametrize("name, dim, cells, estimates, kind, gauges", [
        ("aniso2d_q4_vec", 2, 9, ("hd", "sup", "rh", "stress", "decay"), "ball", 2),
        ("aniso3d_q4", 3, 7, ("hd", "sup", "cacc", "stress", "decay"), "ball", 2),
        ("aniso2d_q4", 2, 9, ALL_ESTIMATES, "cube", 3),
    ])
    def test_one_v_field_pass_and_one_evaluation_of_F_over_B(self, monkeypatch, name, dim,
                                                            cells, estimates, kind, gauges):
        entry = registry.get(name)
        grid, region = Grid(dim, cells), Region((0.5,) * dim, 0.45, kind)
        fld = DiscreteField(grid, boundary_family("sine", grid, 1.0, entry.regime.N))
        passes, evaluated, stressed, gauged = [], [], [], []
        form, value = diagnostics.v_fields, entry.integrand.value
        gradient, gauge = entry.integrand.gradient, Region.gauge

        def counting_form(*args):
            passes.append(1)
            return form(*args)

        def counting_value(z):
            evaluated.append(len(z))
            return value(z)

        def counting_gradient(z):
            stressed.append(len(z))
            return gradient(z)

        def counting_gauge(self, points):
            gauged.append(len(points))
            return gauge(self, points)

        monkeypatch.setattr(diagnostics, "v_fields", counting_form)
        monkeypatch.setattr(entry.integrand, "value", counting_value)
        monkeypatch.setattr(entry.integrand, "gradient", counting_gradient)
        monkeypatch.setattr(Region, "gauge", counting_gauge)
        rows = measure(fld, entry, estimates, (1.1, 1.5), region=region)
        assert len(gauged) == gauges
        assert len(passes) == 1
        assert evaluated == [int(region.contains(grid.barycenters).sum())]
        assert {key.split("=")[0] for key in rows} >= {"hdes", "sup_grad", "stress", "decay_r"}
        # F' over the Caccioppoli cutoff's support once per field, not once per alpha
        support = int(region.scaled(CACC_FRACTIONS[1]).contains(grid.barycenters).sum())
        assert stressed.count(support) == ("cacc" in estimates)

    @pytest.mark.parametrize("dim, sizes, estimates", [
        (2, range(2, 17), ALL_ESTIMATES),
        (3, range(2, 11), tuple(e for e in ALL_ESTIMATES if e != "rh")),  # rh is 2d only
    ])
    def test_no_region_error_where_the_regions_are_resolved(self, scalar_entry, dim, sizes,
                                                           estimates):
        entry = scalar_entry if dim == 2 else registry.get("aniso3d_q4")
        regions = [Region((0.5,) * dim, 0.45, "ball"), Region((0.5,) * dim, 0.48, "cube"),
                   Region((0.4,) * dim, 0.3, "ball")]
        accepted = rejected = 0
        for cells in sizes:
            grid = Grid(dim, cells)
            fld = DiscreteField(grid, boundary_family("sine", grid, 1.0, 1))
            for region in regions:
                try:
                    check_regions(grid, region, estimates)
                except RegionError:
                    rejected += 1
                    continue
                accepted += 1
                rows = measure(fld, entry, estimates, (1.1, 1.5), region=region)
                assert all(np.isfinite(e.lhs) and np.isfinite(e.rhs) for e in rows.values())
        assert accepted > 0 and rejected > 0, (accepted, rejected)


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
            measured = float(_cell_gradient_sq(grid, grid.per_cell(fld.gradients)).mean())
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
        ent = measure(fld, scalar_entry, ["hd"])["hdes"]
        assert ent.lhs == 0.0 and ent.rhs >= 1.0

    def test_refinement_stability(self, scalar_entry, solve_battery):
        ratios = {}
        for cells in (32, 64):
            fld = solve_battery[("scalar", cells, 1.0)].field
            ent = measure(fld, scalar_entry, ["hd"])["hdes"]
            ratios[cells] = ent.ratio
        assert abs(ratios[64] - ratios[32]) / ratios[32] < 0.2

    def test_amplitude_sweep_bounded_with_fit(self, scalar_entry, solve_battery):
        ch = hd_exponents(scalar_entry.regime,
                          default_sobolev_exponent(scalar_entry.regime))
        bases, lhss = [], []
        for amp in (0.5, 1.0, 2.0, 4.0):
            fld = solve_battery[("scalar", 32, amp)].field
            ent = measure(fld, scalar_entry, ["hd"])["hdes"]
            assert np.isfinite(ent.ratio)
            bases.append(ent.rhs ** (1.0 / ch.b))
            lhss.append(ent.lhs)
        fitted, resid = fit_exponent(bases, lhss)
        assert np.isfinite(fitted) and np.isfinite(resid)


class TestSupGrad:
    def test_affine_unit_gradient(self, scalar_entry):
        grid = Grid(2, 16)
        fld = DiscreteField(grid, grid.node_coords[:, 0:1])
        ent = measure(fld, scalar_entry, ["sup"])["sup_grad"]
        assert ent.lhs == pytest.approx(1.0)
        assert np.isfinite(ent.ratio)

    def test_fit_stability_on_doubled_amplitudes(self, scalar_entry, solve_battery):
        # refitting on the doubled amplitude set moves the exponent by < 10%
        b_chain = chain_of(scalar_entry).b

        def fit_for(amps):
            bases, lhss = [], []
            for amp in amps:
                fld = solve_battery[("scalar", 32, amp)].field
                ent = measure(fld, scalar_entry, ["sup"])["sup_grad"]
                bases.append(ent.rhs ** (1.0 / b_chain))
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
            sups.append(measure(res.field, e, ["sup"], region=B3)["sup_grad"].lhs)
        assert sups[1] <= 1.2 * sups[0]


class TestReverseHolder:
    def test_affine_passes_all_t(self, scalar_entry):
        grid = Grid(2, 16)
        fld = DiscreteField(grid, grid.node_coords[:, 0:1])
        scan = measure(fld, scalar_entry, ["rh"], [1.1, 1.5, 1.9])
        assert list(scan) == ["rh_t=1.1", "rh_t=1.5", "rh_t=1.9"]
        assert all(ent.lhs == 0.0 for ent in scan.values())

    def test_ratios_increase_with_t(self, scalar_entry, solve_battery):
        fld = solve_battery[("scalar", 32, 2.0)].field
        scan = measure(fld, scalar_entry, ["rh"], [1.1, 1.3, 1.5, 1.7, 1.9])
        ratios = [ent.ratio for ent in scan.values()]
        assert all(b >= a for a, b in zip(ratios, ratios[1:]))

    def test_arithmetic_prediction_achievable_on_field(self, scalar_entry, solve_battery):
        # cross-module: the closed-form exponent, fed the field's own oscillation
        # constant and the enforced floor s0 = q/p, satisfies the self-improved
        # inequality on the measured V-gradient density
        fld = solve_battery[("scalar", 32, 1.0)].field
        r = scalar_entry.regime
        v = v_density(fld, scalar_entry)
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
        # at 4 cells no cell center lies in B/8, yet the refusal names the
        # dimension: it is checked before the regions
        grid = Grid(3, 4)
        B3 = Region((0.5,) * 3, 0.45, "ball")
        fld = DiscreteField(grid, np.zeros((grid.n_nodes, 1)))
        with pytest.raises(RegionError, match="no cell centers"):
            check_regions(grid, B3, ["rh"])
        with pytest.raises(ValueError, match="reverse Holder scan is a 2d measurement"):
            measure(fld, scalar_entry, ["rh"], [1.5], region=B3)


class TestLogDecay:
    RADII = [B.radius * f for f in DECAY_FRACTIONS]

    def test_gamma_arithmetic(self, scalar_entry, solve_battery):
        rows = list(measure(solve_battery[("scalar", 32, 1.0)].field, scalar_entry,
                            ["decay"]).values())
        assert [e.estimate_id for e in rows] == [f"decay_r={s:g}" for s in self.RADII]
        # rhs = C log(R/s)^-(gamma+2) with gamma = (q+p)/(2q) = 3/4
        x0, x1 = (math.log(B.radius / s) for s in self.RADII[:2])
        assert -math.log(rows[0].rhs / rows[1].rhs) / math.log(x0 / x1) == pytest.approx(
            11.0 / 4.0)
        assert all(b.lhs < a.lhs for a, b in zip(rows, rows[1:]))

    def test_affine_zero_masses(self, scalar_entry):
        grid = Grid(2, 16)
        fld = DiscreteField(grid, grid.node_coords[:, 0:1])
        rows = measure(fld, scalar_entry, ["decay"]).values()
        assert [(e.lhs, e.rhs) for e in rows] == [(0.0, 0.0)] * len(DECAY_FRACTIONS)

    def test_flat_core_fits_the_positive_masses(self, scalar_entry):
        # u = max(|x - c|^2 - rho^2, 0) has zero PL gradients, so zero V-fields,
        # on every simplex inside the disk of radius rho, and its V-gradients
        # vanish on the two smallest balls only; C is fitted on the other two
        grid, rho = Grid(2, 64), 0.14
        r2 = ((grid.node_coords - 0.5) ** 2).sum(axis=1)
        fld = DiscreteField(grid, np.maximum(r2 - rho ** 2, 0.0)[:, None])
        rows = list(measure(fld, scalar_entry, ["decay"]).values())
        masses = [e.lhs for e in rows]
        assert masses[2:] == [0.0, 0.0] and min(masses[:2]) > 0.0
        xs = [math.log(B.radius / s) for s in self.RADII]
        ys = [math.log(m) + 11.0 / 4.0 * math.log(x) for m, x in zip(masses[:2], xs[:2])]
        C = math.exp(sum(ys) / 2)
        for e, x in zip(rows, xs):
            assert e.rhs == pytest.approx(C * x ** -2.75, rel=1e-12)

    def test_ball_without_cells_is_region_error(self):
        # the decay radii on 8 cells: the smallest ball (radius 0.081) holds no
        # cell center, which must not read as an exact fit with C = 0
        with pytest.raises(RegionError, match="no cell centers"):
            check_regions(Grid(2, 8), B, ["decay"])

    def test_radii_are_a_nested_ladder_inside_half_B(self):
        assert len(DECAY_FRACTIONS) >= 3
        assert all(b < a for a, b in zip(DECAY_FRACTIONS, DECAY_FRACTIONS[1:]))
        assert DECAY_FRACTIONS[0] < 0.5


class TestCaccioppoli:
    CACC = ("cacc_a=-1", "cacc_a=0", "cacc_a=2")

    def test_prefactor_values(self):
        assert moser_a_alpha(-1.0) == 1.0
        assert moser_a_alpha(0.0) == 2.0
        assert moser_a_alpha(2.0) == pytest.approx(4.0 / 3.0)
        with pytest.raises(ValueError):
            moser_a_alpha(-1.5)  # below the base power alpha0 = -1

    def test_affine_gives_zero_lhs(self, scalar_entry):
        grid = Grid(2, 16)
        fld = DiscreteField(grid, grid.node_coords[:, 0:1] * 1.3)
        rows = measure(fld, scalar_entry, ["cacc"])
        assert list(rows) == list(self.CACC)
        assert all(rows[key].lhs == 0.0 and rows[key].rhs > 0.0 for key in self.CACC)

    def test_bounded_across_alphas(self, scalar_entry, solve_battery):
        fld = solve_battery[("scalar", 32, 1.0)].field
        ratios = [e.ratio for e in measure(fld, scalar_entry, ["cacc"]).values()]
        assert len(ratios) == 3 and all(np.isfinite(r) for r in ratios)
        assert max(ratios) <= 1.0

    def test_cutoff_without_barycenters_raises_region_error(self, scalar_entry):
        grid = Grid(2, 6)
        fld = DiscreteField(grid, grid.node_coords[:, 0:1] ** 2)
        with pytest.raises(RegionError, match="no simplex barycenters"):
            measure(fld, scalar_entry, ["cacc"], region=Region((0.5, 0.5), 0.05))

    def test_scalar_only(self, vector_entry, solve_battery):
        fld = solve_battery[("vector", 32, 1.0)].field
        with pytest.raises(ScalarOnlyError):
            measure(fld, vector_entry, ["cacc"])


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
        out = measure(fld, e, ["stress"])["stress"].lhs
        assert np.isfinite(out) and out >= 0.0

    def test_resolution_stability(self, scalar_entry, solve_battery):
        vals = [measure(solve_battery[("scalar", cells, 1.0)].field, scalar_entry,
                        ["stress"])["stress"].lhs
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

    def test_needs_two_bases(self):
        # a zero lhs drops its point, so the kept bases are what must differ
        with pytest.raises(ValueError, match="one base"):
            fit_exponent([2.0, 2.0, 2.0, 2.0], [1.0, 1.5, 2.0, 3.0])
        with pytest.raises(ValueError, match="one base"):
            fit_exponent([3.0, 2.0, 2.0, 2.0, 2.0], [0.0, 1.0, 1.5, 2.0, 3.0])
        b, _ = fit_exponent([3.0, 2.0, 2.0, 2.0, 2.0], [1.0, 1.0, 1.5, 2.0, 3.0])
        assert np.isfinite(b)

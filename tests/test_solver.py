import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from pqvar import registry, solver
from pqvar.integrands import AxisPower, PowerNorm, Sum, frob2
from pqvar.model import DiscreteField, Grid
from pqvar.solver import (LinearSolveError, NonConvergenceError, RegularizedIntegrand,
                          Schedule, SchemeViolationError, _solve_spd, assemble_hessian,
                          boundary_family, el_residual, energy, export_field_csv,
                          export_gradients_csv, gamma_eps, grad_lp_norm, harmonic_extension,
                          minimize_dirichlet, mollify_boundary, run_scheme, simplex_gradients)


def five_point_laplace(grid, boundary):
    """Independent harmonic oracle: the classical 5-point finite-difference system."""
    m = grid.nodes_per_side
    idx = np.arange(grid.n_nodes).reshape(m, m)
    interior = idx[1:-1, 1:-1].ravel()
    pos = -np.ones(grid.n_nodes, dtype=int)
    pos[interior] = np.arange(len(interior))
    rows, cols, data = [], [], []
    rhs = np.zeros(len(interior))
    b = boundary[:, 0]
    for k, node in enumerate(interior):
        rows.append(k); cols.append(k); data.append(4.0)
        for nb in (node - m, node + m, node - 1, node + 1):
            if pos[nb] >= 0:
                rows.append(k); cols.append(pos[nb]); data.append(-1.0)
            else:
                rhs[k] += b[nb]
    A = sp.csr_matrix((data, (rows, cols)), shape=(len(interior),) * 2)
    out = b.copy()
    out[interior] = spla.spsolve(A, rhs)
    return out[:, None]


def dense_mollify(grid, values, eps):
    """The dense O(nb^2) bump-kernel mollifier, kept as the oracle of the sparse one."""
    out = values.copy()
    bidx = np.flatnonzero(grid.boundary_mask)
    pts = grid.node_coords[bidx]
    diff = pts[:, None, :] - pts[None, :, :]
    t2 = (diff ** 2).sum(-1) / (eps * eps)
    w = np.zeros_like(t2)
    inside = t2 < 1.0
    w[inside] = np.exp(-1.0 / (1.0 - t2[inside]))
    w /= w.sum(axis=1, keepdims=True)
    out[bidx] = w @ values[bidx]
    return out


def coo_hessian(F, grid, values):
    """Full-dof energy hessian built element block by element block in COO form."""
    N = values.shape[1]
    H = F.hessian(simplex_gradients(grid, values))
    rows, cols, data = [], [], []
    comp = np.arange(N)
    for t in range(grid.n_types):
        lo, hi = t * grid.n_cells, (t + 1) * grid.n_cells
        verts = grid.simplex_vertices[lo:hi]
        G = grid.hat_grads[t]
        blocks = grid.simplex_volume * np.einsum("cikjl,ak,bl->cabij", H[lo:hi], G, G)
        for a in range(grid.dim + 1):
            for b in range(grid.dim + 1):
                r = verts[:, a, None, None] * N + comp[None, :, None]
                c = verts[:, b, None, None] * N + comp[None, None, :]
                r, c = np.broadcast_arrays(r, c)
                rows.append(r.reshape(-1))
                cols.append(c.reshape(-1))
                data.append(blocks[:, a, b].reshape(-1))
    K = sp.coo_matrix((np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(grid.n_nodes * N,) * 2)
    return K.tocsr()


class TestGammaEps:
    def test_reference_value(self):
        assert gamma_eps(1.0, 0.0, 4.0) == pytest.approx(0.5)

    def test_monotone_in_eps(self):
        vals = [gamma_eps(e, 2.0, 4.0) for e in (1.0, 0.5, 0.25, 0.125)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_product_bound(self):
        # gamma_eps * norm^q <= eps / norm^q
        for norm in (2.0, 5.0, 20.0):
            for eps in (0.5, 0.125):
                q = 4.0
                assert gamma_eps(eps, norm, q) * norm ** q <= eps / norm ** q + 1e-15

    def test_domain(self):
        with pytest.raises(ValueError):
            gamma_eps(0.0, 1.0, 4.0)
        with pytest.raises(ValueError):
            gamma_eps(0.5, -1.0, 4.0)


class TestMollify:
    def test_constant_unchanged(self):
        grid = Grid(2, 16)
        g = np.ones((grid.n_nodes, 1)) * 3.3
        assert np.abs(mollify_boundary(grid, g, 0.3) - g).max() < 1e-12

    def test_linear_on_edge_interior(self):
        grid = Grid(2, 32)
        g = grid.node_coords[:, 0:1].copy()
        out = mollify_boundary(grid, g, 0.1)
        # middle of the bottom edge: symmetric neighborhoods cancel odd moments
        node = 16 * grid.nodes_per_side + 0
        assert abs(out[node, 0] - g[node, 0]) < 1e-12

    def test_below_one_cell_is_exact(self):
        grid = Grid(2, 16)
        rng = np.random.default_rng(0)
        g = rng.normal(size=(grid.n_nodes, 1))
        assert np.abs(mollify_boundary(grid, g, grid.h * 0.9) - g).max() == 0.0

    def test_high_frequency_damped_monotonically(self):
        grid = Grid(2, 32)
        rng = np.random.default_rng(1)
        g = np.zeros((grid.n_nodes, 1))
        g[grid.boundary_mask, 0] = rng.normal(size=int(grid.boundary_mask.sum()))
        bm = grid.boundary_mask
        sups = [np.abs(mollify_boundary(grid, g, w)[bm]).max()
                for w in (0.4, 0.2, 0.1, 0.05)]
        assert all(a <= b for a, b in zip(sups, sups[1:]))
        assert sups[0] < np.abs(g[bm]).max()

    def test_3d_smoothing(self):
        grid = Grid(3, 6)
        rng = np.random.default_rng(2)
        g = rng.normal(size=(grid.n_nodes, 1))
        out = mollify_boundary(grid, g, 0.4)
        bm = grid.boundary_mask
        assert np.abs(out[bm]).max() < np.abs(g[bm]).max()

    @pytest.mark.parametrize("dim, cells, width", [
        (2, 16, 0.5), (2, 16, 0.13), (2, 10, 0.3), (3, 6, 0.5), (3, 8, 0.25), (3, 5, 0.45),
    ])
    def test_matches_dense_kernel(self, dim, cells, width):
        grid = Grid(dim, cells)
        rng = np.random.default_rng(cells)
        g = rng.uniform(-1.0, 1.0, size=(grid.n_nodes, 2))
        assert np.abs(mollify_boundary(grid, g, width) - dense_mollify(grid, g, width)).max() \
            <= 1e-15


class TestEnergyExactness:
    def test_pl_gradient_constant_per_simplex(self):
        # the interpolant's gradient is the cached per-simplex value at any
        # interior point, so the assembled energy carries no quadrature error
        grid = Grid(2, 4)
        rng = np.random.default_rng(3)
        fld = DiscreteField(grid, rng.normal(size=(grid.n_nodes, 1)))
        F = Sum([PowerNorm(0.0, 2.0), AxisPower(1, 4.0)])
        for s in range(0, grid.n_simplices, 5):
            verts = grid.node_coords[grid.simplex_vertices[s]]
            vals = fld.values[grid.simplex_vertices[s]]
            lam = rng.dirichlet(np.ones(3), size=8)  # interior barycentric samples
            pts_grad = []
            for w in lam:
                # gradient of the PL interpolant via two nearby barycentric points
                x = w @ verts
                u = w @ vals
                pts_grad.append((x, u))
            zs = fld.gradients[s]
            for (x1, u1), (x2, u2) in zip(pts_grad, pts_grad[1:]):
                pred = zs @ (x2 - x1)
                assert np.abs(pred - (u2 - u1)).max() < 1e-12

    def test_energy_matches_manual_sum(self):
        grid = Grid(2, 8)
        rng = np.random.default_rng(4)
        vals = rng.normal(size=(grid.n_nodes, 1))
        F = Sum([PowerNorm(0.0, 2.0), AxisPower(1, 4.0)])
        z = simplex_gradients(grid, vals)
        manual = grid.simplex_volume * float(F.value(z).sum())
        assert energy(F, grid, vals) == pytest.approx(manual, abs=1e-13)


class TestMinimization:
    def test_affine_data_returns_affine_field(self):
        grid = Grid(2, 16)
        g = boundary_family("affine", grid, 2.0, 1)
        fld, rep = minimize_dirichlet(PowerNorm(0.0, 2.0), grid, g)
        assert np.abs(fld.values[:, 0] - 2.0 * grid.node_coords[:, 0]).max() <= 1e-12
        assert np.abs(fld.gradients - np.array([[2.0, 0.0]])).max() <= 1e-12

    def test_matches_independent_harmonic_oracle(self):
        grid = Grid(2, 32)
        rng = np.random.default_rng(5)
        g = np.zeros((grid.n_nodes, 1))
        g[grid.boundary_mask, 0] = rng.normal(size=int(grid.boundary_mask.sum()))
        fld, _ = minimize_dirichlet(PowerNorm(0.0, 2.0), grid, g)
        oracle = five_point_laplace(grid, g)
        assert np.abs(fld.values - oracle).max() <= 1e-8

    def test_model_solve_residual_and_energy(self):
        grid = Grid(2, 24)
        entry = registry.get("aniso2d_q4")
        Feps = RegularizedIntegrand(entry.integrand, 0.01, 4.0)
        g = boundary_family("sine", grid, 1.0, 1)
        fld, rep = minimize_dirichlet(Feps, grid, g)
        assert rep.residual_sup <= 1e-9
        harm = harmonic_extension(grid, g)
        assert rep.energy < energy(Feps, grid, harm)

    def test_energy_strictly_decreasing(self):
        grid = Grid(2, 16)
        entry = registry.get("aniso2d_q4")
        Feps = RegularizedIntegrand(entry.integrand, 0.01, 4.0)
        g = boundary_family("sine", grid, 2.0, 1)
        trace = []
        minimize_dirichlet(Feps, grid, g, energy_trace=trace)
        diffs = np.diff(trace)
        assert np.all(diffs < 0.0)

    def test_uniqueness_surrogate(self):
        grid = Grid(2, 16)
        entry = registry.get("aniso2d_q4")
        Feps = RegularizedIntegrand(entry.integrand, 0.01, 4.0)
        g = boundary_family("sine", grid, 1.0, 1)
        rng = np.random.default_rng(6)
        fields = []
        for _ in range(2):
            init = g.copy()
            init[grid.interior_mask] = rng.normal(size=(int(grid.interior_mask.sum()), 1))
            fld, _ = minimize_dirichlet(Feps, grid, g, init=init)
            fields.append(fld.values)
        assert np.abs(fields[0] - fields[1]).max() <= 1e-7

    def test_degenerate_hessian_takes_counted_gradient_steps(self):
        # mu = 0, p = 4 has a zero hessian wherever the gradient vanishes, so from
        # a zero interior the first Newton systems cannot be solved
        grid = Grid(2, 8)
        g = boundary_family("sine", grid, 1.0, 1)
        init = g.copy()
        init[grid.interior_mask] = 0.0
        fld, rep = minimize_dirichlet(PowerNorm(0.0, 4.0), grid, g, init=init)
        assert rep.gradient_fallbacks > 0
        assert rep.residual_sup < 1e-9
        _, regular = minimize_dirichlet(PowerNorm(0.0, 2.0), grid, g)
        assert regular.gradient_fallbacks == 0

    def test_flat_energy_skips_line_search(self, monkeypatch):
        # near the minimizer the energy is flat at machine precision; halving the
        # step there until t < 1e-18 costs about 60 energy evaluations per rung
        calls = []

        def counting(*args):
            calls.append(1)
            return energy(*args)

        monkeypatch.setattr(solver, "energy", counting)
        grid = Grid(2, 16)
        entry = registry.get("aniso2d_q4_vec")
        g = boundary_family("sine", grid, 2.0, 2)
        res = run_scheme(entry.integrand, entry.regime, grid, g, Schedule.dyadic(4))
        assert res.violations == []
        assert len(calls) <= 3 * sum(r.iterations for r in res.reports)

    def test_flat_branch_gradient_is_reused(self, monkeypatch):
        # the flat branch assembles the gradient at the candidate it accepts;
        # the next iteration must not assemble it again
        assemble = solver.assemble_gradient
        calls, per_solve = [], []

        def counting_gradient(*args):
            calls.append(1)
            return assemble(*args)

        def counting_minimize(*args, **kw):
            calls.clear()
            fld, rep = minimize_dirichlet(*args, **kw)
            per_solve.append((len(calls), rep.iterations))
            return fld, rep

        monkeypatch.setattr(solver, "assemble_gradient", counting_gradient)
        monkeypatch.setattr(solver, "minimize_dirichlet", counting_minimize)
        grid = Grid(2, 16)
        entry = registry.get("aniso2d_q4_vec")
        g = boundary_family("sine", grid, 2.0, 2)
        res = run_scheme(entry.integrand, entry.regime, grid, g, Schedule.dyadic(4))
        assert res.violations == [] and len(per_solve) == 4
        assert per_solve == [(its + 1, its) for _, its in per_solve]

    def test_nonconvergence_carries_partial_state(self):
        grid = Grid(2, 16)
        entry = registry.get("aniso2d_q4")
        Feps = RegularizedIntegrand(entry.integrand, 0.01, 4.0)
        g = boundary_family("sine", grid, 2.0, 1)
        with pytest.raises(NonConvergenceError) as exc:
            minimize_dirichlet(Feps, grid, g, max_iters=2, tol_residual=1e-14)
        assert exc.value.field is not None and exc.value.report.iterations == 2


class TestAssemblyPlan:
    @pytest.mark.parametrize("name, dim, cells", [
        ("aniso2d_q4", 2, 6), ("aniso2d_q4_vec", 2, 5), ("aniso3d_q4", 3, 4),
    ])
    def test_interior_hessian_matches_coo_formula(self, name, dim, cells):
        entry = registry.get(name)
        grid = Grid(dim, cells)
        rng = np.random.default_rng(cells)
        vals = rng.normal(size=(grid.n_nodes, entry.regime.N))
        dofs = grid.assembly_plan(entry.regime.N).interior_dofs
        ref = coo_hessian(entry.integrand, grid, vals)[dofs][:, dofs].toarray()
        K = assemble_hessian(entry.integrand, grid, vals).toarray()
        assert np.abs(K - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("dim, cells", [(2, 5), (3, 3)])
    def test_gradients_match_per_simplex_solve(self, dim, cells):
        grid = Grid(dim, cells)
        rng = np.random.default_rng(9)
        vals = rng.normal(size=(grid.n_nodes, 2))
        z = grid.assembly_plan(2).gradients(vals)
        for s in range(grid.n_simplices):
            verts = grid.simplex_vertices[s]
            edges = grid.node_coords[verts[1:]] - grid.node_coords[verts[0]]
            want = np.linalg.solve(edges, vals[verts[1:]] - vals[verts[0]]).T
            assert np.abs(z[s] - want).max() <= 1e-12

    def test_harmonic_extension_reproduces_affine_data_3d(self):
        grid = Grid(3, 6)
        g = boundary_family("affine", grid, 2.0, 3)
        start = g.copy()
        start[grid.interior_mask] = 0.0
        assert np.abs(harmonic_extension(grid, start) - g).max() <= 1e-12

    @pytest.mark.parametrize("dim, cells, N", [(2, 12, 2), (3, 6, 1)])
    def test_harmonic_extension_matches_newton(self, dim, cells, N):
        grid = Grid(dim, cells)
        g = boundary_family("sinecos", grid, 1.5, N)
        fld, _ = minimize_dirichlet(PowerNorm(0.0, 2.0), grid, g, tol_residual=1e-12)
        assert np.abs(harmonic_extension(grid, g) - fld.values).max() <= 1e-10


def newton_hessian(cells=16):
    """A Newton hessian of the vectorial model near its first iterate, and its plan."""
    grid = Grid(2, cells)
    entry = registry.get("aniso2d_q4_vec")
    Feps = RegularizedIntegrand(entry.integrand, 0.01, 4.0)
    vals = harmonic_extension(grid, boundary_family("sine", grid, 1.0, 2))
    return grid.assembly_plan(2), assemble_hessian(Feps, grid, vals)


class TestLinearSolve:
    def test_band_expands_to_the_hessian(self):
        plan, K = newton_hessian()
        band = plan.upper_band(K)
        u, n = band.shape[0] - 1, K.shape[0]
        assert u == 16 * 2 + 2 - 1
        upper = np.zeros((n, n))
        for k in range(u + 1):
            # row u - k of the band holds the k-th superdiagonal, from column k on
            upper += np.diag(band[u - k, k:], k)
        # the assembly sums mirrored entries in different orders, so K is symmetric
        # only to round-off; the band holds its upper triangle exactly
        dense = K.toarray()
        assert np.array_equal(upper, np.triu(dense))
        assert np.abs(dense - dense.T).max() <= 1e-14 * np.abs(dense).max()

    def test_banded_solution_matches_spsolve(self):
        plan, K = newton_hessian()
        rhs = np.random.default_rng(11).normal(size=K.shape[0])
        ref = spla.spsolve(K.tocsc(), rhs)
        x = _solve_spd(plan, K, rhs)
        assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_indefinite_2d_system_raises(self):
        plan = Grid(2, 8).assembly_plan(2)
        K = plan.laplacian.copy()
        K.data[0] = -K.data[0]
        with pytest.raises(LinearSolveError):
            _solve_spd(plan, K, np.ones(K.shape[0]))

    @pytest.mark.parametrize("dim, cells, cg_calls", [(2, 8, 0), (3, 5, 1)])
    def test_cg_only_in_3d(self, monkeypatch, dim, cells, cg_calls):
        calls = []
        cg = spla.cg

        def counting(*args, **kw):
            calls.append(1)
            return cg(*args, **kw)

        monkeypatch.setattr(spla, "cg", counting)
        plan = Grid(dim, cells).assembly_plan(1)
        K = plan.laplacian
        rhs = np.random.default_rng(12).normal(size=K.shape[0])
        x = _solve_spd(plan, K, rhs)
        assert len(calls) == cg_calls
        assert np.abs(K @ x - rhs).max() <= 1e-10 * np.abs(rhs).max()


class TestElResidual:
    def test_affine_interior_of_uniform_grid(self):
        grid = Grid(2, 12)
        entry = registry.get("aniso2d_q4")
        vals = 0.7 * grid.node_coords[:, 0:1] - 0.2 * grid.node_coords[:, 1:2]
        fld = DiscreteField(grid, vals)
        assert el_residual(entry.integrand, fld) <= 1e-12

    def test_grows_away_from_minimizer(self):
        grid = Grid(2, 16)
        entry = registry.get("aniso2d_q4")
        Feps = RegularizedIntegrand(entry.integrand, 0.01, 4.0)
        g = boundary_family("sine", grid, 1.0, 1)
        fld, rep = minimize_dirichlet(Feps, grid, g)
        rng = np.random.default_rng(7)
        pert = np.array(fld.values)
        pert[grid.interior_mask] += 1e-3 * rng.normal(size=(int(grid.interior_mask.sum()), 1))
        assert el_residual(Feps, fld.replace_values(pert)) > rep.residual_sup


class TestScheme:
    def test_quadratic_rungs_match_harmonic_oracle(self):
        grid = Grid(2, 16)
        entry = registry.get("quad")
        g = boundary_family("sine", grid, 1.0, 1)
        res = run_scheme(entry.integrand, entry.regime, grid, g, Schedule.dyadic(3))
        # the last rung has mollifier width below 2h, so data is near-exact
        oracle = five_point_laplace(grid, mollify_boundary(grid, g, 0.125))
        assert np.abs(res.field.values - oracle).max() <= 1e-6

    def test_monitors_on_model(self):
        grid = Grid(2, 32)
        entry = registry.get("aniso2d_q4")
        g = boundary_family("sine", grid, 2.0, 1)
        res = run_scheme(entry.integrand, entry.regime, grid, g, Schedule.dyadic(5))
        assert res.violations == []
        assert all(b < a for a, b in zip(res.gamma_terms, res.gamma_terms[1:]))
        assert all(b < a for a, b in
                   zip(res.w1p_increments[1:], res.w1p_increments[2:]))
        for excess, minimality in res.enes_margins:
            assert excess >= -1e-10 and minimality >= -1e-10

    def test_violation_flagged_and_strict_raises(self):
        # small amplitudes flatten the first rung so hard that the viscosity
        # term rebounds at the second; the monitor must flag it
        grid = Grid(2, 16)
        entry = registry.get("aniso2d_q4")
        g = boundary_family("sine", grid, 0.5, 1)
        res = run_scheme(entry.integrand, entry.regime, grid, g, Schedule.dyadic(3))
        assert any("viscosity" in v for v in res.violations)
        with pytest.raises(SchemeViolationError):
            run_scheme(entry.integrand, entry.regime, grid, g, Schedule.dyadic(3),
                       strict=True)

    def test_stress_integrability_bounded_on_solves(self):
        from pqvar.diagnostics import stress_integrability
        from pqvar.model import Region

        grid = Grid(2, 16)
        entry = registry.get("aniso2d_q4")
        B = Region((0.5, 0.5), 0.45, "ball")
        ratios = []
        for amp in (0.5, 1.0, 2.0):
            g = boundary_family("sine", grid, amp, 1)
            res = run_scheme(entry.integrand, entry.regime, grid, g, Schedule.dyadic(3))
            ratios.append(stress_integrability(res.field, entry.integrand,
                                               entry.regime, B))
        assert all(np.isfinite(r) for r in ratios)
        assert max(ratios) <= 16.0 * entry.regime.L


class TestSchedule:
    def test_dyadic(self):
        s = Schedule.dyadic(4)
        assert s.epsilons == [0.5, 0.25, 0.125, 0.0625]
        assert s.mollifier_widths == s.epsilons

    def test_rejects_non_decreasing(self):
        with pytest.raises(ValueError):
            Schedule(epsilons=[0.5, 0.5])
        with pytest.raises(ValueError):
            Schedule(epsilons=[0.5, 0.25], mollifier_widths=[0.5])

    def test_regularized_integrand_domain(self):
        with pytest.raises(ValueError):
            RegularizedIntegrand(PowerNorm(0.0, 2.0), 1.0, 4.0)


class TestExports:
    def test_field_csv_roundtrip(self, tmp_path):
        grid = Grid(2, 4)
        rng = np.random.default_rng(8)
        fld = DiscreteField(grid, rng.normal(size=(grid.n_nodes, 2)))
        path = tmp_path / "field.csv"
        export_field_csv(fld, path)
        rows = path.read_text().strip().split("\n")
        assert rows[0] == "node,x,y,v1,v2"
        assert len(rows) == grid.n_nodes + 1
        parsed = np.array([[float(v) for v in row.split(",")[3:]] for row in rows[1:]])
        assert np.abs(parsed - fld.values).max() == 0.0  # 17 digits round-trip floats

    def test_gradient_csv_shape(self, tmp_path):
        grid = Grid(2, 3)
        fld = DiscreteField(grid, np.zeros((grid.n_nodes, 1)))
        path = tmp_path / "grads.csv"
        export_gradients_csv(fld, path)
        rows = path.read_text().strip().split("\n")
        assert rows[0] == "simplex,bx,by,g11,g12"
        assert len(rows) == grid.n_simplices + 1

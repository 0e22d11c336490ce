import ctypes
import logging
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from pqvar import registry, solver
from pqvar.integrands import AxisPower, PowerNorm, Sum, frob2
from pqvar.model import AssemblyPlan, DiscreteField, Grid, ShapeMismatchError
from pqvar.solver import (LinearSolveError, NonConvergenceError, RegularizedIntegrand,
                          Schedule, _pcg, _preconditioner, assemble_hessian, boundary_family,
                          energy, export_field_csv, export_gradients_csv, gamma_eps,
                          grad_lp_norm, harmonic_extension, minimize_dirichlet,
                          mollify_boundary, run_scheme)


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
    """The dense O(nb^2) bump-kernel mollifier, kept as the oracle of the lattice
    convolution."""
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
    H = F.hessian(grid.assembly_plan(N).gradients(values))
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
        (2, 8, 1.0), (3, 4, 1.0),
    ])
    def test_matches_dense_kernel(self, dim, cells, width):
        grid = Grid(dim, cells)
        rng = np.random.default_rng(cells)
        g = rng.uniform(-1.0, 1.0, size=(grid.n_nodes, 2))
        assert np.abs(mollify_boundary(grid, g, width) - dense_mollify(grid, g, width)).max() \
            <= 1e-15

    @pytest.mark.parametrize("rows", [86, 76, 162])
    @pytest.mark.parametrize("width", [0.05, 0.5])
    def test_rows_must_match_the_nodes(self, rows, width):
        grid = Grid(2, 8)  # 81 nodes
        with pytest.raises(ShapeMismatchError):
            mollify_boundary(grid, np.ones((rows, 1)), width)

    @pytest.mark.parametrize("width", [0.05, 0.5])
    def test_keeps_the_input_shape(self, width):
        grid = Grid(2, 8)
        g = np.random.default_rng(5).normal(size=grid.n_nodes)
        out = mollify_boundary(grid, g, width)
        assert out.shape == g.shape
        assert np.array_equal(out, mollify_boundary(grid, g[:, None], width)[:, 0])

    def test_memory_follows_the_lattice(self):
        # every boundary pair closer than eps, formed at once, would take 111 MB here
        grid = Grid(3, 32)
        g = np.random.default_rng(6).uniform(-1.0, 1.0, size=(grid.n_nodes, 1))
        mollify_boundary(grid, g, 0.5)  # loads scipy.fft outside the trace
        tracemalloc.start()
        try:
            mollify_boundary(grid, g, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32e6


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
        z = grid.assembly_plan(1).gradients(vals)
        manual = grid.simplex_volume * float(F.value(z).sum())
        assert energy(F, DiscreteField(grid, vals)) == pytest.approx(manual, abs=1e-13)


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
        assert rep.energy < energy(Feps, harm)

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

    def test_each_iterate_forms_its_gradients_once(self, monkeypatch):
        # the energy, gradient and hessian of an iterate share one PL-gradient
        # pass, and the returned field is the last iterate's: a solve makes one
        # pass at the start and one per candidate the line search evaluates
        passes, energies = [], []
        form, evaluate = AssemblyPlan.gradients, solver.energy

        def counting_form(plan, values):
            passes.append(1)
            return form(plan, values)

        def counting_energy(*args):
            energies.append(1)
            return evaluate(*args)

        monkeypatch.setattr(AssemblyPlan, "gradients", counting_form)
        monkeypatch.setattr(solver, "energy", counting_energy)
        grid = Grid(3, 5)
        Feps = RegularizedIntegrand(registry.get("aniso3d_q4").integrand, 0.01, 4.0)
        g = boundary_family("sine", grid, 2.0, 1)
        init = g.copy()
        init[grid.interior_mask] = 10.0 * np.random.default_rng(2).normal(
            size=(int(grid.interior_mask.sum()), 1))
        trace = []
        fld, rep = minimize_dirichlet(Feps, grid, g, init=init, energy_trace=trace)
        assert rep.residual_sup <= 1e-9 and rep.iterations == len(trace) - 1  # no flat accept
        backtracks = len(energies) - len(trace)  # energies the line search rejected
        assert (rep.iterations, backtracks) == (15, 0)
        assert len(passes) == 1 + rep.iterations + backtracks == 16

        # a ladder: per rung the harmonic extension's pass, which its q-norm and
        # energy read too, and the solve's; one more per W^{1,p} increment
        del passes[:], energies[:]
        entry = registry.get("aniso3d_q4")
        res = run_scheme(entry.integrand, entry.regime, grid, g, Schedule.dyadic(3))
        rungs, iterations = len(res.reports), sum(r.iterations for r in res.reports)
        assert len(energies) == rungs * 2 + iterations  # no backtracks: e_tilde + trace
        assert len(passes) == rungs * 2 + iterations + rungs - 1 == 20

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

    def test_nonconvergence_carries_partial_state(self, monkeypatch):
        grid = Grid(2, 16)
        entry = registry.get("aniso2d_q4")
        Feps = RegularizedIntegrand(entry.integrand, 0.01, 4.0)
        g = boundary_family("sine", grid, 2.0, 1)
        monkeypatch.setattr(solver, "MAX_ITERS", 2)
        monkeypatch.setattr(solver, "TOL_RESIDUAL", 1e-14)
        with pytest.raises(NonConvergenceError) as exc:
            minimize_dirichlet(Feps, grid, g)
        assert exc.value.field is not None and exc.value.report.iterations == 2

    def test_start_without_finite_energy_raises(self):
        grid = Grid(2, 8)
        g = boundary_family("sine", grid, 1.0, 1)
        init = g.copy()
        init[grid.interior_mask] = np.inf
        with pytest.raises(NonConvergenceError, match="not finite at the start") as exc:
            minimize_dirichlet(PowerNorm(0.0, 2.0), grid, g, init=init)
        assert not math.isfinite(exc.value.report.energy) and exc.value.report.iterations == 0

    def test_convergence_tested_after_the_last_step(self, monkeypatch):
        grid = Grid(2, 16)
        Feps = RegularizedIntegrand(registry.get("aniso2d_q4").integrand, 0.01, 4.0)
        g = boundary_family("sine", grid, 2.0, 1)
        fld, rep = minimize_dirichlet(Feps, grid, g)
        monkeypatch.setattr(solver, "MAX_ITERS", rep.iterations)
        last, rep_last = minimize_dirichlet(Feps, grid, g)
        assert np.array_equal(last.values, fld.values) and rep_last == rep


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
        K = assemble_hessian(entry.integrand, DiscreteField(grid, vals)).toarray()
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
        assert np.abs(harmonic_extension(grid, start).values - g).max() <= 1e-12

    @pytest.mark.parametrize("dim, cells, N", [(2, 12, 2), (3, 6, 1)])
    def test_harmonic_extension_matches_newton(self, monkeypatch, dim, cells, N):
        grid = Grid(dim, cells)
        g = boundary_family("sinecos", grid, 1.5, N)
        monkeypatch.setattr(solver, "TOL_RESIDUAL", 1e-12)
        fld, _ = minimize_dirichlet(PowerNorm(0.0, 2.0), grid, g)
        assert np.abs(harmonic_extension(grid, g).values - fld.values).max() <= 1e-10


def laplacian(grid, N):
    """Interior hessian of the energy sum_T vol(T) |grad u|^2 for N components."""
    return assemble_hessian(PowerNorm(0.0, 2.0), DiscreteField(grid, np.zeros((grid.n_nodes, N))))


class TestHarmonicExtension:
    @pytest.mark.parametrize("cells", [2, 3, 7, 16])
    @pytest.mark.parametrize("dim, N", [(2, 1), (2, 2), (3, 1)])
    def test_sine_basis_matches_spsolve(self, dim, N, cells):
        # cells = 2 leaves a single interior node
        grid = Grid(dim, cells)
        rng = np.random.default_rng(100 * dim + 10 * N + cells)
        g = rng.normal(size=(grid.n_nodes, N))  # interior rows must not matter
        g0 = g.copy()
        g0[grid.interior_mask] = 0.0
        dofs = grid.assembly_plan(N).interior_dofs
        # the energy is quadratic, so its gradient at g0 is the boundary coupling
        rhs = -solver.assemble_gradient(PowerNorm(0.0, 2.0), DiscreteField(grid, g0)).reshape(-1)[dofs]
        ref = np.atleast_1d(spla.spsolve(laplacian(grid, N).tocsc(), rhs))
        u = harmonic_extension(grid, g).values
        assert np.array_equal(u[grid.boundary_mask], g[grid.boundary_mask])
        x = u.reshape(-1)[dofs]
        assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("dim", [2, 3])
    def test_no_factorization_or_cg(self, monkeypatch, dim):
        def forbidden(*args, **kw):
            raise AssertionError("harmonic extension called a sparse solver")

        monkeypatch.setattr(sla, "cholesky_banded", forbidden)
        monkeypatch.setattr(solver, "_pcg", forbidden)
        grid = Grid(dim, 6)
        harmonic_extension(grid, boundary_family("sinecos", grid, 1.0, 1))

    @pytest.mark.parametrize("dim, N", [(2, 2), (3, 1)])
    def test_one_assembled_residual(self, monkeypatch, dim, N):
        # the right-hand side comes from the lattice stencil; only the guard
        # assembles the residual
        grid = Grid(dim, 6)
        plan = grid.assembly_plan(N)
        assemble, calls = plan.assemble_vector, []

        def counting(flux):
            calls.append(1)
            return assemble(flux)

        monkeypatch.setattr(plan, "assemble_vector", counting)
        harmonic_extension(grid, boundary_family("sinecos", grid, 1.0, N))
        assert len(calls) == 1


def run_scheme_with_fields(*args):
    """run_scheme(*args), and the field that each rung's solve returned."""
    fields, minimize = [], solver.minimize_dirichlet

    def collecting(*a, **kw):
        fld, rep = minimize(*a, **kw)
        fields.append(fld)
        return fld, rep

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "minimize_dirichlet", collecting)
        return run_scheme(*args), fields


@pytest.fixture(scope="module")
def vectorial_ladder():
    """The amplitude-2 vectorial ladder on 16 cells, and its rungs' fields."""
    grid = Grid(2, 16)
    entry = registry.get("aniso2d_q4_vec")
    g = boundary_family("sine", grid, 2.0, 2)
    res, fields = run_scheme_with_fields(entry.integrand, entry.regime, grid, g,
                                         Schedule.dyadic(4))
    return grid, entry, g, res, fields


class TestWarmStart:
    def test_newton_iterations_per_rung(self, vectorial_ladder):
        # the previous minimizer with only the boundary rows replaced took
        # [6, 7, 5, 4]; the harmonic lift removes the one-cell boundary layer.
        # Exact solves take [6, 4, 4, 4]: the forcing term adds the step at rung 2
        _, _, _, res, _ = vectorial_ladder
        assert res.violations == []
        assert [r.iterations for r in res.reports] == [6, 5, 4, 4]

    def test_newton_iterations_per_rung_3d(self):
        grid = Grid(3, 6)
        entry = registry.get("aniso3d_q4")
        g = boundary_family("sine", grid, 1.0, 1)
        res = run_scheme(entry.integrand, entry.regime, grid, g, Schedule.dyadic(4))
        assert res.violations == []
        assert [r.iterations for r in res.reports] == [4, 4, 3, 1]

    def test_fewer_factorizations_than_newton_steps_in_2d(self, monkeypatch):
        # the banded factor is held across Newton steps as the PCG preconditioner
        factor = sla.cholesky_banded
        calls = []

        def counting(*args, **kw):
            calls.append(1)
            return factor(*args, **kw)

        monkeypatch.setattr(sla, "cholesky_banded", counting)
        grid = Grid(2, 16)
        entry = registry.get("aniso2d_q4_vec")
        g = boundary_family("sine", grid, 2.0, 2)
        res = run_scheme(entry.integrand, entry.regime, grid, g, Schedule.dyadic(4))
        assert res.violations == []
        assert len(calls) == sum(r.factorizations for r in res.reports)
        assert 0 < len(calls) < sum(r.iterations for r in res.reports)

    @pytest.mark.parametrize("name, dim, cells, N, amplitude, extra_steps, bound", [
        ("aniso3d_q4", 3, 6, 1, 1.0, 0, 190),
        ("aniso3d_q4", 3, 8, 1, 1.0, 0, 250),
        ("aniso2d_q4_vec", 2, 16, 2, 2.0, 1, 75),
    ], ids=["6-190", "8-250", "2d-16-75"])
    def test_inexact_ladder_matches_exact_solves(self, monkeypatch, name, dim, cells, N,
                                                 amplitude, extra_steps, bound):
        # every 3d Newton system solved to CG_RTOL takes 283 (6 cells) and 446
        # (8 cells) CG iterations over the ladder; the forcing term 100 and 126,
        # and 168 and 222 without its floor at 0.1 tol_residual.  In 2d the
        # held-factor PCG takes 60 (66 without the floor), and one more Newton
        # step at rung 2
        grid = Grid(dim, cells)
        entry = registry.get(name)
        g = boundary_family("sine", grid, amplitude, N)

        def ladder():
            return run_scheme_with_fields(entry.integrand, entry.regime, grid, g,
                                          Schedule.dyadic(4))

        inexact, inexact_fields = ladder()
        monkeypatch.setattr(solver, "_pcg", lambda K, rhs, rtol, precondition:
                            (spla.spsolve(K.tocsc(), rhs), 0))
        exact, exact_fields = ladder()
        assert inexact.violations == exact.violations == []
        for a, b in zip(inexact.reports, exact.reports):
            assert b.iterations <= a.iterations <= b.iterations + extra_steps
        for a, b in zip(inexact_fields, exact_fields):
            assert np.abs(a.values - b.values).max() <= 1e-10
        assert sum(r.linear_iterations for r in inexact.reports) <= bound

    def test_forcing_term_asks_for_no_less_than_a_tenth_of_the_residual_test(self,
                                                                             monkeypatch):
        # CG is never asked for a linear residual below 0.1 TOL_RESIDUAL; with no
        # such floor this ladder took 222 CG iterations
        tol_residual = solver.TOL_RESIDUAL
        pcg, asked = solver._pcg, []

        def recording(K, rhs, rtol, precondition):
            asked.append((rtol, math.sqrt(float(rhs @ rhs))))
            return pcg(K, rhs, rtol, precondition)

        monkeypatch.setattr(solver, "_pcg", recording)
        grid = Grid(3, 8)
        entry = registry.get("aniso3d_q4")
        res = run_scheme(entry.integrand, entry.regime, grid,
                         boundary_family("sine", grid, 1.0, 1), Schedule.dyadic(4))
        assert res.violations == []
        assert [r.iterations for r in res.reports] == [4, 5, 4, 1]
        assert len(asked) == sum(r.iterations for r in res.reports)
        for rtol, norm in asked:
            assert rtol >= (min(0.01, 0.1 * tol_residual / norm) if norm else 0.01)
        assert sum(r.linear_iterations for r in res.reports) < 222

    def test_rungs_match_cold_starts(self, vectorial_ladder):
        grid, entry, g, res, fields = vectorial_ladder
        for rep, fld in zip(res.reports, fields):
            g_eps = mollify_boundary(grid, g, rep.epsilon)
            Feps = RegularizedIntegrand(entry.integrand, rep.gamma_eps, entry.regime.q)
            cold, _ = minimize_dirichlet(Feps, grid, g_eps,
                                         init=harmonic_extension(grid, g_eps).values)
            assert np.abs(fld.values - cold.values).max() <= 1e-10


def newton_hessian(cells=16):
    """A Newton hessian of the vectorial model near its first iterate, and its plan."""
    grid = Grid(2, cells)
    entry = registry.get("aniso2d_q4_vec")
    Feps = RegularizedIntegrand(entry.integrand, 0.01, 4.0)
    fld = harmonic_extension(grid, boundary_family("sine", grid, 1.0, 2))
    return grid.assembly_plan(2), assemble_hessian(Feps, fld)


class TestLinearSolve:
    def test_band_expands_to_the_hessian(self):
        plan, K = newton_hessian()
        band = plan.lower_band(K)
        l, n = band.shape[0] - 1, K.shape[0]
        assert l == 16 * 2 + 2 - 1
        lower = np.zeros((n, n))
        for k in range(l + 1):
            # row k of the band holds the k-th subdiagonal in its first n - k columns
            lower += np.diag(band[k, :n - k], -k)
        # each lower diagonal is a copy of its mirror, so K is exactly symmetric,
        # and the band, zero on the offsets outside the stencil, is its lower triangle
        dense = K.toarray()
        assert np.array_equal(lower, np.tril(dense))
        assert np.array_equal(dense, dense.T)

    def test_banded_solution_matches_spsolve(self):
        plan, K = newton_hessian()
        rhs = np.random.default_rng(11).normal(size=K.shape[0])
        ref = spla.spsolve(K.tocsc(), rhs)
        x, _ = _pcg(K, rhs, solver.CG_RTOL, _preconditioner(plan, K))
        assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_banded_preconditioner_calls_lapack_directly(self, monkeypatch):
        def forbidden(*args, **kw):
            raise AssertionError("the preconditioner went through cho_solve_banded")

        monkeypatch.setattr(sla, "cho_solve_banded", forbidden)
        plan, K = newton_hessian()
        rhs = np.random.default_rng(12).normal(size=K.shape[0])
        x, its = _pcg(K, rhs, solver.CG_RTOL, _preconditioner(plan, K))
        assert its >= 1
        assert np.linalg.norm(K @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)

    def test_indefinite_2d_system_raises(self):
        grid = Grid(2, 8)
        plan = grid.assembly_plan(2)
        K = laplacian(grid, 2)
        main = np.flatnonzero(K.offsets == 0)[0]
        K.data[main, 0] = -K.data[main, 0]
        with pytest.raises(LinearSolveError):
            _pcg(K, np.ones(K.shape[0]), solver.CG_RTOL, _preconditioner(plan, K))

    @pytest.mark.parametrize("dim, cells", [(2, 8), (3, 5)])
    def test_pcg_in_both_dimensions(self, monkeypatch, dim, cells):
        calls = []
        pcg = solver._pcg

        def counting(*args, **kw):
            calls.append(1)
            return pcg(*args, **kw)

        monkeypatch.setattr(solver, "_pcg", counting)
        grid = Grid(dim, cells)
        plan = grid.assembly_plan(1)
        K = laplacian(grid, 1)
        rhs = np.random.default_rng(12).normal(size=K.shape[0])
        x, _ = pcg(K, rhs, solver.CG_RTOL, _preconditioner(plan, K))
        assert np.abs(K @ x - rhs).max() <= 1e-10 * np.abs(rhs).max()
        # every Newton system of a solve goes through the one PCG
        _, rep = minimize_dirichlet(PowerNorm(0.0, 2.0), grid,
                                    boundary_family("sine", grid, 1.0, 1))
        assert rep.iterations >= 1
        assert len(calls) == rep.iterations

    def test_cg_stops_at_the_forcing_term(self):
        grid = Grid(3, 8)
        plan = grid.assembly_plan(1)
        K = laplacian(grid, 1)
        rhs = np.random.default_rng(13).normal(size=K.shape[0])
        x_exact, its_exact = _pcg(K, rhs, solver.CG_RTOL, _preconditioner(plan, K))
        x, its = _pcg(K, rhs, 1e-2, _preconditioner(plan, K))
        assert np.linalg.norm(K @ x - rhs) <= 1e-2 * np.linalg.norm(rhs)
        assert 0 < its < its_exact
        assert np.linalg.norm(K @ x_exact - rhs) <= solver.CG_RTOL * np.linalg.norm(rhs)

    def test_indefinite_3d_system_with_positive_diagonal_raises(self):
        # K - s I keeps a positive diagonal for s below it, and for s above the
        # lowest eigenvalue lam the lowest eigenvector v has v.(K - s I)v < 0
        grid = Grid(3, 4)
        plan = grid.assembly_plan(1)
        K = laplacian(grid, 1)
        lam, vecs = np.linalg.eigh(K.toarray())
        s = 0.5 * (lam[0] + K.diagonal().min())
        assert lam[0] < s < K.diagonal().min()
        K_s = (K - s * sp.eye(K.shape[0])).tocsr()
        with pytest.raises(LinearSolveError, match="curvature"):
            _pcg(K_s, vecs[:, 0], solver.CG_RTOL, _preconditioner(plan, K_s))


def vectorial_solve():
    """A 16-cell vectorial solve: its regularized integrand, grid and data."""
    grid = Grid(2, 16)
    Feps = RegularizedIntegrand(registry.get("aniso2d_q4_vec").integrand, 0.01, 4.0)
    return Feps, grid, boundary_family("sine", grid, 2.0, 2)


class TestHeldFactor:
    def test_failed_held_factor_is_replaced_at_once(self, monkeypatch):
        # every PCG with a held factor fails here, so each such step must refactor
        # and solve again, with no gradient fallback on these SPD systems
        Feps, grid, g = vectorial_solve()
        ref, _ = minimize_dirichlet(Feps, grid, g)
        pcg = solver._pcg
        fresh, refused = set(), []

        def refuse_held(K, rhs, rtol, precondition):
            if precondition in fresh:
                refused.append(1)
                raise LinearSolveError("non-positive curvature p.Kp = -1 in CG")
            fresh.add(precondition)
            x, its = pcg(K, rhs, rtol, precondition)
            assert np.linalg.norm(K @ x - rhs) <= rtol * np.linalg.norm(rhs)
            return x, its

        monkeypatch.setattr(solver, "_pcg", refuse_held)
        fld, rep = minimize_dirichlet(Feps, grid, g)
        assert refused and rep.gradient_fallbacks == 0
        assert rep.factorizations == len(fresh) == len(refused) + 1
        assert rep.residual_sup <= 1e-9
        assert np.abs(fld.values - ref.values).max() <= 1e-10

    def test_only_a_failed_fresh_factorization_falls_back(self, monkeypatch):
        # the second hessian is negated: the held factor meets non-positive
        # curvature, the fresh factorization of -K fails, and that one step is
        # the only gradient fallback
        Feps, grid, g = vectorial_solve()
        assemble, factor = solver.assemble_hessian, sla.cholesky_banded
        hessians, failed = [], []

        def negate_second(*args):
            hessians.append(1)
            K = assemble(*args)
            return -K if len(hessians) == 2 else K

        def recording(*args, **kw):
            try:
                return factor(*args, **kw)
            except sla.LinAlgError:
                failed.append(len(hessians))
                raise

        monkeypatch.setattr(solver, "assemble_hessian", negate_second)
        monkeypatch.setattr(sla, "cholesky_banded", recording)
        fld, rep = minimize_dirichlet(Feps, grid, g)
        assert failed == [2] and rep.gradient_fallbacks == 1
        assert rep.residual_sup <= 1e-9


@pytest.fixture
def scipy_pool():
    """The getter and setter of scipy's OpenBLAS thread count; the count is put
    back after the test."""
    get, set_threads = solver._scipy_blas_threads()
    before = get()
    yield get, set_threads
    set_threads(before)


class TestOneBlasThread:
    @pytest.mark.parametrize("threads", [2, 1])
    def test_factorization_runs_on_one_thread(self, monkeypatch, scipy_pool, threads):
        get, set_threads = scipy_pool
        factor, seen = sla.cholesky_banded, []

        def recording(*args, **kw):
            seen.append(get())
            return factor(*args, **kw)

        monkeypatch.setattr(sla, "cholesky_banded", recording)
        set_threads(threads)
        plan, K = newton_hessian()
        _preconditioner(plan, K)
        assert seen == [1]
        assert get() == threads

    @pytest.mark.parametrize("threads", [2, 1])
    def test_caller_count_is_back_after_a_failed_factorization(self, scipy_pool, threads):
        get, set_threads = scipy_pool
        set_threads(threads)
        grid = Grid(2, 8)
        K = laplacian(grid, 2)
        K.data[np.flatnonzero(K.offsets == 0)[0], 0] *= -1.0
        with pytest.raises(LinearSolveError, match="banded Cholesky"):
            _preconditioner(grid.assembly_plan(2), K)
        assert get() == threads

    def test_missing_setter_factors_on_the_default_pool_and_warns_once(self, monkeypatch,
                                                                       caplog):
        Feps, grid, g = vectorial_solve()
        ref, ref_rep = minimize_dirichlet(Feps, grid, g)

        class NoSymbols:
            pass

        monkeypatch.setattr(ctypes, "CDLL", lambda path: NoSymbols())
        solver._scipy_blas_threads.cache_clear()
        try:
            with caplog.at_level(logging.WARNING, logger="pqvar"):
                fld, rep = minimize_dirichlet(Feps, grid, g)
        finally:
            solver._scipy_blas_threads.cache_clear()
        assert rep.factorizations == ref_rep.factorizations >= 2
        assert [r.levelno for r in caplog.records if r.name == "pqvar"] == [logging.WARNING]
        caplog.clear()
        assert np.array_equal(fld.values, ref.values)

    def test_ladder_is_the_same_on_one_and_two_caller_threads(self, scipy_pool):
        # only the factorization is pinned to one thread: the triangular solves
        # run on the caller's pool, and must not change a bit with its size
        _, set_threads = scipy_pool
        grid = Grid(2, 16)
        entry = registry.get("aniso2d_q4_vec")
        g = boundary_family("sine", grid, 2.0, 2)
        runs = []
        for threads in (1, 2):
            set_threads(threads)
            runs.append(run_scheme_with_fields(entry.integrand, entry.regime, grid, g,
                                               Schedule.dyadic(4)))
        (one, one_fields), (two, two_fields) = runs
        assert one.violations == two.violations == []
        for a, b in zip(one.reports, two.reports):
            assert (a.iterations, a.linear_iterations, a.factorizations) \
                == (b.iterations, b.linear_iterations, b.factorizations)
        for a, b in zip(one_fields, two_fields):
            assert np.array_equal(a.values, b.values)


def interior_residual(F, fld):
    """Sup norm over interior nodes of the discrete weak residual <F'(grad u), grad w>."""
    return float(np.abs(solver.assemble_gradient(F, fld)[fld.grid.interior_mask]).max())


class TestElResidual:
    def test_affine_interior_of_uniform_grid(self):
        grid = Grid(2, 12)
        entry = registry.get("aniso2d_q4")
        vals = 0.7 * grid.node_coords[:, 0:1] - 0.2 * grid.node_coords[:, 1:2]
        fld = DiscreteField(grid, vals)
        assert interior_residual(entry.integrand, fld) <= 1e-12

    def test_grows_away_from_minimizer(self):
        grid = Grid(2, 16)
        entry = registry.get("aniso2d_q4")
        Feps = RegularizedIntegrand(entry.integrand, 0.01, 4.0)
        g = boundary_family("sine", grid, 1.0, 1)
        fld, rep = minimize_dirichlet(Feps, grid, g)
        rng = np.random.default_rng(7)
        pert = np.array(fld.values)
        pert[grid.interior_mask] += 1e-3 * rng.normal(size=(int(grid.interior_mask.sum()), 1))
        assert interior_residual(Feps, DiscreteField(grid, pert)) > rep.residual_sup


class TestFieldArguments:
    def test_a_field_gives_the_numbers_of_its_values(self):
        # energy, assembly and norms read a DiscreteField's cached gradients,
        # which are the plan's gradients of its values
        grid = Grid(3, 4)
        F = RegularizedIntegrand(registry.get("aniso3d_q4").integrand, 0.01, 4.0)
        fld = DiscreteField(grid, np.random.default_rng(27).normal(size=(grid.n_nodes, 1)))
        plan = grid.assembly_plan(1)
        z = plan.gradients(fld.values)
        assert energy(F, fld) == float(grid.simplex_volume * F.value(z).sum())
        assert grad_lp_norm(fld, 4.0) == float(
            (grid.simplex_volume * frob2(z) ** 2.0).sum() ** 0.25)
        assert np.array_equal(solver.assemble_gradient(F, fld),
                              plan.assemble_vector(F.gradient(z)))
        assert np.array_equal(assemble_hessian(F, fld).data,
                              plan.assemble_matrix(F.hessian(z)).data)


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

    def test_violation_flagged(self):
        # small amplitudes flatten the first rung so hard that the viscosity
        # term rebounds at the second; the monitor must flag it
        grid = Grid(2, 16)
        entry = registry.get("aniso2d_q4")
        g = boundary_family("sine", grid, 0.5, 1)
        res = run_scheme(entry.integrand, entry.regime, grid, g, Schedule.dyadic(3))
        assert any("viscosity" in v for v in res.violations)

    def test_stress_integrability_bounded_on_solves(self):
        from pqvar.diagnostics import default_sobolev_exponent, hd_exponents, measure_field
        from pqvar.model import Region

        grid = Grid(2, 16)
        entry = registry.get("aniso2d_q4")
        B = Region((0.5, 0.5), 0.45, "ball")
        chain = hd_exponents(entry.regime, default_sobolev_exponent(entry.regime))
        ratios = []
        for amp in (0.5, 1.0, 2.0):
            g = boundary_family("sine", grid, amp, 1)
            res = run_scheme(entry.integrand, entry.regime, grid, g, Schedule.dyadic(3))
            [stress] = measure_field(res.field, entry.integrand, entry.regime, chain, B,
                                     ["stress"], [])
            ratios.append(stress.lhs)
        assert all(np.isfinite(r) for r in ratios)
        assert max(ratios) <= 16.0 * entry.regime.L


class TestSchedule:
    def test_dyadic(self):
        s = Schedule.dyadic(4)
        assert s.epsilons == [0.5, 0.25, 0.125, 0.0625]

    def test_rejects_non_decreasing(self):
        with pytest.raises(ValueError):
            Schedule(epsilons=[0.5, 0.5])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Schedule(epsilons=[0.5, math.nan])

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

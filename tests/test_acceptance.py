"""Acceptance gate: every numbered criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line per
criterion.  Several criteria carry wall-clock budgets, asserted here as well.
"""

import math
import time

import numpy as np
import pytest

from pqvar import registry
from pqvar.diagnostics import (CACC_FRACTIONS, MoserParams, default_sobolev_exponent,
                               hd_exponents, measure_field, moser_alpha_sequence)
from pqvar.duality import conjugate, inverse_gradient, monotonicity_ratios
from pqvar.growth import (NotEvenError, check_legendre, gehring_exponent,
                          homogeneous_decomposition, polynomial_growth_exponents)
from pqvar.integrands import (EvenPolynomial, HomogeneousForm, PowerNorm, Scaled,
                              ell_mu, flatten_form, frob2, inner)
from pqvar.model import Grid, Region, Regime, validate_regime
from pqvar.solver import Schedule, boundary_family, minimize_dirichlet, run_scheme

B = Region((0.5, 0.5), 0.45, "ball")


def criterion(num, name, ok, detail=""):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_01_duality_round_trip():
    t0 = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(101)
    for name in registry.names():
        e = registry.get(name)
        for _ in range(1000):
            z = rng.normal(size=e.shape)
            nz = max(math.sqrt(float(frob2(z))), 1e-12)
            z *= rng.uniform(0.01, 10.0) / nz
            zi = inverse_gradient(e.integrand, e.integrand.gradient(z), tol=1e-13)
            err = float(np.abs(zi - z).max()) / (1.0 + math.sqrt(float(frob2(z))))
            worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    criterion(1, "duality round-trip", worst <= 1e-8 and elapsed < 10.0,
              f"worst scaled error {worst:.2e} over {len(registry.names())}x1000 "
              f"samples in {elapsed:.1f}s")


def test_02_conjugate_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0

    # 1-d quartic against the flat grid oracle on [-10, 10], step 1e-4
    quart = Scaled(0.25, PowerNorm(0.0, 4.0))
    zs = np.arange(-10.0, 10.0 + 1e-4, 1e-4)
    fvals = 0.25 * zs ** 4
    for _ in range(50):
        xi = rng.uniform(-10.0, 10.0)
        oracle = float((zs * xi - fvals).max())
        got = conjugate(quart, np.array([[xi]])).value
        worst = max(worst, abs(got - oracle))

    # 2-d quartic model against a square grid oracle, step 2.5e-3
    model = registry.get("aniso2d_q4").integrand
    ax = np.arange(-2.0, 2.0 + 2.5e-3, 2.5e-3)
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    Fgrid = X ** 2 + Y ** 2 + X ** 4 + Y ** 4
    for _ in range(50):
        xi = rng.normal(size=2)
        xi *= rng.uniform(0.1, 3.0) / np.linalg.norm(xi)
        oracle = float((X * xi[0] + Y * xi[1] - Fgrid).max())
        got = conjugate(model, xi.reshape(1, 2)).value
        worst = max(worst, abs(got - oracle))

    elapsed = time.perf_counter() - t0
    criterion(2, "conjugate oracle equivalence", worst <= 1e-4 and elapsed < 30.0,
              f"worst gap {worst:.2e} on 50+50 points in {elapsed:.1f}s")


def test_03_duality_sandwich():
    violations = 0
    worst_margin = math.inf
    rng = np.random.default_rng(103)
    for name in registry.names():
        e = registry.get(name)
        r = e.regime
        z = rng.normal(size=(10000,) + e.shape)
        radii = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), size=(10000, 1, 1)))
        z = z / np.sqrt(frob2(z))[:, None, None] * radii
        if r.mu == 0.0:
            z = z[np.sqrt(frob2(z)) > 1e-6]
        eigs = np.linalg.eigvalsh(flatten_form(e.integrand.hessian(z)))
        gnorm = ell_mu(1.0, e.integrand.gradient(z))
        inv_lo = 1.0 / eigs[:, -1]
        inv_hi = 1.0 / eigs[:, 0]
        lower = gnorm ** (r.q_conj - 2.0) / (2.0 * r.L)
        upper = r.L * ell_mu(r.mu, z) ** (2.0 - r.p)
        bad = (inv_lo < lower * (1 - 1e-12)) | (inv_hi > upper * (1 + 1e-12))
        violations += int(bad.sum())
        worst_margin = min(worst_margin, float((inv_lo / lower).min()),
                           float((upper / inv_hi).min()))
    criterion(3, "dual hessian sandwich", violations == 0,
              f"0 violations required, found {violations}; worst margin {worst_margin:.3f}")


def test_04_monotonicity_infimum():
    stable = True
    details = []
    for name in registry.names():
        e = registry.get(name)
        infs = []
        for seed in (1040, 1041):
            rng = np.random.default_rng(seed)
            size = (100000,) + e.shape
            scale = np.exp(rng.uniform(math.log(1e-2), math.log(10.0), size=(100000, 1, 1)))
            z1 = rng.normal(size=size) * scale
            z2 = rng.normal(size=size) * np.exp(
                rng.uniform(math.log(1e-2), math.log(10.0), size=(100000, 1, 1)))
            ratios = monotonicity_ratios(e.integrand, e.regime, z1, z2)
            ratios = ratios[~np.isnan(ratios)]
            infs.append(float(ratios.min()))
        ok = min(infs) > 0.0 and abs(infs[0] - infs[1]) <= 0.1 * max(infs)
        stable &= ok
        details.append(f"{name}:{infs[0]:.3g}/{infs[1]:.3g}")
    criterion(4, "monotonicity infimum", stable, "; ".join(details))


def test_05_exponent_gates():
    ok = True
    adm4 = validate_regime(Regime(4, 1, 2.0, 2.0, 0.0, 2.0))
    adm5 = validate_regime(Regime(5, 1, 2.0, 2.0, 0.0, 2.0))
    ok &= adm4.threshold == 6.0 and adm5.threshold == 4.0
    ok &= validate_regime(Regime(2, 1, 2.0, 50.0, 0.0, 2.0)).threshold == math.inf
    ok &= validate_regime(Regime(3, 1, 2.0, 50.0, 0.0, 2.0)).threshold == math.inf
    rng = np.random.default_rng(105)
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        p = float(rng.uniform(2.0, 10.0))
        q_hi = p + float(rng.uniform(0.0, 4.0 * p))
        q_lo = p + float(rng.uniform(0.0, 1.0)) * (q_hi - p)
        hi = validate_regime(Regime(n, 1, p, q_hi, 0.0, 2.0))
        lo = validate_regime(Regime(n, 1, p, q_lo, 0.0, 2.0))
        if hi.admissible and not lo.admissible:
            ok = False
            break
    criterion(5, "exponent gates", ok,
              f"thresholds 6/4/inf exact; monotone over 1000 random regimes")


def test_06_gehring_moser_arithmetic():
    ok = gehring_exponent(1.0, 1.0, 0.5) == 1.5
    ts = [gehring_exponent(1.0, M, 0.5) for M in (1.0, 10.0, 100.0, 1000.0)]
    ok &= all(b < a for a, b in zip(ts, ts[1:]))
    ok &= all(t - 1.0 <= 1.0 / (2.0 * M - 1.0) + 1e-15
              for t, M in zip(ts, (1.0, 10.0, 100.0, 1000.0)))
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(1000):
        alpha0 = float(rng.uniform(-1.0, 8.0))
        gamma = float(rng.uniform(0.05, 0.95))
        i = int(rng.integers(1, 41))
        mp = MoserParams(alpha0=alpha0, gamma=gamma, c0=1.0, M=1.0,
                         tau1=0.25, tau2=0.125)
        rec = alpha0
        for _ in range(i):
            rec = rec / gamma + 2.0 * (1.0 / gamma - 1.0)
        closed = moser_alpha_sequence(mp, i)
        worst = max(worst, abs(closed - rec) / max(1.0, abs(closed), abs(rec)))
    ok &= worst <= 1e-12
    criterion(6, "Gehring/Moser arithmetic", bool(ok),
              f"t(1,1,0.5)=1.5 exact; t gap bounded; ladder mismatch {worst:.2e}")


def test_07_solver_exactness():
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    t0 = time.perf_counter()
    grid = Grid(2, 32)
    rng = np.random.default_rng(107)
    g = np.zeros((grid.n_nodes, 1))
    g[grid.boundary_mask, 0] = rng.normal(size=int(grid.boundary_mask.sum()))
    fld, _ = minimize_dirichlet(PowerNorm(0.0, 2.0), grid, g)

    m = grid.nodes_per_side
    idx = np.arange(grid.n_nodes).reshape(m, m)
    interior = idx[1:-1, 1:-1].ravel()
    pos = -np.ones(grid.n_nodes, dtype=int)
    pos[interior] = np.arange(len(interior))
    rows, cols, data = [], [], []
    rhs = np.zeros(len(interior))
    for k, node in enumerate(interior):
        rows.append(k); cols.append(k); data.append(4.0)
        for nb in (node - m, node + m, node - 1, node + 1):
            if pos[nb] >= 0:
                rows.append(k); cols.append(pos[nb]); data.append(-1.0)
            else:
                rhs[k] += g[nb, 0]
    A = sp.csr_matrix((data, (rows, cols)), shape=(len(interior),) * 2)
    oracle = g[:, 0].copy()
    oracle[interior] = spla.spsolve(A, rhs)
    harmonic_err = float(np.abs(fld.values[:, 0] - oracle).max())

    ga = boundary_family("affine", grid, 1.5, 1)
    fa, _ = minimize_dirichlet(PowerNorm(0.0, 2.0), grid, ga)
    affine_err = float(np.abs(fa.values[:, 0] - 1.5 * grid.node_coords[:, 0]).max())
    elapsed = time.perf_counter() - t0
    criterion(7, "solver exactness",
              harmonic_err <= 1e-8 and affine_err <= 1e-12 and elapsed < 20.0,
              f"harmonic oracle gap {harmonic_err:.2e}, affine gap {affine_err:.2e}, "
              f"{elapsed:.1f}s")


def test_08_approximation_scheme():
    t0 = time.perf_counter()
    e = registry.get("aniso2d_q4")
    grid = Grid(2, 64)
    g = boundary_family("sine", grid, 4.0, 1)
    res = run_scheme(e.integrand, e.regime, grid, g, Schedule.dyadic(6))
    strict = all(b < a for a, b in zip(res.gamma_terms, res.gamma_terms[1:]))
    final_ok = res.gamma_terms[-1] <= 1e-6
    inc = res.w1p_increments
    inc_ok = all(b < a for a, b in zip(inc[1:], inc[2:]))
    elapsed = time.perf_counter() - t0
    criterion(8, "approximation scheme monitors",
              strict and final_ok and inc_ok and elapsed < 180.0 and not res.violations,
              f"gamma terms {['%.1e' % x for x in res.gamma_terms]}, "
              f"increments decreasing after first: {inc_ok}, {elapsed:.1f}s")


def test_09_higher_diff_stability(solve_battery, scalar_entry):
    chain = hd_exponents(scalar_entry.regime, default_sobolev_exponent(scalar_entry.regime))

    def ratio(cells, amp):
        fld = solve_battery[("scalar", cells, amp)].field
        [hd] = measure_field(fld, scalar_entry.integrand, scalar_entry.regime, chain, B,
                             ["hd"], [])
        return hd.ratio

    r32, r64 = ratio(32, 1.0), ratio(64, 1.0)
    refine_change = abs(r64 - r32) / r32
    sweep = [ratio(cells, amp) for cells in (32, 64) for amp in (0.5, 1.0, 2.0, 4.0)]
    bounded = all(np.isfinite(v) and v >= 0.0 for v in sweep)
    criterion(9, "higher differentiability stability",
              refine_change < 0.2 and bounded,
              f"refinement change {refine_change:.1%}, sweep ratios "
              f"[{min(sweep):.2e}, {max(sweep):.2e}]")


def test_10_sup_gradient_refinement(solve_battery, scalar_entry, vector_entry):
    worst_growth = -math.inf
    details = []
    for case, entry in (("scalar", scalar_entry), ("vector", vector_entry)):
        chain = hd_exponents(entry.regime, default_sobolev_exponent(entry.regime))
        for amp in (0.5, 1.0, 2.0, 4.0):
            sups = {}
            for cells in (32, 64):
                fld = solve_battery[(case, cells, amp)].field
                [sup] = measure_field(fld, entry.integrand, entry.regime, chain, B,
                                      ["sup"], [])
                sups[cells] = sup.lhs
            growth = (sups[64] - sups[32]) / sups[32]
            worst_growth = max(worst_growth, growth)
            details.append(f"{case}@A={amp:g}:{growth:+.2%}")
    criterion(10, "sup-gradient refinement", worst_growth < 0.05,
              f"worst growth {worst_growth:+.2%} ({'; '.join(details[:4])} ...)")


def test_11_caccioppoli(solve_battery, scalar_entry):
    # the cutoff runs between radii 0.18 and 0.36, up to one ulp each
    cut = [B.scaled(f).radius for f in CACC_FRACTIONS]
    assert all(abs(a - b) <= math.ulp(b) for a, b in zip(cut, (0.18, 0.36)))
    chain = hd_exponents(scalar_entry.regime, default_sobolev_exponent(scalar_entry.regime))

    def cacc(fld):
        return {e.estimate_id: e for e in measure_field(
            fld, scalar_entry.integrand, scalar_entry.regime, chain, B, ["cacc"], [])}

    ratios = {key: e.ratio for key, e in cacc(solve_battery[("scalar", 32, 1.0)].field).items()}
    grid = Grid(2, 32)
    affine = grid.node_coords[:, 0:1] * 1.2
    from pqvar.model import DiscreteField
    lhs0 = cacc(DiscreteField(grid, affine))["cacc_a=0"].lhs
    common = max(ratios.values())
    criterion(11, "power Caccioppoli estimate", common <= 1.0 and lhs0 == 0.0,
              f"ratios {({a: round(v, 4) for a, v in ratios.items()})} below common "
              f"constant 1.0; affine lhs = {lhs0}")


def test_12_polynomial_certification(scalar_entry):
    P = scalar_entry.polynomial
    cert = check_legendre(P, scalar_entry.regime, 4096, 1e3, seed=112)
    cert_ok = np.isfinite(cert.constant_assf3) and np.isfinite(cert.constant_assf1)

    out = polynomial_growth_exponents(P)
    exps_ok = (out.p_max, out.q) == (2.0, 4.0)

    c2 = HomogeneousForm.from_terms(1, 2, 2, [(1.0, (1, 1)), (1.0, (2, 2))])
    c3 = HomogeneousForm.from_terms(1, 2, 3, [(1.0, (1, 1, 1))])
    try:
        homogeneous_decomposition(EvenPolynomial([c2, c3]))
        odd_rejected = False
    except NotEvenError:
        odd_rejected = True

    rng = np.random.default_rng(112)
    z = rng.normal(size=(500, 1, 2)) * 3.0
    euler_worst = 0.0
    for comp in homogeneous_decomposition(P):
        if comp.degree == 0:
            continue
        lhs = inner(comp.form.gradient(z), z)
        rhs = comp.degree * comp.form.value(z)
        scale = max(1.0, float(np.abs(rhs).max()))
        euler_worst = max(euler_worst, float(np.abs(lhs - rhs).max()) / scale)

    criterion(12, "polynomial certification",
              cert_ok and exps_ok and odd_rejected and euler_worst <= 1e-10,
              f"(p_max, q)=({out.p_max:g}, {out.q:g}); assf3 const "
              f"{cert.constant_assf3:.3f}; Euler defect {euler_worst:.1e}")

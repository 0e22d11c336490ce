import math
import tracemalloc
import warnings

import numpy as np
import pytest

from pqvar import registry
from pqvar.integrands import (AxisPower, EvenPolynomial, HomogeneousForm, Integrand,
                              MoserWeight, PowerNorm, Scaled, Sum, ell_mu, fd_check, frob2,
                              inner, v_map)
from pqvar.model import Regime, ShapeMismatchError
from pqvar.solver import RegularizedIntegrand


def test_ell_mu_values():
    assert ell_mu(0.0, np.zeros((1, 2))) == 0.0
    assert ell_mu(1.0, np.zeros((1, 2))) == 1.0
    z = np.array([[1.0, np.sqrt(2.0)]])  # |z|^2 = 3
    assert ell_mu(1.0, z) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        ell_mu(-0.5, z)


def test_v_map_values():
    rng = np.random.default_rng(0)
    z = rng.normal(size=(6, 1, 2))
    assert np.abs(v_map(0.7, 2.0, z) - z).max() == 0.0  # gamma = 2 is the identity
    e = np.array([[1.0, 0.0]])
    assert np.abs(v_map(0.0, 4.0, e) - e).max() < 1e-15
    assert np.abs(v_map(1.0, 4.0, e) - np.sqrt(2.0) * e).max() < 1e-15


def test_v_map_equivalence_constant():
    # |V(z1) - V(z2)| stays comparable to (mu^2+|z1|^2+|z2|^2)^((g-2)/4) |z1-z2|
    rng = np.random.default_rng(1)
    c = 8.0
    for gamma in (2.0, 4.0 / 3.0 + 1e-9, 2.5, 4.0, 6.0):
        for mu in (0.0, 1.0):
            z1 = rng.normal(size=(10000, 1, 2)) * rng.uniform(1e-2, 10, size=(10000, 1, 1))
            z2 = rng.normal(size=(10000, 1, 2)) * rng.uniform(1e-2, 10, size=(10000, 1, 1))
            dv = np.sqrt(frob2(v_map(mu, gamma, z1) - v_map(mu, gamma, z2)))
            ref = (mu ** 2 + frob2(z1) + frob2(z2)) ** ((gamma - 2) / 4) * np.sqrt(frob2(z1 - z2))
            keep = ref > 0
            ratio = dv[keep] / ref[keep]
            assert ratio.max() <= c and ratio.min() >= 1.0 / c, (gamma, mu)


class TestClosedForms:
    def test_quadratic(self):
        F = PowerNorm(0.0, 2.0)
        z = np.array([[0.3, -1.2]])
        assert F.value(z) == pytest.approx(float(frob2(z)))
        assert np.abs(F.gradient(z) - 2 * z).max() < 1e-15
        H = F.hessian(z).reshape(2, 2)
        assert np.abs(H - 2 * np.eye(2)).max() < 1e-15

    def test_model_point_values(self):
        F = Sum([PowerNorm(0.0, 2.0), AxisPower(1, 4.0), AxisPower(2, 4.0)])
        z = np.array([[1.0, 0.0]])
        assert F.value(z) == pytest.approx(2.0)
        assert np.abs(F.gradient(z) - np.array([[6.0, 0.0]])).max() < 1e-14

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_model_hessian_diag(self, t):
        F = Sum([PowerNorm(0.0, 2.0), AxisPower(1, 4.0), AxisPower(2, 4.0)])
        H = F.hessian(np.array([[t, 0.0]])).reshape(2, 2)
        assert np.allclose(H, np.diag([2 + 12 * t * t, 2.0]))

    def test_degenerate_corner(self):
        # mu = 0, p > 2: gradient and hessian take the analytic limit 0 at z = 0
        F = PowerNorm(0.0, 3.0)
        z0 = np.zeros((1, 2))
        assert F.value(z0) == 0.0
        assert np.abs(F.gradient(z0)).max() == 0.0
        assert np.abs(F.hessian(z0)).max() == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            AxisPower(3, 4.0).value(np.zeros((1, 2)))


class TestFiniteDifferences:
    def test_quadratic_fd_exact(self):
        rng = np.random.default_rng(2)
        F = PowerNorm(0.0, 2.0)
        out = fd_check(F, rng.normal(size=(1, 2)), 1e-4)
        assert out["grad_err"] <= 1e-8

    def test_model_fd(self):
        rng = np.random.default_rng(3)
        F = Sum([PowerNorm(0.0, 2.0), AxisPower(1, 4.0), AxisPower(2, 4.0)])
        for _ in range(20):
            z = rng.normal(size=(1, 2))
            z /= max(1.0, np.sqrt(float(frob2(z))))
            assert fd_check(F, z, 1e-5)["grad_err"] <= 1e-7

    def test_gradient_fd_second_order(self):
        rng = np.random.default_rng(14)
        F = Sum([PowerNorm(0.0, 2.0), AxisPower(1, 4.0), AxisPower(2, 4.0)])
        errs = {}
        for h in (2e-4, 1e-4):
            errs[h] = max(fd_check(F, rng.normal(size=(1, 2)) * 0.8, h)["grad_err"]
                          for _ in range(50))
        assert 2.5 <= errs[2e-4] / errs[1e-4] <= 5.5

    def test_hessian_fd_second_order(self):
        # halving h divides the hessian discrepancy by about four
        rng = np.random.default_rng(4)
        P = registry.get("aniso2d_q4").polynomial
        errs = {h: 0.0 for h in (2e-3, 1e-3)}
        for _ in range(100):
            z = rng.normal(size=(1, 2))
            for h in errs:
                errs[h] = max(errs[h], fd_check(P, z, h)["hess_err"])
        ratio = errs[2e-3] / errs[1e-3]
        assert 2.5 <= ratio <= 5.5

    def test_every_builtin_derivatives(self):
        rng = np.random.default_rng(5)
        for name in registry.names():
            e = registry.get(name)
            z = rng.normal(size=e.shape)
            out = fd_check(e.integrand, z, 1e-5)
            assert out["grad_err"] <= 1e-6 * (1 + abs(float(e.integrand.value(z))))


def _ref_factors(t, p):
    pos = t > 0.0
    tsafe = np.where(pos, t, 1.0)
    a = np.where(pos, p * tsafe ** ((p - 2.0) / 2.0), p if p == 2.0 else 0.0)
    b = np.where(pos, p * (p - 2.0) * tsafe ** ((p - 4.0) / 2.0), 0.0)
    return a, b


def ref_power_norm(mu, p, z):
    """Closed-form gradient and hessian of (mu^2 + |z|^2)^(p/2), by broadcasting
    over the whole (N, n, N, n) form."""
    N, n = z.shape[-2:]
    a, b = _ref_factors(mu ** 2 + (z * z).sum(axis=(-2, -1)), p)
    eye = np.einsum("ik,jl->ijkl", np.eye(N), np.eye(n))
    H = a[..., None, None, None, None] * eye \
        + b[..., None, None, None, None] * np.einsum("...ij,...kl->...ijkl", z, z)
    return a[..., None, None] * z, H


def ref_axis_power(i, q, z):
    """Closed-form gradient and hessian of |z e_i|^q."""
    N, n = z.shape[-2:]
    v = z[..., :, i - 1]
    a, b = _ref_factors((v * v).sum(axis=-1), q)
    g = np.zeros_like(z)
    g[..., :, i - 1] = a[..., None] * v
    H = np.zeros(z.shape + (N, n))
    H[..., :, i - 1, :, i - 1] = a[..., None, None] * np.eye(N) \
        + b[..., None, None] * np.einsum("...i,...j->...ij", v, v)
    return g, H


def _reference(F, z):
    if isinstance(F, PowerNorm):
        return ref_power_norm(F.mu, F.p, z)
    if isinstance(F, AxisPower):
        return ref_axis_power(F.i, F.q, z)
    if isinstance(F, Scaled):
        g, H = _reference(F.inner, z)
        return F.coeff * g, F.coeff * H
    parts = [_reference(P, z) for P in F.parts]
    return sum(g for g, _ in parts), sum(H for _, H in parts)


def _rel_err(x, ref):
    return float(np.abs(x - ref).max() / max(np.abs(ref).max(), 1e-300))


class PublicOnly(Integrand):
    """An integrand that defines only the public methods: 1.5 |z|^2."""

    def value(self, z):
        return 1.5 * frob2(z)

    def gradient(self, z):
        return 3.0 * np.asarray(z, dtype=float)

    def hessian(self, z):
        z = np.asarray(z, dtype=float)
        N, n = z.shape[-2:]
        eye = np.eye(N * n).reshape(N, n, N, n)
        return np.broadcast_to(3.0 * eye, z.shape + (N, n))  # read-only

    def growth_exponents(self):
        return (2.0, 2.0)


class TestKernels:
    TERMS = [PowerNorm(0.0, 2.0), PowerNorm(1.0, 2.0), PowerNorm(0.0, 3.0), PowerNorm(0.5, 4.0),
             PowerNorm(0.0, 5.5), AxisPower(1, 2.0), AxisPower(2, 3.0), AxisPower(1, 4.0),
             AxisPower(2, 5.0),
             Sum([PowerNorm(0.0, 2.0), AxisPower(1, 4.0), AxisPower(2, 4.0),
                  Scaled(0.3, PowerNorm(1.0, 4.0))])]

    @pytest.mark.parametrize("shape", [(2, 3), (1, 2), (7, 1, 3), (7, 2, 2), (3, 4, 2, 3)])
    @pytest.mark.parametrize("F", TERMS, ids=repr)
    def test_matches_closed_form(self, F, shape):
        rng = np.random.default_rng(len(shape) + 10 * shape[-1])
        z = rng.normal(size=shape) * np.exp(rng.uniform(-3.0, 2.0, size=shape[:-2] + (1, 1)))
        if len(shape) > 2:
            z[(0,) * (len(shape) - 2)] = 0.0  # one point at the degenerate corner
            z[(1,) * (len(shape) - 2) + (slice(None), 0)] = 0.0  # and one zero column
        g_ref, H_ref = _reference(F, z)
        g, H = F.gradient(z), F.hessian(z)
        assert g.shape == z.shape and H.shape == z.shape + z.shape[-2:]
        assert _rel_err(g, g_ref) <= 1e-14
        assert _rel_err(H, H_ref) <= 1e-14

    @pytest.mark.parametrize("p", [2.5, 3.0, 4.0, 6.0])
    def test_degenerate_corners(self, p):
        z0 = np.zeros((3, 2, 2))
        zc = np.array([[[0.0, 1.5], [0.0, -2.0]]])  # first column zero
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            F = PowerNorm(0.0, p)
            assert F.value(z0).max() == 0.0
            assert np.abs(F.gradient(z0)).max() == 0.0 and np.abs(F.hessian(z0)).max() == 0.0
            A = AxisPower(1, p)
            assert A.value(zc)[0] == 0.0
            assert np.abs(A.gradient(zc)).max() == 0.0 and np.abs(A.hessian(zc)).max() == 0.0
            # the second column is not degenerate
            g_ref, H_ref = ref_axis_power(2, p, zc)
            assert _rel_err(AxisPower(2, p).hessian(zc), H_ref) <= 1e-14
            assert _rel_err(AxisPower(2, p).gradient(zc), g_ref) <= 1e-14

    def test_quadratic_cases(self):
        rng = np.random.default_rng(11)
        for z in (rng.normal(size=(4, 2, 3)), np.zeros((4, 2, 3))):
            H = PowerNorm(0.0, 2.0).hessian(z)
            assert np.array_equal(H, np.broadcast_to(2.0 * np.eye(6).reshape(2, 3, 2, 3), H.shape))
            assert np.array_equal(PowerNorm(0.0, 2.0).gradient(z), 2.0 * z)
            g = AxisPower(3, 2.0).gradient(z)
            assert np.array_equal(g[..., 2], 2.0 * z[..., 2]) and not g[..., :2].any()
            H = AxisPower(3, 2.0).hessian(z)
            assert np.array_equal(H[..., :, 2, :, 2], np.broadcast_to(2.0 * np.eye(2), (4, 2, 2)))
            H[..., :, 2, :, 2] = 0.0
            assert not H.any()

    def test_even_polynomial_in_a_sum(self):
        # an EvenPolynomial defines only the public methods: the Sum adds its
        # derivatives through the default hooks
        Q = HomogeneousForm.from_terms(1, 2, 2, [(1.0, (1, 1)), (0.5, (1, 2)), (2.0, (2, 2))])
        rng = np.random.default_rng(12)
        z = rng.normal(size=(5, 1, 2))
        P = EvenPolynomial([Q, HomogeneousForm.from_terms(1, 2, 4, [(1.0, (1, 1, 2, 2))])])
        A = AxisPower(1, 4.0)
        F = Sum([P, A])
        assert np.array_equal(F.value(z), P.value(z) + A.value(z))
        assert np.array_equal(F.gradient(z), P.gradient(z) + A.gradient(z))
        assert np.array_equal(F.hessian(z), P.hessian(z) + A.hessian(z))

    def test_public_only_integrand_in_a_sum(self):
        rng = np.random.default_rng(13)
        z = rng.normal(size=(6, 2, 2))
        E, A = PublicOnly(), AxisPower(2, 3.0)
        assert not E.hessian(z).flags.writeable
        F = Sum([E, Scaled(2.0, E), A])
        assert np.array_equal(F.gradient(z), (E.gradient(z) + 2.0 * E.gradient(z)) + A.gradient(z))
        assert np.array_equal(F.hessian(z), (E.hessian(z) + 2.0 * E.hessian(z)) + A.hessian(z))
        assert F.hessian(z).flags.writeable

    def test_scaled_by_zero(self):
        z = np.random.default_rng(14).normal(size=(3, 1, 2))
        F = Scaled(0.0, PowerNorm(0.0, 4.0))
        assert not F.value(z).any() and not F.gradient(z).any() and not F.hessian(z).any()
        G = Sum([PowerNorm(0.0, 2.0), F])
        assert np.array_equal(G.hessian(z), PowerNorm(0.0, 2.0).hessian(z))

    def test_frob2_matches_reduction(self):
        rng = np.random.default_rng(15)
        for shape in [(1, 2), (2, 2), (9, 1, 3), (5, 3, 2, 3)]:
            z = rng.normal(size=shape)
            assert np.array_equal(frob2(z), (z * z).sum(axis=(-2, -1)))
        assert isinstance(frob2(np.ones((2, 3))), np.floating)

    def test_hessian_allocates_one_output(self):
        # the terms add into one buffer: no per-term (S, N, n, N, n) arrays
        F = RegularizedIntegrand(registry.get("aniso3d_q4").integrand, 0.01, 4.0)
        z = np.random.default_rng(16).normal(size=(48000, 1, 3))
        F.hessian(z[:10])
        tracemalloc.start()
        try:
            H = F.hessian(z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * H.nbytes


class TestGrowthSandwich:
    @pytest.mark.parametrize("name", registry.names())
    def test_sandwich_with_registered_constant(self, name):
        e = registry.get(name)
        r = e.regime
        rng = np.random.default_rng(6)
        z = rng.normal(size=(10000,) + e.shape)
        z *= np.exp(rng.uniform(np.log(1e-3), np.log(1e2), size=(10000, 1, 1)))
        ell = ell_mu(r.mu, z)
        vals = e.integrand.value(z)
        assert np.all(vals >= ell ** r.p / r.L - 1e-12)
        assert np.all(vals <= r.L * (ell ** r.p + ell ** r.q) + 1e-12)

    @pytest.mark.parametrize("name", registry.names())
    def test_stress_growth_bound(self, name):
        # |F'(z)| <= c (ell^{p-1} + ell^{q-1}) with a finite sampled c
        e = registry.get(name)
        r = e.regime
        rng = np.random.default_rng(7)
        z = rng.normal(size=(5000,) + e.shape)
        z *= np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=(5000, 1, 1)))
        gn = np.sqrt(frob2(e.integrand.gradient(z)))
        ell = ell_mu(r.mu, z)
        c = (gn / (ell ** (r.p - 1) + ell ** (r.q - 1))).max()
        assert np.isfinite(c) and c <= 4.0 * r.L


class TestEvenPolynomial:
    def test_matches_sum_representation(self):
        e = registry.get("aniso2d_q4")
        rng = np.random.default_rng(8)
        z = rng.normal(size=(50, 1, 2)) * 3
        assert np.abs(e.polynomial.value(z) - e.integrand.value(z)).max() < 1e-10
        assert np.abs(e.polynomial.gradient(z) - e.integrand.gradient(z)).max() < 1e-9
        assert np.abs(e.polynomial.hessian(z) - e.integrand.hessian(z)).max() < 1e-9

    def test_evenness(self):
        P = registry.get("aniso3d_q4").polynomial
        rng = np.random.default_rng(9)
        z = rng.normal(size=(200, 1, 3)) * 5
        assert np.abs(P.value(z) - P.value(-z)).max() < 1e-12

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            HomogeneousForm(1, 2, 12, np.zeros((2,) * 12))

    def test_mixed_monomial_symmetrization(self):
        # z1^2 z2^2 evaluated via the symmetric tensor
        H = HomogeneousForm.from_terms(1, 2, 4, [(1.0, (1, 1, 2, 2))])
        z = np.array([[2.0, 3.0]])
        assert H.value(z) == pytest.approx(4.0 * 9.0)
        g = H.gradient(z)
        assert g[0, 0] == pytest.approx(2 * 2.0 * 9.0)
        assert g[0, 1] == pytest.approx(4.0 * 2 * 3.0)


class TestMoserWeight:
    def test_base_values(self):
        w = MoserWeight(Regime(2, 1, 2.0, 4.0, 1.0, 8.0), -1.0)
        out = w.eval(np.zeros((1, 2)))
        assert out["L"] == pytest.approx(1.0)
        assert out["l_alpha"] == pytest.approx(2.0)

    def test_alpha_zero_weight(self):
        r = Regime(2, 1, 2.0, 4.0, 0.0, 8.0)
        w = MoserWeight(r, 0.0)
        z = np.array([[2.0, 0.0]])
        out = w.eval(z)
        assert out["L"] == pytest.approx(4.0)
        assert out["l_alpha"] == pytest.approx(5.0)  # L^1 + 1

    def test_grad_factor_is_chain_rule(self):
        # finite-difference check of d l_alpha / dz = grad_factor * z
        r = Regime(2, 1, 3.0, 4.0, 0.5, 8.0)
        w = MoserWeight(r, 1.5)
        z = np.array([[0.8, -0.4]])
        h = 1e-6
        for k in range(2):
            dz = np.zeros_like(z)
            dz[0, k] = h
            fd = (w.eval(z + dz)["l_alpha"] - w.eval(z - dz)["l_alpha"]) / (2 * h)
            assert fd == pytest.approx(float(w.eval(z)["grad_factor"] * z[0, k]), rel=1e-5)

    def test_alpha_floor(self):
        with pytest.raises(ValueError):
            MoserWeight(Regime(2, 1, 2.0, 4.0, 0.0, 8.0), -1.5)

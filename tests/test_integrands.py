import math
import tracemalloc
import warnings

import numpy as np
import pytest

from pqvar import registry
from pqvar.growth import sample_hessians, stress_bound_ratio
from pqvar.integrands import (AxisPower, EvenPolynomial, HomogeneousForm, Integrand,
                              MoserWeight, PowerNorm, Scaled, Sum, ell_mu, fd_check, frob2,
                              inner, v_map)
from pqvar.model import Regime, ShapeMismatchError
from pqvar.solver import RegularizedIntegrand


def required_structural_constant(entry, n_samples=20000, radius=1e3, seed=0):
    """Sampled lower bound on any admissible L for a built-in: the largest of the
    sandwich, hessian-upper and ellipticity-lower ratios over the sample."""
    r = entry.regime
    z, eigs, grad_norm = sample_hessians(entry.integrand, entry.shape, n_samples, radius, seed)
    ell = ell_mu(r.mu, z)
    vals = entry.integrand.value(z)
    need = [
        (vals / (ell ** r.p + ell ** r.q)).max(),          # upper sandwich
        (ell ** r.p / vals).max(),                         # lower sandwich
        stress_bound_ratio(eigs, grad_norm, r.q).max(),    # hessian upper
        (ell ** (r.p - 2.0) / eigs[:, 0]).max(),           # ellipticity lower
    ]
    return float(max(need))


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
             AxisPower(2, 5.0), PowerNorm(1.0, 4.0), PowerNorm(0.5, 3.0),
             Sum([PowerNorm(0.0, 2.0), AxisPower(1, 4.0), AxisPower(2, 4.0),
                  Scaled(0.3, PowerNorm(1.0, 4.0)), Scaled(0.7, AxisPower(1, 5.0))])]

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

    # the terms whose factors are numbers (p = 2, b at p = 4) or whose hessian has
    # one slot with t = w^2 (an axis power at N = 1); a power norm with mu > 0 on
    # one entry has one slot too, but t = mu^2 + w^2
    SHORTCUTS = [(F, shape)
                 for F in (AxisPower(1, 4.0), AxisPower(3, 5.0), PowerNorm(0.0, 2.0),
                           PowerNorm(1.0, 4.0), PowerNorm(0.5, 3.0))
                 for shape in ((1, 3), (2, 3), (6, 1, 3), (6, 2, 3), (6, 1, 1))
                 if not (isinstance(F, AxisPower) and F.i > shape[-1])]

    @pytest.mark.parametrize("F, shape", SHORTCUTS, ids=repr)
    def test_shortcuts_match_the_full_form_and_finite_differences(self, F, shape):
        z = np.random.default_rng(20).normal(size=shape)
        g_ref, H_ref = _reference(F, z)
        g, H = F.gradient(z), F.hessian(z)
        assert _rel_err(g, g_ref) <= 1e-14 and _rel_err(H, H_ref) <= 1e-14
        out = fd_check(F, z, 1e-5)
        assert out["grad_err"] <= 1e-8 * (1.0 + np.abs(g_ref).max())
        assert out["hess_err"] <= 1e-8 * (1.0 + np.abs(H_ref).max())
        for idx in np.ndindex(shape[:-2]):  # a single point gives its batch row
            assert np.array_equal(F.gradient(z[idx]), g[idx])
            assert np.array_equal(F.hessian(z[idx]), H[idx])

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
        # an EvenPolynomial is a Sum of its components: inside another Sum they add
        # into the same buffer, in the same order as on their own
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


def _entries(a, entry_ndim):
    """Every entry of a batched array, as an array over the batch axes."""
    return [a[(Ellipsis,) + idx] for idx in np.ndindex(a.shape[-entry_ndim:])]


class TestLayout:
    # the built-in terms and their sums return batches entry-major: each entry is
    # one contiguous array over the batch; a single point is C-contiguous
    TERMS = [PowerNorm(0.0, 2.0), PowerNorm(0.5, 4.0), AxisPower(2, 3.0),
             Sum([PowerNorm(0.0, 2.0), AxisPower(1, 4.0), Scaled(0.3, PowerNorm(1.0, 4.0))])]

    @pytest.mark.parametrize("shape", [(9, 1, 3), (9, 2, 2), (4, 5, 2, 3)])
    @pytest.mark.parametrize("F", TERMS, ids=repr)
    def test_batched_entries_are_contiguous(self, F, shape):
        z = np.random.default_rng(17).normal(size=shape)
        g, H = F.gradient(z), F.hessian(z)
        assert all(e.flags.c_contiguous for e in _entries(g, 2))
        assert all(e.flags.c_contiguous for e in _entries(H, 4))

    @pytest.mark.parametrize("shape", [(9, 1, 3), (9, 2, 2)])
    @pytest.mark.parametrize("F", TERMS, ids=repr)
    def test_single_point_is_c_contiguous_and_matches_its_batch_row(self, F, shape):
        z = np.random.default_rng(18).normal(size=shape)
        g, H = F.gradient(z), F.hessian(z)
        for s in range(shape[0]):
            gs, Hs = F.gradient(z[s]), F.hessian(z[s])
            assert gs.flags.c_contiguous and Hs.flags.c_contiguous
            assert np.array_equal(gs, g[s]) and np.array_equal(Hs, H[s])

    def test_any_input_layout(self):
        # a C-ordered and an entry-major z give the same derivatives
        F = self.TERMS[-1]
        z = np.random.default_rng(19).normal(size=(7, 2, 3))
        zt = np.ascontiguousarray(z.transpose(1, 2, 0)).transpose(2, 0, 1)
        assert np.array_equal(F.gradient(zt), F.gradient(z))
        assert np.array_equal(F.hessian(zt), F.hessian(z))


def ref_value(F, z):
    """Closed-form value of power norms and axis powers and their sums and scalings."""
    if isinstance(F, PowerNorm):
        return (F.mu ** 2 + (z * z).sum(axis=(-2, -1))) ** (F.p / 2.0)
    if isinstance(F, AxisPower):
        return (z[..., :, F.i - 1] ** 2).sum(axis=-1) ** (F.q / 2.0)
    if isinstance(F, Scaled):
        return F.coeff * ref_value(F.inner, z)
    return sum(ref_value(P, z) for P in F.parts)


def nested(mu, p):
    """Power norms and axis powers of exponent p, with a quartic and quadratics,
    through nested sums and scalings."""
    return Sum([Scaled(0.7, Sum([PowerNorm(mu, p), AxisPower(1, p)])),
                Sum([Scaled(0.2, Scaled(1.5, AxisPower(2, p))), PowerNorm(0.0, 2.0)]),
                Scaled(0.3, PowerNorm(mu, 4.0)), AxisPower(1, 2.0)])


def check_table(F, z):
    """F against the closed forms on the batch z; each batch entry contiguous;
    each single point C-contiguous, with the bits of its batch row."""
    v, g, H = F.value(z), F.gradient(z), F.hessian(z)
    g_ref, H_ref = _reference(F, z)
    assert _rel_err(v, ref_value(F, z)) <= 1e-14
    assert _rel_err(g, g_ref) <= 1e-14 and _rel_err(H, H_ref) <= 1e-14
    assert all(e.flags.c_contiguous for e in _entries(g, 2))
    assert all(e.flags.c_contiguous for e in _entries(H, 4))
    for idx in np.ndindex(z.shape[:-2]):
        gs, Hs = F.gradient(z[idx]), F.hessian(z[idx])
        assert gs.flags.c_contiguous and Hs.flags.c_contiguous
        assert F.value(z[idx]) == v[idx]
        assert np.array_equal(gs, g[idx]) and np.array_equal(Hs, H[idx])


class TestTable:
    # a Sum or Scaled of power norms and axis powers evaluates as one table of
    # radial terms, grouped by the entries they read
    @pytest.mark.parametrize("N", [1, 2])
    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0, 5.0])
    @pytest.mark.parametrize("mu", [0.0, 0.5])
    def test_nested_terms_match_closed_forms(self, mu, p, N):
        F = nested(mu, p)
        assert F._table.cols == [None, 1, 2] and not F._others
        rng = np.random.default_rng(int(10 * p) + N)
        for shape in ((8, N, 3), (3, 2, N, 3)):
            z = rng.normal(size=shape) * np.exp(rng.uniform(-3.0, 2.0, size=shape[:-2] + (1, 1)))
            z[(0,) * (len(shape) - 2)] = 0.0  # a point at the degenerate corner
            z[(1,) * (len(shape) - 2) + (slice(None), 0)] = 0.0  # and a zero column
            check_table(F, z)

    @pytest.mark.parametrize("regularized", [False, True])
    @pytest.mark.parametrize("name", registry.names())
    def test_builtins_match_closed_forms(self, name, regularized):
        e = registry.get(name)
        F = RegularizedIntegrand(e.integrand, 0.01, e.regime.q) if regularized else e.integrand
        rng = np.random.default_rng(26)
        z = rng.normal(size=(20,) + e.shape) * np.exp(rng.uniform(-4.0, 2.5, size=(20, 1, 1)))
        z[0] = 0.0
        check_table(F, z)

    @pytest.mark.parametrize("p", [2.5, 3.0, 3.5])
    def test_degenerate_corner_of_a_sum_takes_the_limits_quietly(self, p):
        # at mu = 0 and 2 < p < 4 the second factor t^((p-4)/2) has no value at
        # t = 0: the table takes the limit 0 there, with no RuntimeWarning
        F = Sum([Scaled(0.5, PowerNorm(0.0, p)), AxisPower(2, p),
                 Scaled(2.0, Sum([AxisPower(1, p), PowerNorm(0.0, 2.0)]))])
        zc = np.array([[[0.0, 1.5], [0.0, -2.0]], [[0.7, 0.0], [-0.2, 0.0]]])  # a zero column
        eye = 4.0 * np.eye(4).reshape(2, 2, 2, 2)  # the hessian of 2 |z|^2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for z0 in (np.zeros((3, 2, 2)), np.zeros((2, 2))):
                assert not np.any(F.value(z0)) and not F.gradient(z0).any()
                assert np.array_equal(F.hessian(z0), np.broadcast_to(eye, z0.shape + (2, 2)))
            g_ref, H_ref = _reference(F, zc)
            assert _rel_err(F.gradient(zc), g_ref) <= 1e-14
            assert _rel_err(F.hessian(zc), H_ref) <= 1e-14
            for k in range(2):
                assert np.array_equal(F.hessian(zc[k]), F.hessian(zc)[k])


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
    def test_registered_constant_dominates_sample(self, name):
        e = registry.get(name)
        assert e.regime.L >= required_structural_constant(e, seed=1)

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


def octic(N, n):
    """|z|^2 + sum of the eighth powers of the entries, as an EvenPolynomial."""
    d = N * n
    return EvenPolynomial([
        HomogeneousForm.from_terms(N, n, 2, [(1.0, (k, k)) for k in range(1, d + 1)]),
        HomogeneousForm.from_terms(N, n, 8, [(1.0, (k,) * 8) for k in range(1, d + 1)])])


def mixed():
    """A 2x2 polynomial with every degree from 0 to 4, whose even-degree monomials
    have odd exponents; flat entries 1..4 are z11, z12, z21, z22:
    0.5 + 0.7 z11 - 1.3 z22 + z11^2 + 3 z12 z21 + 2 z22^2
        + z11 z12^3 - 2 z11 z12 z21 z22 + z21^4."""
    return EvenPolynomial([
        HomogeneousForm.from_terms(2, 2, 4, [(1.0, (1, 2, 2, 2)), (-2.0, (1, 2, 3, 4)),
                                             (1.0, (3, 3, 3, 3))]),
        HomogeneousForm.from_terms(2, 2, 0, [(0.5, ())]),
        HomogeneousForm.from_terms(2, 2, 2, [(1.0, (1, 1)), (3.0, (2, 3)), (2.0, (4, 4))]),
        HomogeneousForm.from_terms(2, 2, 1, [(0.7, (1,)), (-1.3, (4,))])])


def mixed_reference(z):
    """Value, gradient and hessian of `mixed`, written out by hand."""
    a, b, c, e = (z[..., i, j] for i in range(2) for j in range(2))
    one = np.ones_like(a)
    value = (0.5 + 0.7 * a - 1.3 * e + a ** 2 + 3 * b * c + 2 * e ** 2
             + a * b ** 3 - 2 * a * b * c * e + c ** 4)
    grad = [0.7 + 2 * a + b ** 3 - 2 * b * c * e,
            3 * c + 3 * a * b ** 2 - 2 * a * c * e,
            3 * b - 2 * a * b * e + 4 * c ** 3,
            -1.3 + 4 * e - 2 * a * b * c]
    upper = {(0, 0): 2 * one, (0, 1): 3 * b ** 2 - 2 * c * e, (0, 2): -2 * b * e,
             (0, 3): -2 * b * c, (1, 1): 6 * a * b, (1, 2): 3 - 2 * a * e,
             (1, 3): -2 * a * c, (2, 2): 12 * c ** 2, (2, 3): -2 * a * b, (3, 3): 4 * one}
    hess = [[upper[min(k, m), max(k, m)] for m in range(4)] for k in range(4)]
    g = np.stack(grad, axis=-1).reshape(z.shape)
    H = np.stack([np.stack(row, axis=-1) for row in hess], axis=-2).reshape(z.shape + (2, 2))
    return value, g, H


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
        assert np.array_equal(P.value(z), P.value(-z))

    @pytest.mark.parametrize("P", [registry.get("aniso3d_q4").polynomial, mixed()],
                             ids=["aniso3d_q4", "mixed"])
    def test_even_components_have_exact_parity(self, P):
        # powers are runs of products, so parity holds to the bit: the value and
        # the hessian are even, the gradient is odd
        E = EvenPolynomial([c for c in P.components if c.degree % 2 == 0])
        z = np.random.default_rng(21).normal(size=(300,) + (P.N, P.n)) * 5
        assert np.array_equal(E.value(z), E.value(-z))
        assert np.array_equal(E.gradient(z), -E.gradient(-z))
        assert np.array_equal(E.hessian(z), E.hessian(-z))

    def test_mixed_monomials_match_their_formulas(self):
        P = mixed()
        assert [c.degree for c in P.components] == [0, 1, 2, 4] and P.degree == 4
        assert P.growth_exponents() == (1.0, 4.0)
        z = np.random.default_rng(22).normal(size=(40, 2, 2)) * 2
        v_ref, g_ref, H_ref = mixed_reference(z)
        assert _rel_err(P.value(z), v_ref) <= 1e-14
        assert _rel_err(P.gradient(z), g_ref) <= 1e-14
        assert _rel_err(P.hessian(z), H_ref) <= 1e-14
        for k in range(5):
            g, H = P.gradient(z[k]), P.hessian(z[k])
            out = fd_check(P, z[k], 1e-5)
            assert out["grad_err"] <= 1e-8 * (1.0 + np.abs(g).max())
            assert out["hess_err"] <= 1e-8 * (1.0 + np.abs(H).max())

    @pytest.mark.parametrize("shape", [(9, 2, 2), (4, 5, 2, 2)])
    def test_batches_are_entry_major_and_single_points_their_rows(self, shape):
        z = np.random.default_rng(23).normal(size=shape)
        for F in (mixed(), mixed().components[-1]):
            g, H = F.gradient(z), F.hessian(z)
            assert all(e.flags.c_contiguous for e in _entries(g, 2))
            assert all(e.flags.c_contiguous for e in _entries(H, 4))
            for idx in np.ndindex(shape[:-2]):
                gs, Hs = F.gradient(z[idx]), F.hessian(z[idx])
                assert gs.flags.c_contiguous and Hs.flags.c_contiguous
                assert F.value(z[idx]) == F.value(z)[idx]
                assert np.array_equal(gs, g[idx]) and np.array_equal(Hs, H[idx])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            mixed().value(np.zeros((1, 4)))

    def test_like_terms_combine(self):
        H = HomogeneousForm.from_terms(1, 2, 4, [(1.0, (1, 1, 2, 2)), (2.0, (2, 1, 2, 1))])
        assert H.monomials == ((3.0, (2, 2)),)
        Z = HomogeneousForm.from_terms(2, 2, 3, [(1.5, (1, 2, 4)), (-1.5, (4, 1, 2))])
        assert Z.monomials == ()
        assert not Z.value(np.ones((3, 2, 2))).any()

    @pytest.mark.parametrize("coeff", [math.nan, math.inf, -math.inf])
    def test_non_finite_coefficient_rejected(self, coeff):
        with pytest.raises(ValueError, match="must be finite"):
            HomogeneousForm.from_terms(1, 2, 4, [(1.0, (1, 1, 2, 2)), (coeff, (1, 1, 1, 1))])

    def test_degree_twelve(self):
        # no degree cap: z_1^12 and its derivatives
        H = HomogeneousForm.from_terms(1, 2, 12, [(1.0, (1,) * 12)])
        z = np.random.default_rng(24).normal(size=(30, 1, 2)) * 1.5
        x = z[:, 0, 0]
        g_ref, H_ref = np.zeros_like(z), np.zeros(z.shape + (1, 2))
        g_ref[:, 0, 0] = 12.0 * x ** 11
        H_ref[:, 0, 0, 0, 0] = 132.0 * x ** 10
        assert _rel_err(H.value(z), x ** 12) <= 1e-14
        assert _rel_err(H.gradient(z), g_ref) <= 1e-14
        assert _rel_err(H.hessian(z), H_ref) <= 1e-14

    def test_memory_follows_the_batch(self):
        # a dense symmetric tensor of the octic, contracted with the batch at the
        # first slot, held d^7 floats per point: 328 MB here
        P = octic(2, 2)
        z = np.random.default_rng(25).normal(size=(2000, 2, 2))
        P.hessian(z[:10])
        tracemalloc.start()
        try:
            P.hessian(z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8e6

    def test_mixed_monomial_symmetrization(self):
        # z1^2 z2^2 and its gradient
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

    def test_alpha_floor(self):
        with pytest.raises(ValueError):
            MoserWeight(Regime(2, 1, 2.0, 4.0, 0.0, 8.0), -1.5)

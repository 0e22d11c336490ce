import math

import numpy as np
import pytest
import scipy.optimize

from pqvar import duality, registry, solver
from pqvar.duality import (DEFAULT_TOL, NonConvergenceError, _newton_seed, conjugate,
                           fenchel_young_gap, inverse_gradient, monotonicity_ratios)
from pqvar.integrands import (AxisPower, EvenPolynomial, HomogeneousForm, Integrand, PowerNorm,
                              Scaled, Sum, ell_mu, flatten_form, frob2, inner, v_map)
from pqvar.model import Regime

MODEL = Sum([PowerNorm(0.0, 2.0), AxisPower(1, 4.0)])
MODEL_REGIME = Regime(2, 1, 2.0, 4.0, 0.0, 8.0)


def grid_conjugate_1d(F, xi, lo=-10.0, hi=10.0, step=1e-4):
    """Brute-force grid maximization of z*xi - F(z) for 1x1 arguments."""
    zs = np.arange(lo, hi + step, step).reshape(-1, 1, 1)
    vals = zs[:, 0, 0] * xi - F.value(zs)
    return float(vals.max())


class TestConjugateClosedForms:
    def test_quadratic(self):
        xi = np.array([[3.0, -1.0]])
        res = conjugate(PowerNorm(0.0, 2.0), xi)
        assert res.value == pytest.approx(float(frob2(xi)) / 4.0, abs=1e-12)
        assert np.abs(res.argmax - xi / 2).max() < 1e-10

    def test_quartic_scalar(self):
        F = Scaled(0.25, PowerNorm(0.0, 4.0))
        for xi in (0.5, 2.0, -7.0):
            res = conjugate(F, np.array([[xi]]))
            assert res.value == pytest.approx(0.75 * abs(xi) ** (4.0 / 3.0), rel=1e-10)

    def test_quartic_against_grid_oracle(self):
        F = Scaled(0.25, PowerNorm(0.0, 4.0))
        rng = np.random.default_rng(10)
        for xi in rng.uniform(-10, 10, size=8):
            oracle = grid_conjugate_1d(F, xi)
            assert conjugate(F, np.array([[xi]])).value == pytest.approx(oracle, abs=1e-4)

    def test_model_against_2d_grid_oracle(self):
        xi = np.array([[1.0, 0.0]])
        res = conjugate(MODEL, xi)
        ax = np.arange(-2.0, 2.0, 5e-3)
        Z = np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1).reshape(-1, 1, 2)
        vals = inner(Z, xi) - MODEL.value(Z)
        best = int(np.argmax(vals))
        assert res.value == pytest.approx(float(vals.max()), abs=1e-4)
        # refine around the coarse argmax to pin the maximizer itself
        c = Z[best, 0]
        fx = np.arange(c[0] - 0.01, c[0] + 0.01, 5e-5)
        fy = np.arange(c[1] - 0.01, c[1] + 0.01, 5e-5)
        Zf = np.stack(np.meshgrid(fx, fy, indexing="ij"), axis=-1).reshape(-1, 1, 2)
        vf = inner(Zf, xi) - MODEL.value(Zf)
        zstar = Zf[int(np.argmax(vf))]
        assert np.abs(res.argmax - zstar).max() <= 1e-4

    def test_invalid_tolerance(self):
        with pytest.raises(ValueError):
            conjugate(PowerNorm(0.0, 2.0), np.zeros((1, 2)), tol=0.0)


class TestInverseGradient:
    def test_round_trips(self):
        rng = np.random.default_rng(11)
        for name in ("aniso2d_q4", "quartic_iso", "aniso3d_q5"):
            e = registry.get(name)
            for _ in range(40):
                z = rng.normal(size=e.shape)
                z *= rng.uniform(0.05, 10.0) / max(np.sqrt(float(frob2(z))), 1e-12)
                zi = inverse_gradient(e.integrand, e.integrand.gradient(z), tol=1e-12)
                assert np.abs(zi - z).max() <= 1e-8 * (1 + np.sqrt(float(frob2(z))))

    def test_forward_round_trip(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            xi = rng.normal(size=(1, 2)) * rng.uniform(0.1, 20)
            z = inverse_gradient(MODEL, xi)
            assert np.abs(MODEL.gradient(z) - xi).max() <= 1e-9

    def test_quadratic_inverse(self):
        xi = np.array([[4.0, -2.0]])
        assert np.abs(inverse_gradient(PowerNorm(0.0, 2.0), xi) - xi / 2).max() < 1e-10

    @pytest.mark.parametrize("name, z", [
        ("quartic_iso", [[6.302448288980706, 7.518309300341385]]),
        ("aniso2d_q4_vec", [[8.130623645282695, -0.8366253268615534],
                            [2.6625959242598753, 2.46835144398055]]),
    ])
    def test_large_gradient_converges_at_tight_tolerance(self, name, z):
        # at |F'(z)| of several hundred round-off keeps the residual above an
        # absolute 1e-13; the tolerance is relative to |xi| there
        F = registry.get(name).integrand
        z = np.array(z)
        res = conjugate(F, F.gradient(z), tol=1e-13)
        assert np.abs(res.argmax - z).max() <= 1e-12 * (1 + np.sqrt(float(frob2(z))))


def inverse_gradient_jacobian(F, xi, h=1e-5):
    """Central differences of xi -> inverse_gradient(F, xi): (F*)''(xi) as a matrix."""
    xi = np.asarray(xi, dtype=float)
    cols = []
    for k in range(xi.size):
        e = np.zeros(xi.size)
        e[k] = h
        e = e.reshape(xi.shape)
        cols.append((inverse_gradient(F, xi + e, tol=1e-13)
                     - inverse_gradient(F, xi - e, tol=1e-13)).reshape(-1) / (2 * h))
    return np.stack(cols, axis=1)


class TestConjugateHessian:
    def test_quadratic_inverse_form(self):
        # (|z|^2)* = |xi|^2 / 4, whose hessian is I/2
        J = inverse_gradient_jacobian(PowerNorm(0.0, 2.0), np.array([[1.0, 2.0]]))
        assert np.abs(J - np.eye(2) / 2).max() < 1e-8

    def test_product_is_identity(self):
        # (F*)''(F'(z)) = F''(z)^-1
        rng = np.random.default_rng(13)
        for _ in range(10):
            z = rng.normal(size=(1, 2)) * rng.uniform(0.2, 5)
            A = flatten_form(MODEL.hessian(z))
            h = 1e-6 * (1 + np.abs(z).max())
            B = inverse_gradient_jacobian(MODEL, MODEL.gradient(z), h=h)
            assert np.abs(A @ B - np.eye(2)).max() < 1e-6

    def test_singular_at_degenerate_corner(self):
        # F = |z|^4 has F''(0) = 0: its inverse gradient (|xi|/4)^(1/3) xi/|xi| is
        # continuous at 0 but with unbounded slope there
        F = PowerNorm(0.0, 4.0)
        assert np.abs(inverse_gradient(F, np.zeros((1, 2)))).max() == 0.0
        d = np.array([[0.6, -0.8]])
        slopes = []
        for r in (1.0, 1e-3, 1e-6):
            z = inverse_gradient(F, r * d)
            assert np.abs(z - (r / 4.0) ** (1.0 / 3.0) * d).max() <= 1e-4 * (r / 4.0) ** (1.0 / 3.0)
            slopes.append(math.sqrt(float(frob2(z))) / r)
        assert slopes[2] > 1e3 * slopes[0]

    @pytest.mark.parametrize("name", registry.names())
    def test_eigenvalue_sandwich(self, name):
        # all eigenvalues of (F*)''(F'(z)) inside [ (1/2L) ell_1(F')^{q'-2}, L ell_mu(z)^{2-p} ]
        e = registry.get(name)
        r = e.regime
        rng = np.random.default_rng(14)
        z = rng.normal(size=(10000,) + e.shape)
        z *= np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=(10000, 1, 1)))
        eigs = np.linalg.eigvalsh(flatten_form(e.integrand.hessian(z)))
        lam_min, lam_max = eigs[:, 0], eigs[:, -1]
        gnorm = ell_mu(1.0, e.integrand.gradient(z))
        upper_ok = 1.0 / lam_min <= r.L * ell_mu(r.mu, z) ** (2.0 - r.p) * (1 + 1e-12)
        lower_ok = 1.0 / lam_max >= gnorm ** (r.q_conj - 2.0) / (2.0 * r.L) * (1 - 1e-12)
        assert upper_ok.all() and lower_ok.all()


class TestFenchelYoung:
    def test_zero_gap_at_gradient(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            z = rng.normal(size=(1, 2)) * rng.uniform(0.1, 3)
            assert fenchel_young_gap(MODEL, z, MODEL.gradient(z)) <= 1e-8

    def test_nonnegative_gap_ten_thousand_pairs(self):
        # F*(xi) is shared across a z-batch, so 10^4 pairs need only 100 solves
        rng = np.random.default_rng(16)
        zs = rng.normal(size=(100, 1, 2)) * rng.uniform(0.05, 3, size=(100, 1, 1))
        worst = math.inf
        for _ in range(100):
            xi = rng.normal(size=(1, 2)) * rng.uniform(0.05, 3)
            star = conjugate(MODEL, xi).value
            gaps = MODEL.value(zs) + star - inner(zs, xi)
            worst = min(worst, float(gaps.min()))
        assert worst >= -1e-10

    def test_quadratic_example(self):
        z = np.array([[1.0, 0.0]])
        assert fenchel_young_gap(PowerNorm(0.0, 2.0), z, np.zeros((1, 2))) == pytest.approx(1.0)

    def test_gap_detects_mismatched_dual_pair(self):
        # zero gap characterizes xi = F'(z): a separated xi gives a visible gap
        z = np.array([[0.5, -0.3]])
        xi = MODEL.gradient(z) + np.array([[0.1, 0.0]])
        assert fenchel_young_gap(MODEL, z, xi) > 1e-6


class TestConjugateOrder:
    """Conjugation reverses order: F <= G pointwise gives G* <= F*."""

    def test_added_axis_power_lowers_the_conjugate(self):
        # MODEL <= MODEL + z2^4, strictly off z2 = 0; the maximizer of MODEL at
        # xi2 = 0 has z2 = 0, where the two agree, so the conjugates agree there
        full = Sum([PowerNorm(0.0, 2.0), AxisPower(1, 4.0), AxisPower(2, 4.0)])
        rng = np.random.default_rng(17)
        for _ in range(20):
            xi = rng.normal(size=(1, 2)) * rng.uniform(0.5, 10)
            assert conjugate(full, xi).value < conjugate(MODEL, xi).value
        xi = np.array([[2.5, 0.0]])
        assert conjugate(full, xi).value == pytest.approx(conjugate(MODEL, xi).value, rel=1e-12)

    def test_dominated_quadratic_reverses(self):
        # |z|^2 <= 2|z|^2, and (2|z|^2)* = |xi|^2/8 <= |xi|^2/4 = (|z|^2)*
        rng = np.random.default_rng(18)
        small, large = PowerNorm(0.0, 2.0), Scaled(2.0, PowerNorm(0.0, 2.0))
        for _ in range(20):
            xi = rng.normal(size=(1, 2)) * rng.uniform(0.1, 10)
            lo, hi = conjugate(large, xi).value, conjugate(small, xi).value
            assert lo == pytest.approx(float(frob2(xi)) / 8.0, rel=1e-10)
            assert hi == pytest.approx(float(frob2(xi)) / 4.0, rel=1e-10)
            assert lo < hi

    def test_model_dominates_its_quadratic_part(self):
        # |z|^2 <= |z|^2 + z1^4, so MODEL* <= |xi|^2/4, with equality along xi1 = 0
        rng = np.random.default_rng(19)
        for _ in range(20):
            xi = rng.normal(size=(1, 2)) * rng.uniform(0.1, 10)
            assert conjugate(MODEL, xi).value <= float(frob2(xi)) / 4.0 * (1 + 1e-12)
        xi = np.array([[0.0, 3.0]])
        assert conjugate(MODEL, xi).value == pytest.approx(9.0 / 4.0, rel=1e-12)


class TestBiconjugation:
    def test_double_conjugate_recovers_values(self):
        # maximize <z, xi> - F*(xi) with an independent optimizer driving
        # conjugate() as a black box; the result must reproduce F(z)
        rng = np.random.default_rng(17)
        for _ in range(6):
            z = rng.normal(size=(1, 2)) * rng.uniform(0.2, 2)

            def neg_obj(xi_flat):
                xi = xi_flat.reshape(1, 2)
                star = conjugate(MODEL, xi, tol=1e-12)
                return float(star.value - inner(z, xi)), \
                    (star.argmax - z).reshape(-1)

            x0 = MODEL.gradient(z).reshape(-1) * rng.uniform(0.3, 1.7)
            out = scipy.optimize.minimize(neg_obj, x0, jac=True, method="BFGS",
                                          options={"gtol": 1e-10})
            assert -out.fun == pytest.approx(float(MODEL.value(z)), abs=1e-6)


class TestCoerciveDual:
    @pytest.mark.parametrize("name", ["aniso2d_q4", "quad", "quartic_iso"])
    def test_conjugate_growth_envelope(self, name):
        # c^-1 |xi|^{q'} - c <= F*(xi) <= c |xi|^{p'} + c with a recorded finite c
        e = registry.get(name)
        r = e.regime
        rng = np.random.default_rng(18)
        c_needed = 1.0
        for _ in range(60):
            xi = rng.normal(size=e.shape)
            xi *= 10 ** rng.uniform(-3, 3) / max(np.sqrt(float(frob2(xi))), 1e-12)
            star = conjugate(e.integrand, xi).value
            norm = np.sqrt(float(frob2(xi)))
            c_up = star / (norm ** (r.p / (r.p - 1.0)) + 1.0)
            c_lo = 0.5 * (-star + math.sqrt(star * star + 4.0 * norm ** r.q_conj))
            c_needed = max(c_needed, c_up, c_lo)
        assert np.isfinite(c_needed)

    def test_flat_objective_skips_line_search(self):
        # near the maximizer the objective is flat at machine precision; halving
        # the step there until t < 1e-18 costs about 60 evaluations per point
        class Counting(Integrand):
            def __init__(self, base):
                self.base, self.values = base, 0

            def value(self, z):
                self.values += 1
                return self.base.value(z)

            def gradient(self, z):
                return self.base.gradient(z)

            def hessian(self, z):
                return self.base.hessian(z)

            def growth_exponents(self):
                return self.base.growth_exponents()

        rng = np.random.default_rng(20)
        F = Counting(registry.get("aniso2d_q4").integrand)
        iters = 0
        for _ in range(20):
            z = rng.normal(size=(1, 2)) * rng.uniform(0.1, 10.0)
            res = conjugate(F, F.gradient(z), tol=1e-13)
            assert np.abs(res.argmax - z).max() <= 1e-10 * (1 + np.sqrt(float(frob2(z))))
            iters += res.newton_iters
        assert F.values <= 3 * iters

    def test_iteration_budget(self):
        rng = np.random.default_rng(19)
        for name in registry.names():
            e = registry.get(name)
            for _ in range(100):
                xi = rng.normal(size=e.shape)
                xi *= 10 ** rng.uniform(-3, 3) / max(np.sqrt(float(frob2(xi))), 1e-12)
                assert conjugate(e.integrand, xi).newton_iters <= 60


class TestNewtonCore:
    def test_one_error_class(self):
        assert solver.NonConvergenceError is duality.NonConvergenceError

    def test_nonconvergence_carries_partial_state(self, monkeypatch):
        F = registry.get("aniso2d_q4_vec").integrand
        xi = F.gradient(np.array([[2.0, -1.0], [0.5, 3.0]]))
        monkeypatch.setattr(duality, "MAX_ITERS", 1)
        with pytest.raises(NonConvergenceError) as exc:
            conjugate(F, xi)
        assert exc.value.z.shape == (2, 2)
        assert exc.value.residual > DEFAULT_TOL * np.sqrt(float(frob2(xi)))

    def test_failed_cholesky_is_a_counted_gradient_step(self, monkeypatch):
        # one Cholesky failure turns one Newton step into a gradient step, which
        # the result counts; a regular conjugation counts none
        F = registry.get("aniso2d_q4_vec").integrand
        xi = F.gradient(np.array([[2.0, -1.0], [0.5, 3.0]]))
        regular = conjugate(F, xi)
        assert regular.gradient_fallbacks == 0 and regular.newton_iters >= 1
        cholesky, calls = np.linalg.cholesky, []

        def failing_once(*args, **kw):
            calls.append(1)
            if len(calls) == 1:
                raise np.linalg.LinAlgError("Matrix is not positive definite")
            return cholesky(*args, **kw)

        monkeypatch.setattr(np.linalg, "cholesky", failing_once)
        res = conjugate(F, xi)
        assert res.gradient_fallbacks == 1
        assert np.abs(F.gradient(res.argmax) - xi).max() <= DEFAULT_TOL * np.sqrt(float(frob2(xi)))
        assert res.value == pytest.approx(regular.value, rel=1e-12)

    @pytest.mark.parametrize("norm", [1e-3, 0.5, 7.0])
    def test_seed_is_the_ray_maximizer(self, norm):
        # for a radial integrand the maximizer lies on the ray of xi, where the
        # two-power fit of F is exact, so the seed is the maximizer itself
        d = np.array([[0.6, -0.8]])
        for F, radius in [(PowerNorm(0.0, 4.0), (norm / 4.0) ** (1.0 / 3.0)),
                          (Scaled(0.25, PowerNorm(0.0, 4.0)), norm ** (1.0 / 3.0)),
                          (PowerNorm(1.0, 2.0), norm / 2.0)]:
            z0 = _newton_seed(F, norm * d)
            np.testing.assert_allclose(z0, radius * d, rtol=1e-14, atol=0.0)
            np.testing.assert_allclose(F.gradient(z0), norm * d, rtol=1e-14, atol=0.0)

    def test_degree_one_component(self):
        # growth exponents (1, 2): no two-power fit, the seed falls back to xi/|xi|
        c = np.array([0.7, -1.3])
        F = EvenPolynomial([HomogeneousForm.from_terms(1, 2, 1, [(0.7, (1,)), (-1.3, (2,))]),
                            HomogeneousForm.from_terms(1, 2, 2, [(1.0, (1, 1)), (1.0, (2, 2))])])
        assert F.growth_exponents() == (1.0, 2.0)
        for xi in (np.array([[3.0, 4.0]]), np.array([[-2e-3, 1e-3]]), np.array([[0.7, -1.3]])):
            res = conjugate(F, xi)
            np.testing.assert_allclose(F.gradient(res.argmax), xi, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(res.argmax, (xi - c) / 2.0, rtol=0.0, atol=1e-12)

    def test_radial_builtins_take_no_iterations(self):
        # the seed is the maximizer, to round-off, on 30 rays at |xi| in [1e-3, 1e3]
        for name in ("quad", "nondeg_quad", "quartic_iso"):
            F = registry.get(name).integrand
            for k, norm in enumerate(np.logspace(-3.0, 3.0, 30)):
                angle = 0.3 + 2.0 * math.pi * k / 30
                xi = norm * np.array([[math.cos(angle), math.sin(angle)]])
                assert conjugate(F, xi, tol=1e-13).newton_iters == 0, (name, norm)

    def test_anisotropic_iteration_totals(self):
        # 100 fixed points per built-in at |xi| in [1e-3, 1e3]: the ray-fit seed
        # takes 318-358 iterations per built-in, a seed from the growth exponents
        # alone, |z0| = |xi|^(1/(p-1)) or |xi|^(1/(q-1)), takes 435-485
        totals = {}
        for name in ("aniso2d_q4", "aniso2d_q4_vec", "aniso3d_q4", "aniso3d_q5"):
            e = registry.get(name)
            rng = np.random.default_rng(31)
            totals[name] = 0
            for _ in range(100):
                xi = rng.normal(size=e.shape)
                xi *= 10 ** rng.uniform(-3, 3) / np.sqrt(float(frob2(xi)))
                totals[name] += conjugate(e.integrand, xi, tol=1e-13).newton_iters
        assert max(totals.values()) <= 380, totals

    def test_small_xi_at_high_power_converges(self):
        # from a seed much closer to 0 than the maximizer, the hessian of |z|^20
        # fails the conditioning test and the line search stalls
        F = PowerNorm(0.0, 20.0)
        xi = np.array([[6e-4, 8e-4]])
        res = conjugate(F, xi)
        assert np.abs(F.gradient(res.argmax) - xi).max() <= DEFAULT_TOL

    def test_iteration_count_pinned(self):
        # Newton iterations over 10 seeded points per built-in; a change to the
        # loop, the seed or the Newton step that moves the total must say so
        rng = np.random.default_rng(24)
        totals = {}
        for name in registry.names():
            e = registry.get(name)
            totals[name] = 0
            for _ in range(10):
                xi = rng.normal(size=e.shape)
                xi *= 10 ** rng.uniform(-3, 3) / np.sqrt(float(frob2(xi)))
                totals[name] += conjugate(e.integrand, xi, tol=1e-13).newton_iters
        assert sum(totals.values()) == 130, totals


class TestMonotonicity:
    def test_degenerate_pair_is_nan(self):
        z = np.array([[1.0, 0.0]])
        assert math.isnan(float(monotonicity_ratios(MODEL, MODEL_REGIME, z, z)))

    def test_quadratic_bound(self):
        r22 = Regime(2, 1, 2.0, 2.0, 0.0, 2.5)
        rng = np.random.default_rng(20)
        z1, z2 = rng.normal(size=(2, 50, 1, 2))
        out = monotonicity_ratios(PowerNorm(0.0, 2.0), r22, z1, z2)
        assert out.shape == (50,)
        assert np.all((out > 0.0) & (out <= 2.0))

    def test_positive_infimum_recorded(self):
        rng = np.random.default_rng(21)
        z1 = rng.normal(size=(100000, 1, 2)) * np.exp(rng.uniform(-4, 2, size=(100000, 1, 1)))
        z2 = rng.normal(size=(100000, 1, 2)) * np.exp(rng.uniform(-4, 2, size=(100000, 1, 1)))
        ratios = monotonicity_ratios(MODEL, MODEL_REGIME, z1, z2)
        ratios = ratios[~np.isnan(ratios)]
        assert float(ratios.min()) > 0.0

    def test_normalized_lower_bound(self):
        # F(z) - F(0) - <F'(0), z> dominates the squared V-quantities
        rng = np.random.default_rng(22)
        for name in ("aniso2d_q4", "nondeg_quad"):
            e = registry.get(name)
            r = e.regime
            F = e.integrand
            z0 = np.zeros(e.shape)
            f0 = float(F.value(z0))
            g0 = F.gradient(z0)
            z = rng.normal(size=(5000,) + e.shape)
            z *= np.exp(rng.uniform(np.log(1e-2), np.log(30), size=(5000, 1, 1)))
            tilted = F.value(z) - f0 - inner(g0, z)
            vq = v_map(1.0, r.q_conj, F.gradient(z) - g0)
            denom = frob2(v_map(r.mu, r.p, z)) + frob2(vq)
            keep = denom > 0
            c_emp = (tilted[keep] / denom[keep]).min()
            assert c_emp > 0.0

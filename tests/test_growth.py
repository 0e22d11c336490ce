import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqvar import growth, registry
from pqvar.growth import (DegenerateFormError, EllipticityViolationError, NotEvenError,
                          check_legendre, delta_of_homogeneous, gehring_exponent,
                          homogeneous_decomposition, polynomial_growth_exponents,
                          sample_hessians, stress_bound_ratio)
from pqvar.integrands import (AxisPower, EvenPolynomial, HomogeneousForm, PowerNorm,
                              Scaled, Sum, frob2)
from pqvar.model import InvalidRegimeError, Regime

ANISO = registry.get("aniso2d_q4")
MODEL = Sum([PowerNorm(0.0, 2.0), AxisPower(1, 4.0)])  # |z|^2 + z1^4
QUADRATIC = HomogeneousForm.from_terms(1, 2, 2, [(1.0, (1, 1)), (1.0, (2, 2))])  # |z|^2


class TestSampledHessians:
    """`sample_hessians` and `stress_bound_ratio`, the sampler and ratio behind
    `check_legendre` and `polynomial_growth_exponents`, against closed forms."""

    def test_shifted_quadratic(self):
        # 1 + |z|^2 has hessian 2I everywhere, so its stress ratio at q = 2 is 2/2
        _, eigs, _ = sample_hessians(PowerNorm(1.0, 2.0), (1, 2), 64, 10.0, seed=5)
        assert np.abs(eigs - 2.0).max() < 1e-12
        assert np.abs(stress_bound_ratio(eigs, np.ones(64), 2.0) - 1.0).max() < 1e-12

    @pytest.mark.parametrize("radius", [0.1, 1.0, 10.0, 100.0])
    def test_model_eigenvalues(self, radius):
        # |z|^2 + z1^4 has hessian diag(2 + 12 z1^2, 2)
        z, eigs, grad_norm = sample_hessians(MODEL, (1, 2), 256, radius, seed=6)
        z1 = z[:, 0, 0]
        assert np.abs(eigs[:, 0] - 2.0).max() < 1e-12 * (1.0 + radius ** 2)
        assert np.allclose(eigs[:, 1], 2.0 + 12.0 * z1 * z1, rtol=1e-12, atol=1e-12)
        exact = np.hypot(2.0 * z1 + 4.0 * z1 ** 3, 2.0 * z[:, 0, 1])
        assert np.allclose(grad_norm, exact, rtol=1e-12, atol=0.0)
        radii = np.sqrt(frob2(z))
        assert radii.min() >= 1e-3 * (1 - 1e-12) and radii.max() <= radius * (1 + 1e-12)

    def test_ratio_blows_up_while_stress_ratio_stays_bounded(self):
        # lambda_max/lambda_min = 1 + 6 z1^2 is unbounded, but
        # |F''| / (1 + |F'|^(2/3)) <= 12 t^2 / (4 t^3)^(2/3) + o(1) stays bounded
        ratios, stress = [], []
        for radius in (10.0, 100.0, 1000.0):
            _, eigs, grad_norm = sample_hessians(MODEL, (1, 2), 4096, radius, seed=7)
            ratios.append((eigs[:, -1] / eigs[:, 0]).max())
            stress.append(stress_bound_ratio(eigs, grad_norm, 4.0).max())
        assert ratios[2] > ratios[1] > ratios[0] > 1.0
        assert ratios[2] > 1e5
        assert max(stress) <= 12.0 / 4.0 ** (2.0 / 3.0) + 0.1

    def test_2x2_characteristic_polynomial_oracle(self):
        z, eigs, _ = sample_hessians(ANISO.integrand, (1, 2), 200, 5.0, seed=30)
        H = ANISO.integrand.hessian(z).reshape(200, 2, 2)
        tr = H[:, 0, 0] + H[:, 1, 1]
        det = H[:, 0, 0] * H[:, 1, 1] - H[:, 0, 1] * H[:, 1, 0]
        disc = np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0))
        assert np.allclose(eigs[:, 0], (tr - disc) / 2, rtol=1e-10, atol=1e-12)
        assert np.allclose(eigs[:, 1], (tr + disc) / 2, rtol=1e-10, atol=1e-12)

    def test_degenerate_point(self):
        # |z|^4 has eigenvalues 4|z|^2 and 12|z|^2: both vanish at z = 0
        z, eigs, grad_norm = sample_hessians(PowerNorm(0.0, 4.0), (1, 2), 256, 10.0, seed=8)
        r2 = frob2(z)
        assert np.allclose(eigs[:, 0], 4.0 * r2, rtol=1e-12, atol=0.0)
        assert np.allclose(eigs[:, 1], 12.0 * r2, rtol=1e-12, atol=0.0)
        assert eigs[:, 0].min() < 1e-4
        assert np.allclose(grad_norm, 4.0 * r2 ** 1.5, rtol=1e-12, atol=0.0)


class TestCheckLegendre:
    def test_aniso_quartic_passes(self):
        cert = check_legendre(ANISO.integrand, ANISO.regime, 4096, 1e3, seed=0)
        assert np.isfinite(cert.constant_assf3) and cert.constant_assf3 <= ANISO.regime.L
        assert np.isfinite(cert.constant_assf1)
        assert len(cert.worst_points) == 3

    def test_power_norm_nondegenerate(self):
        r = Regime(2, 1, 3.0, 4.0, 1.0, 12.0)
        cert = check_legendre(PowerNorm(1.0, 3.0), r, 2048, 1e2, seed=1)
        assert np.isfinite(cert.constant_assf3)

    def test_radius_below_the_sampling_floor_is_named(self):
        # the sampled radii are log-uniform on [1e-3, radius]
        with pytest.raises(ValueError, match="at least the sampling floor 0.001, got 0.0001"):
            check_legendre(ANISO.integrand, ANISO.regime, 64, 1e-4)
        with pytest.raises(ValueError, match="at least the sampling floor 0.001, got 0.0001"):
            polynomial_growth_exponents(ANISO.polynomial, n_samples=64, radius=1e-4)
        cert = check_legendre(ANISO.integrand, ANISO.regime, 64, 1e-3)
        assert np.allclose(np.sqrt(frob2(np.array(cert.worst_points))), 1e-3, rtol=1e-12)

    def test_equal_exponents_rejected(self):
        with pytest.raises(InvalidRegimeError):
            check_legendre(PowerNorm(0.0, 2.0), Regime(2, 1, 2.0, 2.0, 0.0, 2.5), 64, 10)

    def test_violation_carries_witness(self):
        # a concave-direction integrand cannot be p-elliptic
        bad = Scaled(1e-6, PowerNorm(0.0, 2.0)) + AxisPower(1, 4.0)
        r = Regime(2, 1, 2.0, 4.0, 0.0, 2.0)
        with pytest.raises(EllipticityViolationError) as exc:
            check_legendre(Sum([bad]), r, 512, 10.0, seed=2)
        assert exc.value.witness is not None

    def test_ellipticity_ratio_controlled_by_stress(self):
        # R_F(z) <= C (1 + |F'(z)|^((q-p)/(q-1))) with C stable as the radius grows
        r = ANISO.regime
        rng = np.random.default_rng(31)

        def sampled_constant(radius, count=4000):
            z = rng.normal(size=(count, 1, 2))
            z *= np.exp(rng.uniform(np.log(1e-2), np.log(radius), size=(count, 1, 1)))
            H = ANISO.integrand.hessian(z).reshape(count, 2, 2)
            eigs = np.linalg.eigvalsh(H)
            ratio = eigs[:, -1] / eigs[:, 0]
            gn = np.sqrt(frob2(ANISO.integrand.gradient(z)))
            return (ratio / (1.0 + gn ** ((r.q - r.p) / (r.q - 1.0)))).max()

        c_small, c_big = sampled_constant(10.0), sampled_constant(1e3)
        assert np.isfinite(c_big)
        assert c_big <= 2.0 * c_small + 1e-9


class TestPolynomials:
    def test_decomposition_degrees(self):
        c0 = HomogeneousForm.from_terms(1, 2, 0, [(3.0, ())])
        c2 = HomogeneousForm.from_terms(1, 2, 2, [(1.0, (1, 1)), (1.0, (2, 2))])
        c4 = HomogeneousForm.from_terms(1, 2, 4, [(1.0, (1, 1, 1, 1))])
        comps = homogeneous_decomposition(EvenPolynomial([c0, c2, c4]))
        assert [c.degree for c in comps] == [0, 2, 4]
        assert all(c.nonnegative for c in comps)

    def test_odd_component_rejected(self):
        c2 = HomogeneousForm.from_terms(1, 2, 2, [(1.0, (1, 1))])
        c3 = HomogeneousForm.from_terms(1, 2, 3, [(1.0, (1, 1, 1))])
        with pytest.raises(NotEvenError):
            homogeneous_decomposition(EvenPolynomial([c2, c3]))

    def test_euler_relation_per_component(self):
        rng = np.random.default_rng(32)
        comps = homogeneous_decomposition(ANISO.polynomial)
        z = rng.normal(size=(200, 1, 2)) * 3
        for comp in comps:
            if comp.degree == 0:
                continue
            lhs = (comp.form.gradient(z) * z).sum(axis=(-2, -1))
            rhs = comp.degree * comp.form.value(z)
            assert np.abs(lhs - rhs).max() <= 1e-10 * max(1.0, np.abs(rhs).max())

    def test_reassembly(self):
        rng = np.random.default_rng(33)
        z = rng.normal(size=(100, 1, 2)) * 2
        comps = homogeneous_decomposition(ANISO.polynomial)
        total = sum(c.form.value(z) for c in comps)
        assert np.abs(total - ANISO.polynomial.value(z)).max() < 1e-12 * 100

    def test_growth_exponents_model(self):
        out = polynomial_growth_exponents(ANISO.polynomial, n_samples=10000, radius=100.0)
        assert (out.p_max, out.q) == (2.0, 4.0)
        assert np.isfinite(out.constant)

    def test_growth_exponents_shifted(self):
        # |z|^4 + z1^6 reads off (4, 6)
        c4 = HomogeneousForm.from_terms(
            1, 2, 4, [(1.0, (1, 1, 1, 1)), (2.0, (1, 1, 2, 2)), (1.0, (2, 2, 2, 2))])
        c6 = HomogeneousForm.from_terms(1, 2, 6, [(1.0, (1,) * 6)])
        out = polynomial_growth_exponents(EvenPolynomial([c4, c6]))
        assert (out.p_max, out.q) == (4.0, 6.0)


class TestPolynomialSums:
    """The exponents `pqvar check` reports for a polynomial built up as a sum."""

    def test_quadratic_plus_axis_power(self):
        P = EvenPolynomial([QUADRATIC, HomogeneousForm.from_terms(1, 2, 4, [(1.0, (1,) * 4)])])
        out = polynomial_growth_exponents(P, n_samples=1024, radius=100.0, seed=3)
        assert (out.p_max, out.q) == (2.0, 4.0)
        # the stress constant is check_legendre's, over the same samples
        cert = check_legendre(P, Regime(2, 1, 2.0, 4.0, 0.0, 4.0), 1024, 100.0, seed=3)
        assert out.constant == cert.constant_assf3

    def test_adding_axis_powers_one_at_a_time(self):
        # |z|^2, then + z1^4, then + z2^4: the exponents of the (2, 4) model
        forms, read = [QUADRATIC], []
        for i in (1, 2):
            out = polynomial_growth_exponents(EvenPolynomial(forms), n_samples=1024, seed=4)
            read.append((out.p_max, out.q))
            forms = forms + [HomogeneousForm.from_terms(1, 2, 4, [(1.0, (i,) * 4)])]
        out = polynomial_growth_exponents(EvenPolynomial(forms), n_samples=1024, seed=4)
        read.append((out.p_max, out.q))
        assert read == [(2.0, 2.0), (2.0, 4.0), (2.0, 4.0)]

    def test_equal_exponents_reported(self):
        # |z|^4 + z1^4 is homogeneous: p_max = q = 4
        c4 = HomogeneousForm.from_terms(
            1, 2, 4, [(2.0, (1, 1, 1, 1)), (2.0, (1, 1, 2, 2)), (1.0, (2, 2, 2, 2))])
        out = polynomial_growth_exponents(EvenPolynomial([c4]), n_samples=256)
        assert (out.p_max, out.q) == (4.0, 4.0)
        assert np.isfinite(out.constant)


class TestDelta:
    def test_radial_form(self):
        c4 = HomogeneousForm.from_terms(
            1, 2, 4, [(1.0, (1, 1, 1, 1)), (2.0, (1, 1, 2, 2)), (1.0, (2, 2, 2, 2))])
        assert delta_of_homogeneous(c4, 4) == 0.0

    def test_single_axis_power(self):
        c4 = HomogeneousForm.from_terms(1, 2, 4, [(1.0, (1, 1, 1, 1))])
        assert delta_of_homogeneous(c4, 4) == 0.0

    def test_anisotropic_quartic(self, monkeypatch):
        # (z1^2 + 4 z2^2)^2: analytic defect sqrt(1 - min (1+3t)^2/(1+15t)) = 0.6
        aniso = HomogeneousForm.from_terms(
            1, 2, 4, [(1.0, (1, 1, 1, 1)), (8.0, (1, 1, 2, 2)), (16.0, (2, 2, 2, 2))])
        monkeypatch.setattr(growth, "DELTA_SAMPLES", 8192)
        d = delta_of_homogeneous(aniso, 4)
        assert 0.0 < d < 1.0
        assert d == pytest.approx(0.6, abs=5e-3)

    def test_zero_form_rejected(self):
        # like terms that cancel leave the zero form
        c4 = HomogeneousForm.from_terms(1, 2, 4, [(1.0, (1, 2, 2, 2)), (-1.0, (2, 1, 2, 2))])
        with pytest.raises(DegenerateFormError):
            delta_of_homogeneous(c4, 4)

    @pytest.mark.parametrize("terms", [
        [(1.0, (1, 1, 2, 2))],  # z1^2 z2^2 vanishes on the axes of its span
        [(1.0, (1, 1, 1, 1)), (-1.0, (2, 2, 2, 2))],  # negative along e_2
    ])
    def test_form_not_positive_on_its_span_rejected(self, terms):
        with pytest.raises(DegenerateFormError, match="not positive"):
            delta_of_homogeneous(HomogeneousForm.from_terms(1, 2, 4, terms), 4)


class TestGehringExponent:
    def test_reference_values(self):
        assert gehring_exponent(1.0, 1.0, 0.5) == 1.5
        assert gehring_exponent(2.0, 10.0, 0.5) == pytest.approx(39.5 / 39.0)

    def test_decreasing_to_one(self):
        ts = [gehring_exponent(1.0, M, 0.5) for M in (1, 10, 100, 1000)]
        assert all(b < a for a, b in zip(ts, ts[1:]))
        assert ts[-1] > 1.0

    # the domain keeps (1-m)/(2 c0 M - 1) above float resolution; at the exact
    # boundary (m within an ulp of 1 against huge c0 M) t rounds down to 1.0
    @given(c0=st.floats(1.0, 1e3), M=st.floats(1.0, 1e6),
           m=st.floats(1e-6, 1.0 - 1e-6))
    @settings(max_examples=300)
    def test_range_property(self, c0, M, m):
        t = gehring_exponent(c0, M, m)
        assert 1.0 < t < 2.0
        # the gap obeys t - 1 = (1-m)/(2 c0 M - 1) <= 1/(2 c0 M - 1)
        assert t - 1.0 <= 1.0 / (2.0 * c0 * M - 1.0) + 1e-15

    def test_domain_errors(self):
        for bad in ((0.5, 1.0, 0.5), (1.0, 0.5, 0.5), (1.0, 1.0, 1.0), (1.0, 1.0, 0.0)):
            with pytest.raises(ValueError):
                gehring_exponent(*bad)

    @pytest.mark.parametrize("c0, M", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan),
                                       (1.0, math.inf)])
    def test_non_finite_constants_rejected(self, c0, M):
        with pytest.raises(ValueError, match="finite"):
            gehring_exponent(c0, M, 0.5)

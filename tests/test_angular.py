import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from dowg.angular import (
    HenyeyGreenstein,
    Isotropic,
    LinearAnisotropic,
    apply_scatter,
    build_circle_trapezoid,
    build_scatter_kernel,
    eval_phase,
    normalization_residual,
)


def hg_circle_integral(eta):
    # adaptive-quadrature oracle for the exact circle integral of the
    # Henyey-Greenstein formula (3/2 exponent, 2*pi denominator)
    f = lambda a: (1 - eta**2) / (2 * np.pi * (1 + eta**2 - 2 * eta * np.cos(a)) ** 1.5)
    val, _ = quad(f, 0.0, 2.0 * np.pi, limit=200)
    return val


class TestCircleTrapezoid:
    def test_paper_resolution(self):
        q = build_circle_trapezoid(20)
        assert len(q) == 21
        assert_allclose(q.h_theta, np.pi / 10)
        assert_allclose(q.weights[0], np.pi / 20)
        assert_allclose(q.weights[-1], np.pi / 20)
        assert_allclose(q.weights[1:-1], np.pi / 10)
        assert_allclose(q.weights.sum(), 2 * np.pi, rtol=1e-12)

    def test_minimal_rule(self):
        q = build_circle_trapezoid(2)
        assert_allclose(q.thetas, [0.0, np.pi, 2 * np.pi])
        assert_allclose(q.weights, [np.pi / 2, np.pi, np.pi / 2])

    def test_first_mode_exact(self):
        q = build_circle_trapezoid(20)
        assert abs(np.sum(q.weights * np.cos(q.thetas))) <= 1e-12

    def test_trig_polynomial_exactness(self):
        # periodic trapezoid integrates trig polynomials of degree <= M-1
        q = build_circle_trapezoid(20)
        rng = np.random.default_rng(7)
        a = rng.standard_normal(6)
        b = rng.standard_normal(6)
        f = a[0] * np.ones_like(q.thetas)
        for k in range(1, 6):
            f = f + a[k] * np.cos(k * q.thetas) + b[k] * np.sin(k * q.thetas)
        assert_allclose(np.sum(q.weights * f), 2 * np.pi * a[0], atol=1e-12)

    def test_unit_vectors(self):
        q = build_circle_trapezoid(12)
        assert_allclose(np.linalg.norm(q.vectors, axis=1), 1.0, atol=1e-14)
        # duplicated endpoint shares the direction vector of theta = 0
        assert np.array_equal(q.vectors[-1], q.vectors[0])

    def test_rejects_small_M(self):
        with pytest.raises(ValueError):
            build_circle_trapezoid(1)


class TestPhaseFunctions:
    def test_hg_isotropic_limit(self):
        assert_allclose(eval_phase(HenyeyGreenstein(0.0), 0.3), 1 / (2 * np.pi))

    def test_linear_anisotropic_forward(self):
        assert_allclose(eval_phase(LinearAnisotropic(), 1.0), 3 / (4 * np.pi))

    def test_hg_forward_peak(self):
        # direct substitution: (1 - 0.25) / (2*pi * (1.25 - 1)^{3/2})
        assert_allclose(
            eval_phase(HenyeyGreenstein(0.5), 1.0), 0.75 / (2 * np.pi * 0.25**1.5)
        )

    def test_domain_check(self):
        with pytest.raises(ValueError):
            eval_phase(Isotropic(), 1.5)
        # rounding overshoot is clamped, not rejected
        eval_phase(HenyeyGreenstein(0.5), 1.0 + 1e-13)

    def test_hg_parameter_validation(self):
        with pytest.raises(ValueError):
            HenyeyGreenstein(1.0)

    def test_nonnegative(self):
        t = np.linspace(-1, 1, 101)
        for phase in (HenyeyGreenstein(0.9), HenyeyGreenstein(-0.9), LinearAnisotropic(), Isotropic()):
            assert np.all(eval_phase(phase, t) >= 0)


class TestScatterKernel:
    def setup_method(self):
        self.quad = build_circle_trapezoid(20)

    def test_isotropic_row_mass(self):
        k = build_scatter_kernel(self.quad, Isotropic(), 2.0, 0.5)
        assert_allclose(k.row_mass, 1.0, atol=1e-12)
        assert_allclose(k.positivity_margin, 1.5, atol=1e-12)

    def test_linear_anisotropic_row_mass(self):
        k = build_scatter_kernel(self.quad, LinearAnisotropic(), 2.0, 0.5)
        assert normalization_residual(k).max() <= 1e-12

    def test_hg_row_mass_symmetry(self):
        k = build_scatter_kernel(self.quad, HenyeyGreenstein(0.5), 2.0, 0.5)
        assert np.ptp(k.row_mass) <= 1e-12
        # trapezoid row mass tracks the adaptive-quadrature circle integral
        exact = hg_circle_integral(0.5)
        assert_allclose(
            normalization_residual(k), abs(1.0 - exact), atol=1e-4
        )
        assert k.positivity_margin > 0.5

    def test_matrix_symmetric_nonnegative(self):
        k = build_scatter_kernel(self.quad, HenyeyGreenstein(0.5), 2.0, 0.5)
        assert_allclose(k.matrix, k.matrix.T, atol=1e-14)
        assert np.all(k.matrix >= 0)

    def test_renormalize(self):
        k = build_scatter_kernel(self.quad, HenyeyGreenstein(0.5), 2.0, 0.5, renormalize=True)
        assert_allclose(k.row_mass, 1.0, atol=1e-14)
        assert_allclose(k.positivity_margin, 1.5, atol=1e-13)

    def test_margin_recorded_when_nonpositive(self):
        k = build_scatter_kernel(self.quad, HenyeyGreenstein(0.5), 1.01, 1.0)
        assert k.positivity_margin < 0  # diagnostic only, no raise

    def test_margin_positive_paper_config(self):
        for phase in (Isotropic(), LinearAnisotropic(), HenyeyGreenstein(0.5)):
            k = build_scatter_kernel(self.quad, phase, 2.0, 0.5)
            assert k.positivity_margin > 0

    def test_rejects_bad_cross_sections(self):
        with pytest.raises(ValueError):
            build_scatter_kernel(self.quad, Isotropic(), 0.5, 2.0)
        with pytest.raises(ValueError):
            build_scatter_kernel(self.quad, Isotropic(), 2.0, -0.1)


class TestApplyScatter:
    def setup_method(self):
        self.quad = build_circle_trapezoid(20)

    def test_constant_preserved(self):
        k = build_scatter_kernel(self.quad, HenyeyGreenstein(0.5), 2.0, 0.5, renormalize=True)
        out = apply_scatter(k, self.quad, np.full(len(self.quad), 3.25))
        assert_allclose(out, 3.25, atol=1e-12)

    def test_impulse(self):
        k = build_scatter_kernel(self.quad, LinearAnisotropic(), 2.0, 0.5)
        j = 5
        e = np.zeros(len(self.quad))
        e[j] = 1.0
        assert_allclose(apply_scatter(k, self.quad, e), self.quad.weights[j] * k.matrix[:, j])

    def test_linearity(self):
        k = build_scatter_kernel(self.quad, HenyeyGreenstein(0.3), 2.0, 0.5)
        rng = np.random.default_rng(3)
        u, v = rng.standard_normal((2, len(self.quad)))
        a, b = 0.7, -1.9
        assert_allclose(
            apply_scatter(k, self.quad, a * u + b * v),
            a * apply_scatter(k, self.quad, u) + b * apply_scatter(k, self.quad, v),
            atol=1e-13,
        )

    def test_linear_anisotropic_convolution(self):
        # analytic convolution of (2 + cos(a - a'))/(4 pi) with
        # 1 + c*cos a' gives 1 + (c/4) cos a; trapezoid is exact here
        k = build_scatter_kernel(self.quad, LinearAnisotropic(), 2.0, 0.5)
        c = 0.25
        vals = 1.0 + c * np.cos(self.quad.thetas)
        expect = 1.0 + (c / 4) * np.cos(self.quad.thetas)
        assert_allclose(apply_scatter(k, self.quad, vals), expect, atol=1e-12)

    def test_length_mismatch(self):
        k = build_scatter_kernel(self.quad, Isotropic(), 2.0, 0.5)
        with pytest.raises(ValueError):
            apply_scatter(k, self.quad, np.ones(7))

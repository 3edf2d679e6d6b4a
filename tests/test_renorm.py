"""Wick powers, cubic coefficients, and the coupling quadratic form."""

import numpy as np
import pytest

from sdnlw.noise import sample_stick_at, stationary_covariance
from sdnlw.spectral import (
    dealiased_product,
    integral,
    random_field,
    random_pair,
    resize,
    to_physical,
    truncation_of,
    zero_pair,
)
from sdnlw.propagator import apply_S
from sdnlw.spectral import project_leq
from _utils import add_fields, constant_field, cosine_field, cubic_coefficients, \
    gamma_star, quadratic_Q, wick_powers

RNG = np.random.default_rng(55)


def gamma_cube(field, gamma):
    """x^3 - 3 gamma x at exact degree (reference for identities)."""
    cube = dealiased_product(field, field, field)
    return cube - 3.0 * gamma * resize(field, truncation_of(cube))


class TestWickPowers:
    def test_constant(self):
        psi = constant_field(3, 2.0)
        w = wick_powers(psi, 1.0)
        assert integral(w.psi2) == pytest.approx(3.0, abs=1e-14)
        assert integral(w.psi3) == pytest.approx(2.0, abs=1e-14)

    def test_gamma_zero_plain_powers(self):
        psi = random_field(4, RNG)
        w = wick_powers(psi, 0.0)
        assert np.max(np.abs(w.psi2 - dealiased_product(psi, psi))) < 1e-14
        assert np.max(np.abs(w.psi3 - dealiased_product(psi, psi, psi))) < 1e-14

    def test_cosine_half(self):
        # cos^2 - 1/2 = cos(4 pi x1)/2: single pair +-(2,0) with weight 1/4
        psi = cosine_field(3, (1, 0))
        w = wick_powers(psi, 0.5)
        N2 = truncation_of(w.psi2)
        assert w.psi2[N2 + 2, N2] == pytest.approx(0.25, abs=1e-15)
        assert w.psi2[N2 - 2, N2] == pytest.approx(0.25, abs=1e-15)
        mask = np.ones_like(w.psi2, dtype=bool)
        mask[N2 + 2, N2] = mask[N2 - 2, N2] = False
        assert np.max(np.abs(w.psi2[mask])) < 1e-15

    def test_pointwise_invariants(self):
        psi = random_field(5, RNG)
        gamma = 0.8
        w = wick_powers(psi, gamma)
        M = 64
        p = to_physical(psi, M)
        assert np.max(np.abs(to_physical(w.psi2, M) - (p**2 - gamma))) < 1e-11
        assert np.max(np.abs(to_physical(w.psi3, M) - (p**3 - 3 * gamma * p))) < 1e-11

    def test_sign_equivariance(self):
        psi = random_field(4, RNG)
        for gamma in (0.0, 1.3):
            w_plus = wick_powers(psi, gamma)
            w_minus = wick_powers(-psi, gamma)
            assert np.max(np.abs(w_minus.psi2 - w_plus.psi2)) < 1e-14
            assert np.max(np.abs(w_minus.psi3 + w_plus.psi3)) < 1e-14

    def test_statistical_wick_mean(self):
        # with gamma = spatial variance, the mean of :psi^2: is 0
        s, N, n = 1.0, 4, 3000
        gam = gamma_star(s, N)
        vals = sample_stick_at(N, s, 50.0, [500 + i for i in range(n)])[:, 0]
        means = np.array([integral(wick_powers(vals[i], gam).psi2)
                          for i in range(n)])
        se = means.std(ddof=1) / np.sqrt(n)
        assert abs(means.mean()) <= 5 * se


class TestCubicCoefficients:
    def test_constant_stick_binomial(self):
        psi = constant_field(3, 2.0)
        coeffs = cubic_coefficients(zero_pair(3), psi, 0.0, 0.0, 3)
        assert integral(coeffs.a) == pytest.approx(6.0, abs=1e-13)
        assert integral(coeffs.b) == pytest.approx(12.0, abs=1e-13)
        assert integral(coeffs.c) == pytest.approx(8.0, abs=1e-13)

    def test_constant_initial_data(self):
        u0 = zero_pair(3)
        u0[0, 3, 3] = 1.0
        psi = constant_field(3, 0.0)
        coeffs = cubic_coefficients(u0, psi, 0.0, 0.0, 3)
        assert integral(coeffs.a) == pytest.approx(3.0, abs=1e-13)
        assert integral(coeffs.b) == pytest.approx(3.0, abs=1e-13)
        assert integral(coeffs.c) == pytest.approx(1.0, abs=1e-13)

    def test_expansion_identity_random_fields(self):
        # v^3 + a v^2 + b v + c == (u + psi + v)^3 - 3 gamma (u + psi + v)
        u0 = random_pair(4, RNG)
        psi = random_field(4, RNG)
        v = random_field(4, RNG)
        gamma, t = 0.7, 0.9
        coeffs = cubic_coefficients(u0, psi, t, gamma, 4)
        lhs = add_fields(dealiased_product(v, v, v),
                         dealiased_product(coeffs.a, v, v),
                         dealiased_product(coeffs.b, v),
                         coeffs.c)
        x = project_leq(apply_S(u0, t)[0], 4) + psi
        rhs = gamma_cube(add_fields(x, v), gamma)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestQuadraticQ:
    def test_constants(self):
        u1 = zero_pair(2)
        u1[0, 2, 2] = 1.0
        v = u1.copy()
        q = quadratic_Q(u1, v, 0.0)
        assert integral(q) == pytest.approx(7.0, abs=1e-13)
        assert np.sum(np.abs(q)) == pytest.approx(7.0, abs=1e-12)

    def test_v_zero(self):
        u1 = random_pair(3, RNG)
        gamma = 0.4
        q = quadratic_Q(u1, zero_pair(3), gamma)
        expect = 3.0 * dealiased_product(u1[0], u1[0])
        N2 = truncation_of(expect)
        expect[N2, N2] -= 3 * gamma
        assert np.max(np.abs(q - expect)) < 1e-13

    def test_factorization_identity(self):
        u = random_pair(4, RNG)
        v = random_pair(4, RNG)
        gamma = 1.1
        q = quadratic_Q(u, v, gamma)
        lhs = gamma_cube(add_fields(u[0], v[0]), gamma) - gamma_cube(u[0], gamma)
        rhs = dealiased_product(q, v[0])
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestGammaStar:
    def test_matches_stationary_sum(self):
        for s, N in ((0.5, 3), (1.0, 6)):
            expect = float(np.sum(stationary_covariance(N, s)[..., 0, 0]))
            assert gamma_star(s, N) == pytest.approx(expect, rel=1e-14)

    def test_increasing_in_N(self):
        assert gamma_star(1.0, 2) < gamma_star(1.0, 4) < gamma_star(1.0, 8)

"""Appell-Lerch mu, its completion, the shadow operator, and Mordell h."""

import random
from fractions import Fraction

import pytest
from mpmath import mp, mpc, mpf

from etamock.qseries import e2pi, eta
from etamock.theta import g_ab, jacobi_theta
from etamock.mu import (MabSpec, M_hat, M_holo, R_correction, g2_universal,
                        g_complement, kang_pair, mordell_h, mu, mu_hat,
                        xi_shadow)

# working precision of every test here; see conftest.py
DPS = 25


def _points(seed, count):
    # built at import, so pin the precision the tests run at
    rng = random.Random(seed)
    out = []
    with mp.workdps(DPS):
        while len(out) < count:
            tau = mpc(rng.uniform(-0.5, 0.5), rng.uniform(0.7, 1.4))
            u = rng.uniform(-0.4, 0.4) + rng.uniform(0.15, 0.8) * tau + mpc(0.011, 0.003)
            v = rng.uniform(-0.4, 0.4) + rng.uniform(0.15, 0.8) * tau + mpc(0.007, 0.013)
            out.append((u, v, tau))
    return out


@pytest.mark.parametrize("u, v, tau", _points(11, 6))
def test_mu_elliptic_and_parity_laws(u, v, tau):
    base = mu(u, v, tau)
    assert abs(mu(u + 1, v, tau) + base) < 1e-21
    assert abs(mu(u, v + 1, tau) + base) < 1e-21
    assert abs(mu(-u, -v, tau) - base) < 1e-21
    assert abs(mu(v, u, tau) - base) < 1e-21


@pytest.mark.parametrize("u, v, tau", _points(13, 4))
def test_mu_diagonal_shift_theta_quotient(u, v, tau):
    z = mpc(0.23, 0.11)
    lhs = mu(u + z, v + z, tau) - mu(u, v, tau)
    dtheta0 = -2 * mp.pi * eta(tau) ** 3
    rhs = dtheta0 * jacobi_theta(u + v + z, tau) * jacobi_theta(z, tau) / (
        2j * mp.pi * jacobi_theta(u, tau) * jacobi_theta(v, tau)
        * jacobi_theta(u + z, tau) * jacobi_theta(v + z, tau))
    assert abs(lhs - rhs) < 1e-20


@pytest.mark.parametrize("u, v, tau", _points(17, 4))
def test_mu_tau_translation(u, v, tau):
    lhs = mu(u, v, tau + 1)
    assert abs(lhs - mp.exp(-1j * mp.pi / 4) * mu(u, v, tau)) < 1e-21


@pytest.mark.parametrize("u, v, tau", _points(19, 3))
def test_mu_inversion_against_mordell(u, v, tau):
    lhs = mp.exp(1j * mp.pi * (u - v) ** 2 / tau) / mp.sqrt(-1j * tau) \
        * mu(u / tau, v / tau, -1 / tau) + mu(u, v, tau)
    rhs = mordell_h(u - v, tau) / 2j
    assert abs(lhs - rhs) < 1e-18


@pytest.mark.parametrize("u, v, tau", _points(23, 3))
def test_mu_hat_inversion_law(u, v, tau):
    lhs = mu_hat(u / tau, v / tau, -1 / tau)
    rhs = -mp.sqrt(-1j * tau) * mp.exp(-1j * mp.pi * (u - v) ** 2 / tau) \
        * mu_hat(u, v, tau)
    assert abs(lhs - rhs) < 1e-18


def test_mu_hat_depends_on_both_arguments():
    """The correction uses u - v but mu-hat itself is not a function of it."""
    tau = mpc(0.1, 0.9)
    d = mpc(0.21, 0.17)
    a = mu_hat(mpc(0.3, 0.2) + d, mpc(0.3, 0.2), tau)
    b = mu_hat(mpc(0.1, 0.45) + d, mpc(0.1, 0.45), tau)
    assert abs(a - b) > 1e-6


def test_mordell_h_is_even():
    tau = mpc(0.2, 0.8)
    u = mpc(0.31, 0.27)
    assert abs(mordell_h(u, tau) - mordell_h(-u, tau)) < 1e-21


@pytest.mark.parametrize("u, tau", [
    (mpc(0.3, 0.1), mpc(0.1, 0.9)),
    (mpc(-0.2, 0.25), mpc(-0.3, 1.3)),
    (mpc(0.05, -0.15), mpc(0.45, 0.75)),
])
def test_mordell_h_against_generic_quadrature(u, tau):
    direct = mp.quad(
        lambda x: mp.exp(1j * mp.pi * tau * x * x - 2 * mp.pi * u * x)
        / mp.cosh(mp.pi * x), [-mp.inf, mp.inf])
    assert abs(mordell_h(u, tau) - direct) < 1e-20


def test_mordell_h_with_large_integrand_keeps_relative_precision():
    # the integrand peaks near 3e6 and h is about 1.5e5, so a tolerance of
    # 10^(3 - dps) taken as absolute is below the rounding of the sum
    u, tau = mpc(2, 0.3), mpc(-0.4, 0.5)
    with mp.workdps(DPS + 15):
        direct = mp.quad(
            lambda x: mp.exp(1j * mp.pi * tau * x * x - 2 * mp.pi * u * x)
            / mp.cosh(mp.pi * x), [-mp.inf, -u.real / tau.imag, mp.inf])
    assert abs(mordell_h(u, tau) - direct) < mpf(10) ** (2 - DPS) * abs(direct)


def test_r_correction_parity_and_period():
    tau = mpc(0.1, 1.0)
    u = mpc(0.2, 0.1)
    assert abs(R_correction(u, tau) - R_correction(-u, tau)) < 1e-15
    assert abs(R_correction(u + 1, tau) + R_correction(u, tau)) < 1e-15


@pytest.mark.parametrize("alpha, tau", [
    (mpc(0.21, 0.05), mpc(0.1, 1.1)),
    (mpc(0.35, 0.0), mpc(-0.2, 0.9)),
    (mpc(0.12, 0.18), mpc(0.3, 1.3)),
])
def test_kang_factorization(alpha, tau):
    lhs, rhs = kang_pair(alpha, tau)
    assert abs(lhs - rhs) < 1e-18


def test_g2_universal_series_head():
    """g_2(z; q) = sum q^{n(n+1)/2}(-q; q)_n / ((z; q)_{n+1} (q/z; q)_{n+1})."""
    z, q = mpc(0.4, 0.1), mpc(0.12, 0.08)
    total = mpc(0)
    for n in range(60):
        num = q ** (n * (n + 1) // 2)
        for k in range(n):
            num *= 1 + q ** (k + 1)
        den = mpc(1)
        for k in range(n + 1):
            den *= (1 - z * q ** k) * (1 - q ** (k + 1) / z)
        total += num / den
    assert abs(g2_universal(z, q) - total) < 1e-20


SHADOW_PAIRS = [
    (Fraction(-1, 4), Fraction(-1, 2)), (Fraction(-1, 4), Fraction(0)),
    (Fraction(-1, 6), Fraction(-1, 2)), (Fraction(-5, 12), Fraction(0)),
    (Fraction(-1, 12), Fraction(0)), (Fraction(-1, 3), Fraction(-1, 2)),
    (Fraction(-1, 6), Fraction(0)),
]


@pytest.mark.parametrize("a, b", SHADOW_PAIRS[:3])
def test_xi_image_is_complement_theta(a, b):
    tau = mpc(0.12, 0.9)
    target = g_complement((a + Fraction(1, 2), b + Fraction(1, 2)), tau)
    assert abs(xi_shadow(MabSpec(a, b), tau) - target) < 1e-8


def test_xi_annihilates_nothing_holomorphic_here():
    """M-hat minus its holomorphic part carries the whole shadow."""
    spec = MabSpec(Fraction(-1, 4), Fraction(0))
    tau = mpc(0.2, 1.0)
    assert abs(M_hat(spec, tau) - M_holo(spec, tau)) > 1e-6


def test_shadow_independent_of_section():
    a, b = Fraction(-1, 6), Fraction(0)
    tau = mpc(0.05, 1.1)
    one = xi_shadow(MabSpec(a, b), tau)
    other = xi_shadow(MabSpec(a, b, vsec=(Fraction(1, 7), Fraction(2, 5))), tau)
    assert abs(one - other) < 1e-8

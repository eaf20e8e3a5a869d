"""Functional equations at points drawn by hypothesis.

The laws of g_{a,b}, mu, mu-hat, theta and eta hold at every point, so
they check the series and their reductions where no hand-picked test
looks: random rational (a, b), random SL2(Z) elements, and tau down to
Im tau = 1e-3, where the sums run longest.
The draws are derandomized, but Hypothesis also mixes in constants it
finds in the loaded modules, so a run of a subset of the suite may draw
other points than a full run: each law must hold over its whole domain,
to a tolerance scaled by the size of the terms its series adds up.
"""

from fractions import Fraction
from itertools import count
from math import gcd

from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf

from etamock.core import e2pi
from etamock.mu import R_correction, mu, mu_hat
from etamock.qseries import SL2Matrix, eta, eta_multiplier
from etamock.theta import _g_direct, g_ab, jacobi_theta

# working precision of every test here; see conftest.py
DPS = 25

# a law holds to TOL relative to the size of the terms it adds up: the
# folds near a cusp cost a few of the DPS digits
TOL = mpf(10) ** (5 - DPS)

# conftest's precision fixture is the same for every example
PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=25,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

rationals = st.fractions(min_value=-2, max_value=2, max_denominator=12)
reals = st.floats(min_value=-2, max_value=2)


def _tau(x, log_y):
    return mpc(x, mpf(10) ** mpf(log_y))


# Re tau in [-2, 2] and Im tau from 1e-3 to 2, log-uniform; each test
# also runs at CUSP, the height of the benchmark's cusp points
taus = st.builds(_tau, reals, st.floats(min_value=-3, max_value=0.3))
CUSP = mpc("0.371", "1e-3")
# Im tau >= sqrt(3)/2, where g_ab sums without a reduction
high_taus = st.builds(mpc, st.floats(min_value=-0.5, max_value=0.5),
                      st.floats(min_value=0.87, max_value=2))


def _agree(lhs, *rhs, scale=1):
    """lhs equals the sum of the terms rhs, to TOL relative to the largest
    of |lhs|, the |rhs| and `scale`, the size of the series' own terms."""
    size = max([abs(lhs), scale] + [abs(term) for term in rhs])
    return abs(lhs - sum(rhs)) <= TOL * size


def _g_size(tau):
    # sum of |x| e^{-pi Im(tau) x^2} over x in a + Z, about 1/(pi Im tau):
    # g_{a,b} can vanish, and then its rounding error is relative to this
    return 1 + 1 / (mp.pi * tau.imag)


def _mu_size(u, v, tau):
    """|e^{pi i u} / theta(v)| times the sum of |terms| of the mu series.

    Rounding error in mu is relative to this.  It dwarfs |mu| where
    theta(v) is exponentially small, as near the cusp 0: at tau = 0.01i
    and v = tau/2, theta(v) is 1.6e-33 (see test_mu_near_cusp_zero)."""
    with mp.workdps(15):
        total = mpf(0)
        center = int(mp.nint(-v.imag / tau.imag - 0.5))
        for side in (count(center, -1), count(center + 1)):
            quiet = 0
            for n in side:
                term = abs(e2pi(n * v + tau * n * (n + 1) / 2) / (1 - e2pi(u + n * tau)))
                total += term
                quiet = quiet + 1 if term < total * mpf(10) ** -30 else 0
                if quiet == 5:
                    break
        return abs(mp.exp(1j * mp.pi * u) / jacobi_theta(v, tau)) * total


def _theta_size(v, tau):
    # the largest |term| e^{pi (Im v)^2 / Im tau} of the theta series; theta
    # vanishes on the lattice, where its rounding error is relative to this
    return mp.exp(mp.pi * v.imag ** 2 / tau.imag)


@PROPERTY
@given(rationals, rationals, taus)
@example(Fraction(5, 12), Fraction(-7, 9), CUSP)
def test_g_ab_shift_laws(a, b, tau):
    size = _g_size(tau)
    base = g_ab((a, b), tau)
    assert _agree(g_ab((a + 1, b), tau), base, scale=size)
    assert _agree(g_ab((a, b + 1), tau), e2pi(a) * base, scale=size)
    assert _agree(g_ab((-a, -b), tau), -base, scale=size)
    # g_{a,b}(tau + 1) = e^{-pi i a(a+1)} g_{a, a+b+1/2}(tau)
    shifted = e2pi(-a * (a + 1) / 2) * g_ab((a, a + b + Fraction(1, 2)), tau)
    assert _agree(g_ab((a, b), tau + 1), shifted, scale=size)


@PROPERTY
@given(rationals, rationals, taus)
@example(Fraction(-11, 12), Fraction(3, 8), CUSP)
def test_g_ab_inversion_law(a, b, tau):
    # g_{a,b}(-1/tau) = i e^{2 pi i ab} (-i tau)^{3/2} g_{b,-a}(tau)
    weight = 1j * e2pi(a * b) * (-1j * tau) ** mpf(1.5)
    size = max(_g_size(-1 / tau), abs(weight) * _g_size(tau))
    assert _agree(g_ab((a, b), -1 / tau), weight * g_ab((b, -a), tau), scale=size)


@PROPERTY
@given(rationals, rationals, high_taus)
def test_unreduced_g_sum_translation_law(a, b, tau):
    # the same law on the bare sum: both sides sum their own series
    shifted = e2pi(-a * (a + 1) / 2) * _g_direct(a, a + b + Fraction(1, 2), tau)
    assert _agree(_g_direct(a, b, tau + 1), shifted, scale=_g_size(tau))


# u and v as s*tau + t, kept off the period lattice, where mu has poles
offsets = st.floats(min_value=0.05, max_value=0.95)
lattice_points = st.builds(lambda k, f: k + f, st.integers(-1, 1), offsets)


@PROPERTY
@given(taus, lattice_points, lattice_points, reals, reals)
@example(CUSP, 0.3, -0.6, 0.17, 1.3)
def test_mu_elliptic_parity_and_symmetry_laws(tau, su, sv, tu, tv):
    u, v = su * tau + tu, sv * tau + tv
    size = max(_mu_size(u, v, tau), _mu_size(-u, -v, tau), _mu_size(v, u, tau))
    base = mu(u, v, tau)
    assert _agree(mu(u + 1, v, tau), -base, scale=size)
    assert _agree(mu(u, v + 1, tau), -base, scale=size)
    # mu(u + tau, v) = -e(u - v + tau/2) mu(u, v) - i e((u - v)/2 + 3 tau/8)
    weight = -e2pi(u - v + tau / 2)
    assert _agree(mu(u + tau, v, tau), weight * base, -1j * e2pi((u - v) / 2 + 3 * tau / 8),
                  scale=max(_mu_size(u + tau, v, tau), abs(weight) * size))
    assert _agree(mu(-u, -v, tau), base, scale=size)
    assert _agree(mu(v, u, tau), base, scale=size)


def _mu_hat_size(u, v, tau):
    """|mu| + |R(u - v)|/2, the size of the two terms mu-hat adds up.

    Rounding error in mu-hat is relative to this.  Near a zero of mu-hat
    the two terms cancel: for the row V_{1,1} at tau = 0.1i, |mu-hat| is
    6.5e-14 and |mu| is 0.24."""
    with mp.workdps(15):
        return abs(mu(u, v, tau)) + abs(R_correction(u - v, tau)) / 2


# small lattice shifts k tau + l of the elliptic variables
shifts = st.integers(-2, 2)


@PROPERTY
@given(taus, lattice_points, lattice_points, reals, reals)
@example(CUSP, 0.3, -0.6, 0.17, 1.3)
def test_mu_hat_translation_and_inversion_laws(tau, su, sv, tu, tv):
    u, v = su * tau + tu, sv * tau + tv
    size = _mu_hat_size(u, v, tau)
    base = mu_hat(u, v, tau)
    # mu-hat(u, v; tau + 1) = e(-1/8) mu-hat(u, v; tau)
    assert _agree(mu_hat(u, v, tau + 1), e2pi(Fraction(-1, 8)) * base,
                  scale=max(_mu_hat_size(u, v, tau + 1), size))
    # mu-hat(u/tau, v/tau; -1/tau) = -sqrt(-i tau) e^{-pi i (u - v)^2/tau} mu-hat(u, v; tau)
    weight = -mp.sqrt(-1j * tau) * mp.exp(-1j * mp.pi * (u - v) ** 2 / tau)
    assert _agree(mu_hat(u / tau, v / tau, -1 / tau), weight * base,
                  scale=max(_mu_hat_size(u / tau, v / tau, -1 / tau), abs(weight) * size))


@PROPERTY
@given(taus, lattice_points, lattice_points, reals, reals, shifts, shifts, shifts, shifts)
@example(CUSP, 0.3, -0.6, 0.17, 1.3, 2, -1, -1, 1)
def test_mu_hat_elliptic_law(tau, su, sv, tu, tv, k, l, m, n):
    u, v = su * tau + tu, sv * tau + tv
    # mu-hat(u + k tau + l, v + m tau + n)
    #   = (-1)^{k+l+m+n} e^{pi i (k-m)^2 tau + 2 pi i (k-m)(u-v)} mu-hat(u, v)
    weight = (-1) ** (k + l + m + n) * \
        mp.exp(1j * mp.pi * (k - m) * ((k - m) * tau + 2 * (u - v)))
    shifted = (u + k * tau + l, v + m * tau + n, tau)
    assert _agree(mu_hat(*shifted), weight * mu_hat(u, v, tau),
                  scale=max(_mu_hat_size(*shifted), abs(weight) * _mu_hat_size(u, v, tau)))


def _sl2(k, c, d):
    """T^k times the element of SL2(Z) with bottom row (c, d), coprime."""
    # extended Euclid: a d - b c = 1
    r0, r1, s0, s1, t0, t1 = d, c, 1, 0, 0, 1
    while r1:
        quo = r0 // r1
        r0, r1, s0, s1, t0, t1 = r1, r0 - quo * r1, s1, s0 - quo * s1, t1, t0 - quo * t1
    a, b = s0 * r0, -t0 * r0
    return SL2Matrix(a + k * c, b + k * d, c, d)


@PROPERTY
@given(st.integers(-3, 3), st.integers(-30, 30), st.integers(-30, 30),
       st.builds(_tau, reals, st.floats(min_value=-0.5, max_value=0.3)))
@example(1, 29, -30, mpc("0.371", "0.9"))
def test_eta_transformation_law(k, c, d, tau):
    # eta(gamma tau) = psi(gamma) (c tau + d)^{1/2} eta(tau); Im gamma tau
    # falls to about 1e-4
    assume(gcd(c, d) == 1)
    gamma = _sl2(k, c, d)
    law = eta_multiplier(gamma).value() * mp.sqrt(c * tau + d) * eta(tau)
    assert _agree(eta(gamma.act(tau)), law)


def test_mu_near_cusp_zero():
    # at tau = 0.01i, theta(tau/2) = 1.6e-33: the series summed at tau keeps
    # about 2 of 25 digits, so mu takes the folded mu-hat there
    tau = mpc(0, "0.01")
    u, v = tau / 2 + mpf("0.25"), tau / 2
    value = mu(u, v, tau)
    with mp.workdps(DPS + 200):
        exact = mu(u, v, tau)
    assert abs(value - exact) <= TOL * abs(exact)


# theta by its defining sum needs Im tau above 1e-2 to stay short
theta_taus = st.builds(_tau, reals, st.floats(min_value=-2, max_value=0.3))


@PROPERTY
@given(theta_taus, st.floats(min_value=-2, max_value=2), reals,
       st.sampled_from(["product", "sum"]))
def test_theta_quasi_periods(tau, s, t, representation):
    v = s * tau + t
    size = max(_theta_size(v, tau), _theta_size(v + tau, tau))
    base = jacobi_theta(v, tau, representation)
    assert _agree(jacobi_theta(v + 1, tau, representation), -base, scale=size)
    # theta(v + tau) = -e(-tau/2 - v) theta(v)
    law = -e2pi(-tau / 2 - v) * base
    assert _agree(jacobi_theta(v + tau, tau, representation), law, scale=size)
    assert _agree(jacobi_theta(-v, tau, representation), -base, scale=size)

"""Appell-Lerch mu, its completion, the shadow operator, and Mordell h."""

import importlib
import math
import random
import time
from fractions import Fraction

import pytest
from mpmath import mp, mpc, mpf

from etamock import core
from etamock.core import ConvergenceError, exp_sinh
from etamock.qseries import e2pi, eta
from etamock.theta import g_ab, jacobi_theta
from etamock.mu import (FOLD_HEIGHT, MabSpec, M_hat, R_correction, _mab_prefactor,
                        g2_universal, g_complement, kang_pair, mordell_h, mu, mu_hat,
                        xi_shadow)

# the module, which the package's function mu shadows as an attribute
mu_module = importlib.import_module("etamock.mu")

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
    # the second point is below the fold height
    for u, tau in [(mpc(0.31, 0.27), mpc(0.2, 0.8)), (mpc(0.2, 0.0003), mpc(0.13, 0.001))]:
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


@pytest.mark.parametrize("dps", [16, 30, 100])
def test_g2_universal_series_head(dps):
    """g_2(z; q) = sum q^{n(n+1)/2}(-q; q)_n / ((z; q)_{n+1} (q/z; q)_{n+1})."""
    with mp.workdps(dps):
        z, q = mpc("0.4", "0.1"), mpc("0.12", "0.08")
        value = g2_universal(z, q)
    with mp.workdps(dps + 20):
        total = mpc(0)
        for n in range(60):
            num = q ** (n * (n + 1) // 2)
            for k in range(n):
                num *= 1 + q ** (k + 1)
            den = mpc(1)
            for k in range(n + 1):
                den *= (1 - z * q ** k) * (1 - q ** (k + 1) / z)
            total += num / den
        assert abs(value - total) <= mpf(10) ** -dps * abs(total)


@pytest.mark.parametrize("z", [mpc(1), mpc(0.12, 0.08), (1 + mpf(1e-9)) / mpc(0.12, 0.08)])
def test_g2_universal_on_a_pole_raises(z):
    # z = 1 and z = q zero the first term's denominator, z = (1 + 1e-9)/q
    # puts 1 - z q within 1e-9 of 0, below 2^-FIXED_GUARD
    with pytest.raises(ValueError, match="pole of g_2"):
        g2_universal(z, mpc(0.12, 0.08))


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
    # the holomorphic part: mu in place of mu-hat
    holo = _mab_prefactor(spec, tau) * mu(spec.u_at(tau), spec.v_at(tau), tau)
    assert abs(M_hat(spec, tau) - holo) > 1e-6


def test_shadow_independent_of_section():
    a, b = Fraction(-1, 6), Fraction(0)
    tau = mpc(0.05, 1.1)
    one = xi_shadow(MabSpec(a, b), tau)
    other = xi_shadow(MabSpec(a, b, vsec=(Fraction(1, 7), Fraction(2, 5))), tau)
    assert abs(one - other) < 1e-8


# the points of the test_mordell_h_* tests but the parity one
MORDELL_POINTS = [
    (mpc(0.3, 0.1), mpc(0.1, 0.9)),
    (mpc(-0.2, 0.25), mpc(-0.3, 1.3)),
    (mpc(0.05, -0.15), mpc(0.45, 0.75)),
    (mpc(2, 0.3), mpc(-0.4, 0.5)),
    (mpc(-0.3, 0.2), mpc(0.13, 0.87)),
    (mpc(0.7, -0.1), mpc(0.2, 0.25)),
]


def _mordell_integrand(u, tau):
    return lambda x: mp.exp(1j * mp.pi * tau * x * x - 2 * mp.pi * u * x) / mp.cosh(mp.pi * x)


def _mordell_scale(u, tau):
    """max(1, |integrand| at its Gaussian's peak c = -Re u/Im tau): the
    tolerance of a value of h is this times 10^(3 - dps)."""
    return max(1, abs(_mordell_integrand(u, tau)(-u.real / tau.imag)))


def _exp_sinh_h(u, tau):
    """h(u; tau) by the nested exp-sinh rule, crowded into the Gaussian's
    peak c = -Re u/Im tau: the two half-lines from c folded into one, cut
    where the envelope is below working precision.

    Right only where Im tau and Im(-1/tau) are both at least FOLD_HEIGHT.
    Below, c moves far out while the mass stays near x = 0, where
    1/cosh(pi x) cuts the Gaussian off; two levels that both miss the mass
    agree, and the rule returns a wrong value with no error (3.1e-116
    against 1.146 + 0.188i at u = 0.2 + 0.0003i, tau = 0.13 + 0.001i).
    """
    y = tau.imag
    S = max(mpf(40), mp.log(10) * (mp.dps + 2))
    X = mp.sqrt(S / (mp.pi * y)) + abs(u.real) / y + 1
    f = _mordell_integrand(u, tau)
    c = -u.real / y
    tol = _mordell_scale(u, tau) * mpf(10) ** (-(mp.dps - 3))
    return exp_sinh(lambda t: f(c + t) + f(c - t), X + abs(c), tol, "Mordell integral")


@pytest.mark.parametrize("u, tau", MORDELL_POINTS)
def test_mordell_h_within_its_tolerance_at_dps_16_and_30(u, tau):
    c = -u.real / tau.imag
    with mp.workdps(70):
        direct = mp.quad(_mordell_integrand(u, tau), [-mp.inf, c, mp.inf])
    for dps in (16, 30):
        with mp.workdps(dps):
            assert abs(mordell_h(u, tau) - direct) < _mordell_scale(u, tau) * mpf(10) ** (3 - dps)


@pytest.mark.parametrize("u, tau", MORDELL_POINTS + [(mpc(0.31, 0.27), mpc(0.2, 0.8))])
def test_mordell_h_two_r_route_agrees_with_the_quadrature(u, tau):
    # the exp-sinh rule is right at these points only
    assert tau.imag >= FOLD_HEIGHT and (-1 / tau).imag >= FOLD_HEIGHT
    for dps in (16, 30):
        with mp.workdps(dps):
            quad = _exp_sinh_h(u, tau)
            assert abs(mordell_h(u, tau) - quad) < _mordell_scale(u, tau) * mpf(10) ** (3 - dps)


def _split_quad(u, tau):
    """h(u; tau) by mp.quad split every 1/2 on [-60, 60], across the mass
    near x = 0; beyond, the integrand is below 2 e^{-60 pi (1 - 2 |Re u|)}."""
    return mp.quad(_mordell_integrand(u, tau), mp.linspace(-60, 60, 241))


# Points where Im tau or Im(-1/tau) is below FOLD_HEIGHT, with h from
# _split_quad at dps 30, which moved each by less than 4e-32 at dps 40:
#   python -c "from mpmath import *; mp.dps = 30; u, t = mpc(U), mpc(T);
#     print(quad(lambda x: exp(1j*pi*t*x*x - 2*pi*u*x)/cosh(pi*x), linspace(-60, 60, 241)))"
# with U, T the point's Python complex numbers.  On mpmath's pure-Python
# backend that takes 1.6 to 4.9 s a point, so the values are pinned, and
# one point is recomputed live.
SMALL_IM_POINTS = [
    (0.2 + 0.0003j, 0.13 + 0.001j,
     "1.1459679481264459594766315264736", "0.18769434944292614513429961258755"),
    (0.1 + 0.0001j, 0.5 + 0.0005j,
     "0.86078652473708633553925373616473", "0.25611123711865289405666722712094"),
    (0.3 + 0.01j, 0.13 + 0.01j,
     "1.3493713724234954170550125974032", "0.3901151134853741229146754436908"),
    (0.3 + 0j, 3 + 0.01j,
     "0.43683047861729024739225456346682", "0.33375636305521153993394281512651"),
]


@pytest.mark.parametrize("u, tau, re, im", SMALL_IM_POINTS)
def test_mordell_h_below_the_fold_height_matches_the_split_quadrature(u, tau, re, im):
    u, tau = mpc(u), mpc(tau)
    with mp.workdps(35):
        reference = mpc(re, im)
    for dps in (16, 30):
        with mp.workdps(dps):
            error = abs(mordell_h(u, tau) - reference)
            assert error < _mordell_scale(u, tau) * mpf(10) ** (3 - dps)


def test_split_quadrature_reproduces_its_pinned_value():
    u, tau, re, im = SMALL_IM_POINTS[2]
    with mp.workdps(30):
        assert abs(_split_quad(mpc(u), mpc(tau)) - mpc(re, im)) < mpf(10) ** -30


@pytest.mark.parametrize("u, tau", MORDELL_POINTS
                         + [(mpc(u), mpc(t)) for u, t, _, _ in SMALL_IM_POINTS])
def test_mordell_h_elliptic_laws_at_dps_16_and_30(u, tau):
    # Zwegers, thesis, Prop. 1.2:
    # h(u) + h(u + 1) = 2 (-i tau)^{-1/2} e^{pi i (u + 1/2)^2/tau} and
    # h(u) + e^{-2 pi i u - pi i tau} h(u + tau) = 2 e^{-pi i u - pi i tau/4}
    for dps in (16, 30):
        with mp.workdps(dps):
            h = mordell_h(u, tau)
            laws = [(h, mordell_h(u + 1, tau),
                     -2 / mp.sqrt(-1j * tau) * mp.exp(1j * mp.pi * (u + 0.5) ** 2 / tau)),
                    (h, mp.exp(-2j * mp.pi * u - 1j * mp.pi * tau) * mordell_h(u + tau, tau),
                     -2 * mp.exp(-1j * mp.pi * u - 1j * mp.pi * tau / 4))]
            for terms in laws:
                scale = max([1] + [abs(t) for t in terms])
                assert abs(sum(terms)) < scale * mpf(10) ** (3 - dps)


def test_r_correction_side_estimate_never_undercounts(monkeypatch):
    # R_correction raises before its sums where its estimate of the terms a
    # side takes passes SIDE_CAP.  With SIDE_CAP one below the terms the
    # longest side really took, of the erfc sum or of the finite gap sum, it
    # must raise, and before the first term of either.
    real_sum, real_walk = mu_module.lattice_sum, mu_module.fixed_walk
    taken, gap = [], []

    def counting(term, center, *args):
        def counted(n, *w):
            taken.append(n - center)
            return term(n, *w)
        return real_sum(counted, center, *args)

    def counting_walk(*args):
        for w in real_walk(*args):
            gap.append(w)
            yield w

    monkeypatch.setattr(mu_module, "lattice_sum", counting)
    monkeypatch.setattr(mu_module, "fixed_walk", counting_walk)
    rng = random.Random(7)
    for dps in (16, 30):
        with mp.workdps(dps):
            for _ in range(12):
                y = 10 ** rng.uniform(-3.5, 0.5)
                a = rng.choice([0, 0.5, rng.uniform(-3, 3), rng.uniform(-300, 300),
                                rng.uniform(-3e4, 3e4)])
                u, tau = mpc(rng.uniform(-2, 2), a * y), mpc(rng.uniform(-3, 3), y)
                monkeypatch.setattr(mu_module, "SIDE_CAP", core.SIDE_CAP)
                taken.clear()
                gap.clear()
                R_correction(u, tau)
                # the erfc sum runs down from its centre, then up from the
                # next n; the gap sum is one side
                side = max(1 - min(taken), max(taken), len(gap))
                monkeypatch.setattr(mu_module, "SIDE_CAP", side - 1)
                taken.clear()
                gap.clear()
                with pytest.raises(ConvergenceError, match="R series"):
                    R_correction(u, tau)
                assert not taken and not gap


def test_r_past_the_side_cap_raises_at_once():
    # at Im tau = 1e-9 and dps 16 a side of R would take about 1.1e5 terms,
    # past core.SIDE_CAP; mu below FOLD_HEIGHT sums R(u - v; tau) there
    with mp.workdps(16):
        start = time.perf_counter()
        with pytest.raises(ConvergenceError, match="R series"):
            mu(mpc(0.2, 3e-10), mpc(0.1, 1e-10), mpc(0.13, 1e-9))
        with pytest.raises(ConvergenceError, match="R series"):
            mordell_h(mpc(0.3), mpc(0.13, 1e-9))
        assert time.perf_counter() - start < 2


def test_r_sums_the_end_of_a_decayed_walk_without_erfcx(monkeypatch):
    # at Im tau = 0.9 the Gaussian phase falls below 2^-wp by x = 12, and the
    # quiet run past it walks on pairs of -1 and 0 out to x of about 20:
    # with the kernel raising there, R still sums those pairs, to the same bits
    tau = mpc(0.21, 0.9)
    a = mpf(-1.3)
    u = mpc(0.17, a * tau.imag)
    with mp.workdps(16):
        expected = R_correction(u, tau)
        root = mp.sqrt(2 * mp.pi * tau.imag)
        real_kernel, real_sum = mu_module.fixed_erfcx, mu_module.lattice_sum
        far = []

        def kernel(x, wp):
            if x >> wp >= 12:
                raise AssertionError("erfcx at x = %s" % mp.nstr(mpf((x, -wp)), 5))
            return real_kernel(x, wp)

        def counting(term, center, *args):
            def counted(n, w):
                if root * abs(n + a + 0.5) >= 13:
                    far.append(w)
                return term(n, w)
            return real_sum(counted, center, *args)

        monkeypatch.setattr(mu_module, "fixed_erfcx", kernel)
        monkeypatch.setattr(mu_module, "lattice_sum", counting)
        assert R_correction(u, tau) == expected
    assert far and all(set(w) <= {-1, 0, 1} for w in far)
    assert any(w != (0, 0) for w in far)


# Im tau from the bottom of F up to the heights a fold reaches near a cusp,
# where mu sums its series on integer pairs with nothing folded; u and v
# across the period cell, z = u - v on its edges too.  The error is divided
# by |e(u/2)/theta(v)| times the sum of |terms|.  The first bounds are the
# worst errors of the mpc loop this series replaced, on the same points;
# the second are ten times the worst errors of the integer series, so that
# a later loss in it shows.
MU_SWEEP_TAUS = [mpc(mpf(re), mpf(im)) for im in ("0.87", "1", "1.7", "5", "40", "250")
                 for re in ("-0.5", "0.29")]
# (s_u, t_u, s_v, t_v) for u = s_u + t_u tau and v = s_v + t_v tau
MU_CELL = [("0.21", "0.5", "-0.35", "0"), ("-0.4", "-0.5", "0.15", "0"),
           ("0.33", "0.3", "-0.12", "-0.2"), ("-0.27", "-0.45", "0.44", "0.4"),
           ("0.5", "0.1", "0.06", "0.35"), ("0.11", "0", "-0.5", "-0.5")]
MU_SWEEP_WORST = {16: 6.6e-15, 30: 3.4e-29}
MU_SWEEP_TIGHT = {16: 1.7e-16, 30: 1.5e-30}


def _mu_plain(u, v, tau):
    """mu(u, v; tau) by a plain loop over n, each term from its own powers,
    and |e(u/2)/theta(v)| times the sum of |terms|."""
    q, eu = e2pi(tau), e2pi(u)
    center = int(mp.nint(-v.imag / tau.imag - 0.5))
    k = int(mp.ceil(-u.imag / tau.imag))  # the first n with |e(u) q^n| <= 1
    # 20 terms past both, or as many as the Gaussian e^{-pi Im tau n^2}
    # needs to fall below 2^-prec, as at Im tau = 1/10
    reach = max(20, int(mp.sqrt(mp.prec * mp.ln2 / (mp.pi * tau.imag))) + 2)
    total, size = mpc(0), mpf(0)
    for n in range(min(center, k) - reach, max(center, k) + reach + 1):
        term = (-1) ** n * e2pi(n * v) * q ** (n * (n + 1) // 2) / (1 - eu * q ** n)
        total += term
        size += abs(term)
    scale = mp.exp(1j * mp.pi * u) / jacobi_theta(v, tau, representation="sum")
    return scale * total, abs(scale) * size


@pytest.mark.parametrize("dps", sorted(MU_SWEEP_WORST))
def test_mu_series_sweep_against_a_plain_loop(dps):
    worst = 0
    for tau in MU_SWEEP_TAUS:
        for su, tu, sv, tv in MU_CELL:
            with mp.workdps(dps):
                u, v = mpf(su) + mpf(tu) * tau, mpf(sv) + mpf(tv) * tau
                value = mu(u, v, tau)
            with mp.workdps(dps + 40):
                exact, size = _mu_plain(u, v, tau)
                worst = max(worst, abs(value - exact) / size)
    assert worst <= MU_SWEEP_WORST[dps]
    assert worst <= MU_SWEEP_TIGHT[dps]


# every start, ratio and scale of the series is a product of integer powers
# of q, e(u/2) and e(v/2); far from the period cell the exponents pass 30 and
# their triangular numbers 500.  (s_u, t_u, s_v, t_v) as in MU_CELL: u - v far
# outside with v in the cell (one side starts 36 steps out), u and v far out
# together (both sides start past 30), and u and v far out on either side
MU_FAR = [("0.21", "35.5", "-0.35", "0"), ("-0.4", "-36", "0.15", "0.3"),
          ("0.33", "31.3", "-0.12", "31"), ("-0.27", "-33.45", "0.44", "-32.6"),
          ("0.5", "-30.2", "0.06", "30.35"), ("0.11", "32", "-0.5", "-31.5")]
MU_FAR_TAUS = [mpc(mpf(re), mpf(im)) for im in ("0.1", "1", "20") for re in ("-0.5", "0.29")]
# the worst error, relative to the sum of |terms|, of the series when its
# exponentials were taken one by one, at these points
MU_FAR_WORST = {16: 1.3e-16, 30: 4.9e-31, 100: 1.6e-100}
# the sweep also takes its share of 500 seeded random points, whose bounds
# are the same: Im tau log-uniform on [0.1, 20], Im u and Im v uniform on
# +-40 Im tau and every real part on [-0.5, 0.5], so that a side often starts
# far below its Gaussian peak, or below the other side's
MU_FAR_RANDOM = {16: (0, 200), 30: (200, 350), 100: (350, 500)}


def _mu_far_random(dps):
    rng = random.Random(36)
    floats = []
    for _ in range(MU_FAR_RANDOM[100][1]):
        y = math.exp(rng.uniform(math.log(0.1), math.log(20)))
        floats.append([rng.uniform(-0.5, 0.5), y] + [rng.uniform(-0.5, 0.5) for _ in "uv"]
                      + [rng.uniform(-40 * y, 40 * y) for _ in "uv"])
    lo, hi = MU_FAR_RANDOM[dps]
    for re, im, su, sv, tu, tv in floats[lo:hi]:
        yield mpc(su, tu), mpc(sv, tv), mpc(re, im)


def _mu_far_points(dps):
    for tau in MU_FAR_TAUS:
        for su, tu, sv, tv in MU_FAR:
            yield mpf(su) + mpf(tu) * tau, mpf(sv) + mpf(tv) * tau, tau
    yield from _mu_far_random(dps)


@pytest.mark.parametrize("dps", sorted(MU_FAR_WORST))
def test_mu_series_far_from_the_cell_against_a_plain_loop(dps):
    # each side is judged against its own largest term, so one that rises to
    # its peak from terms far below eps is summed in full
    worst = 0
    with mp.workdps(dps):
        points = list(_mu_far_points(dps))
    for u, v, tau in points:
        with mp.workdps(dps):
            value = mu_module._mu_series(u, v, tau)
        with mp.workdps(dps + 40):
            exact, size = _mu_plain(u, v, tau)
            worst = max(worst, abs(value - exact) / size)
    assert worst <= MU_FAR_WORST[dps]


@pytest.mark.parametrize("u, v, tau, prec", [
    # q = e^{-40 pi}, far below one unit of a pair at 113 bits, and
    # |e(u)| = e^{-20 pi}
    (mpc(1 / 12, 10), mpc(0.25), mpc(0, 20), 93),
    # |e(u) q^n| crosses 1 at n = 0, where the sides meet, and the
    # numerators peak two steps above it: the up side's walk ratio falls from
    # e^{20 pi} to e^{-20 pi} and below, which a ratio kept in units of the
    # pairs would not resolve
    (mpc(0.5), mpc(0.5, -20), mpc(0, 10), 86),
    # u - v far outside the period cell: |e(u) q^n| crosses 1 at n = -11,
    # eleven steps from the peak of the numerators, and the up side's first
    # walk ratio there is about 2^91, above the 2^76 of a pair at 56 + 20
    # bits; started there, the side's integers would widen by about
    # 4.5 Im(u - v)^2/Im tau bits, 550 here
    (mpc(0.3, 11), mpc(0.2), mpc(0, 1), 56),
    (mpc(0.3, 11), mpc(0.2), mpc(0, 1), 103),
    # the same from the other side: the down side's terms would grow
    (mpc(0.3), mpc(0.2, 11), mpc(0, 1), 56),
    (mpc(0.3), mpc(0.2, 11), mpc(0, 1), 103),
    # and farther, where the up side, then the down side, would widen by
    # 7,200 bits
    (mpc(0.3, 40), mpc(0.2), mpc(0.1, 1), 56),
    (mpc(0.3, -40), mpc(0.2), mpc(0.1, 1), 56),
])
def test_mu_series_trap_points(monkeypatch, u, v, tau, prec):
    widths = []

    def spy_walk(*args):
        for pair in core.fixed_walk(*args):
            widths.extend(n.bit_length() for n in pair)
            yield pair

    monkeypatch.setattr(mu_module, "fixed_walk", spy_walk)
    with mp.workprec(prec):
        u, v, tau = mpc(u), mpc(v), mpc(tau)
        value = mu(u, v, tau)
        dps = mp.dps
    assert widths and max(widths) <= 2 * (prec + core.FIXED_GUARD) + 48
    with mp.workdps(dps + 40):
        exact, size = _mu_plain(u, v, tau)
        assert abs(value - exact) <= mpf(10) ** (2 - dps) * size


# mu's series reads theta(v) off its own numerator walk, a sum that cancels
# next to a zero of theta; where it has cancelled by more than FIXED_GUARD - 4
# bits against its largest term, the series takes theta's product instead.
# v within 2e-9 to 2e-7 of 0, 1, tau and 1 + tau (a sum that cancels by 19
# bits or more), at a tau where theta folds and at two where it does not; and
# at generic v, u within 1e-8 of a pole of mu, where the sum is kept.  The
# bounds on the error relative to |mu| are the worst of the parent route,
# which always took theta's product, on the same points, rounded up: next to
# a zero that product keeps its digits only where nothing folds, and next to
# a pole 1 - e(u) q^n keeps the absolute error of its walk
MU_NEAR_TAUS = [mpc(mpf("0.3"), mpf("0.9")), mpc(mpf("0.1"), mpf("2.5")),
                mpc(mpf("-0.45"), mpf("0.2"))]
MU_NEAR_OFFSETS = [mpc(mpf("2e-9"), mpf("1e-9")), mpc(mpf("-3e-8"), mpf("4e-8")),
                   mpc(mpf("1.2e-7"), mpf("-1.6e-7"))]
MU_NEAR_WORST = {"zero": {16: 1.7e-17, 30: 1.2e-31, 100: 8.2e-102},
                 "folded zero": {16: 5.0e-12, 30: 2.6e-26, 100: 1.5e-96},
                 "pole": {16: 1.4e-15, 30: 7.4e-30, 100: 4.1e-100}}


def _mu_near_points():
    # (u, v, tau, whether the series must take theta's product)
    for tau in MU_NEAR_TAUS:
        y = tau.imag
        for zero in (0, 1, tau, 1 + tau):
            for off in MU_NEAR_OFFSETS:
                yield mpf("0.2") + mpc(mpf("0.31"), mpf("0.17")) * y, zero + off, tau, True
        for pole, off in ((tau, MU_NEAR_OFFSETS[1]), (-1, mpc(mpf("5e-9"), mpf("-6e-9")))):
            yield pole + off, mpf("0.1") + mpc(mpf("0.23"), mpf("0.3")) * y, tau, False


@pytest.mark.parametrize("dps", [16, 30, 100])
def test_mu_series_takes_the_product_next_to_a_zero_of_theta(monkeypatch, dps):
    calls = []

    def counting(v, tau):
        calls.append(v)
        return jacobi_theta(v, tau)

    monkeypatch.setattr(mu_module, "jacobi_theta", counting)
    worst = dict.fromkeys(MU_NEAR_WORST, 0)
    with mp.workdps(dps):
        points = [[mpc(x) for x in point[:3]] + [point[3]] for point in _mu_near_points()]
    for u, v, tau, near in points:
        calls.clear()
        with mp.workdps(dps):
            value = mu(u, v, tau)
        assert len(calls) == near, (u, v, tau)
        with mp.workdps(dps + 60):
            exact, _ = _mu_plain(u, v, tau)
            error = abs(value - exact) / abs(exact)
        kind = "pole" if not near else "folded zero" if tau.imag < mp.sqrt(3) / 2 else "zero"
        worst[kind] = max(worst[kind], error)
    assert all(worst[kind] <= bound[dps] for kind, bound in MU_NEAR_WORST.items()), worst

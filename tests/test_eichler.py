"""Ray integrals with the 1/sqrt kernel (eichler), and the checks of the
period identities built on them (verify)."""

import math
import sys
import time
from fractions import Fraction

import pytest
from mpmath import mp, mpc, mpf

import etamock.eichler as eichler
from etamock.core import exp_sinh, fixed_prec, fraction_mpf, from_fixed
from etamock.qseries import e2pi
from etamock.mu import R_correction, g_complement, mordell_h
from etamock.theta import (ETA_THETA, E_from_g, g_ab, partial_theta, radial_limit,
                           unary_theta_combination)
from etamock.eichler import _cusp_pair, integral_identity_lhs, ray_integral, unary_ray_integral
from etamock.quantum import ELL, integral_identity_rhs
from etamock.verify import (_table2_row, corollary_check, verify_table2,
                            verify_thm12_i, verify_thm12_ii, verify_thm12_iii)

# working precision of every test here; see conftest.py
DPS = 16

TAU = mpc(0.13, 0.87)

# Table 2 as the paper prints it, one row per family: the phases of the
# prefactors P_I = e(.)/2 and P_J = e(.)/2, and the offsets of the Mordell
# integrals
PAPER_TABLE2 = {
    "1": (Fraction(1, 8), Fraction(-1, 4), (Fraction(1, 4),)),
    "2": (Fraction(0), Fraction(5, 8), (Fraction(1, 4),)),
    "3": (Fraction(1, 6), Fraction(-1, 4), (Fraction(1, 6),)),
    "4": (Fraction(0), Fraction(5, 8), (Fraction(5, 12), Fraction(1, 12))),
    "5": (Fraction(1, 12), Fraction(-1, 4), (Fraction(1, 3),)),
    "6": (Fraction(0), Fraction(5, 8), (Fraction(1, 6),)),
}


def g_decay_rate(a):
    """Exponential decay rate of g_{a,b}(z) as Im(z) grows."""
    af = float(a)
    frac = af - math.floor(af)
    alpha = min(frac, 1 - frac)
    # at alpha = 0 the n = 0 term vanishes, and the next exponent is 1/2
    return alpha * alpha if alpha else 1.0


def quadrature_ray(spec, z0, tau, tol=None):
    """int_{z0}^{i inf} g_{a,b}(z)/sqrt(-i(z+tau)) dz by ray_integral's
    exp-sinh rule, evaluating g_ab at each node: the reference of the erfcx
    sums of unary_ray_integral, from any start whose ray misses -tau."""
    a, b = map(Fraction, spec)
    tau = mpc(tau)
    return ray_integral(lambda z: g_ab((a, b), z), z0, tau, g_decay_rate(a), tol=tol)


def test_decay_rate_conventions():
    assert g_decay_rate(Fraction(1, 4)) == pytest.approx(1.0 / 16)
    assert g_decay_rate(Fraction(1, 3)) == pytest.approx(1.0 / 9)
    assert g_decay_rate(1) == pytest.approx(1.0)
    assert g_decay_rate(Fraction(3, 2)) == pytest.approx(1.0 / 4)


def test_quadrature_self_consistency():
    """Tightening the tolerance moves the value by far less than 10x tol."""
    spec = (Fraction(3, 4), Fraction(1, 2))
    loose = quadrature_ray(spec, mpf(0), TAU, tol=mpf("1e-8"))
    tight = quadrature_ray(spec, mpf(0), TAU, tol=mpf("1e-13"))
    assert abs(loose - tight) < 1e-7


@pytest.mark.parametrize("a, b", [
    (Fraction(1, 4), Fraction(0)), (Fraction(-1, 4), Fraction(1, 3)),
    (Fraction(1, 3), Fraction(-1, 4)),
])
def test_ray_from_conjugate_gives_R(a, b):
    spec = (a + Fraction(1, 2), b + Fraction(1, 2))
    quad = quadrature_ray(spec, -mp.conj(TAU), TAU)
    closed = -e2pi(a * (b + Fraction(1, 2))) * e2pi(-TAU * a * a / 2) \
        * R_correction(a * TAU - b, TAU)
    assert abs(quad - closed) < 1e-7


@pytest.mark.parametrize("a, b", [
    (Fraction(1, 4), Fraction(0)), (Fraction(-1, 4), Fraction(1, 3)),
    (Fraction(1, 3), Fraction(-1, 4)),
])
def test_ray_from_zero_gives_mordell(a, b):
    spec = (a + Fraction(1, 2), b + Fraction(1, 2))
    quad = quadrature_ray(spec, mpf(0), TAU)
    closed = -e2pi(a * (b + Fraction(1, 2))) * e2pi(-TAU * a * a / 2) \
        * mordell_h(a * TAU - b, TAU)
    assert abs(quad - closed) < 1e-7


@pytest.mark.parametrize("b", [Fraction(1, 5), Fraction(1, 3), Fraction(-1, 4)])
def test_integer_index_ray_from_conjugate(b):
    spec = (Fraction(1), b + Fraction(1, 2))
    quad = quadrature_ray(spec, -mp.conj(TAU), TAU)
    closed = -1j * e2pi(-TAU / 8 + b / 2) \
        * R_correction(TAU / 2 - b, TAU) + 1j
    assert abs(quad - closed) < 1e-7


@pytest.mark.parametrize("b", [Fraction(1, 5), Fraction(1, 3), Fraction(-1, 4)])
def test_integer_index_ray_from_zero(b):
    spec = (Fraction(1), b + Fraction(1, 2))
    quad = quadrature_ray(spec, mpf(0), TAU)
    closed = -1j * e2pi(-TAU / 8 + b / 2) * mordell_h(TAU / 2 - b, TAU) + 1j
    assert abs(quad - closed) < 1e-7


@pytest.mark.parametrize("a", [Fraction(1, 5), Fraction(-1, 3), Fraction(1, 4)])
def test_integer_second_index_ray_from_zero(a):
    spec = (a + Fraction(1, 2), Fraction(1))
    quad = quadrature_ray(spec, mpf(0), TAU)
    closed = -e2pi(-TAU * a * a / 2 + a) * mordell_h(a * TAU - Fraction(1, 2), TAU) \
        + e2pi(a) / mp.sqrt(-1j * TAU)
    assert abs(quad - closed) < 1e-7


@pytest.mark.parametrize("m, n, x", [
    ("1", 1, Fraction(1, 3)), ("2", 2, Fraction(1, 2)), ("3", 1, Fraction(1)),
    ("5", 5, Fraction(1, 5)), ("6", 2, Fraction(1, 2)), ("4", 1, Fraction(1, 5)),
])
def test_shift_identity(m, n, x):
    assert verify_thm12_iii(m, n, x) < 1e-10


@pytest.mark.parametrize("m", ["1", "2", "3", "4", "5", "6", "4p", "4pp"])
def test_ray_identity_upper_half_plane(m):
    assert verify_thm12_i(m, 1, mpc(0.21, 1.13)) < 1e-6


@pytest.mark.parametrize("m, x", [
    ("1", Fraction(1, 3)), ("3", Fraction(1)), ("5", Fraction(1, 2)),
])
def test_ray_identity_at_rationals(m, x):
    assert verify_thm12_i(m, 1, x) < 1e-6


@pytest.mark.parametrize("m, x", [
    ("2", Fraction(1, 3)), ("4", Fraction(1, 3)), ("6", Fraction(1)),
])
def test_one_step_ray_identity(m, x):
    assert verify_thm12_ii(m, x) < 1e-6


@pytest.mark.parametrize("m", ["2", "4", "6"])
def test_one_step_composition_gives_two_step(m):
    """Integral from 1/2 equals integral from 1 plus the transported copy."""
    x = Fraction(1, 3)
    image = x / (x + 1)
    whole = integral_identity_lhs(m, x, endpoint=Fraction(1, 2))
    first = integral_identity_lhs(m, x, endpoint=Fraction(1))
    second = integral_identity_lhs(m, image, endpoint=Fraction(1))
    w = e2pi(Fraction(-1, 8)) / mp.sqrt(mpf(x.numerator) / x.denominator + 1)
    assert abs(whole - first - w * second) < 1e-8


@pytest.mark.parametrize("m", sorted(PAPER_TABLE2))
def test_period_table_is_the_papers(m):
    # derived from the shadow pairs of E_m; phases are compared mod 1
    phase_i, phase_j, offsets = _table2_row(m)
    paper_i, paper_j, paper_offsets = PAPER_TABLE2[m]
    assert (phase_i - paper_i) % 1 == 0 and (phase_j - paper_j) % 1 == 0
    assert offsets == paper_offsets
    assert e2pi(phase_i) == e2pi(paper_i) and e2pi(phase_j) == e2pi(paper_j)


@pytest.mark.parametrize("m", ["1", "2", "3", "4", "5", "6"])
def test_period_table_closed_forms(m):
    res = verify_table2(m, mpc(0.11, 0.93))
    assert res["I"] < 1e-7
    assert res["J"] < 1e-7
    assert res["functional_equation"] < 1e-7


@pytest.mark.parametrize("m, x", [
    ("1", Fraction(1, 3)), ("2", Fraction(1, 2)), ("6", Fraction(1, 3)),
])
def test_quadrature_matches_finite_sum(m, x):
    lhs, rhs, resid = corollary_check(m, x)
    assert resid < 1e-9
    assert abs(lhs - integral_identity_lhs(m, x)) < 1e-12
    assert abs(rhs - integral_identity_rhs(m, x)) < 1e-12


@pytest.mark.parametrize("m, x", [
    ("1", Fraction(1, 3)), ("2", Fraction(1, 3)), ("3", Fraction(1)),
    ("4", Fraction(1, 3)), ("5", Fraction(1, 2)), ("6", Fraction(1)),
])
def test_corollary_holds_to_working_precision(m, x):
    # at the thm12 suite's points; a 53-bit -i/c_m on the integral side
    # (c_m = 6, 24, 12, 6 for families 3-6) stops the residual near 1e-17
    with mp.workdps(30):
        assert corollary_check(m, x)[2] < 1e-28


@pytest.mark.parametrize("m, x", [("1", Fraction(2, 5)), ("2", Fraction(2, 3))])
def test_corollary_outside_quantum_set_is_domain_error(m, x):
    with pytest.raises(ValueError, match="outside the quantum set"):
        corollary_check(m, x)


@pytest.mark.parametrize("m", ["1", "2", "3", "4", "5", "6"])
def test_minus_one_over_ell_is_excluded(m):
    # x -> x/(ell x + 1) sends -1/ell to infinity
    with pytest.raises(ZeroDivisionError):
        integral_identity_rhs(m, Fraction(-1, ELL[m]))
    with pytest.raises(ZeroDivisionError):
        verify_thm12_i(m, 1, Fraction(-1, 2))


@pytest.mark.parametrize("m, x", [("1", Fraction(1, 3)), ("5", Fraction(1, 2))])
def test_radial_residuals_decrease(m, x):
    # the partial theta at -2(x + it)/c_m^2 is sum C(n) e^(-n^2 s), with
    # s = 4 pi t/c_m^2 and C(n) = chi_m(n) e(2 x n^2/c_m^2) of period
    # M = k c_m^2, and it is L(0, C) - L(-2, C) s + O(s^2) once t is small:
    # halving t halves the residual against the limit L(0, C) and quarters
    # it against the first two terms; c_m^2/2 is E_m's scale
    limit = radial_limit(int(m), x)
    square = 2 * unary_theta_combination(int(m))[0][2]
    ts = (2e-4, 1e-4)
    values = [partial_theta(int(m), -2 * mpc(mpf(x.numerator) / x.denominator, t) / square)
              for t in ts]
    r1, r2 = [abs(value - limit) for value in values]
    assert 1.8 < r1 / r2 < 2.2
    assert abs(limit) > 1e-6
    # L(-2, C) = -(M^2/3) sum_{n<=M} C(n) B_3(n/M)
    chi, M = ETA_THETA["E" + m].chi, x.denominator * square
    L2 = -mpf(M) ** 2 / 3 * sum(fraction_mpf(chi(n)) * e2pi(2 * x * n * n / square)
                                * mp.bernpoly(3, mpf(n) / M) for n in range(1, M + 1))
    q1, q2 = [abs(value - (limit - L2 * 4 * mp.pi * t / square)) for value, t in zip(values, ts)]
    assert 3.6 < q1 / q2 < 4.4


def test_ray_integral_complex_start():
    """Starts off the imaginary axis are accepted and finite."""
    val = ray_integral(lambda z: mp.exp(2j * mp.pi * z), mpc(-0.3, 0.2),
                       mpc(0.3, 0.9), decay=2)
    assert mp.isfinite(val.real) and mp.isfinite(val.imag)


# int_{0.3}^{i inf} g_{1/12,1/2}(z)/sqrt(-i(z + tau)) dz at tau = 0.2 + 0.7i, the
# slowest-decaying shadow pair (E4's, g ~ e^{-pi t/144}) from a start that
# ray_integral does not treat as a cusp, though the cusp 3/10 puts a bump
# near t = 1e-3.  By mp.quad at dps 30, split by doubling from 1e-12 to 4.4
# and then every 32 up to 4004; dps 40 moved it by 2e-32.  Made by
#   PYTHONPATH=src python -c "from fractions import Fraction as F; from mpmath import *;
#     from etamock.theta import g_ab; mp.dps = 30; z0, tau = mpf('0.3'), mpc(0.2, 0.7);
#     pts = [0] + [mpf(10)**-12 * 2**k for k in range(43)];
#     pts += [pts[-1] + 32*j for j in range(1, 126)];
#     print(quad(lambda t: 1j*g_ab((F(1, 12), F(1, 2)), z0 + 1j*t)/sqrt(-1j*(z0 + 1j*t + tau)), pts))"
SLOW_RAY = ("-0.19478002947580497532326813734454", "1.1847430575542297903479867459994")


def test_slowest_ray_from_a_non_cusp_start_keeps_the_bump():
    for dps in (16, 30):
        with mp.workdps(dps):
            value = quadrature_ray((Fraction(1, 12), Fraction(1, 2)), mpf("0.3"), mpc(0.2, 0.7))
            assert abs(value - mpc(*SLOW_RAY)) < mpf(10) ** (3 - dps)


def test_exp_sinh_levels_reuse_every_value():
    points = []

    def f(t):
        points.append(t)
        return mp.exp(-t)

    cut = 60
    value = exp_sinh(f, cut, mpf(10) ** (3 - DPS), "test integral")
    assert abs(value - 1) < mpf(10) ** (1 - DPS)
    assert len(set(points)) == len(points)
    assert max(points) <= cut


def test_ray_integral_that_cannot_settle_raises():
    """G(z0 + it) = sin(1/t)/t e^{-pi t} swings without bound as t -> 0, so
    no level of the rule settles on the start of the ray; it decays at the
    cut, so the bound beyond the cut passes."""
    def G(z):
        t = z.imag
        return mp.sin(1 / t) / t * mp.exp(-mp.pi * t)

    with pytest.raises(RuntimeError, match="ray integral failed to converge"):
        ray_integral(G, mpf(0), mpc(0.3, 0.9), decay=1)


def test_ray_integral_with_overstated_decay_raises():
    """G decays as e^{-pi 0.02 t}; with decay = 2 the cut is far too low.
    The bound on the part beyond the cut is above tol, at the default tol
    and at a loose one, and it is checked before the rule runs."""
    calls = []

    def G(z):
        calls.append(z)
        return mp.exp(2j * mp.pi * mpf(0.01) * z)

    tau = mpc(0.3, 0.9)
    with pytest.raises(RuntimeError, match="beyond height"):
        ray_integral(G, 0, tau, decay=2)
    assert len(calls) == 1
    with pytest.raises(RuntimeError, match="beyond height"):
        ray_integral(G, 0, tau, decay=2, tol=mpf("1e-3"))
    direct = mp.quad(lambda t: 1j * G(1j * t) / mp.sqrt(-1j * (1j * t + tau)),
                     [0, 1, mp.inf])
    assert abs(ray_integral(G, 0, tau, decay=mpf(0.02)) - direct) < mpf(10) ** (3 - DPS)


@pytest.mark.parametrize("z0, tau", [(0.3, -0.3), (0.3, mpc(-0.3, -0.5))])
def test_ray_through_the_kernel_singularity_is_domain_error(z0, tau):
    calls = []

    def G(z):
        calls.append(z)
        return mp.exp(2j * mp.pi * z)

    with pytest.raises(ValueError, match="singularity"):
        ray_integral(G, z0, tau, decay=2)
    assert calls == []


# The rays of the benchmark's `period` workload at seed 1: both rays of two
# Table 2 rows, and the (family, endpoint) ray of four period identities.
# On the family 3 ray from 1/2, mp.quad's extrapolated error estimate read
# 1e-15 at its level 4 while the error was 6.0e-12.
SEED1_TABLE2 = (("2", mpc(-0.038548997356134485, 0.9320261863517083)),
                ("6", mpc(0.09941399649890248, 1.0023554996917092)))
SEED1_IDENTITIES = (
    ("3", Fraction(1, 2), mpc(-0.1185314558716637, 0.9669511098728135)),
    ("5", Fraction(1, 2), Fraction(5, 4)),
    ("6", Fraction(1), Fraction(1, 6)),
    ("2", Fraction(1), Fraction(-1, 6)),
)


@pytest.mark.parametrize("dps", [16, 30, 100])
def test_seed1_rays_within_two_units_of_higher_precision(monkeypatch, dps):
    """Each of the 8 rays, two erfcx sums, is within 2 units of 10^-dps |ray|
    of the same ray at dps + 30, and no call changes mp.dps."""
    rays = []

    def record(spec, z0, tau):
        value = unary_ray_integral(spec, z0, tau)
        assert mp.dps == dps
        rays.append((spec, z0, tau, value))
        return value

    monkeypatch.setattr(eichler, "unary_ray_integral", record)
    monkeypatch.setattr(eichler, "_lhs_cache", {})
    with mp.workdps(dps):
        for m, tau in SEED1_TABLE2:
            for z0 in (Fraction(0), Fraction(1, ELL[m])):
                eichler.shadow_ray_integral(m, z0, tau)
        for m, endpoint, x in SEED1_IDENTITIES:
            integral_identity_lhs(m, x, endpoint)
    assert len(rays) == 8
    for spec, z0, tau, value in rays:
        with mp.workdps(dps + 30):
            fine = unary_ray_integral(spec, z0, tau)
            assert abs(value - fine) <= 2 * mpf(10) ** -dps * abs(fine), (spec, z0, tau)


@pytest.mark.parametrize("dps", [16, 30])
@pytest.mark.parametrize("spec, tau", [((Fraction(3, 4), Fraction(1, 2)), TAU),
                                       ((Fraction(1, 12), Fraction(1, 2)), mpc(-0.3, 0.6)),
                                       ((Fraction(1), Fraction(7, 10)), mpc(0.45, 1.2))])
def test_a_ray_from_fraction_zero_is_the_quadrature_from_zero(dps, spec, tau):
    """The two erfcx sums from Fraction(0) and the exp-sinh rule on g_ab from
    mpf(0), two routes that share no code past g_{a,b}'s coefficients."""
    with mp.workdps(dps):
        sums = unary_ray_integral(spec, Fraction(0), tau)
        quad = quadrature_ray(spec, mpf(0), tau)
        assert abs(sums - quad) < mpf(10) ** (3 - dps)


def _two_sums(spec, x, tau):
    """e(r), the direct sum and q^{-1/2} s^{-1/2} times the cusp sum of the
    ray of spec from x, which unary_ray_integral adds as i (direct + e(r) cusp)."""
    phase, direct, cusp = eichler._ray_table(spec[0], spec[1], x, mp.prec)
    q, wp = x.denominator, fixed_prec()
    with mp.workprec(wp):
        s = -1j * (fraction_mpf(x) + tau)
        upper = eichler._erfcx_sum(direct, 1 / mpf(q) + s, wp)
        lower = eichler._erfcx_sum(cusp, 1 / mpf(q) + 1 / (s * q * q), wp) / mp.sqrt(q * s)
    return phase, upper, lower


@pytest.mark.parametrize("spec, x, tau", [((Fraction(1, 4), Fraction(1, 2)), Fraction(1, 2), TAU),
                                          ((Fraction(1, 12), Fraction(1, 2)), Fraction(1),
                                           mpc(-0.1, 0.9))])
def test_the_cusp_sum_needs_its_i_and_its_phase(spec, x, tau):
    """The cusp sum carries the i of dz = i dt and e(r) as it is: without
    the i, or with e(r) conjugated, the ray misses the quadrature by far
    more than its tolerance.  e(r) is not real at either start."""
    phase, upper, lower = _two_sums(spec, x, tau)
    quad = quadrature_ray(spec, fraction_mpf(x), tau)
    with mp.workprec(fixed_prec()):
        ray = 1j * (upper + phase * lower)
    assert _same_bits(+ray, unary_ray_integral(spec, x, tau))
    assert abs(ray - quad) < mpf(10) ** (3 - DPS)
    for mutant in (1j * upper + phase * lower, 1j * (upper + mp.conj(phase) * lower)):
        assert abs(mutant - quad) > 1e-3 * abs(quad)


@pytest.mark.parametrize("z0, tau", [(Fraction(1, 2), mpf(-0.5)), (0, mpf(0)),
                                     (Fraction(-3, 4), mpc(0.75, 0))])
def test_a_ray_from_a_cusp_through_the_singularity_is_domain_error(monkeypatch, z0, tau):
    calls = []
    monkeypatch.setattr(eichler, "fixed_erfcx", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="singularity"):
        unary_ray_integral((Fraction(1, 4), Fraction(1, 2)), z0, tau)
    assert calls == []


@pytest.mark.parametrize("x", [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(1, 3),
                               Fraction(-2, 5)])
@pytest.mark.parametrize("spec", [p for rec in ETA_THETA.values() for p in rec.g_pairs])
def test_the_lower_cut_decays_as_g_does_at_the_cusp(spec, x):
    """D = g_decay_rate(a')/q^2, for the a' of _cusp_pair, is the rate of
    g_{a,b} at x = p/q: |g_{a,b}(x + it)| t^{3/2} e^{pi D/t} is the same at
    t = 1/(40 q^2) and 1/(80 q^2), where the terms of least |nu| of the
    folded g_{a',b'} outweigh the rest by e^{-20} or more."""
    (a1, _), _, _ = _cusp_pair(spec, x)
    q = x.denominator
    D = g_decay_rate(a1) / q ** 2

    def scaled(t):
        z = mpc(mpf(x.numerator) / q, t)
        return abs(g_ab(spec, z)) * t ** 1.5 * mp.exp(mp.pi * D / t)

    near, nearer = scaled(mpf(1) / (40 * q * q)), scaled(mpf(1) / (80 * q * q))
    assert abs(near / nearer - 1) < 1e-8


def _counting_g_ab(monkeypatch):
    """Count the calls of g_ab through every binding of it in the package."""
    calls = []

    def counted(spec, z):
        calls.append(z)
        return g_ab(spec, z)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "etamock" and getattr(module, "g_ab", None) is g_ab:
            monkeypatch.setattr(module, "g_ab", counted)
    return calls


def _same_bits(a, b):
    return (a.real, a.imag) == (b.real, b.imag)


@pytest.mark.parametrize("spec, z0", [((Fraction(1, 4), Fraction(1, 2)), Fraction(1, 2)),
                                      ((Fraction(1, 12), Fraction(1, 2)), Fraction(1))])
def test_a_second_ray_from_one_start_reads_the_memo(monkeypatch, spec, z0):
    """A ray of (a, b) from z0 at another tau builds no table and gives the
    bits of a ray from a cold memo."""
    calls = _counting_g_ab(monkeypatch)
    for tau in (mpc(-0.2, 1.1), mpf(1) / 3):
        eichler._ray_table.cache_clear()
        cold = unary_ray_integral(spec, z0, tau)
        eichler._ray_table.cache_clear()
        unary_ray_integral(spec, z0, TAU)
        assert eichler._ray_table.cache_info().misses == 1
        warm = unary_ray_integral(spec, z0, tau)
        assert eichler._ray_table.cache_info().misses == 1
        assert _same_bits(warm, cold)
    assert calls == []


def test_a_ray_at_higher_precision_recomputes_its_values():
    """The table is looked up at the mp.prec of the call: a ray at dps 30
    after one at dps 16 builds a dps-30 table and gives the bits of a ray
    from a cold memo at dps 30."""
    spec, z0 = (Fraction(1, 4), Fraction(1, 2)), Fraction(1, 2)
    eichler._ray_table.cache_clear()
    coarse = unary_ray_integral(spec, z0, TAU)
    with mp.workdps(30):
        fine = unary_ray_integral(spec, z0, TAU)
        assert eichler._ray_table.cache_info().misses == 2
        eichler._ray_table.cache_clear()
        cold = unary_ray_integral(spec, z0, TAU)
    assert _same_bits(fine, cold)
    assert abs(fine - coarse) > 0


# the shadow pairs of the odd records, and one pair of no record
CUSP_PAIRS = [p for rec in ETA_THETA.values() for p in rec.g_pairs] \
    + [(Fraction(3, 4), Fraction(3, 4))]
CUSP_STARTS = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(1, 3), Fraction(-2, 5),
               Fraction(3, 7), Fraction(5, 8), Fraction(-7, 12)]


@pytest.mark.parametrize("dps", [16, 30])
@pytest.mark.parametrize("x", CUSP_STARTS)
def test_the_cusp_fold_is_exact(dps, x):
    """g_{a,b}(x + it) = e(r) (qt)^{-3/2} g_{a',b'}(X + i/(q^2 t)) for the
    ((a', b'), X, r) of _cusp_pair, both sides by g_ab at dps + 34, at a
    height on each side of t = 1/q and one below the lower cut's scale."""
    q = x.denominator
    for spec in CUSP_PAIRS:
        (a1, b1), X, r = _cusp_pair(spec, x)
        assert X.denominator == q
        with mp.workdps(dps + 34):
            for t in (mpf(3) / q, mpf(1) / (3 * q), mpf(1) / (20 * q * q)):
                direct = g_ab(spec, mpc(fraction_mpf(x), t))
                folded = e2pi(r) * (q * t) ** mpf(-1.5) \
                    * g_ab((a1, b1), mpc(fraction_mpf(X), 1 / (q * q * t)))
                assert abs(direct - folded) < mpf(10) ** -(dps + 30) * abs(direct), (spec, t)


def _abs_terms(spec, x, t):
    """The sum of |terms| of g at x + it: sum |nu| e^{-pi s nu^2} over nu in
    a + Z on the side that _table_node takes, times (qt)^{-3/2} on the cusp
    side."""
    q = x.denominator
    (a1, _), _, _ = _cusp_pair(spec, x)
    a, s, factor = (spec[0], t, 1) if q * t >= 1 else (a1, 1 / (q * q * t), (q * t) ** -1.5)
    a0 = fraction_mpf(Fraction(a) % 1)
    return factor * mp.nsum(lambda n: abs(a0 + n) * mp.exp(-mp.pi * s * (a0 + n) ** 2),
                            [-mp.inf, mp.inf])


def _table_node(table, x, t):
    """g_{a,b}(x + it) from the weights w of a ray's table, each a sum of
    sgn(nu) e(b nu + x nu^2/2) e^{-pi nu^2/q}: sum |nu| w e^{-pi nu^2 (s - 1/q)}
    on the direct side at s = t if qt >= 1, else e(r) (qt)^{-3/2} times the
    cusp side at s = 1/(q^2 t)."""
    phase, direct, cusp = table
    q = x.denominator
    wp = fixed_prec()
    with mp.workprec(wp):
        (d, pairs), s, factor = (direct, t, 1) if q * t >= 1 \
            else (cusp, 1 / (q * q * t), phase * (q * t) ** mpf(-1.5))
        return +(factor * sum(mpf(m) / d * from_fixed(w, wp)
                              * mp.exp(-mp.pi * (mpf(m) / d) ** 2 * (s - mpf(1) / q))
                              for m, w in pairs))


# (1, 7/10) has a direct side of integer a, and (1/4, 0) from 0 a cusp side of
# integer a' = 0: neither side has a nu = 0 term, and each is scaled at nu = +-1
TABLE_PAIRS = CUSP_PAIRS + [(Fraction(1), Fraction(7, 10))]


@pytest.mark.parametrize("dps", [16, 30, 40])
@pytest.mark.parametrize("x", [Fraction(0), Fraction(1, 2), Fraction(-2, 5), Fraction(5, 8)])
def test_the_ray_table_gives_g_ab(dps, x):
    """g_{a,b}(x + it) read from the table's weights (_table_node) is within
    2 units of 10^-dps of its sum of |terms| of g_ab at dps + 34, from
    t = 10^-4 to 10^3, at t = 1/q where the direct side has its fewest
    terms, just below it where the cusp side does, and at t = 469: so the
    weights hold every term the ray's sums need."""
    q = x.denominator
    heights = [mpf(10) ** -4, mpf(1) / (7 * q), mpf(1) / q, mpf(1) / q * (1 - mpf(10) ** -dps),
               mpf(2) / q, mpf(469), mpf(10) ** 3]
    with mp.workdps(dps):
        for spec in TABLE_PAIRS:
            table = eichler._ray_table(spec[0], spec[1], x, mp.prec)
            for t in heights:
                value = _table_node(table, x, t)
                with mp.workdps(dps + 34):
                    exact = g_ab(spec, mpc(fraction_mpf(x), t))
                    bound = 2 * mpf(10) ** -dps * _abs_terms(spec, x, t)
                assert abs(value - exact) <= bound, (spec, t)


def test_a_ray_from_a_rational_start_calls_no_g_ab(monkeypatch):
    calls = _counting_g_ab(monkeypatch)
    spec = (Fraction(1, 12), Fraction(1, 2))
    for z0 in (Fraction(1, 2), 1):
        unary_ray_integral(spec, z0, TAU)
    assert calls == []
    g_complement(spec, TAU)
    assert len(calls) == 1


def test_a_ray_off_a_cusp_or_below_the_line_fails_fast(monkeypatch):
    """mpf(0.3), made from the binary float, lies 1.1e-17 off the cusp 3/10,
    where the exp-sinh rule on g_ab ran for 20 s before it raised
    ConvergenceError.  A start that is not a Fraction or an int raises
    TypeError, and Im tau < 0 raises ValueError, before any table, g_ab or
    erfcx."""
    calls = _counting_g_ab(monkeypatch)
    monkeypatch.setattr(eichler, "fixed_erfcx", lambda *args: calls.append(args))
    spec, tau = (Fraction(1, 12), Fraction(1, 2)), mpc(0.2, 0.7)
    tables = eichler._ray_table.cache_info()
    with mp.workdps(30):
        for z0, at, error in ((mpf(0.3), tau, TypeError), (mpc(0.3, 0.2), tau, TypeError),
                              (Fraction(3, 10), mp.conj(tau), ValueError)):
            start = time.perf_counter()
            with pytest.raises(error):
                unary_ray_integral(spec, z0, at)
            assert time.perf_counter() - start < 0.5, z0
    assert calls == []
    assert eichler._ray_table.cache_info() == tables


def test_lhs_cache_keys_on_exact_inputs_and_precision(monkeypatch):
    """Inputs that print alike, and precisions with one mp.dps, each get
    their own value: the value a cold cache gives."""
    x = mpc("0.1", "0.9")
    near = x + mpf(2) ** -55
    assert near != x and str(near) == str(x)

    def cold(y):
        monkeypatch.setattr(eichler, "_lhs_cache", {})
        return integral_identity_lhs("2", y)

    at_x, at_near = cold(x), cold(near)
    with mp.extraprec(2):
        assert mp.dps == DPS
        wider = cold(x)
    monkeypatch.setattr(eichler, "_lhs_cache", {})
    assert integral_identity_lhs("2", x) == at_x
    assert integral_identity_lhs("2", near) == at_near
    with mp.extraprec(2):
        assert integral_identity_lhs("2", x) == wider
    assert len(eichler._lhs_cache) == 3


def test_estar_tracks_partial_theta_at_conjugate():
    """The weight 3/2 period integral approaches a fixed multiple of the
    partial theta at the reflected point as the height shrinks."""
    xt = mpf(1) / 96
    C = e2pi(Fraction(1, 8)) / mp.sqrt(2)
    resid = []
    for y in (0.05, 0.02, 0.008):
        tau0 = mpc(xt, y)
        # int_{-conj(tau0)}^{i inf} E_1(u)/sqrt(u + tau0) du: on that ray
        # -i(u + tau0) is positive real, so sqrt(u + tau0) = e(1/8) sqrt(-i(u + tau0))
        raw = ray_integral(lambda z: E_from_g(1, z), -mp.conj(tau0), tau0, decay=2)
        a = raw / e2pi(Fraction(1, 8))
        b = partial_theta(1, mp.conj(tau0))
        resid.append(abs(a - C * b))
    assert resid[0] > resid[1] > resid[2]
    assert resid[2] < 0.05

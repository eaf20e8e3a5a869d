"""Ray integrals with the 1/sqrt kernel (eichler), and the checks of the
period identities built on them (verify)."""

from fractions import Fraction

import pytest
from mpmath import mp, mpc, mpf

import etamock.eichler as eichler
from etamock.core import tanh_sinh
from etamock.qseries import e2pi
from etamock.mu import R_correction, mordell_h
from etamock.theta import partial_theta
from etamock.eichler import (estar_value, g_decay_rate, integral_identity_lhs,
                             partial_theta_radial, ray_integral, unary_ray_integral)
from etamock.quantum import ELL, integral_identity_rhs
from etamock.verify import (corollary_check, radial_proportionality, table2_terms,
                            verify_table2, verify_thm12_i, verify_thm12_ii,
                            verify_thm12_iii)

# working precision of every test here; see conftest.py
DPS = 16

TAU = mpc(0.13, 0.87)


def test_decay_rate_conventions():
    assert g_decay_rate(Fraction(1, 4)) == pytest.approx(1.0 / 16)
    assert g_decay_rate(Fraction(1, 3)) == pytest.approx(1.0 / 9)
    assert g_decay_rate(Fraction(5, 12), scale=2) == pytest.approx(2 * 25.0 / 144)
    assert g_decay_rate(1) == pytest.approx(1.0)
    assert g_decay_rate(Fraction(3, 2)) == pytest.approx(1.0 / 4)


def test_quadrature_self_consistency():
    """Tightening the tolerance moves the value by far less than 10x tol."""
    spec = (Fraction(3, 4), Fraction(1, 2))
    loose = unary_ray_integral(spec, mpf(0), TAU, tol=mpf("1e-8"))
    tight = unary_ray_integral(spec, mpf(0), TAU, tol=mpf("1e-13"))
    assert abs(loose - tight) < 1e-7


@pytest.mark.parametrize("a, b", [
    (Fraction(1, 4), Fraction(0)), (Fraction(-1, 4), Fraction(1, 3)),
    (Fraction(1, 3), Fraction(-1, 4)),
])
def test_ray_from_conjugate_gives_R(a, b):
    spec = (a + Fraction(1, 2), b + Fraction(1, 2))
    quad = unary_ray_integral(spec, -mp.conj(TAU), TAU)
    closed = -e2pi(a * (b + Fraction(1, 2))) * e2pi(-TAU * a * a / 2) \
        * R_correction(a * TAU - b, TAU)
    assert abs(quad - closed) < 1e-7


@pytest.mark.parametrize("a, b", [
    (Fraction(1, 4), Fraction(0)), (Fraction(-1, 4), Fraction(1, 3)),
    (Fraction(1, 3), Fraction(-1, 4)),
])
def test_ray_from_zero_gives_mordell(a, b):
    spec = (a + Fraction(1, 2), b + Fraction(1, 2))
    quad = unary_ray_integral(spec, mpf(0), TAU)
    closed = -e2pi(a * (b + Fraction(1, 2))) * e2pi(-TAU * a * a / 2) \
        * mordell_h(a * TAU - b, TAU)
    assert abs(quad - closed) < 1e-7


@pytest.mark.parametrize("b", [Fraction(1, 5), Fraction(1, 3), Fraction(-1, 4)])
def test_integer_index_ray_from_conjugate(b):
    spec = (Fraction(1), b + Fraction(1, 2))
    quad = unary_ray_integral(spec, -mp.conj(TAU), TAU)
    closed = -1j * e2pi(-TAU / 8 + b / 2) \
        * R_correction(TAU / 2 - b, TAU) + 1j
    assert abs(quad - closed) < 1e-7


@pytest.mark.parametrize("b", [Fraction(1, 5), Fraction(1, 3), Fraction(-1, 4)])
def test_integer_index_ray_from_zero(b):
    spec = (Fraction(1), b + Fraction(1, 2))
    quad = unary_ray_integral(spec, mpf(0), TAU)
    closed = -1j * e2pi(-TAU / 8 + b / 2) * mordell_h(TAU / 2 - b, TAU) + 1j
    assert abs(quad - closed) < 1e-7


@pytest.mark.parametrize("a", [Fraction(1, 5), Fraction(-1, 3), Fraction(1, 4)])
def test_integer_second_index_ray_from_zero(a):
    spec = (a + Fraction(1, 2), Fraction(1))
    quad = unary_ray_integral(spec, mpf(0), TAU)
    closed = -e2pi(-TAU * a * a / 2 + a) * mordell_h(a * TAU - Fraction(1, 2), TAU) \
        + e2pi(a) / mp.sqrt(-1j * TAU)
    assert abs(quad - closed) < 1e-7


@pytest.mark.parametrize("m, n, x", [
    ("1", 1, Fraction(1, 3)), ("2", 2, Fraction(1, 2)), ("3", 1, Fraction(1)),
    ("5", 5, Fraction(1, 5)), ("6", 2, Fraction(1, 2)), ("4", 1, Fraction(1, 5)),
])
def test_shift_identity(m, n, x):
    assert verify_thm12_iii(m, n, x) < 1e-10


@pytest.mark.parametrize("m", ["1", "2", "3", "4", "5", "6"])
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


def test_partial_theta_radial_heights():
    vals = partial_theta_radial("1", Fraction(1, 3), (0.05, 0.01))
    direct = partial_theta(1, -2 * mpc(mpf(1) / 3, 0.01) / 64)
    assert abs(vals[1] - direct) < 1e-12


@pytest.mark.parametrize("m, x", [("1", Fraction(1, 3)), ("5", Fraction(1, 2))])
def test_radial_residuals_decrease(m, x):
    const, residuals = radial_proportionality(m, 1, x)
    assert residuals[0] > residuals[1] > residuals[2]
    assert abs(const) > 1e-6


def test_ray_integral_complex_start():
    """Starts off the imaginary axis are accepted and finite."""
    val = ray_integral(lambda z: mp.exp(2j * mp.pi * z), mpc(-0.3, 0.2),
                       mpc(0.3, 0.9), decay=2)
    assert mp.isfinite(val.real) and mp.isfinite(val.imag)


def test_tanh_sinh_levels_reuse_every_value():
    points = []

    def f(x):
        points.append(x)
        return mp.exp(x)

    value = tanh_sinh(f, 0, 1, mpf(10) ** (3 - DPS), "test integral")
    assert abs(value - (mp.e - 1)) < mpf(10) ** (1 - DPS)
    # nodes within 2^-prec of 1 round to 1; those near 0 keep their distance
    near_zero = [x for x in points if x < 0.5]
    assert len(points) == 2 * len(near_zero) + 1
    assert len(set(near_zero)) == len(near_zero)


def test_ray_integral_that_cannot_settle_raises():
    """G(z0 + it) = sin(1/t)/t swings without bound as t -> 0, so no level
    of the rule settles on the start of the ray."""
    def G(z):
        return mp.sin(1 / z.imag) / z.imag

    with pytest.raises(RuntimeError, match="ray integral failed to converge"):
        ray_integral(G, mpf(0), mpc(0.3, 0.9), decay=1)


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


def test_ray_integral_stop_rule_against_higher_precision(monkeypatch):
    """The level-difference stop leaves each ray within 10^(3 - dps) of its
    value at dps 30, and no call changes mp.dps."""
    rays = []

    def record(G, z0, tau, decay, tol=None):
        value = ray_integral(G, z0, tau, decay, tol)
        assert mp.dps == DPS
        rays.append((G, z0, tau, decay, value))
        return value

    monkeypatch.setattr(eichler, "ray_integral", record)
    monkeypatch.setattr(eichler, "_lhs_cache", {})
    for m, tau in SEED1_TABLE2:
        table2_terms(m, tau)
    for m, endpoint, x in SEED1_IDENTITIES:
        integral_identity_lhs(m, x, endpoint)
    assert len(rays) == 8
    for G, z0, tau, decay, value in rays:
        with mp.workdps(30):
            fine = ray_integral(G, z0, tau, decay)
            assert mp.dps == 30
        assert mp.dps == DPS
        assert abs(value - fine) < mpf(10) ** (3 - DPS)


def test_estar_tracks_partial_theta_at_conjugate():
    """The weight 3/2 period integral approaches a fixed multiple of the
    partial theta at the reflected point as the height shrinks."""
    xt = mpf(1) / 96
    C = e2pi(Fraction(1, 8)) / mp.sqrt(2)
    resid = []
    for y in (0.05, 0.02, 0.008):
        tau0 = mpc(xt, y)
        a = estar_value("1", tau0)
        b = partial_theta(1, mp.conj(tau0))
        resid.append(abs(a - C * b))
    assert resid[0] > resid[1] > resid[2]
    assert resid[2] < 0.05

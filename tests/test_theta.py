"""Jacobi theta, the eta-theta catalogue, and unary theta pieces."""

from fractions import Fraction

import pytest
from mpmath import mp, mpc, mpf

from etamock.qseries import SL2Matrix, e2pi, eta
from etamock.theta import (E_from_g, _theta_product, e_from_theta,
                           eta_theta_eval, eta_theta_qexp, g_ab, jacobi_theta,
                           jacobi_theta_transform, partial_theta,
                           theta_specialization_point,
                           unary_theta_combination)

# working precision of every test here; see conftest.py
DPS = 25

TAUS = [mpc(0.1, 0.9), mpc(-0.35, 1.4), mpc(0.48, 0.62)]


def test_theta_is_odd_and_vanishes_at_zero():
    tau = mpc(0.2, 1.1)
    v = mpc(0.31, 0.12)
    assert abs(jacobi_theta(v, tau) + jacobi_theta(-v, tau)) < 1e-22
    assert abs(jacobi_theta(0, tau)) < 1e-22


def test_theta_quasi_periods():
    tau = mpc(0.15, 0.85)
    v = mpc(0.21, 0.4)
    base = jacobi_theta(v, tau)
    assert abs(jacobi_theta(v + 1, tau) + base) < 1e-21
    shifted = jacobi_theta(v + tau, tau)
    law = -e2pi(-tau / 2) * mp.exp(-2j * mp.pi * v) * base
    assert abs(shifted - law) < 1e-21


@pytest.mark.parametrize("tau", TAUS)
def test_theta_product_equals_sum(tau):
    for v in (mpc(0.3, 0.1), mpc(-0.2, 0.55), mpc(0.05, -0.3)):
        p = jacobi_theta(v, tau, representation="product")
        s = jacobi_theta(v, tau, representation="sum")
        assert abs(p - s) < 1e-21


def test_theta_rejects_unknown_representation():
    with pytest.raises(ValueError, match="unknown representation"):
        jacobi_theta(mpc(0.3, 0.1), mpc(0.1, 0.9), representation="prodcut")


# near a cusp: Im tau down to 1e-4, Im v a multiple k of Im tau.  Points at
# Im tau = 1e-4 near the low-denominator rationals -73/10 and 83/2 are left
# out: there the sum cancels thousands of digits and is no reference.
FOLD_TAUS = [(0.13, 1e-2), (0.13, 1e-3), (0.13, 1e-4), (-7.3, 1e-2),
             (-7.3, 1e-3), (41.5, 1e-2), (41.5, 1e-3)]


@pytest.mark.parametrize("k", [0.2, -1.7, 3.4])
@pytest.mark.parametrize("re, im", FOLD_TAUS)
def test_folded_theta_matches_sum_near_cusp(re, im, k):
    tau = mpc(mpf(re), mpf(im))
    v = mpc(mpf("0.31"), k * tau.imag)
    folded = jacobi_theta(v, tau)
    with mp.workdps(DPS + 35):
        ref = jacobi_theta(v, tau, representation="sum")
    assert abs(folded - ref) < 1e-20 * abs(ref)


def test_folded_theta_at_tiny_im_tau():
    # the bare product would need ~10^6 factors here and hit its cap
    tau = mpc(mpf("0.13"), mpf("1e-6"))
    v = mpc(mpf("0.31"), 0.2 * tau.imag)
    folded = jacobi_theta(v, tau)
    with mp.workdps(60):
        ref = jacobi_theta(v, tau, representation="sum")
    assert abs(folded - ref) < 1e-18 * abs(ref)


@pytest.mark.parametrize("im", ["1e-8", "1e-16", "1e-30"])
def test_folded_theta_keeps_working_precision(im):
    # no series reaches here; the reference is the fold at 70 more digits
    tau = mpc(mpf("0.13"), mpf(im))
    v = mpc(mpf("0.31"), 0.2 * tau.imag)
    folded = jacobi_theta(v, tau)
    with mp.workdps(DPS + 70):
        ref = jacobi_theta(v, tau)
    assert abs(folded - ref) < 1e-23 * abs(ref)


@pytest.mark.parametrize("tau", [mpc(0.1, 1.1), mpc(-0.35, 1.4),
                                 mpc(0.45, 0.95), mpc(-0.5, 0.9),
                                 mpc(0.2, 0.9), mpc(3.7, 0.87)])
def test_folded_theta_is_bare_product_at_height_of_f(tau):
    # Im tau >= sqrt(3)/2 (the first four in F) and v in the period cell:
    # the fold moves nothing
    for v in (mpc(0.3, 0.1), mpc(-0.45, -0.4), mpc(0.05, 0.4 * tau.imag)):
        assert jacobi_theta(v, tau) == _theta_product(v, tau)


def test_theta_derivative_at_zero_is_eta_cubed():
    """Central differences of theta at v=0 against -2 pi eta(tau)^3."""
    tau = mpc(0.12, 1.05)
    h = mpf("1e-8")
    der = (jacobi_theta(h, tau) - jacobi_theta(-h, tau)) / (2 * h)
    assert abs(der + 2 * mp.pi * eta(tau) ** 3) < 1e-13


@pytest.mark.parametrize("lam, mu, gamma", [
    (0, 0, SL2Matrix(1, 0, 2, 1)),
    (1, 0, SL2Matrix(1, 1, 0, 1)),
    (0, 1, SL2Matrix(2, 1, 3, 2)),
    (2, -1, SL2Matrix(1, 0, -2, 1)),
])
def test_theta_transformation_prediction(lam, mu, gamma):
    tau = mpc(0.21, 0.93)
    v = mpc(0.17, 0.28)
    pred = jacobi_theta_transform(v, tau, lam, mu, gamma)
    cd = gamma.c * tau + gamma.d
    w = (v + lam * tau + mu) / cd
    direct = jacobi_theta(w, gamma.act(tau))
    assert abs(pred - direct) < 1e-20
    # against the bare product too, so the law is not checked only against
    # the fold that uses it
    assert abs(pred - _theta_product(w, gamma.act(tau))) < 1e-20


def _g_bruteforce(a, b, tau, cutoff=60):
    total = mpc(0)
    af = mpf(a.numerator) / a.denominator
    bf = mpf(b.numerator) / b.denominator
    for n in range(-cutoff, cutoff + 1):
        nu = af + n
        total += nu * mp.exp(1j * mp.pi * nu * nu * tau + 2j * mp.pi * nu * bf)
    return total


@pytest.mark.parametrize("a, b", [
    (Fraction(1, 4), Fraction(0)), (Fraction(1, 3), Fraction(1, 2)),
    (Fraction(5, 12), Fraction(1, 2)), (Fraction(1, 6), Fraction(0)),
])
def test_g_ab_against_direct_sum(a, b):
    for tau in (mpc(0.2, 1.3), mpc(-0.4, 0.7)):
        assert abs(g_ab((a, b), tau) - _g_bruteforce(a, b, tau)) < 1e-21


def test_g_ab_shift_laws():
    a, b = Fraction(1, 3), Fraction(1, 4)
    tau = mpc(0.27, 0.81)
    base = g_ab((a, b), tau)
    assert abs(g_ab((a + 1, b), tau) - base) < 1e-21
    assert abs(g_ab((a, b + 1), tau) - e2pi(a) * base) < 1e-21
    assert abs(g_ab((-a, -b), tau) + base) < 1e-21


def test_g_ab_low_height_reduction():
    """Fundamental-domain reduction keeps accuracy at tiny Im(tau)."""
    a, b = Fraction(1, 4), Fraction(1, 2)
    tau = mpc("0.333333", "0.004")
    with mp.workdps(40):
        slow = _g_bruteforce(a, b, tau, cutoff=2500)
    assert abs(g_ab((a, b), tau) - slow) < 1e-18


EVEN_LABELS = ["e%d" % n for n in range(1, 14)]
ODD_LABELS = ["E%d" % m for m in range(1, 7)]


@pytest.mark.parametrize("label", EVEN_LABELS + ODD_LABELS)
def test_both_value_routes_agree(label):
    for tau in TAUS[:2]:
        a = eta_theta_eval(label, tau)
        b = eta_theta_eval(label, tau, representation="character-sum")
        assert abs(a - b) < 1e-20


@pytest.mark.parametrize("label", EVEN_LABELS + ODD_LABELS)
def test_both_expansion_routes_agree(label):
    lhs = eta_theta_qexp(label, 30)
    rhs = eta_theta_qexp(label, 30, representation="character-sum")
    assert lhs == rhs


@pytest.mark.parametrize("order", [25, 26])
@pytest.mark.parametrize("label", EVEN_LABELS + ODD_LABELS)
def test_both_expansion_routes_agree_at_a_square_order(label, order):
    # the character sum's exponents are squares n^2; at order 26 the last
    # one kept is 25, at order 25 it is 16
    lhs = eta_theta_qexp(label, order)
    rhs = eta_theta_qexp(label, order, representation="character-sum")
    assert lhs == rhs


def test_expansion_leading_terms():
    ser = eta_theta_qexp("e1", 10)
    assert ser.coeff(Fraction(0)) == 1
    assert ser.coeff(Fraction(1)) == -2
    assert ser.coeff(Fraction(4)) == 2
    odd = eta_theta_qexp("E1", 12)
    assert odd.coeff(Fraction(1)) == 1
    assert odd.coeff(Fraction(9)) == -3
    assert odd.coeff(Fraction(4)) == 0


@pytest.mark.parametrize("n", range(1, 9))
def test_even_member_specializes_jacobi_theta(n):
    tau = mpc(0.1, 1.2)
    v, t = theta_specialization_point(n, tau)
    assert abs(jacobi_theta(v, t) - e_from_theta(n, tau)) < 1e-15


@pytest.mark.parametrize("m", range(1, 7))
def test_odd_member_from_unary_combination(m):
    for tau in TAUS[:2]:
        direct = eta_theta_eval("E%d" % m, tau)
        assert abs(E_from_g(m, tau) - direct) < 1e-20
        spread = sum(coeff * g_ab(spec, scale * tau)
                     for coeff, spec, scale in unary_theta_combination(m))
        assert abs(spread - direct) < 1e-20


def test_partial_theta_direct_sum():
    z = mpc(0.21, -0.09)
    total = mpc(0)
    for n in range(1, 400):
        # chi for member 2: +1 at 1,3 and -1 at 5,7 mod 8
        c = {1: 1, 3: 1, 5: -1, 7: -1}.get(n % 8, 0)
        total += c * mp.exp(-2j * mp.pi * z * n * n)
    assert abs(partial_theta(2, z) - total) < 1e-20


def test_partial_theta_rejects_upper_half_plane():
    with pytest.raises(ValueError):
        partial_theta(1, mpc(0.2, 0.1))

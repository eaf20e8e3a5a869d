"""Jacobi theta, the eta-theta catalogue, and unary theta pieces."""

import dataclasses
import random
from fractions import Fraction

import pytest
from mpmath import mp, mpc, mpf

import etamock.core as core
import etamock.theta as theta
from etamock.core import ConvergenceError, fraction_mpf
from etamock.qseries import SL2Matrix, e2pi, eta, eta_multiplier
from etamock.theta import (E_from_g, _g_direct, _theta_product, e_from_theta,
                           eta_theta_eval, eta_theta_qexp, g_ab, jacobi_theta,
                           partial_theta, radial_limit, theta_point,
                           theta_specialization_point,
                           unary_theta_combination)

# working precision of every test here; see conftest.py
DPS = 25

TAUS = [mpc(0.1, 0.9), mpc(-0.35, 1.4), mpc(0.48, 0.62)]

# the odd members as the paper prints them: (coeff, phase, (a, b), scale)
# for E_m = sum coeff e(phase) g_{a,b}(scale tau)
PAPER_G_ROWS = {
    1: [(4, Fraction(0), (Fraction(1, 4), Fraction(0)), 32)],
    2: [(4, Fraction(-1, 8), (Fraction(1, 4), Fraction(1, 2)), 32)],
    3: [(3, Fraction(0), (Fraction(1, 3), Fraction(0)), 18)],
    4: [(12, Fraction(-1, 24), (Fraction(1, 12), Fraction(1, 2)), 288),
        (12, Fraction(-5, 24), (Fraction(5, 12), Fraction(1, 2)), 288)],
    5: [(6, Fraction(0), (Fraction(1, 6), Fraction(0)), 72)],
    6: [(3, Fraction(-1, 6), (Fraction(1, 3), Fraction(1, 2)), 18)],
}

# the theta specializations as the paper prints them: for n <= 8,
# theta(coef tau + shift; tau) = pref q^power e_n(scale tau), as
# (coef, shift, pref, power, scale)
PAPER_THETA_ROWS = {
    1: (Fraction(1, 2), Fraction(0), -1j, Fraction(-1, 8), Fraction(1, 2)),
    2: (Fraction(1, 2), Fraction(-1, 2), 1, Fraction(-1, 8), Fraction(1, 2)),
    3: (Fraction(1, 3), Fraction(0), -1j, Fraction(-1, 18), Fraction(1, 72)),
    4: (Fraction(1, 3), Fraction(-1, 2), 1, Fraction(-1, 18), Fraction(1, 72)),
    5: (Fraction(1, 4), Fraction(0), -1j, Fraction(-1, 32), Fraction(1, 32)),
    6: (Fraction(1, 4), Fraction(-1, 2), 1, Fraction(-1, 32), Fraction(1, 32)),
    7: (Fraction(1, 6), Fraction(0), -1j, Fraction(-1, 72), Fraction(1, 18)),
    8: (Fraction(1, 6), Fraction(-1, 2), 1, Fraction(-1, 72), Fraction(1, 18)),
}


def _theta_points_off_the_paper():
    """The n whose derived theta point differs from PAPER_THETA_ROWS, pref
    compared exactly, type included (-1j or 1, not a rounded e(-1/4))."""
    off = []
    for n, (coef, shift, pref, power, scale) in PAPER_THETA_ROWS.items():
        point = theta_point(n)
        if (point.coef, point.shift, point.power, point.scale) != (coef, shift, power, scale) \
                or point.pref != pref or type(point.pref) is not type(pref):
            off.append(n)
    return off


def test_theta_points_are_the_papers():
    assert _theta_points_off_the_paper() == []


def test_mutant_theta_point_with_d_from_coef_fails(monkeypatch):
    # scale = 1/(2 d^2) with d the denominator of coef + 1/2; a mutant that
    # takes d from coef alone misses every row but coef = 1/4, where both are 4
    monkeypatch.setattr(theta, "HALF", Fraction(0))
    assert _theta_points_off_the_paper() == [1, 2, 3, 4, 7, 8]


@pytest.mark.parametrize("n", [0, 9, -1])
def test_theta_point_only_for_the_first_eight(n):
    with pytest.raises(ValueError, match="only the first eight even members specialize"):
        theta_point(n)


def test_records_by_label():
    # 13 even records of weight 1/2, 6 odd of weight 3/2 with their shadow
    # pairs; c_m is the same for both pairs of E_4
    assert sorted(theta.ETA_THETA) == sorted(["e%d" % n for n in range(1, 14)]
                                             + ["E%d" % m for m in range(1, 7)])
    for label, rec in theta.ETA_THETA.items():
        odd = label[0] == "E"
        assert rec.weight == int(odd) and not (odd and rec.over_z)
        paper = PAPER_G_ROWS[int(label[1:])] if odd else []
        assert list(rec.g_pairs) == [spec for _, _, spec, _ in paper]
        if odd:
            assert {2 * a.denominator for a, _ in rec.g_pairs} == {rec.c}
        else:
            # the character sum walks n = 0, 1, 2, ...: a sum over n >= 1 needs chi(0) = 0
            assert rec.over_z or rec.chi(0) == 0


@pytest.mark.parametrize("label, key", [("e7", "e7"), ("E3", "E3"), ("e_7", "e7"), ("E_3", "E3"),
                                        ("e07", "e7"), (("even", 7), "e7"), (("odd", 3), "E3")])
def test_accepted_label_forms(label, key):
    assert theta._parse_label(label) is theta.ETA_THETA[key]


@pytest.mark.parametrize("label", ["e14", "E7", "e0", "x7", "e", "7", 7, ("even", "7"),
                                   ("odd", 7), ("even", 7.0), ("odd", 0), ("neither", 1)])
def test_rejected_label_forms(label):
    with pytest.raises(ValueError, match="unknown eta-theta label"):
        theta._parse_label(label)


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
    # theta at ((v + lam tau + mu)/(c tau + d), gamma tau) from theta(v; tau), by
    # the elliptic shift law and the modular law with multiplier psi(gamma)^3
    tau = mpc(0.21, 0.93)
    v = mpc(0.17, 0.28)
    shifted = v + lam * tau + mu
    cd = gamma.c * tau + gamma.d
    pred = eta_multiplier(gamma).value() ** 3 * mp.sqrt(cd) \
        * mp.exp(1j * mp.pi * gamma.c * shifted ** 2 / cd) \
        * (-1) ** (lam + mu) * mp.exp(-1j * mp.pi * lam * (lam * tau + 2 * v)) * jacobi_theta(v, tau)
    w = shifted / cd
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


# eight pairs (a, b) of denominator 24
G_FOLD_PAIRS = [(Fraction(a, 24), Fraction(b, 24))
                for a, b in ((1, 5), (5, 13), (7, -11), (11, 1), (13, 19), (17, -7), (19, 23),
                             (23, 12))]


@pytest.mark.parametrize("im", ["1e-3", "1e-6", "1e-10"])
def test_g_ab_keeps_working_precision_near_the_real_line(im):
    # the fold takes core.fold_guard guard digits, as theta's does: without
    # them the worst relative error at dps 16 was 1.1e-15, 1.9e-12 and
    # 1.9e-5 at these heights, and with them it is 8e-18 to 1.0e-17
    with mp.workdps(16):
        tau = mpc(mpf("0.137"), mpf(im))
        for spec in G_FOLD_PAIRS:
            value = g_ab(spec, tau)
            with mp.workdps(60):
                ref = g_ab(spec, tau)
            assert abs(value - ref) < mpf(10) ** -16 * abs(ref), spec


# Im tau from the bottom of F up to the heights a fold reaches near a cusp:
# there the product of theta and the sum of g run on integer pairs with
# nothing folded.  Each kernel is measured against a reference at 40 more
# digits, its error divided by the sum of |terms| its rounding works on.
# The first bounds are the worst errors of the mpc loops these kernels
# replaced, on the same points; the second are ten times the worst errors
# of the integer kernels, so that a later loss in them shows.
SWEEP_TAUS = [mpc(mpf(re), mpf(im)) for im in ("0.87", "1", "1.7", "5", "40", "250")
              for re in ("-0.5", "-0.13", "0.41")]
# v = s + t tau across the period cell
CELL = [(mpf(s), mpf(t)) for s, t in [("-0.5", "0.5"), ("-0.31", "-0.22"), ("0.07", "0.03"),
                                      ("0.19", "-0.5"), ("0.37", "0.41"), ("0.5", "-0.09")]]
THETA_SWEEP_WORST = {16: 2.7e-15, 30: 2.1e-29, 40: 7.9e-40}
G_SWEEP_WORST = {16: 9.0e-15, 30: 8.4e-30, 40: 5.5e-40}
THETA_SWEEP_TIGHT = {16: 1.1e-16, 30: 7.5e-31, 40: 9.6e-41}
G_SWEEP_TIGHT = {16: 1.2e-16, 30: 8.8e-31, 40: 9.8e-41}


def _theta_terms_size(v, tau):
    # sum over nu in Z + 1/2 of |e(tau nu^2/2 + (v + 1/2) nu)|
    return sum(mp.exp(-mp.pi * tau.imag * nu * nu - 2 * mp.pi * v.imag * nu)
               for nu in (n + mpf(0.5) for n in range(-13, 13)))


@pytest.mark.parametrize("dps", sorted(THETA_SWEEP_WORST))
def test_theta_product_sweep_against_the_sum(dps):
    worst = 0
    for tau in SWEEP_TAUS:
        for s, t in CELL:
            with mp.workdps(dps):
                v = s + t * tau
                value = jacobi_theta(v, tau)
            with mp.workdps(dps + 40):
                err = abs(value - jacobi_theta(v, tau, representation="sum"))
                worst = max(worst, err / _theta_terms_size(v, tau))
    assert worst <= THETA_SWEEP_WORST[dps]
    assert worst <= THETA_SWEEP_TIGHT[dps]


@pytest.mark.parametrize("dps", [16, 30])
@pytest.mark.parametrize("v", [("1e-9", "2e-10"), "tau + 3e-8", ("1e-5", "0"),
                               ("1e-16", "3e-17")])
def test_theta_near_its_zeros_at_the_height_of_f(dps, v):
    # nothing folds at Im tau >= sqrt(3)/2, so the product alone must keep
    # relative precision as theta(v) -> 0; 1 - e(v) cancels there, by more
    # than the 20 guard bits of the product at the last point
    with mp.workdps(dps):
        tau = mpc(mpf("0.3"), mpf("0.98"))
        v = tau + mpf("3e-8") if v == "tau + 3e-8" else mpc(*map(mpf, v))
        value = jacobi_theta(v, tau)
    with mp.workdps(dps + 40):
        exact = jacobi_theta(v, tau, representation="sum")
        assert abs(value - exact) <= mpf(10) ** (2 - dps) * abs(exact)


@pytest.mark.parametrize("dps", [16, 30])
@pytest.mark.parametrize("im_v", ["-40", "-100"])
def test_theta_far_from_its_period_cell(dps, im_v):
    # v = 0.2 + i Im v is 40 or 100 periods tau from its cell, and nothing
    # folds tau: the move and the elliptic factor's exponent, about
    # pi lam^2 |tau|, take their own guard digits
    with mp.workdps(dps):
        v, tau = mpc(mpf("0.2"), mpf(im_v)), mpc(mpf("0.1"), 1)
        value = jacobi_theta(v, tau)
    with mp.workdps(dps + 40):
        exact = jacobi_theta(v, tau, representation="sum")
        assert abs(value - exact) <= mpf(10) ** (2 - dps) * abs(exact)


def _g_terms_size(a, b, tau):
    # sum over x in a + Z of |x e(tau x^2/2 + b x)|
    af = fraction_mpf(a)
    return sum(abs(x) * mp.exp(-mp.pi * tau.imag * x * x)
               for x in (af + n for n in range(-12, 13)))


def _g_sweep_pairs():
    rng = random.Random(24)
    return [(Fraction(rng.randrange(24), 24), Fraction(rng.randrange(24), 24)) for _ in range(8)] \
        + [(Fraction(0), Fraction(5, 24)), (Fraction(1, 2), Fraction(0))]


@pytest.mark.parametrize("dps", sorted(G_SWEEP_WORST))
def test_g_sum_sweep_against_the_plain_sum(dps):
    worst = 0
    for tau in SWEEP_TAUS:
        for a, b in _g_sweep_pairs():
            with mp.workdps(dps):
                value = _g_direct(a, b, tau)
            with mp.workdps(dps + 40):
                err = abs(value - _g_bruteforce(a, b, tau, cutoff=12))
                worst = max(worst, err / _g_terms_size(a, b, tau))
    assert worst <= G_SWEEP_WORST[dps]
    assert worst <= G_SWEEP_TIGHT[dps]


@pytest.mark.parametrize("a", [Fraction(0), Fraction(1, 24), Fraction(13, 24)])
def test_g_sum_far_above_f_keeps_its_integers_narrow(monkeypatch, a):
    # at Im tau = 10^6 the first nonzero term is about e^(-pi 10^6): scaled by
    # the phase's peak instead, the pairs would need millions of bits
    # the sum runs on core.lattice_sum, so the spies replace core's helpers
    # and call the originals, kept here, not the spies themselves
    widths = []
    fixed_walk, fixed_sum = core.fixed_walk, core.fixed_sum

    def spy_walk(*args):
        for pair in fixed_walk(*args):
            widths.extend(n.bit_length() for n in pair)
            yield pair

    def spy_sum(sides, wp, what):
        def spied(terms):
            for pair in terms:
                widths.extend(n.bit_length() for n in pair)
                yield pair
        return fixed_sum([(scale, spied(terms)) for scale, terms in sides], wp, what)

    monkeypatch.setattr(core, "fixed_walk", spy_walk)
    monkeypatch.setattr(core, "fixed_sum", spy_sum)
    tau = mpc(mpf("0.3"), mpf("1e6"))
    b = Fraction(7, 24)
    value = _g_direct(a, b, tau)
    assert widths and max(widths) <= 2 * (mp.prec + core.FIXED_GUARD)
    with mp.workdps(DPS + 40):
        exact = _g_bruteforce(a, b, tau, cutoff=3)
        assert abs(value - exact) <= mpf(10) ** (2 - DPS) * abs(exact)


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
def test_unary_combination_is_the_papers(m):
    # coeff = c/2, phase = -ab mod 1 and scale = c^2/2 with c = c_m =
    # 2 * denominator(a), read off each shadow pair (a, b)
    rows = unary_theta_combination(m)
    assert [spec for _, spec, _ in rows] == [spec for _, _, spec, _ in PAPER_G_ROWS[m]]
    for (coeff, (a, b), scale), (c, phase, _, paper_scale) in zip(rows, PAPER_G_ROWS[m]):
        assert a.denominator == c and (-a * b - phase) % 1 == 0
        assert coeff == c * e2pi(phase)
        assert type(scale) is int and scale == paper_scale


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


@pytest.mark.parametrize("m", [0, 7, "1"])
def test_unknown_odd_index_is_value_error(m):
    with pytest.raises(ValueError, match="unknown eta-theta label"):
        partial_theta(m, mpc(0.1, -0.3))
    with pytest.raises(ValueError, match="unknown eta-theta label"):
        E_from_g(m, mpc(0, 1))


@pytest.mark.parametrize("m, z", [(1, mpc(0.1, -1e-12)), (6, mpc(0, -1e-10))])
def test_partial_theta_too_close_to_the_real_line_fails_at_once(monkeypatch, m, z):
    # the terms decay like e^(-2 pi |Im z| n^2): more than core.SIDE_CAP of
    # them would be needed, so the walk must not start
    def walk(*args, **kwargs):
        raise AssertionError("lattice_sum called")

    monkeypatch.setattr(theta, "lattice_sum", walk)
    with pytest.raises(ConvergenceError, match="partial theta failed to converge"):
        partial_theta(m, z)


def test_partial_theta_rejects_upper_half_plane():
    with pytest.raises(ValueError):
        partial_theta(1, mpc(0.2, 0.1))


@pytest.mark.parametrize("m, x", [(1, Fraction(1, 3)), (3, Fraction(1)), (4, Fraction(-5, 7)),
                                  (6, Fraction(7, 4))])
def test_radial_limit_is_the_bernoulli_sum_over_k_c_squared(m, x):
    # k c^2 is a period of C_x at x = h/k; the term-by-term sum over it must
    # give what radial_limit gets from the least period and grouped phases
    chi = theta.ETA_THETA["E%d" % m].chi
    square = 2 * PAPER_G_ROWS[m][0][3]
    M = x.denominator * square
    with mp.workdps(40):
        plain = -sum(fraction_mpf(chi(n)) * e2pi(2 * x * n * n / square) * (mpf(n) / M - mpf(1) / 2)
                     for n in range(1, M + 1))
    assert abs(radial_limit(m, x) - plain) < mpf(10) ** (4 - DPS) * max(1, abs(plain))


def test_radial_limit_of_a_nonzero_mean_is_domain_error(monkeypatch):
    # with an even character in place of chi_1, at x = 0 the sum along the ray
    # is sum over odd n of e^(-n^2 s), which grows like s^(-1/2)
    even_chi = dataclasses.replace(theta.ETA_THETA["E1"], chi=lambda n: Fraction(n % 2))
    monkeypatch.setitem(theta.ETA_THETA, "E1", even_chi)
    with pytest.raises(ValueError, match="nonzero mean"):
        radial_limit(1, 0)


def test_radial_limit_needs_an_exact_point():
    with pytest.raises(TypeError):
        radial_limit(1, 0.5)
    with pytest.raises(ValueError, match="unknown eta-theta label"):
        radial_limit("1", Fraction(1, 3))

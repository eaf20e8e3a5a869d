"""Roots of unity, Dedekind eta, and the exact q-expansion ring."""

from fractions import Fraction

import pytest
from mpmath import mp, mpc, mpf

from etamock.core import fixed_product
from etamock.qseries import (FormalQSeries, RootOfUnity, SL2Matrix,
                             dedekind_sum, e2pi, eta, eta_multiplier,
                             eta_quotient_qexp, kronecker, qpoch)

# working precision of every test here; see conftest.py
DPS = 25


def test_e2pi_exact_roots():
    assert abs(e2pi(Fraction(1, 2)) + 1) < 1e-24
    assert abs(e2pi(Fraction(1, 4)) - 1j) < 1e-24
    assert abs(e2pi(Fraction(-1, 4)) + 1j) < 1e-24
    assert abs(e2pi(Fraction(0)) - 1) == 0


def test_e2pi_reduces_huge_rational_phase():
    big = Fraction(10 ** 20) + Fraction(1, 3)
    assert abs(e2pi(big) - e2pi(Fraction(1, 3))) < 1e-24


def test_root_of_unity_reduction_and_algebra():
    z = RootOfUnity.from_fraction(Fraction(9, 4))
    assert z.exponent == Fraction(1, 4)
    w = RootOfUnity.from_fraction(Fraction(5, 6))
    assert (z * w).exponent == Fraction(9, 4) + Fraction(5, 6) - 3
    assert (z ** 4).exponent == 0
    assert z.conjugate().exponent == Fraction(3, 4)
    assert abs(z.value() - 1j) < 1e-24


@pytest.mark.parametrize("a, n, value", [
    (2, 7, 1), (2, 3, -1), (3, 2, -1), (7, 2, 1),
    (-1, 5, 1), (-1, 3, -1), (5, 5, 0), (1, 1, 1),
    (12, 1, 1), (12, 5, -1), (12, 7, -1), (12, 11, 1), (12, 13, 1),
])
def test_kronecker_symbol_values(a, n, value):
    assert kronecker(a, n) == value


def test_kronecker_multiplicative_in_lower_argument():
    for a in (-7, -2, 3, 10, 13):
        for m in (3, 4, 5):
            for n in (7, 9, 11):
                assert kronecker(a, m * n) == kronecker(a, m) * kronecker(a, n)


def test_qpoch_shift_recurrence():
    # (a; q)_inf = (1 - a) (a q; q)_inf
    a, q = mpc(0.3, 0.1), mpc(0.2, 0.4)
    for n in range(5):
        step = (1 - a * q ** n) * qpoch(a * q ** (n + 1), q)
        assert abs(qpoch(a * q ** n, q) - step) < 1e-23


# (a, q) with |q| up to 0.97, products from 1e-34 to 7e3: at the parent's
# mpc product, (2.5 - i; 0.05 + 0.9i) was 4.9 units of 10^-dps off at dps 100;
# a product stopped on its envelope alone, not on the envelope over 1 - |q|,
# was 2.9 units off at (1.5; 0.97) and 2.8 at (0.5i; 0.97)
QPOCH_CASES = [(2.5 - 1j, 0.05 + 0.9j), (0.3 + 0.1j, 0.2 + 0.4j), (-0.7 + 0.2j, -0.6 + 0.65j),
               (0.05 + 0.9j, 0.05 + 0.9j), (1.5, 0.9), (-3 + 2j, -0.3 - 0.85j),
               (0.9 + 0.1j, 0.1 - 0.2j), (0.5j, 0.85 + 0.3j), (1.5, 0.97), (0.5j, 0.97)]


@pytest.mark.parametrize("dps", [16, 50, 100])
def test_qpoch_against_mpmath_qp(dps):
    # an independent reference: mpmath's q-Pochhammer at 30 more digits
    for a, q in QPOCH_CASES:
        with mp.workdps(dps):
            value = qpoch(a, q)
        with mp.workdps(dps + 30):
            want = mp.qp(a, q)
            assert abs(value - want) <= abs(want) * mpf(10) ** -dps, (a, q)


def test_a_product_stops_on_its_largest_start():
    # the envelope is the walk of the largest start: the tiny start's walk
    # would end the product while the other's factors still count
    starts, q = [mpc(1e-30), mpc(-2, 1)], mpc(0.3, 0.5)
    value = +fixed_product(starts, q, "test product")
    with mp.workdps(DPS + 30):
        want = mp.qp(starts[0], q) * mp.qp(starts[1], q)
        assert abs(value - want) <= abs(want) * mpf(10) ** -DPS


def test_qpoch_infinite_matches_eta():
    tau = mpc(0.1, 1.1)
    q = e2pi(tau)
    assert abs(qpoch(q, q) - eta(tau) / e2pi(tau / 24)) < 1e-22


def test_eta_special_value_at_i():
    # Gamma(1/4) / (2 pi^(3/4]) is the classical closed form at tau = i
    closed = mp.gamma(mpf(1) / 4) / (2 * mp.pi ** mpf("0.75"))
    assert abs(eta(mpc(0, 1)) - closed) < 1e-23


def test_eta_special_value_at_2i():
    closed = mp.gamma(mpf(1) / 4) / (2 ** mpf("1.375") * mp.pi ** mpf("0.75"))
    assert abs(eta(mpc(0, 2)) - closed) < 1e-23


def test_eta_inversion_law():
    for tau in (mpc(0, 1.3), mpc(0.4, 0.8), mpc(-0.3, 0.6)):
        lhs = eta(-1 / tau)
        rhs = mp.sqrt(-1j * tau) * eta(tau)
        assert abs(lhs - rhs) < 1e-22


@pytest.mark.parametrize("h, k, im", [(1, 3, "1e-7"), (3, 10, "1e-5"), (5, 13, "3e-6")])
def test_eta_keeps_its_digits_near_a_cusp(h, k, im):
    # the fold takes core.fold_guard guard digits, as theta's does: without
    # them the relative errors at dps 16 were 2.0e-6, 2.1e-11 and 2.5e-10
    with mp.workdps(16):
        tau = mpc(mpf(h) / k, mpf(im))
        value = eta(tau)
    with mp.workdps(16 + 44):
        ref = eta(tau)
        assert abs(value - ref) <= 10 * mpf(10) ** -16 * abs(ref)


@pytest.mark.parametrize("c", [2, 3, 5, 7, 12])
def test_dedekind_sum_closed_form_first_column(c):
    assert dedekind_sum(1, c) == Fraction((c - 1) * (c - 2), 12 * c)


@pytest.mark.parametrize("d, c", [(2, 3), (3, 5), (5, 7), (7, 12), (5, 12)])
def test_dedekind_reciprocity(d, c):
    lhs = dedekind_sum(d, c) + dedekind_sum(c, d)
    rhs = Fraction(-1, 4) + (Fraction(d, c) + Fraction(c, d)
                             + Fraction(1, d * c)) / 12
    assert lhs == rhs


def test_eta_multiplier_generators():
    t = SL2Matrix(1, 1, 0, 1)
    s = SL2Matrix(0, -1, 1, 0)
    assert eta_multiplier(t).exponent == Fraction(1, 24)
    assert eta_multiplier(s).exponent == Fraction(-1, 8) % 1


@pytest.mark.parametrize("gamma", [
    SL2Matrix(1, 0, 2, 1), SL2Matrix(2, 1, 3, 2), SL2Matrix(3, -4, 1, -1),
    SL2Matrix(1, 0, -2, 1), SL2Matrix(-1, 0, 3, -1), SL2Matrix(-1, 2, 0, -1),
])
def test_eta_transformation_numeric(gamma):
    """psi(gamma) (c tau + d)^(1/2) eta(tau) with the principal root."""
    for tau in (mpc(0.13, 0.9), mpc(-0.4, 1.7)):
        lhs = eta(gamma.act(tau))
        rhs = eta_multiplier(gamma).value() * \
            mp.sqrt(gamma.c * tau + gamma.d) * eta(tau)
        assert abs(lhs - rhs) < 1e-21


def test_sl2_determinant_enforced():
    with pytest.raises(ValueError):
        SL2Matrix(2, 0, 0, 2)


def test_sl2_group_operations():
    g = SL2Matrix(2, 1, 3, 2)
    assert g * g.inv() == SL2Matrix(1, 0, 0, 1)
    tau = mpc(0.2, 0.5)
    assert abs(g.inv().act(g.act(tau)) - tau) < 1e-22
    flipped, sign = SL2Matrix(-1, 0, 0, -1).normalized()
    assert sign == -1 and flipped == SL2Matrix(1, 0, 0, 1)


def test_eta_expansion_pentagonal_numbers():
    series = eta_quotient_qexp([(1, 1)], 30)
    expect = {Fraction(1, 24): 1, Fraction(25, 24): -1, Fraction(49, 24): -1,
              Fraction(121, 24): 1, Fraction(169, 24): 1,
              Fraction(289, 24): -1, Fraction(361, 24): -1}
    for expo, coeff in expect.items():
        assert series.coeff(expo) == coeff
    assert series.coeff(Fraction(73, 24)) == 0


def _times(x, y, order):
    """Exact product of two expansions below `order`, by direct convolution."""
    out = {}
    for e1, c1 in x.items():
        for e2, c2 in y.items():
            if e1 + e2 < order:
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return FormalQSeries(out, order)


def test_eta_quotient_expansion_vs_product_of_parts():
    # eta^2/eta(2 tau) times eta(2 tau) is eta^2, and eta^2 is eta times eta
    quot = eta_quotient_qexp([(1, 2), (2, -1)], 12)
    eta1 = eta_quotient_qexp([(1, 1)], 14)
    eta2 = eta_quotient_qexp([(2, 1)], 14)
    sq = eta_quotient_qexp([(1, 2)], 14)
    assert _times(eta1, eta1, 14) == sq
    assert _times(quot, eta2, 12) == sq
    # powers 13 and -5, as E_4 has them, against repeated multiplication
    mixed = eta_quotient_qexp([(1, 13), (2, -5)], 8)
    prod = eta1
    for _ in range(12):
        prod = _times(prod, eta1, 9)
    assert _times(mixed, eta_quotient_qexp([(2, 5)], 9), 8) == prod


def test_eta_quotient_checks_factors_at_any_order():
    for order in (0, -3, 2):
        with pytest.raises(ValueError):
            eta_quotient_qexp([(0, 1)], order)
        with pytest.raises(ValueError):
            eta_quotient_qexp([(1, 1), (2, 0)], order)
    empty = eta_quotient_qexp([(1, 1)], 0)
    assert empty.items() == [] and empty.order == 0


def test_eta_quotient_expansion_matches_values():
    """Truncated series summed at a numeric point tracks the product."""
    tau = mpc(0.07, 1.5)
    series = eta_quotient_qexp([(1, 2), (2, -1)], 40)
    total = sum(coeff * e2pi(tau * expo) for expo, coeff in series.items())
    direct = eta(tau) ** 2 / eta(2 * tau)
    assert abs(total - direct) < 1e-22


def test_formal_series_difference_and_equality():
    x = FormalQSeries.from_terms(
        [(Fraction(1, 3), 2), (Fraction(1, 2), -1), (Fraction(1, 3), 1)], 10)
    y = FormalQSeries.from_terms([(Fraction(1, 2), -1), (Fraction(7, 24), 5)], 10)
    assert x.items() == [(Fraction(1, 3), 3), (Fraction(1, 2), -1)]
    d = x - y
    assert d.items() == [(Fraction(7, 24), -5), (Fraction(1, 3), 3)]
    assert (x - x).items() == [] and x - x != x
    # a difference and a comparison are known below the smaller order only
    short = FormalQSeries.from_terms([(Fraction(1, 3), 3), (Fraction(1, 2), -1)], 1)
    long = FormalQSeries.from_terms(x.items() + [(Fraction(11), 7)], 12)
    assert short == long and long == x
    assert (long - short).order == 1 and (long - short).items() == []


def test_formal_series_truncation_behaviour():
    x = FormalQSeries.from_terms(
        [(Fraction(0), 1), (Fraction(5), 4), (Fraction(9), 2), (Fraction(12), 1)], 6)
    assert x.coeff(Fraction(5)) == 4
    assert x.coeff(Fraction(3)) == 0
    assert x.order == Fraction(6)
    with pytest.raises(ValueError):
        x.coeff(Fraction(9))
    with pytest.raises(ValueError):
        x.coeff(Fraction(6))
    with pytest.raises(ValueError):
        FormalQSeries({Fraction(6): 1}, 6)

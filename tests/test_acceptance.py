"""End-to-end acceptance checks, one per headline claim of the package.

Each test covers one criterion at its pinned tolerance: exact dual
q-expansions, theta specializations, the mu-function laws, closed forms
for the 1/sqrt-kernel ray integrals, the completed weight-1/2
transformation on every catalogue row, the finite-difference shadow, the
worked first-family example, exact cancellation of companion sums on the
quantum sets, the three quantum-modularity laws, exhaustive integer-side
case analyses, and the radial limits at rationals.
"""

import random
from fractions import Fraction
from math import gcd

import pytest
from mpmath import mp, mpc, mpf

from etamock.core import fixed_prec, fraction_mpf, from_fixed
from etamock.qseries import RootOfUnity, e2pi, eta
from etamock.theta import (E_from_g, e_from_theta, eta_theta_eval,
                           eta_theta_qexp, jacobi_theta, partial_theta,
                           radial_limit, theta_specialization_point,
                           unary_theta_combination)
from etamock.mu import (MabSpec, R_correction, g_complement, kang_pair,
                        mordell_h, mu, xi_shadow)
from etamock.vmn import FAMILIES, all_rows, group_sample, is_admissible, verify_thm11
from etamock.quantum import (ELL, _SET_PREDICATES, _finite_sums, companion_sum,
                             companion_sum_composite, group_generators, in_quantum_set,
                             integral_identity_rhs, mobius_rational,
                             quantum_set_label, rational_formula_defined,
                             rational_z_args, vm1_at_rational)
from etamock.eichler import integral_identity_lhs, unary_ray_integral
from etamock.verify import verify_thm12_i, verify_thm12_ii, verify_thm12_iii

# working precision of every test here; see conftest.py
DPS = 16

Fr = Fraction

EVEN_LABELS = ["e%d" % n for n in range(1, 14)]
ODD_LABELS = ["E%d" % m for m in range(1, 7)]

# two rational sample points inside each named quantum set
SET_POINTS = {
    "S": (Fr(1, 2), Fr(1, 3)),
    "S_ev": (Fr(1, 2), Fr(5, 2)),
    "S_od": (Fr(1, 3), Fr(1)),
    "S'": (Fr(1, 2), Fr(1, 3)),
    "S'&S_ev": (Fr(1, 2), Fr(5, 2)),
    "S'&S_od": (Fr(1, 3), Fr(1)),
    "S'|S_ev": (Fr(1, 2), Fr(5, 2)),
    "S'|S_od": (Fr(1, 2), Fr(1, 3)),
}

BASE_PAIRS = [(m, n) for m in "123456" for n in range(1, 9)
              if is_admissible(m, n)]


def reduced_fractions(bound):
    """All reduced h/k with 1 <= k <= bound and 0 < |h| <= bound."""
    for k in range(1, bound + 1):
        for h in range(-bound, bound + 1):
            if h != 0 and gcd(abs(h), k) == 1:
                yield Fr(h, k)


def test_01_q_expansions_agree_exactly_to_order_100():
    for label in EVEN_LABELS + ODD_LABELS:
        quotient = eta_theta_qexp(label, 100)
        charsum = eta_theta_qexp(label, 100, representation="character-sum")
        assert quotient == charsum, "expansion routes differ for %s" % label
        terms = [(s, c) for s, c in quotient.items() if c]
        assert terms, "empty expansion for %s" % label
        for s, c in terms:
            assert isinstance(s, Fraction) and isinstance(c, Fraction)


def test_02_theta_specializations_and_g_combinations():
    taus = [mpc(-0.45 + 0.05 * k, 0.75 + 0.013 * k) for k in range(20)]
    for tau in taus:
        for n in range(1, 9):
            v, t = theta_specialization_point(n, tau)
            resid = abs(jacobi_theta(v, t) - e_from_theta(n, tau))
            assert resid < 1e-11, "theta specialization %d at %s: %s" % (
                n, tau, resid)
        for m in range(1, 7):
            resid = abs(eta_theta_eval(("odd", m), tau) - E_from_g(m, tau))
            assert resid < 1e-11, "g combination %d at %s: %s" % (m, resid, tau)


def _mu_sample(rnd):
    def coord(lo, hi):
        return rnd.uniform(lo, hi) * rnd.choice([-1, 1])

    u = mpc(coord(0.08, 0.42), coord(0.05, 0.3))
    v = mpc(coord(0.08, 0.42), coord(0.05, 0.3))
    tau = mpc(rnd.uniform(-0.5, 0.5), rnd.uniform(0.6, 1.3))
    return u, v, tau


def test_03_mu_function_laws():
    rnd = random.Random(0)
    z = mpc(0.23, 0.11)
    for _ in range(100):
        u, v, tau = _mu_sample(rnd)
        base = mu(u, v, tau)
        assert abs(mu(u + 1, v, tau) + base) < 1e-11
        assert abs(mu(u, v + 1, tau) + base) < 1e-11
        assert abs(mu(-u, -v, tau) - base) < 1e-11
        dtheta0 = -2 * mp.pi * eta(tau) ** 3
        quotient = dtheta0 * jacobi_theta(u + v + z, tau) \
            * jacobi_theta(z, tau) / (
                2j * mp.pi * jacobi_theta(u, tau) * jacobi_theta(v, tau)
                * jacobi_theta(u + z, tau) * jacobi_theta(v + z, tau))
        assert abs(mu(u + z, v + z, tau) - base - quotient) < 1e-11
        assert abs(mu(u, v, tau + 1) - e2pi(Fr(-1, 8)) * base) < 1e-11
    for _ in range(20):
        u, v, tau = _mu_sample(rnd)
        lhs = mp.exp(1j * mp.pi * (u - v) ** 2 / tau) / mp.sqrt(-1j * tau) \
            * mu(u / tau, v / tau, -1 / tau) + mu(u, v, tau)
        assert abs(lhs - mordell_h(u - v, tau) / 2j) < 1e-8


TAU4 = mpc(0.13, 0.87)
AB_POINTS = [
    (Fr(1, 4), Fr(0)), (Fr(-1, 4), Fr(1, 3)), (Fr(1, 3), Fr(-1, 4)),
    (Fr(1, 5), Fr(2, 5)), (Fr(-2, 5), Fr(1, 5)), (Fr(3, 8), Fr(-1, 3)),
    (Fr(-1, 3), Fr(3, 8)), (Fr(2, 7), Fr(-2, 7)), (Fr(-1, 5), Fr(-1, 4)),
    (Fr(1, 6), Fr(5, 12)),
]
SINGLE_POINTS = [Fr(1, 3), Fr(-1, 3), Fr(1, 5), Fr(-1, 5), Fr(2, 7),
                 Fr(-2, 7), Fr(3, 8), Fr(-3, 8), Fr(1, 6), Fr(2, 5)]


def test_04_mu_factorization_and_ray_integral_closed_forms():
    for j in range(20):
        alpha = mpc(0.11 + 0.023 * j, 0.07 + 0.011 * j)
        tau = mpc(0.1 + 0.01 * j, 0.8 + 0.02 * j)
        lhs, rhs = kang_pair(alpha, tau)
        assert abs(lhs - rhs) < 1e-9, "factorization at sample %d" % j

    qtol = mpf("1e-8")
    for j, (a, b) in enumerate(AB_POINTS):
        spec = (a + Fr(1, 2), b + Fr(1, 2))
        prefactor = -e2pi(a * (b + Fr(1, 2))) * e2pi(-TAU4 * a * a / 2)
        if j % 2 == 0:
            quad = unary_ray_integral(spec, -mp.conj(TAU4), TAU4, tol=qtol)
            closed = prefactor * R_correction(a * TAU4 - b, TAU4)
        else:
            quad = unary_ray_integral(spec, mpf(0), TAU4, tol=qtol)
            closed = prefactor * mordell_h(a * TAU4 - b, TAU4)
        assert abs(quad - closed) < 1e-7, "ray closed form at (%s, %s)" % (a, b)

    for b in SINGLE_POINTS:
        quad = unary_ray_integral((1, b + Fr(1, 2)), -mp.conj(TAU4), TAU4,
                                  tol=qtol)
        closed = -1j * e2pi(-TAU4 / 8 + b / 2) \
            * R_correction(TAU4 / 2 - b, TAU4) + 1j
        assert abs(quad - closed) < 1e-7, "integer-index conjugate ray at %s" % b

    for b in SINGLE_POINTS:
        quad = unary_ray_integral((1, b + Fr(1, 2)), mpf(0), TAU4, tol=qtol)
        closed = -1j * e2pi(-TAU4 / 8 + b / 2) \
            * mordell_h(TAU4 / 2 - b, TAU4) + 1j
        assert abs(quad - closed) < 1e-7, "integer-index zero ray at %s" % b

    for a in SINGLE_POINTS:
        quad = unary_ray_integral((a + Fr(1, 2), 1), mpf(0), TAU4, tol=qtol)
        closed = -e2pi(-TAU4 * a * a / 2 + a) \
            * mordell_h(a * TAU4 - Fr(1, 2), TAU4) \
            + e2pi(a) / mp.sqrt(-1j * TAU4)
        assert abs(quad - closed) < 1e-7, "integer-second-index ray at %s" % a


def test_05_completed_transformation_on_every_row():
    taus = (mpc(0.13, 0.87), mpc(-0.21, 1.09))
    rows = all_rows()
    assert len(rows) == 59
    for label, n in rows:
        gammas = group_sample(label, n, count=3)
        assert len(gammas) >= 3, "not enough group members for (%s, %d)" % (
            label, n)
        for gamma in gammas[:3]:
            for tau in taus:
                resid = verify_thm11(label, n, gamma, tau)
                assert resid < 1e-8, "row (%s, %d) gamma %s at %s: %s" % (
                    label, n, gamma, tau, resid)


SHADOW_PAIRS = [
    (Fr(-1, 4), Fr(-1, 2)), (Fr(-1, 4), Fr(0)), (Fr(-1, 6), Fr(-1, 2)),
    (Fr(-5, 12), Fr(0)), (Fr(-1, 12), Fr(0)), (Fr(-1, 3), Fr(-1, 2)),
    (Fr(-1, 6), Fr(0)),
]


def test_06_shadow_by_finite_difference_matches_complement():
    tau = mpc(0.12, 0.9)
    for a, b in SHADOW_PAIRS:
        target = g_complement((a + Fr(1, 2), b + Fr(1, 2)), tau)
        resid = abs(xi_shadow(MabSpec(a, b), tau) - target)
        assert resid < 1e-5, "shadow at (%s, %s): %s" % (a, b, resid)


def test_07_first_family_example_values_and_integral():
    x = Fr(1, 3)
    z1, z2 = rational_z_args("1", x)
    flip = RootOfUnity(1, 2)
    minus, plus = ([from_fixed(t, fixed_prec()) for t in terms]
                   for terms in _finite_sums(x, [(z1, z2), (z1 * flip, z2 * flip)]))
    published_minus = [mpc("0.713123", "-0.411722"),
                       mpc("-2.38616", "1.37765"),
                       mpc("1.22474", "0")]
    published_plus = [mpc("0.384953", "-0.222253"),
                      mpc("1.28808", "-0.743673"),
                      mpc("-1.22474", "0")]
    for got, want in zip(minus, published_minus):
        assert abs(got - want) < 1e-5
    for got, want in zip(plus, published_plus):
        assert abs(got - want) < 1e-5

    quad = integral_identity_lhs("1", Fr(1, 3))
    assert abs(quad - mpc("0.05461", "0.00825")) < 5e-5
    closed = integral_identity_rhs("1", Fr(1, 3))
    assert abs(quad - closed) < 1e-7


def test_08_companion_sums_cancel_on_quantum_sets():
    # exact-cancellation identities checked at elevated precision: the
    # summands can be large near a vanishing denominator and the claim
    # is about the exact sum, not about dps-16 roundoff
    with mp.workdps(40):
        for m in ("1", "2", "5"):
            excluded = Fr(-1, ELL[m])
            count = 0
            for x in reduced_fractions(20):
                if x == excluded or not in_quantum_set(m, 1, x):
                    continue
                resid = abs(companion_sum(m, x))
                assert resid < 1e-12, "companion sum %s at %s: %s" % (
                    m, x, resid)
                count += 1
            assert count > 250, "sweep for family %s too small" % m

        points = [x for x in reduced_fractions(12)
                  if in_quantum_set("4", 1, x)]
        points.sort(key=lambda x: (x.denominator, abs(x.numerator),
                                   x.numerator < 0))
        points = points[:50]
        assert len(points) == 50
        for x in points:
            resid = abs(companion_sum_composite(x))
            assert resid < 1e-12, "four-term sum at %s: %s" % (x, resid)


def test_09_quantum_modularity_three_laws():
    shift_tau = mpc(0.23, 0.9)
    for m, n in BASE_PAIRS:
        x1, x2 = SET_POINTS[quantum_set_label(m, n)]
        for point in (shift_tau, x1, x2):
            resid = verify_thm12_iii(m, n, point)
            assert resid < 1e-10, "shift law (%s, %d) at %s: %s" % (
                m, n, point, resid)

    taus = (mpc(0.15, 0.8), mpc(-0.3, 1.1))
    for m, n in BASE_PAIRS:
        x1, x2 = SET_POINTS[quantum_set_label(m, n)]
        for point in taus + (x1, x2):
            resid = verify_thm12_i(m, n, point)
            assert resid < 1e-6, "two-term law (%s, %d) at %s: %s" % (
                m, n, point, resid)

    for m in ("2", "4", "6"):
        x1, x2 = SET_POINTS[quantum_set_label(m, 1)]
        for point in taus + (x1, x2):
            resid = verify_thm12_ii(m, point)
            assert resid < 1e-6, "one-step law (%s, 1) at %s: %s" % (
                m, point, resid)


# per-family data of the z-arguments: quarter-turn exponent and the
# denominator parameter b, restated independently of rational_z_args
ARG_DATA = {
    "1": (Fr(1, 4), Fr(4)), "2": (Fr(0), Fr(4)), "3": (Fr(1, 4), Fr(3)),
    "4p": (Fr(0), Fr(12)), "4pp": (Fr(0), Fr(12, 5)), "5": (Fr(1, 4), Fr(6)),
    "6": (Fr(0), Fr(3)),
}


def _some_factor_vanishes(label, x):
    a_exp, b = ARG_DATA[label]
    h, k = x.numerator, x.denominator
    e1 = a_exp + Fr(h, 1) / (2 * b * k)
    e2 = -a_exp + (b - 1) * Fr(h, 1) / (2 * b * k)
    step = Fr(h, 2 * k)
    for j in range(k):
        if (e1 + j * step) % 1 == 0 or (e2 + j * step) % 1 == 0:
            return True
    return False


def test_10_termination_nonvanishing_and_set_closure():
    # the finite evaluation terminates exactly when the numerator factor
    # 1 + e(h/2) dies, i.e. for odd h; on odd h the closed-form domain
    # predicate must coincide with the raw denominator-vanishing sweep
    labels = ("1", "2", "3", "4p", "4pp", "5", "6")
    checked = 0
    for label in labels:
        for x in reduced_fractions(60):
            h, k = x.numerator, x.denominator
            if h % 2 == 0:
                assert (Fr(h, 2) % 1) != Fr(1, 2)
                assert not rational_formula_defined(label, x)
                continue
            assert (Fr(h, 2) % 1) == Fr(1, 2)
            defined = rational_formula_defined(label, x)
            assert defined != _some_factor_vanishes(label, x), \
                "domain predicate wrong for %s at %s" % (label, x)
            checked += 1
    assert checked > 20000

    # wiring of the exact evaluator on a subsample: defined points yield
    # exactly k finite summands, undefined ones are refused
    defined_seen = refused_seen = 0
    for label in labels:
        for x in reduced_fractions(12):
            if x.numerator % 2 == 0:
                continue
            z1, z2 = rational_z_args(label, x)
            if rational_formula_defined(label, x):
                terms = [from_fixed(t, fixed_prec()) for t in _finite_sums(x, [(z1, z2)])[0]]
                assert len(terms) == x.denominator
                assert all(mp.isfinite(t) for t in terms)
                defined_seen += 1
            else:
                with pytest.raises(ZeroDivisionError):
                    _finite_sums(x, [(z1, z2)])
                refused_seen += 1
    assert defined_seen > 500 and refused_seen > 50

    # every named quantum set is closed under its row's group generators
    window = list(reduced_fractions(50))
    images = 0
    for m, n in BASE_PAIRS:
        label = quantum_set_label(m, n)
        in_set = _SET_PREDICATES[label]
        g1, g2 = group_generators(m, n)
        members = [x for x in window if in_set(x)]
        for g in (g1, g2, g1.inv(), g2.inv()):
            for x in members:
                y = mobius_rational(g, x)
                if y is None:
                    continue
                images += 1
                assert in_set(y), \
                    "set %s not closed: %s -> %s under %s" % (label, x, y, g)
    assert images > 200000


RADIAL_POINTS = {
    "1": (Fr(1, 3), Fr(1, 5), Fr(1, 4)),
    "2": (Fr(1, 3), Fr(1, 5), Fr(1, 4)),
    "3": (Fr(1, 3), Fr(1, 2), Fr(1, 5)),
    "4": (Fr(1, 3), Fr(1, 2), Fr(1, 5)),
    "5": (Fr(1, 3), Fr(1, 2), Fr(1, 5)),
    "6": (Fr(1, 2), Fr(1, 5), Fr(1, 4)),
}

# heights t of the points x + it: the partial theta nears its limit as O(t)
# only below about t = 1e-3 (2e-4 for family 4 at 1/5); above, it wanders
RADIAL_HEIGHTS = (5e-4, 2e-4, 1e-4)


def test_11_radial_limits_track_rational_values():
    # by height max(|h|, k), so the odd integers come first: family 3 at
    # x = 1 needs all of its period k c^2, where k c^2/4 is not one
    window = sorted(reduced_fractions(12), key=lambda x: (max(abs(x.numerator), x.denominator),
                                                          x.denominator, x.numerator))
    for m in FAMILIES:
        points = [x for x in window if in_quantum_set(m, 1, x)][:10]
        assert len(points) == 10
        with mp.workdps(30):
            for x in points:
                limit = radial_limit(int(m), x)
                resid = abs(limit - 2 * mp.conj(vm1_at_rational(m, x)))
                assert resid < mpf(10) ** (4 - mp.dps) * max(1, abs(limit)), \
                    "radial limit of family %s at %s: %s" % (m, x, resid)
        # along x + it the partial theta is read at -2(x + it)/c_m^2, and
        # c_m^2/2 is the scale of E_m's unary thetas
        square = 2 * unary_theta_combination(int(m))[0][2]
        for x in RADIAL_POINTS[m]:
            assert in_quantum_set(m, 1, x)
            limit = radial_limit(int(m), x)
            residuals = [abs(partial_theta(int(m), -2 * mpc(fraction_mpf(x), t) / square) - limit)
                         for t in RADIAL_HEIGHTS]
            assert residuals[0] > residuals[1] > residuals[2], \
                "radial residuals not decreasing for %s at %s: %s" % (
                    m, x, [float(r) for r in residuals])

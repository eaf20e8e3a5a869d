"""Series kernels against their per-term formulas, and the one walk under them.

Every theta-type kernel is a term on `core.lattice_sum`, a front on
`core.fixed_walk` and `core.fixed_sum`: its phases step on pairs of Python
integers, each side scaled at its first nonzero term, and `fixed_sum`
holds the one stopping rule of every series.  Only mu's series and Kang's
g_2 give `fixed_sum` sides of their own.  Here each kernel is compared with
the plain sum of the same terms, every term computed by its own
exponentials, at 30 more digits, at dps 16, 30 and 40: g_{a,b}, the theta sum, the character
sums (eta's lacunary sum among them, as e_3 at tau/24), the partial theta,
the Lambert sums, mu and R.  The error is measured against the sum of
|terms|, the scale rounding works on, and must stay within 100 units of
the working precision.  Points include Im tau = 1e-3, where the mu and R
sums of the benchmark's cusp checks run longest, and R at |Im u/Im tau|
up to 40, where its erfc sum and its finite gap sum both count.  Where the
first nonzero term lies far below the phase at the centre, the sums are
held to a few units of 10^-dps relative to their value.  The integer erfcx
kernel is held to its stated bounds on the real line and on the sector
|arg z| < pi/4, where the rays from a cusp read it.
"""

import random
from fractions import Fraction
from itertools import count

import pytest
from mpmath import mp, mpc, mpf

import etamock.core as core
from etamock.core import (QUIET_RUN, ConvergenceError, e2pi, fixed_erfcx, fixed_mul, fixed_prec,
                          fixed_scale, fixed_sum, fixed_walk, fraction_mpf, from_fixed,
                          lattice_sum, to_fixed)
from etamock.mu import R_correction, mu
from etamock.qseries import kronecker
from etamock.theta import (ETA_THETA, _g_direct, _theta_sum, eta_theta_eval,
                           jacobi_theta, partial_theta)
from etamock.vmn import SeriesPart, _lambert_sum, all_rows, vmn_spec

# working precision of every test here; see conftest.py
DPS = 16

EXTRA = 30

# the indices m of the odd records E_m
ODD_INDICES = [int(label[1:]) for label in ETA_THETA if label[0] == "E"]


def _terms_sum(terms):
    """(sum, sum of |terms|) of a stream of terms, up to 5 in a row below
    10^-(dps + 5) of the running size."""
    total, size, quiet = mpc(0), mpf(0), 0
    eps = mpf(10) ** (-(mp.dps + 5))
    for term in terms:
        if term == 0:
            continue  # a zero coefficient: not part of the quiet run
        total += term
        size += abs(term)
        quiet = quiet + 1 if abs(term) < eps * size else 0
        if quiet == 5:
            return total, size


def _two_sided(term, center):
    down = _terms_sum(map(term, count(center, -1)))
    up = _terms_sum(map(term, count(center + 1)))
    return down[0] + up[0], down[1] + up[1]


def _ref_g(a, b, tau):
    a, b = fraction_mpf(a), fraction_mpf(b)

    def term(n):
        x = n + a
        return x * e2pi(b * x) * e2pi(tau * x ** 2 / 2)

    return _two_sided(term, int(mp.nint(-a)))


def _ref_mu(u, v, tau):
    q, eu = e2pi(tau), e2pi(u)

    def term(n):
        return (-1) ** n * e2pi(n * v) * q ** ((n * (n + 1)) // 2) / (1 - eu * q ** n)

    total, size = _two_sided(term, int(mp.nint(-v.imag / tau.imag - 0.5)))
    scale = mp.exp(1j * mp.pi * u) / jacobi_theta(v, tau)
    return scale * total, abs(scale) * size


def _ref_R(u, tau):
    y = tau.imag
    a = u.imag / y
    root = mp.sqrt(2 * y)

    def term(n):
        nu = n + mpf(0.5)
        sgn = 1 if nu > 0 else -1
        amp = sgn * mp.erfc(sgn * mp.sqrt(mp.pi) * (nu + a) * root)
        return (-1) ** n * amp * mp.exp(-1j * mp.pi * nu * nu * tau - 2j * mp.pi * nu * u)

    return _two_sided(term, -1)


def _ref_theta_sum(v, tau):
    def term(n):
        nu = n + mpf(0.5)
        return e2pi(nu * (v + 0.5)) * e2pi(tau * nu * nu / 2)

    return _two_sided(term, int(mp.nint(-v.imag / tau.imag - 0.5)))


def _ref_eta_sum(tau):
    return _terms_sum(kronecker(12, m) * e2pi(tau * m * m / 24) for m in count(1))


def _ref_character_sum(label, tau):
    rec = ETA_THETA[label]
    chi = rec.chi
    if rec.weight:
        coeffs = ((chi(n) * n, n) for n in count(1))
        c0 = 0
    else:
        both = rec.over_z
        coeffs = ((chi(n) + (chi(-n) if both else 0), n) for n in count(1))
        c0 = chi(0) if both else 0
    total, size = _terms_sum(fraction_mpf(c) * e2pi(tau * n * n) for c, n in coeffs)
    return total + fraction_mpf(c0), size + abs(fraction_mpf(c0))


def _ref_partial_theta(m, z):
    chi = ETA_THETA["E%d" % m].chi
    return _terms_sum(fraction_mpf(chi(n)) * mp.exp(-2j * mp.pi * z * n * n) for n in count(1))


def _ref_lambert(part, tau):
    c, d = part.gauss_center, part.den_offset

    def term(n):
        j = -n
        val = e2pi(tau * (j + fraction_mpf(c)) ** 2 / 2) \
            / (1 + part.den_sign * e2pi(tau * (j + fraction_mpf(d))))
        return -val if part.alternating and j % 2 else val

    return _two_sided(term, 0)


def _taus(rng, heights, count_per_height):
    return [mpc(rng.uniform(-0.5, 0.5), y) for y in heights for _ in range(count_per_height)]


def _cases(kernel, dps):
    """(kernel arguments, reference) pairs, built at `dps`."""
    rng = random.Random("%s:%d" % (kernel, dps))
    with mp.workdps(dps):
        if kernel == "_g_direct":
            # Im tau >= sqrt(3)/2: g_ab sums only there, after its fold
            taus = _taus(rng, [mpf(3) ** 0.5 / 2, 1, 1.7], 3)
            return [((Fraction(rng.randint(0, 11), 12), Fraction(rng.randint(0, 11), 12), tau),
                     _ref_g) for tau in taus]
        if kernel in ("mu", "R_correction"):
            out = []
            for tau in _taus(rng, [1e-3, 1e-2, 0.9], 3):
                u = tau * rng.uniform(-0.9, 0.9) + rng.uniform(-0.5, 0.5)
                v = tau * rng.uniform(-0.9, 0.9) + rng.uniform(-0.5, 0.5)
                out.append(((u, v, tau), _ref_mu) if kernel == "mu"
                           else ((u - v, tau), _ref_R))
            if kernel == "R_correction":
                # a = Im u/Im tau past the cell: a gap of up to 40 terms, and
                # at a = +-40, Im tau = 0.9, |R| is about 2e-49
                for tau in _taus(rng, [1e-2, 0.9], 1):
                    out += [((mpc(rng.uniform(-0.5, 0.5), a * tau.imag), tau), _ref_R)
                            for a in (40, -40, 2.3, -7, 1, -1.5)]
            return out
        if kernel == "_theta_sum":
            return [((tau * rng.uniform(-2, 2) + rng.uniform(-0.5, 0.5), tau), _ref_theta_sum)
                    for tau in _taus(rng, [0.05, 0.5, 1.2], 3)]
        if kernel == "eta-sum":
            return [((tau,), _ref_eta_sum) for tau in _taus(rng, [0.1, 0.9], 3)]
        if kernel == "character-sum":
            taus = _taus(rng, [0.3, 1], 1)
            return [((label, tau), _ref_character_sum) for label in ETA_THETA for tau in taus]
        if kernel == "partial_theta":
            return [((m, mpc(rng.uniform(-0.5, 0.5), -y)), _ref_partial_theta)
                    for m in ODD_INDICES for y in (0.1, 1)]
        if kernel == "_lambert_sum":
            taus = _taus(rng, [0.3, 1], 1)
            return [((part, taus[i % 2]), _ref_lambert) for i, row in enumerate(all_rows())
                    for part in vmn_spec(*row).series]
    raise ValueError(kernel)


KERNELS = {
    "_g_direct": _g_direct,
    "mu": mu,
    "R_correction": R_correction,
    "_theta_sum": _theta_sum,
    # eta(tau) = e_3(tau/24): the lacunary sum of eval eta's crosscheck
    "eta-sum": lambda tau: eta_theta_eval("e3", tau / 24, "character-sum"),
    "character-sum": lambda label, tau: eta_theta_eval(label, tau, "character-sum"),
    "partial_theta": partial_theta,
    "_lambert_sum": _lambert_sum,
}


@pytest.mark.parametrize("dps", [16, 30, 40])
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_kernel_matches_per_term_formula(kernel, dps):
    worst = 0
    for args, reference in _cases(kernel, dps):
        with mp.workdps(dps):
            value = KERNELS[kernel](*args)
        with mp.workdps(dps + EXTRA):
            exact, size = reference(*args)
            worst = max(worst, abs(value - exact) / size)
    assert worst < mpf(10) ** (2 - dps)


@pytest.mark.parametrize("dps", [16, 30, 40, 60])
def test_fixed_erfcx_within_64_units(dps):
    # x over [0, 40] in steps of 1/16 and at random points, x = 0, x = 2^-100
    # (one unit of 2^-wp where wp < 100) and both regime boundaries +- 2^-60,
    # against erfc(x) e^{x^2} at 30 more digits
    rng = random.Random(dps)
    with mp.workdps(dps):
        wp = fixed_prec()
    xs = [k << wp - 4 for k in range(641)] + [rng.getrandbits(wp + 5) for _ in range(100)]
    xs += [0, 1 << max(wp - 100, 0)]
    xs += [(edge << wp) + d * (1 << wp - 60) for edge in (2, 16) for d in (-1, 1)]
    worst = 0
    with mp.workdps(dps + EXTRA):
        for x in xs:
            value = fixed_erfcx(x, wp)
            t = mpf((x, -wp))
            worst = max(worst, abs(value - mp.erfc(t) * mp.exp(t * t) * 2 ** wp))
    assert worst <= 64


def _sector_points(rng):
    """Points of the sector |arg z| < pi/4 that the rays' erfcx terms reach:
    on both sides of |z| = 2 and |z| = 16 by 2^-60, at |z| up to 40, at
    arg 0, +-0.5 and +-0.78, and 60 random points with |z| <= 40."""
    radii = [mpf(r) for r in (2 ** -30, 0.25, 1, 3, 8, 24, 33, 40)]
    radii += [edge + d * mpf(2) ** -60 for edge in (2, 16) for d in (-1, 1)]
    polar = [(r, arg) for r in radii for arg in (-0.78, -0.5, 0, 0.5, 0.78)]
    polar += [(rng.uniform(0, 40), rng.uniform(-0.78, 0.78)) for _ in range(60)]
    return [mp.mpc(r * mp.cos(arg), r * mp.sin(arg)) for r, arg in polar]


@pytest.mark.parametrize("dps", [16, 30, 100])
def test_fixed_erfcx_on_the_sector_within_2_units(dps):
    # against e^{z^2} erfc(z) at 30 more digits, at the pair's exact z: the
    # bound fixed_erfcx states, 2 units of 2^-wp in modulus
    with mp.workdps(dps):
        wp = fixed_prec()
    worst = 0
    with mp.workdps(dps + EXTRA):
        for z in _sector_points(random.Random(dps)):
            x = to_fixed(z, wp)
            exact = mpc(mpf((x[0], -wp)), mpf((x[1], -wp)))
            value = mpc(*fixed_erfcx(x, wp))
            worst = max(worst, abs(value - mp.erfc(exact) * mp.exp(exact ** 2) * 2 ** wp))
    assert worst <= 2


@pytest.mark.parametrize("dps", [16, 30, 100])
def test_fixed_erfcx_of_a_real_pair_is_the_real_kernel(dps):
    # (x, 0) gives (the real kernel's integer, 0), bit for bit, in every regime
    rng = random.Random(dps)
    with mp.workdps(dps):
        wp = fixed_prec()
    xs = [k << wp - 4 for k in range(641)] + [rng.getrandbits(wp + 5) for _ in range(100)]
    xs += [(edge << wp) + d for edge in (2, 16) for d in (-1, 0, 1)]
    assert all(fixed_erfcx((x, 0), wp) == (fixed_erfcx(x, wp), 0) for x in xs)


def test_lambert_denominator_that_vanishes_raises():
    # 1 - q^(j + 0) is 0 at j = 0: the denominator pair is (0, 0)
    part = SeriesPart(sign=1, e_index=1, e_scale=Fraction(1, 2), q_prefactor=Fraction(0),
                      gauss_center=Fraction(1, 2), alternating=False, den_sign=-1,
                      den_offset=Fraction(0))
    with pytest.raises(ZeroDivisionError, match="^Lambert denominator vanished at j=0$"):
        _lambert_sum(part, mpc(0.1, 0.8))


@pytest.mark.parametrize("center", [0, 3, -2])
def test_lattice_sum_two_phases_against_jtheta(center):
    # jtheta(2, z, q) = sum over n of q^{(n + 1/2)^2} e^{(2n + 1) i z}, q = e^{pi i tau}:
    # the phases e(tau y^2/2) and e(z y/pi) at y = n + 1/2; the first is
    # relative to its value at each side's start, the second absolute
    half = mpf(0.5)
    wp = fixed_prec()
    for tau, z in [(mpc(0.1, 0.8), mpc(0.3, 0.1)), (mpc(-0.4, 0.05), mpc(-1.2, 0.02))]:
        value = lattice_sum(lambda n, gauss, wave: fixed_mul(gauss, wave, wp), center,
                            ((tau / 2, 0, half), (0, z / mp.pi, half)), "test series")
        exact = mp.jtheta(2, z, mp.exp(1j * mp.pi * tau))
        assert abs(value - exact) < mpf(10) ** (2 - DPS) * max(1, abs(exact))


def test_lattice_sum_that_never_quiets_raises():
    with pytest.raises(RuntimeError, match="^test series failed to converge$"):
        lattice_sum(lambda n: (1 << fixed_prec(), 0), 0, (), "test series")


def test_lattice_sum_none_adds_nothing():
    # only the even n add: sum over m of e(4 tau m^2) = jtheta(3, 0, e^{8 pi i tau})
    tau = mpc(0.2, 0.3)
    value = lattice_sum(lambda n, w: None if n % 2 else w, 0, ((tau, 0, 0),), "test series")
    assert abs(value - mp.jtheta(3, 0, mp.exp(8j * mp.pi * tau))) < mpf(10) ** (2 - DPS)


def test_lattice_sum_one_sided_starts_at_center():
    # sum over n >= 3 of e(tau n^2), and term never sees an n below 3
    tau = mpc(0.1, 0.05)
    seen = []

    def term(n, w):
        seen.append(n)
        return w

    value = lattice_sum(term, 3, ((tau, 0, 0),), "test series", one_sided=True)
    assert seen[:2] == [3, 4] and min(seen) == 3
    exact = sum(e2pi(tau * n * n) for n in range(3, 60))
    assert abs(value - exact) < mpf(10) ** (2 - DPS)


def test_lattice_sum_none_run_does_not_end_the_sum():
    # zero coefficients for 0 < |n| <= 3 QUIET_RUN: the run of None must not
    # count as quiet, or each side would stop before the terms at |n| > 3 QUIET_RUN
    tau = mpc(0, 0.002)
    gap = 3 * QUIET_RUN
    value = lattice_sum(lambda n, w: None if 0 < abs(n) <= gap else w, 0, ((tau, 0, 0),),
                        "test series")
    exact = 1 + 2 * sum(e2pi(tau * n * n) for n in range(gap + 1, 200))
    assert abs(e2pi(tau * (gap + 1) ** 2)) > mpf(10) ** -2
    assert abs(value - exact) < mpf(10) ** (2 - DPS)


def test_lattice_sum_stops_relative_to_its_largest_term():
    # scaled by 10^40, the sum stops at the same n as unscaled: each side ends
    # on values below eps * |largest value|, not below eps
    tau = mpc(0.1, 0.3)
    scale = 10 ** 40
    runs = []
    for factor in (1, scale):
        seen = []

        def term(n, w):
            seen.append(n)
            return fixed_scale(factor, w)

        runs.append((lattice_sum(term, 0, ((tau, 0, 0),), "test series"), seen))
    (value, seen), (big, big_seen) = runs
    assert big_seen == seen
    assert abs(big / scale - value) < mpf(10) ** (2 - DPS)
    assert abs(value - mp.jtheta(3, 0, mp.exp(2j * mp.pi * tau))) < mpf(10) ** (2 - DPS)


@pytest.mark.parametrize("one_sided", [False, True])
def test_lattice_sum_none_at_center_keeps_working_precision(one_sided):
    # at tau = 20i the phase at n = +-1 is e^(-40 pi) = 2.6e-55, below 2^-wp:
    # each side is scaled at its first nonzero term, not at the None at n = 0
    tau = mpc(0, 20)
    value = lattice_sum(lambda n, w: w if n else None, 0, ((tau, 0, 0),), "test series",
                        one_sided=one_sided)
    with mp.workdps(DPS + EXTRA):
        exact = (1 if one_sided else 2) * sum(e2pi(tau * n * n) for n in range(1, 4))
        assert abs(value - exact) <= mpf(10) ** -DPS * abs(exact)


def test_lattice_side_of_none_terms_raises_within_the_side_cap(monkeypatch):
    # a side whose every term is None moves its start on n by n, and must
    # end in ConvergenceError after SIDE_CAP n, not loop
    monkeypatch.setattr(core, "SIDE_CAP", 200)
    seen = []

    def term(n, w):
        seen.append(n)

    with pytest.raises(ConvergenceError, match="^test series failed to converge$"):
        lattice_sum(term, 0, ((mpc(0.1, 0.01), 0, 0),), "test series", one_sided=True)
    assert seen == list(range(200))


@pytest.mark.parametrize("dps", [16, 30])
def test_character_sums_far_above_the_real_line(dps):
    # all 19 character sums against their eta quotients, relative: at n = 0
    # the coefficient is 0 for most, and e(tau) is e^(-10 pi) to e^(-60 pi)
    # below it, so a sum scaled at n = 0 kept no digit from Im tau = 12 on
    worst = 0
    for y in (5, 12, 30):
        for label in ETA_THETA:
            with mp.workdps(dps):
                tau = mpc(mpf("0.1"), y)
                value = eta_theta_eval(label, tau, "character-sum")
            with mp.workdps(dps + 20):
                exact = eta_theta_eval(label, tau)
                worst = max(worst, abs(value - exact) / abs(exact))
    assert worst < 4 * mpf(10) ** -dps


@pytest.mark.parametrize("dps", [16, 30])
@pytest.mark.parametrize("y", [8, 20])
def test_partial_theta_far_below_the_real_line(dps, y):
    # e^{-2 pi i z} is e^(-16 pi) or e^(-40 pi) at z = 0.1 - y i: the sum
    # starts at its first nonzero term, n = 1, relative to which it is exact
    worst = 0
    for m in ODD_INDICES:
        with mp.workdps(dps):
            z = mpc(mpf("0.1"), -y)
            value = partial_theta(m, z)
        with mp.workdps(dps + 40):
            chi = ETA_THETA["E%d" % m].chi
            exact = sum(chi(n) * mp.exp(-2j * mp.pi * z * n * n) for n in range(1, 20))
            worst = max(worst, abs(value - exact) / abs(exact))
    assert worst < 4 * mpf(10) ** -dps


def test_fixed_sum_side_of_zero_pairs_under_a_huge_scale_stops():
    # a side's bound on |pair|^2 starts at 0 and stays there while its pairs
    # are (0, 0), whatever its scale; a (0, 0) pair at that bound counts as
    # small, so the side stops after QUIET_RUN of them
    seen = []

    def zeros():
        for k in count():
            seen.append(k)
            yield 0, 0

    assert fixed_sum([(mpc(2) ** 200, zeros())], fixed_prec(), "test series") == 0
    assert len(seen) == QUIET_RUN


def test_fixed_sum_judges_each_side_against_its_own_peak():
    # the first side peaks at 1 and sums to 0; the second starts 10^-30 below
    # that peak and rises by 3 a term for ten terms before it decays.  Judged
    # against the first side's peak, every term of the second is small; judged
    # against its own largest term, it is summed to eps of that term
    wp = fixed_prec()
    one = 1 << wp
    rise = [one * 3 ** j for j in range(11)]
    fall = [one * 3 ** 10 // 3 ** j for j in range(1, 60)]
    scale = mpc(10) ** -30
    sides = [(mpc(1), iter([(one, 0), (-one, 0)] + [(0, 0)] * QUIET_RUN)),
             (scale, ((x, 0) for x in rise + fall))]
    value = fixed_sum(sides, wp, "test series")
    with mp.workdps(DPS + EXTRA):
        exact = scale * mpf(sum(rise + fall)) / 2 ** wp
        assert abs(value - exact) <= mpf(10) ** -(DPS + 1) * abs(scale) * 3 ** 10


def test_fixed_sum_with_every_term_below_eps_keeps_relative_precision():
    # 10^-40 2^-k over k >= 0: no term reaches eps, and the side is still
    # summed to eps of its largest term, not stopped after QUIET_RUN terms
    wp = fixed_prec()
    value = fixed_sum([(mpc(10) ** -40, ((1 << wp - k, 0) for k in range(wp + 1)))], wp,
                      "test series")
    assert abs(value - 2 * mpf(10) ** -40) <= mpf(10) ** -DPS * 2 * mpf(10) ** -40


def test_fixed_scale_takes_int_and_fraction():
    x = (3 << 70, -(5 << 70))
    assert fixed_scale(-7, x) == (-21 << 70, 35 << 70)
    assert fixed_scale(Fraction(-3, 4), x) == (-9 << 68, 15 << 68)
    assert fixed_scale(Fraction(1, 3), (1, -1)) == (0, -1)


def test_fixed_walk_with_a_ratio_above_its_pairs_widens_them():
    # a first ratio of about 2^90 against pairs of 76 bits: its shift would
    # go below zero at the first step, so the integers widen instead.  The
    # walk rises to about 2^410 and falls back below 1 by the 20th step
    wp = 76
    ratio, step = mpc(mpf(2) ** 90, 3), mpc(mpf(2) ** -10, mpf(2) ** -11)
    walk = fixed_walk((1 << wp, 0), ratio, step, wp)
    with mp.workprec(600):
        w, r = mpc(1), ratio
        for _ in range(30):
            assert abs(from_fixed(next(walk), wp) - w) <= mpf(2) ** (8 - wp) * max(1, abs(w))
            w, r = w * r, r * step


@pytest.mark.parametrize("stepped", [False, True])
def test_fixed_walk_reads_its_ratios_where_it_is_made(stepped):
    # a walk made inside workprec(wp) gives the pairs it gives there
    # wherever it is iterated: its ratio and step keep their wp bits
    wp = fixed_prec()
    with mp.workprec(wp):
        ratio = e2pi(mpc("0.1", "0.3"))
        step = e2pi(mpc("0.07", "0.2")) if stepped else None
        inside = fixed_walk((1 << wp, 0), ratio, step, wp)
        outside = fixed_walk((1 << wp, 0), ratio, step, wp)
        want = [next(inside) for _ in range(6)]
    assert [next(outside) for _ in range(6)] == want

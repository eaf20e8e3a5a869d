"""Appell-Lerch mu, its completion, and the surrounding machinery.

Covers the two-variable mu kernel, the real-analytic correction R, the
Mordell integral h as two R sums, the completed mu-hat, the normalized
completed forms M-hat indexed by rational (a, b), Kang's universal
mock theta factorization, and a finite-difference shadow operator.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from mpmath import mp, mpc, mpf

from .core import (QUIET_RUN, SIDE_CAP, ConvergenceError, fixed_div, fixed_erfcx, fixed_monomial,
                   fixed_mul, fixed_prec, fixed_ratio, fixed_sum, fixed_walk, fold_guard,
                   fraction_mpf, from_fixed, lattice_sum, period_cell, reduce_tau, to_fixed)
from .qseries import e2pi, eta
from .theta import g_ab, jacobi_theta

Fr = Fraction

LATTICE_TOL = 1e-9

# below this height mu is computed from the folded mu-hat; see mu
FOLD_HEIGHT = 0.1


def _check_off_lattice(u, tau, name):
    # the distance from u to the nearest point of Z*tau + Z
    if abs(period_cell(u, tau)[0]) < LATTICE_TOL:
        raise ValueError("{} is within {} of the period lattice".format(name, LATTICE_TOL))


def mu(u, v, tau):
    """Zwegers' mu(u, v; tau).

    Both elliptic variables must stay off the lattice Z*tau + Z; u hits
    actual poles there and theta(v) vanishes.

    For Im tau >= FOLD_HEIGHT = 1/10 the value is the defining series,
    summed at tau itself.  Below it mu is the folded mu_hat less
    (i/2) R(u - v; tau), with R summed at tau: its terms stay bounded.
    Measured at dps 25 against the series at dps 225, worst of three
    (u, v) per tau: near Re tau = 0 the series divides an exponentially
    small sum by an exponentially small theta(v), and its relative error
    is 5e-25 at Im tau = 0.1, 8e-23 at 0.05, 4e-15 at 0.02 and 1e-2 at
    0.01; at Re tau = 1/3 it stays at or below 4e-25 down to 0.01, at
    Re tau = 1/2 it reaches 1e-23 at 0.02 and 2e-20 at 0.01.  The folded
    route kept 2e-25 at all of these points, but took 4 to 8 times as long
    from Im tau = 0.3 down to 0.01 (about 9 to 19 ms against 2 ms, nine
    (u, v) per height at dps 25), so it runs only below 1/10.

    The series reads q = e(tau), e(u/2) and e(v/2) from core.e2pi at
    wp = mp.prec + 20 bits; every walk start, ratio and side scale is a
    product of their powers on integer pairs, and it stops by
    core.fixed_sum's rule.  Its sides meet where |e(u) q^n| crosses 1, each
    walking the way its modulus shrinks.  When u - v lies far outside the
    period cell, a side starts at its first term within 2^-(wp + 40) of its
    largest, so its integers stay below about 2 wp + 40 bits.  Its
    numerators are theta's terms, so theta(v) is summed on the same walks, or
    is jacobi_theta's product where that sum cancels, next to a zero of
    theta.  All is combined at wp bits and rounded once.
    """
    u = mpc(u)
    v = mpc(v)
    tau = mpc(tau)
    if tau.imag < FOLD_HEIGHT:
        return mu_hat(u, v, tau) - 0.5j * R_correction(u - v, tau)
    _check_off_lattice(u, tau, "u")
    _check_off_lattice(v, tau, "v")
    return _mu_series(u, v, tau)


def _mu_series(u, v, tau):
    # the defining series at tau, unreduced: about 1/sqrt(Im tau) terms,
    # summed on integer pairs.  The term is num_n/(1 - x_n), with
    # num_n = (-1)^n q^{n(n+1)/2} z^n, z = e(v), and x_n = e(u) q^n.  The sides
    # meet at the first n = k with |x_n| <= 1: up from k, x_n shrinks; down
    # from k - 1 the term is -e(-u) h_n/(1 - y_n), with h_n = num_n q^{-n} and
    # y_n = 1/x_n, and y_n shrinks.  So every walk runs the way its modulus
    # shrinks, and each side is scaled by the phase of its first term.
    #
    # |num_n| is a Gaussian in n about c = -Im v/Im tau - 1/2, and |h_n|
    # one about c + 1.  When u - v is far outside the period cell, k is far
    # from c and a side's terms would grow from k to its peak, widening the
    # integers by about 4.5 Im(u - v)^2/Im tau bits.  So a side starts at
    # its first term within 2^-(wp + 40) of its largest; the terms it skips
    # stay below 2^-wp of it even next to a pole (|1 - x_k| >= 6e-9 off the
    # lattice).
    wp = fixed_prec()
    one = 1 << wp
    k = int(mp.ceil(-u.imag / tau.imag))
    c = -v.imag / tau.imag - 0.5
    n = int(mp.nint(c))
    d = float(c - n)  # c = n + d, |d| <= 1/2
    bits = math.pi * float(tau.imag) / math.log(2)  # the peak |num_n| is 2^(bits n (n + 2 d))
    reach = math.sqrt((wp + 40) / bits + d * d)
    lo = max(k, n + math.ceil(d - reach))
    hi = min(k - 1, n + 1 + math.floor(d + reach))
    with mp.workprec(wp):  # q, e(u/2), e(v/2) with z = e(v/2)^2, and e(tau/8), one per tau
        half = e2pi(u / 2)
        powers = [((-1, 0), 0)] + [fixed_ratio(x, wp, -math.inf)
                                   for x in (e2pi(tau), half, e2pi(v / 2), e2pi(tau / 8))]

    def side(*monomials):
        # the terms over scale: a walk from 1 by ratio, stepping by q, over 1 - g_n,
        # g_n the walk from g by q; each is (-1)^a q^b e(u/2)^c e(v/2)^d of (a, b, c, d).
        # raw sums the walk's pairs as far as fixed_sum reads: theta's terms over scale
        scale, ratio, g = (fixed_monomial(zip(powers, m), wp) for m in monomials)
        phases, raw = fixed_walk((one, 0), ratio, powers[1], wp), [0, 0]
        gs = fixed_walk(to_fixed(g, wp), powers[1], None, wp)

        def terms():
            for w, (a, b) in zip(phases, gs):
                raw[0], raw[1] = raw[0] + w[0], raw[1] + w[1]
                yield fixed_div(w, (one - a, -b), wp)
        return scale, terms(), raw, g

    # down from n = hi: -e(-u) h_hi, h_n = (-1)^n q^(n (n - 1)/2) z^n, with
    # h_{n-1}/h_n = -q^(1 - n)/z, over 1 - y_n, y_hi = e(-u) q^-hi
    sd, down, wd, y = side(((hi + 1) % 2, hi * (hi - 1) // 2, -2, 2 * hi), (1, 1 - hi, 0, -2),
                           (0, -hi, -2, 0))
    # up from n = lo: num_lo, num_{n+1}/num_n = -q^(n + 1) z, over 1 - x_n
    su, up, wu, _ = side((lo % 2, lo * (lo + 1) // 2, 0, 2 * lo), (1, lo + 1, 0, 2), (0, lo, 2, 0))
    # the sum stops at the caller's precision and comes back at wp bits
    total = fixed_sum([(sd, down), (su, up)], wp, "mu series")
    # theta(v) = i q^(1/8) e(v/2) S, S = sum num_n: up's raw is n >= lo, down's n < hi over
    # e(u)/z (h_n = -z num_(n-1)), num_hi = -scale/y_hi; any n between is past reach
    hr, t = fixed_div(powers[2][0], powers[3][0], wp), wp + powers[2][1] - powers[3][1]
    m = 2 * wp - int(bits * n * (n + 2 * d))  # S at 2^-m: its largest term, num_n, has 2 wp bits
    S = [a - b + c for a, b, c in zip(*(to_fixed(part, m) for part in (
        (fixed_mul(su[0], wu, 0), su[1] + wp), (fixed_div(sd[0], y[0], wp), wp + sd[1] - y[1]),
        (fixed_mul(fixed_mul(fixed_mul(hr, hr, 0), sd[0], 0), wd, 0), 2 * t + sd[1] + wp))))]
    if max(map(abs, S)).bit_length() < wp + mp.prec + 4:  # cancelled by over FIXED_GUARD - 4 bits
        theta = jacobi_theta(v, tau)
        with mp.workprec(wp):
            value = half / theta * total
    else:  # e(u/2)/theta = hr/(i q^(1/8) S), hr = e(u/2)/e(v/2) at 2^-t; S has about 2 wp bits
        q8, s8 = powers[4]
        ratio = fixed_div(hr, fixed_mul(q8, (-S[1], S[0]), 0), 3 * wp)
        with mp.workprec(wp):
            value = from_fixed(ratio, 3 * wp + t - m - s8) * total
    return +value


def mordell_h(u, tau):
    """Mordell integral h(u; tau) = int e^{pi i tau x^2 - 2 pi u x}/cosh(pi x) dx
    over the real line, as two erfc lattice sums and no quadrature, by
    Zwegers' law (thesis, Prop. 1.10), which holds at every tau:
    h(u; tau) = R(u; tau) + (-i tau)^{-1/2} e^{pi i u^2/tau} R(u/tau; -1/tau).

    The R at tau and at -1/tau take at most max(|a|, W + 7) and
    max(|a'|, |tau| W + 7) terms a side, W = sqrt((dps + 1) ln 10/(pi Im tau)),
    a = Im u/Im tau and a' = a Re tau - Re u (see R_correction).  ValueError
    if Im tau <= 0; ConvergenceError before the first erfc where either
    passes SIDE_CAP, as below Im tau = 1.2e-9 at dps 16.
    """
    u = mpc(u)
    tau = mpc(tau)
    if tau.imag <= 0:
        raise ValueError("tau must have positive imaginary part")
    return R_correction(u, tau) \
        + mp.exp(1j * mp.pi * u * u / tau) / mp.sqrt(-1j * tau) * R_correction(u / tau, -1 / tau)


def R_correction(u, tau):
    """Zwegers' nonholomorphic correction R(u; tau): the sum over n of
    (-1)^n (sgn(nu) - erf(x)) e(-tau nu^2/2 - u nu), nu = n + 1/2,
    x = sqrt(2 pi y) t, t = nu + a, y = Im tau and a = Im u/y.

    R(-u) = R(u) (thesis, Prop. 1.9) makes a <= 0, and then
    sgn(nu) - erf(x) = [sgn(nu) - sgn(t)] + sgn(t) erfc(|x|), sgn(0) = 1,
    splits R into two sums whose walks shrink: the gap, twice the raw terms
    over 0 < nu < -a, which fall toward nu = -a, past which the raw phase
    grows by e^{2 pi y} a step; and e(a (Re u - a conj(tau)/2)) times the
    sum of (-1)^n sgn(t) erfcx(|x|) e(-conj(tau) t^2/2 + (a conj(tau) - conj(u)) t),
    erfcx(x) = e^{x^2} erfc(x), a Gaussian e^{-pi y t^2} times a coefficient
    in (0, 1].  The gap takes ceil(-a - 1/2) terms and a side of the other
    sum at most W + QUIET_RUN + 2, W = sqrt((dps + 1) ln 10/(pi y));
    ConvergenceError before the first erfcx where either passes SIDE_CAP.

    Each term of the erfcx sum is integer work at wp = mp.prec + 20 bits:
    x_n is formed from n + a + 1/2 and sqrt(2 pi y) held at wp + 21 bits,
    within one unit of 2^-wp for every n up to SIDE_CAP; core.fixed_erfcx
    takes it to erfcx(|x_n|) 2^wp, within 64 units of 2^-wp (its Maclaurin
    series below 2, Chiarella and Reichel's trapezoid sum below 16, Laplace's
    continued fraction above), and the phase pair is multiplied by that
    integer.  A phase pair of -1, 0 and 1 only, the end of a decayed walk,
    takes no erfcx: its product rounds the same whatever erfcx in (0, 1) is.
    """
    u = mpc(u)
    tau = mpc(tau)
    y = tau.imag
    if u.imag > 0:
        u = -u
    width = mp.sqrt((mp.dps + 1) * mp.ln10 / (mp.pi * y))
    wp = fixed_prec()
    # |n + shift| stays below SIDE_CAP + 1 on both sides, so shift and
    # sqrt(2 pi y) at g bits keep every x_n within one unit of 2^-wp
    g = wp + SIDE_CAP.bit_length() + 4
    with mp.workprec(wp):
        a = u.imag / y
        gap = max(0, int(mp.ceil(-a - 0.5)))
        if max(gap, width + QUIET_RUN + 2) > SIDE_CAP:
            raise ConvergenceError("R series failed to converge")
        shift = a + 0.5
        phase = (-tau.conjugate() / 2, a * tau.conjugate() - u.conjugate(), shift)
    with mp.workprec(g):
        offset, root = to_fixed(shift, g)[0], to_fixed(mp.sqrt(2 * mp.pi * y), g)[0]
    drop, half = 2 * g - wp, 1 << (2 * g - wp - 1)

    def term(n, w):
        t = (n << g) + offset  # (n + shift) 2^g, rounded down, so of the sign of n + shift
        sign = -1 if (t < 0) != (n % 2 == 1) else 1
        x = (abs(t) * root + half) >> drop  # |x_n| 2^wp, to nearest
        if x and -1 <= min(w) and max(w) <= 1:
            # 0 < erfcx(x) < 1, so sign erfcx(x) w_i rounds down to -1 where
            # sign w_i < 0 and to 0 elsewhere: the end of a decayed walk
            # (see fixed_walk) costs no erfcx
            return tuple(-1 if sign * v < 0 else 0 for v in w)
        c = sign * fixed_erfcx(x, wp)
        return c * w[0] >> wp, c * w[1] >> wp

    total = lattice_sum(term, int(mp.nint(-shift)), (phase,), "R series")
    with mp.workprec(wp):
        total *= e2pi(a * (u.real - a * tau.conjugate() / 2))
        if gap:
            # the gap from nu = 1/2, its ratio e(-tau - u) negated for (-1)^n
            walk = fixed_walk((1 << wp, 0), -e2pi(-tau - u), e2pi(-tau), wp)
            total += 2 * e2pi(-tau / 8 - u / 2) * from_fixed(
                [sum(parts) for parts in zip(*islice(walk, gap))], wp)
    return +total


def mu_hat(u, v, tau):
    """Completed mu-hat(u, v; tau) = mu + (i/2) R(u - v).

    For Im tau >= sqrt(3)/2 (all of F) this is the direct mu + (i/2) R at
    the point given.  Below it the point is folded first, with the guard
    digits of core.fold_guard, by the laws of Zwegers' thesis (Thm 1.11),
    written with z = u - v:
    mu-hat(u, v; tau + 1) = e(-1/8) mu-hat(u, v; tau),
    mu-hat(u/tau, v/tau; -1/tau) = -sqrt(-i tau) e^{-pi i z^2/tau} mu-hat(u, v; tau),
    which take tau into F, and
    mu-hat(u + k tau + l, v + m tau + n) =
        (-1)^{k+l+m+n} e^{pi i (k-m)^2 tau + 2 pi i (k-m) z} mu-hat(u, v),
    which take v and z into the period cell |Re| <= 1/2, |Im| <= Im tau/2.
    The direct sums then need a few terms whatever Im tau was.  A fold of
    u and v each into the cell instead lets |Im z| reach Im tau, where mu
    and R/2 cancel more: on the rows V_{m,n} at tau = -0.4 + 0.001i and
    dps 16 it lost 6 digits, this fold none.

    mu-hat can be far smaller than mu and R(u - v)/2, which then cancel:
    for the row V_{1,1} at tau = 0.1i, |mu-hat| is 6.5e-14 and |mu| is
    0.24.  Either route's error is relative to |mu| + |R|/2 there.  The
    series summed at tau itself, with no fold, is the cross-check.
    """
    u = mpc(u)
    v = mpc(v)
    tau = mpc(tau)
    guard = fold_guard(tau)
    if not guard:
        return mu(u, v, tau) + 0.5j * R_correction(u - v, tau)
    _check_off_lattice(u, tau, "u")
    _check_off_lattice(v, tau, "v")

    with mp.extradps(guard):
        tau, word = reduce_tau(tau, "mu-hat")
        factor = mpc(1)
        for n, sigma in word:
            if n != 0:
                # mu-hat(u, v; sigma + n) = e(-n/8) mu-hat(u, v; sigma)
                factor *= e2pi(Fr(-n, 8))
            if sigma is not None:
                # mu-hat(u, v; -1/sigma) = -mu-hat(-u sigma, -v sigma; sigma)
                #   / (sqrt(i/sigma) e^{pi i (u - v)^2 sigma})
                factor *= -mp.exp(-1j * mp.pi * (u - v) ** 2 * sigma) / mp.sqrt(1j / sigma)
                u, v = -u * sigma, -v * sigma
        # v = v0 + m tau + n and u - v = z0 + k tau + l, with v0 and z0 in
        # the cell; (u, v) -> (u0, v0) = (v0 + z0, v0)
        v0, _, _ = period_cell(v, tau)
        z0, k, l = period_cell(u - v, tau)
        if k or l:
            factor *= (-1) ** (k + l) * mp.exp(1j * mp.pi * k * (k * tau + 2 * z0))
        u, v = v0 + z0, v0
        value = factor * (mu(u, v, tau) + 0.5j * R_correction(u - v, tau))
    return +value


@dataclass(frozen=True)
class MabSpec:
    """Rational index (a, b) plus the affine section used for (u, v).

    The section fixes v = vsec[0]*tau + vsec[1] and u = a*tau - b + v, so
    u - v = a*tau - b always holds.  The shadow is independent of the
    section; the completed value itself is not.
    """

    a: Fraction
    b: Fraction
    vsec: tuple = (Fr(1, 5), Fr(1, 3))

    def v_at(self, tau):
        p, r = self.vsec
        return mpc(tau) * p.numerator / p.denominator + fraction_mpf(r)

    def u_at(self, tau):
        return fraction_mpf(self.a) * mpc(tau) - fraction_mpf(self.b) + self.v_at(tau)


def _mab_prefactor(spec, tau):
    a, b = spec.a, spec.b
    return -mp.sqrt(2) * e2pi(a * (b + Fr(1, 2))) * e2pi(-tau * Fr(a * a, 2))


def M_hat(spec, tau):
    """Completed M-hat_{a,b}(tau) on the spec's affine section."""
    tau = mpc(tau)
    return _mab_prefactor(spec, tau) * mu_hat(spec.u_at(tau), spec.v_at(tau), tau)


def g_complement(spec, tau):
    """g^c_{a,b}(tau) = conjugate(g_{a,b}(-conjugate(tau)))."""
    return mp.conj(g_ab(spec, -mp.conj(mpc(tau))))


def xi_shadow(spec, tau):
    """Weight-1/2 xi operator applied to M-hat, by central differences.

    Computes 2i y^{1/2} conj(d/d tau-bar M-hat) with Richardson
    extrapolation over the steps 10^-4 y and half of it; compare against
    g_complement((a+1/2, b+1/2), tau).  ValueError if the step is below
    working precision.
    """
    tau = mpc(tau)
    y = tau.imag
    step = 1e-4 * y
    if step < mpf(10) ** (-mp.dps):
        raise ValueError("step underflows working precision")

    def dbar(h):
        fx = (M_hat(spec, tau + h) - M_hat(spec, tau - h)) / (2 * h)
        fy = (M_hat(spec, tau + 1j * h) - M_hat(spec, tau - 1j * h)) / (2 * h)
        return (fx + 1j * fy) / 2

    def xi(h):
        return 2j * mp.sqrt(y) * mp.conj(dbar(h))

    coarse = xi(step)
    fine = xi(step / 2)
    return (4 * fine - coarse) / 3


def g2_universal(z, q):
    """Kang's universal mock theta g_2(z; q), |q| < 1: the sum over n >= 0 of
    (-q; q)_n q^{n(n+1)/2}/((z; q)_{n+1} (q/z; q)_{n+1}).

    One side on core.fixed_sum, scaled at t_0 = 1/((1 - z)(1 - q/z)); term n + 1
    is term n times (1 + q^{n+1}) q^{n+1}/((1 - z q^{n+1})(1 - q^{n+2}/z)), on
    integer pairs at wp = fixed_prec() bits, with q^m, z q^m and q^{m+1}/z on
    fixed_walk.  ValueError where a denominator factor is below 2^-FIXED_GUARD
    in modulus: a pair at wp has fewer than mp.prec correct bits there.
    Root-of-unity evaluation lives with the quantum-set machinery, not here.
    """
    z = mpc(z)
    q = mpc(q)
    if abs(q) >= 1:
        raise ValueError("need |q| < 1")
    wp = fixed_prec()
    one, pole2 = 1 << wp, 1 << 2 * mp.prec  # |pair|^2 at modulus 2^-FIXED_GUARD
    with mp.workprec(wp):
        walks = zip(*(fixed_walk(to_fixed(x, wp), q, None, wp) for x in (1, z, q / z)))

    def factors():
        # q^m and (1 - z q^m)(1 - q^{m+1}/z) for m = 0, 1, ...
        for w, (a, b), (c, d) in walks:
            if min((one - a) ** 2 + b * b, (one - c) ** 2 + d * d) < pole2:
                raise ValueError("z sits on a pole of g_2")
            yield w, fixed_mul((one - a, -b), (one - c, -d), wp)

    def terms(x, steps):
        yield x
        for w, den in steps:
            x = fixed_div(fixed_mul(x, fixed_mul(w, (one + w[0], w[1]), wp), wp), den, wp)
            yield x

    steps = factors()
    t0 = fixed_div((one, 0), next(steps)[1], wp), wp
    return +fixed_sum([(t0, terms((one, 0), steps))], wp, "g_2 series")


def kang_pair(alpha, tau):
    """Both sides of the mu-to-g_2 factorization at (alpha, tau).

    Returns (mu(2 alpha, tau/2; tau), i q^{1/8} g_2(e(alpha); q^{1/2})
    - e(-alpha) q^{1/8} eta(tau)^4 / (eta(tau/2)^2 theta(2 alpha; tau))).
    """
    alpha = mpc(alpha)
    tau = mpc(tau)
    lhs = mu(2 * alpha, tau / 2, tau)
    q8 = e2pi(tau / 8)
    rhs = 1j * q8 * g2_universal(e2pi(alpha), e2pi(tau / 2)) \
        - e2pi(-alpha) * q8 * eta(tau) ** 4 / (eta(tau / 2) ** 2 * jacobi_theta(2 * alpha, tau))
    return lhs, rhs

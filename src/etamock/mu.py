"""Appell-Lerch mu, its completion, and the surrounding machinery.

Covers the two-variable mu kernel, the Mordell integral h, the
real-analytic correction R, the completed mu-hat, the normalized
completed forms M-hat indexed by rational (a, b), Kang's universal
mock theta factorization, and a finite-difference shadow operator.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import count

from mpmath import mp, mpc, mpf

from .core import (converging, fold_guard, fraction_mpf, period_cell, quadratic_phases,
                   reduce_tau, series_eps, sum_outward, tanh_sinh)
from .qseries import e2pi, eta
from .theta import g_ab, jacobi_theta

Fr = Fraction

LATTICE_TOL = 1e-9

# below this height mu is computed from the folded mu-hat; see mu
FOLD_HEIGHT = 0.1


def lattice_distance(u, tau):
    """Distance from u to the nearest point of Z*tau + Z."""
    return abs(period_cell(mpc(u), mpc(tau))[0])


def _check_off_lattice(u, tau, name="u"):
    if lattice_distance(u, tau) < LATTICE_TOL:
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
    route kept 2e-25 at all of these points, but took 2.5 to 3 times as
    long from Im tau = 0.3 down to 0.01, so it runs only below 1/10.
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
    # the defining series at tau, unreduced: about 1/sqrt(Im tau) terms
    eu = e2pi(u)
    eps = series_eps()

    def terms(ns, nums, powers):
        for n, num, qn in zip(ns, nums, powers):
            if n % 2:
                num = -num
            yield num / (1 - eu * qn), abs(num) < eps

    # numerator (-1)^n e(n v) q^{n(n+1)/2} = (-1)^n e(tau n^2/2 + (tau/2 + v) n)
    center = int(mp.nint(-v.imag / tau.imag - 0.5))
    nums = quadratic_phases(tau / 2, tau / 2 + v, center)
    powers = quadratic_phases(0, tau, center)
    total = sum_outward(terms(count(center, -1), nums[0], powers[0]),
                        terms(count(center + 1), nums[1], powers[1]), 10 ** 5 + 2, "mu series")
    return mp.exp(1j * mp.pi * u) / jacobi_theta(v, tau) * total


def mordell_h(u, tau):
    """Mordell integral h(u; tau) over the real line.

    The window [-X, X] is set by the Gaussian envelope
    exp(-pi Im(tau) x^2 - 2 pi Re(u) x) and split at its centre
    c = -Re(u)/Im(tau); each half gets the nested tanh-sinh rule, whose
    nodes crowd into c, where the envelope peaks.  RuntimeError if the
    rule does not settle.
    """
    u = mpc(u)
    tau = mpc(tau)
    y = tau.imag
    if y <= 0:
        raise ValueError("tau must have positive imaginary part")
    S = max(mpf(40), mp.log(10) * (mp.dps + 2))
    X = mp.sqrt(S / (mp.pi * y)) + abs(u.real) / y + 1

    def f(x):
        return mp.exp(1j * mp.pi * tau * x * x - 2 * mp.pi * u * x) / mp.cosh(mp.pi * x)

    c = -u.real / y
    # absolute where |f| <= 1 at c, relative to |f(c)| beyond, so that a
    # large h settles at working precision instead of below it
    tol = max(1, abs(f(c))) * mpf(10) ** (-(mp.dps - 3)) / 2
    return (tanh_sinh(f, -X, c, tol, "Mordell integral")
            + tanh_sinh(f, c, X, tol, "Mordell integral"))


def R_correction(u, tau):
    """Zwegers' nonholomorphic correction R(u; tau).

    Terms carry sgn(nu) - erf(sqrt(2 pi y)(nu + a)), written through erfc
    so the Gaussian envelope is kept to full precision at large |nu|.
    """
    u = mpc(u)
    tau = mpc(tau)
    y = tau.imag
    a = u.imag / y
    root = mp.sqrt(2 * y)
    eps = series_eps()

    def terms(ns, phases):
        for n, w in zip(ns, phases):
            nu = n + mpf(0.5)
            sgn = 1 if nu > 0 else -1
            amp = sgn * mp.erfc(sgn * mp.sqrt(mp.pi) * (nu + a) * root)
            term = (-amp if n % 2 else amp) * w
            yield term, abs(term) < eps

    # e^{-pi i nu^2 tau - 2 pi i nu u} = e(-tau nu^2/2 - u nu); nu = n + 1/2
    # runs over -1/2, -3/2, ... and then 1/2, 3/2, ...
    down, up = quadratic_phases(-tau / 2, -u, mpf(-0.5))
    return sum_outward(terms(count(-1, -1), down), terms(count(0), up), 10 ** 5, "R series")


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

    def shift(state, n):
        # mu-hat(u, v; sigma + n) = e(-n/8) mu-hat(u, v; sigma)
        factor, u, v = state
        return factor * e2pi(Fr(-n, 8)), u, v

    def invert(state, sigma):
        # mu-hat(u, v; -1/sigma) = -mu-hat(-u sigma, -v sigma; sigma)
        #   / (sqrt(i/sigma) e^{pi i (u - v)^2 sigma})
        factor, u, v = state
        factor *= -mp.exp(-1j * mp.pi * (u - v) ** 2 * sigma) / mp.sqrt(1j / sigma)
        return factor, -u * sigma, -v * sigma

    with mp.extradps(guard):
        tau, (factor, u, v) = reduce_tau(tau, (mpc(1), u, v), shift, invert, "mu-hat")
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


def M_holo(spec, tau):
    """Holomorphic part of M-hat_{a,b} (mu in place of mu-hat)."""
    tau = mpc(tau)
    return _mab_prefactor(spec, tau) * mu(spec.u_at(tau), spec.v_at(tau), tau)


def g_complement(spec, tau):
    """g^c_{a,b}(tau) = conjugate(g_{a,b}(-conjugate(tau)))."""
    return mp.conj(g_ab(spec, -mp.conj(mpc(tau))))


def xi_shadow(spec, tau, step=None):
    """Weight-1/2 xi operator applied to M-hat, by central differences.

    Computes 2i y^{1/2} conj(d/d tau-bar M-hat) with Richardson
    extrapolation over two step sizes; compare against
    g_complement((a+1/2, b+1/2), tau).
    """
    tau = mpc(tau)
    y = tau.imag
    if step is None:
        step = 1e-4 * y
    step = mpf(step)
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
    """Kang's universal mock theta g_2(z; q) for |q| < 1.

    Terminating root-of-unity evaluation lives with the quantum-set
    machinery, not here.
    """
    z = mpc(z)
    q = mpc(q)
    if abs(q) >= 1:
        raise ValueError("need |q| < 1")
    eps = series_eps()
    # running products: (-q; q)_n, (z; q)_{n+1}, (z^{-1} q; q)_{n+1}
    neg = mpc(1)
    pz = 1 - z
    pzi = 1 - q / z
    if abs(pz) < 1e-12 or abs(pzi) < 1e-12:
        raise ValueError("z sits on a pole of g_2")

    def terms(neg, pz, pzi):
        qn = mpc(1)  # q^n
        qtri = mpc(1)  # q^{n(n+1)/2}
        while True:
            term = neg * qtri / (pz * pzi)
            yield term, abs(term) < eps
            qn *= q
            qtri *= qn
            neg *= 1 + qn
            f1 = 1 - z * qn
            f2 = 1 - qn * q / z
            if abs(f1) < 1e-12 or abs(f2) < 1e-12:
                raise ValueError("z sits on a pole of g_2")
            pz *= f1
            pzi *= f2

    return sum(converging(terms(neg, pz, pzi), 10 ** 5, "g_2 series"), mpc(0))


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

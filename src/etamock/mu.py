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

from .core import (adaptive_panels, converging, fraction_mpf, quadratic_phases, series_eps,
                   sum_outward)
from .qseries import e2pi, eta
from .theta import g_ab, jacobi_theta

Fr = Fraction

LATTICE_TOL = 1e-9


def lattice_distance(u, tau):
    """Distance from u to the nearest point of Z*tau + Z."""
    u = mpc(u)
    tau = mpc(tau)
    xi = u.imag / tau.imag
    m = mp.nint(xi)
    n = mp.nint(u.real - m * tau.real)
    return abs(u - (m * tau + n))


def _check_off_lattice(u, tau, name="u"):
    if lattice_distance(u, tau) < LATTICE_TOL:
        raise ValueError("{} is within {} of the period lattice".format(name, LATTICE_TOL))


def mu(u, v, tau):
    """Zwegers' mu(u, v; tau).

    Both elliptic variables must stay off the lattice Z*tau + Z; u hits
    actual poles there and theta(v) vanishes.
    """
    u = mpc(u)
    v = mpc(v)
    tau = mpc(tau)
    _check_off_lattice(u, tau, "u")
    _check_off_lattice(v, tau, "v")
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

    Gauss-Legendre panels on [-X, X] with X set by the Gaussian envelope
    exp(-pi Im(tau) x^2 - 2 pi Re(u) x); panels refine until stable.
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

    npan = max(8, int(mp.ceil(2 * X)))
    cuts = [-X + 2 * X * k / npan for k in range(npan + 1)]
    tol = mpf(10) ** (-(mp.dps - 3))
    return adaptive_panels(f, cuts, tol)


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
    """Completed mu-hat(u, v; tau) = mu + (i/2) R(u - v)."""
    return mu(u, v, tau) + 0.5j * R_correction(mpc(u) - mpc(v), tau)


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

"""Series kernels against their per-term formulas.

Each theta-type kernel builds its terms from `core.quadratic_phases`, a
recurrence with three exponentials per series.  Here each is compared with
the plain sum of the same terms, every term computed by its own
exponentials, at 30 more digits.  The error is measured against the sum of
|terms|, the scale rounding works on, and must stay within 100 units of
the working precision.  Points include Im tau = 1e-3, where the mu and R
sums of the benchmark's cusp checks run longest.
"""

import random
from fractions import Fraction
from itertools import count

import pytest
from mpmath import mp, mpc, mpf

from etamock.core import e2pi, fraction_mpf
from etamock.mu import R_correction, mu
from etamock.qseries import _eta_sum_raw, kronecker
from etamock.theta import (_EVEN, _ODD, _g_direct, _theta_sum, eta_theta_eval,
                           jacobi_theta, partial_theta)
from etamock.vmn import _lambert_sum, all_rows, vmn_spec

# working precision of every test here; see conftest.py
DPS = 16

EXTRA = 30


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
    odd, index = label[0] == "E", int(label[1:])
    if odd:
        chi = _ODD[index][1]
        coeffs = ((chi(n) * n, n) for n in count(1))
        c0 = 0
    else:
        _, domain, chi = _EVEN[index]
        both = domain == "Z"
        coeffs = ((chi(n) + (chi(-n) if both else 0), n) for n in count(1))
        c0 = chi(0) if both else 0
    total, size = _terms_sum(fraction_mpf(c) * e2pi(tau * n * n) for c, n in coeffs)
    return total + fraction_mpf(c0), size + abs(fraction_mpf(c0))


def _ref_partial_theta(m, z):
    chi = _ODD[m][1]
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
            return out
        if kernel == "_theta_sum":
            return [((tau * rng.uniform(-2, 2) + rng.uniform(-0.5, 0.5), tau), _ref_theta_sum)
                    for tau in _taus(rng, [0.05, 0.5, 1.2], 3)]
        if kernel == "_eta_sum_raw":
            return [((tau,), _ref_eta_sum) for tau in _taus(rng, [0.1, 0.9], 3)]
        if kernel == "character-sum":
            taus = _taus(rng, [0.3, 1], 1)
            labels = ["e%d" % n for n in _EVEN] + ["E%d" % m for m in _ODD]
            return [((label, tau), _ref_character_sum) for label in labels for tau in taus]
        if kernel == "partial_theta":
            return [((m, mpc(rng.uniform(-0.5, 0.5), -y)), _ref_partial_theta)
                    for m in _ODD for y in (0.1, 1)]
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
    "_eta_sum_raw": _eta_sum_raw,
    "character-sum": lambda label, tau: eta_theta_eval(label, tau, "character-sum"),
    "partial_theta": partial_theta,
    "_lambert_sum": _lambert_sum,
}


@pytest.mark.parametrize("dps", [16, 30])
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

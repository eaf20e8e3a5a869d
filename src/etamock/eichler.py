"""Period integrals: ray integrals against the 1/sqrt kernel.

The workhorse is ray_integral, which integrates G(z)/sqrt(-i(z+tau))
along the vertical path from a start point up to i*infinity.  The height
runs over the half-line and gets core's nested exp-sinh rule in one call:
its nodes crowd into the start of the ray, where the kernel may be steep.
G is not evaluated above a cut set by its exponential decay rate, which
also bounds the part beyond the cut.

The checks that compare these integrals with the finite side of the
period identities live in verify.
"""

import math
from fractions import Fraction

from mpmath import mp, mpc, mpf

from .core import exp_sinh, fraction_mpf
# unused here: the benchmark's span tracer looks these up in this module
from .core import _gl_cache, adaptive_panels, gauss_legendre_nodes  # noqa: F401
from .qseries import e2pi
from .theta import E_from_g, g_ab, partial_theta, unary_theta_combination
from .vmn import family
from .quantum import ELL, ROOT_C


def ray_integral(G, z0, tau, decay, tol=None):
    """int_{z0}^{i inf} G(z)/sqrt(-i(z+tau)) dz along the vertical path.

    `decay`: G(z0 + it) = O(e^{-pi*decay*t}); it sets the cut, the height
    above which G is not evaluated.  The height gets one exp-sinh rule with
    tol; its nodes crowd into t = 0, where the kernel is steepest.  The part
    beyond the cut is bounded from |G| there and the decay rate.
    ValueError, before G is evaluated, if the kernel's singularity -tau lies
    on the ray; RuntimeError, after one value of G, if the bound beyond the
    cut is above tol (as when `decay` overstates G's decay), and
    RuntimeError if the rule does not settle.
    """
    z0 = mpc(z0)
    tau = mpc(tau)
    if (z0 + tau).real == 0 and (z0 + tau).imag <= 0:
        raise ValueError("the ray from %s meets the kernel's singularity -tau" % mp.nstr(z0, 8))
    if tol is None:
        tol = mpf(10) ** (-(mp.dps - 3))
    S = mp.log(10) * (mp.dps + 4)
    cut = max(4, S / (mp.pi * decay), 4 * abs(tau) + 4) + S / (mp.pi * decay)

    # |G| <= C e^{-pi*decay*t} with C measured at the cut, kernel >= sqrt(t/2);
    # checked first, since an overstated decay leaves the rule unsettled
    beyond = abs(G(z0 + 1j * cut)) * mp.sqrt(2) / (mp.pi * decay * mp.sqrt(cut))
    if beyond > tol:
        raise RuntimeError("ray integral: the part beyond height %s is bounded only by %s"
                           % (mp.nstr(cut, 6), mp.nstr(beyond, 3)))

    def integrand(t):
        z = z0 + 1j * t
        return 1j * G(z) / mp.sqrt(-1j * (z + tau))

    return exp_sinh(integrand, cut, tol, "ray integral")


def g_decay_rate(a, scale=1):
    """Exponential decay rate of g_{a,b}(scale*z) as Im(z) grows."""
    af = float(a)
    frac = af - math.floor(af)
    alpha = min(frac, 1 - frac)
    if alpha == 0:
        # the n = 0 term vanishes; next exponent is 1/2
        return scale * 1.0
    return scale * alpha * alpha


def unary_ray_integral(spec, z0, tau, scale=1, tol=None):
    """int_{z0}^{i inf} g_{a,b}(scale*z)/sqrt(-i(z+tau)) dz."""
    a, b = spec
    decay = g_decay_rate(a, scale)
    return ray_integral(lambda z: g_ab(spec, scale * z), z0, tau, decay, tol=tol)


def _g_combo_ray(pairs, z0, tau):
    """int of (sum coeff * g_spec(u)) / sqrt(-i(u+tau)) from z0 upward."""
    decay = min(g_decay_rate(spec[0]) for _, spec in pairs)

    def G(z):
        return sum(c * g_ab(spec, z) for c, spec in pairs)

    return ray_integral(G, z0, tau, decay)


# ---------------------------------------------------------------------------
# the left side of the period identities


def E_ray_integral(m, z0, x):
    """int_{z0}^{i inf} E_m(2u/c_m^2)/sqrt(-i(u+x)) du, one unary component
    at a time so each gets its own decay rate."""
    base = family(m)
    c = ROOT_C[base]
    factor = Fraction(2, c * c)
    total = mpc(0)
    for coeff, spec, scale in unary_theta_combination(int(base)):
        eff = Fraction(scale) * factor
        total += coeff * unary_ray_integral(spec, z0, x, scale=eff)
    return total


_lhs_cache = {}


def integral_identity_lhs(m, x, endpoint=None):
    """-(i/c_m) int_{endpoint}^{i inf} E_m(2u/c_m^2)/sqrt(-i(u+x)) du.

    The default endpoint is 1/2 for the families with ell = 2 and 1 for
    those with ell = 1.
    """
    base = family(m)
    if endpoint is None:
        endpoint = Fraction(1, ELL[base])
    key = (base, str(endpoint), str(x), mp.dps)
    if key not in _lhs_cache:
        c = ROOT_C[base]
        xv = fraction_mpf(x) if isinstance(x, (Fraction, int)) else mpc(x)
        _lhs_cache[key] = -1j * E_ray_integral(base, fraction_mpf(endpoint), xv) / c
    return _lhs_cache[key]


# ---------------------------------------------------------------------------
# partial theta asymptotics toward the rational line


def partial_theta_radial(m, x, ts):
    """Values of the partial theta at -2(x+it)/c_m^2 for each t in ts."""
    base = family(m)
    c = ROOT_C[base]
    out = []
    for t in ts:
        z = -2 * (mpc(fraction_mpf(x), t)) / (c * c)
        out.append(partial_theta(int(base), z))
    return out


def estar_value(m, tau0):
    """int_{-conj(tau0)}^{i inf} E_m(u)/sqrt(u + tau0) du.

    On that ray -i(u + tau0) is positive real, so the principal square
    root satisfies sqrt(u + tau0) = e(1/8) sqrt(-i(u + tau0)).
    """
    base = family(m)
    tau0 = mpc(tau0)
    z0 = -mp.conj(tau0)
    raw = ray_integral(lambda z: E_from_g(int(base), z), z0, tau0, decay=2)
    return raw / e2pi(Fraction(1, 8))

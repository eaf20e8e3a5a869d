"""Period integrals: ray integrals against the 1/sqrt kernel.

The workhorse is ray_integral, which integrates G(z)/sqrt(-i(z+tau))
along the vertical path from a start point up to i*infinity.  The height
runs over the half-line and gets core's nested exp-sinh rule in one call:
its nodes crowd into the start of the ray, where the kernel may be steep.
G is not evaluated above a cut set by its exponential decay rate, which
also bounds the part beyond the cut.

The period integrals of E_m take one ray of g_{a,b} per shadow pair (a, b)
of E_m, weighted by e(-ab) (shadow_ray_integral).

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
from .theta import g_ab
from .vmn import _SHADOW, family, parts
from .quantum import ELL


def ray_integral(G, z0, tau, decay, tol=None):
    """int_{z0}^{i inf} G(z)/sqrt(-i(z+tau)) dz along the vertical path.

    `decay`: G(z0 + it) = O(e^{-pi*decay*t}); it sets the cut, the height
    above which G is not evaluated.  The height gets one exp-sinh rule with
    tol; its nodes crowd into t = 0, where the kernel is steepest.  The part
    beyond the cut is bounded from |G| there and the decay rate.
    ValueError, before G is evaluated, if the kernel's singularity -tau lies
    on the ray; RuntimeError, after one value of G, if the bound beyond the
    cut is above tol (as when `decay` overstates G's decay), and
    ConvergenceError, a RuntimeError, if the rule does not settle.
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


def g_decay_rate(a):
    """Exponential decay rate of g_{a,b}(z) as Im(z) grows."""
    af = float(a)
    frac = af - math.floor(af)
    alpha = min(frac, 1 - frac)
    # at alpha = 0 the n = 0 term vanishes, and the next exponent is 1/2
    return alpha * alpha if alpha else 1.0


def unary_ray_integral(spec, z0, tau, tol=None):
    """int_{z0}^{i inf} g_{a,b}(z)/sqrt(-i(z+tau)) dz."""
    return ray_integral(lambda z: g_ab(spec, z), z0, tau, g_decay_rate(spec[0]), tol=tol)


def shadow_ray_integral(m, z0, tau):
    """sum e(-ab) int_{z0}^{i inf} g_{a,b}(z)/sqrt(-i(z+tau)) dz over the
    shadow pairs (a, b) of E_m, one ray per pair so each gets its own decay
    rate.  Since E_m(2z/c_m^2) = (c_m/2) sum e(-ab) g_{a,b}(z), this is
    (2/c_m) int_{z0}^{i inf} E_m(2z/c_m^2)/sqrt(-i(z+tau)) dz."""
    return sum(e2pi(-a * b) * unary_ray_integral((a, b), z0, tau)
               for a, b in (_SHADOW[p] for p in parts(family(m))))


# ---------------------------------------------------------------------------
# the left side of the period identities


_lhs_cache = {}


def integral_identity_lhs(m, x, endpoint=None):
    """-(i/c_m) int_{endpoint}^{i inf} E_m(2u/c_m^2)/sqrt(-i(u+x)) du,
    which is -(i/2) shadow_ray_integral(m, endpoint, x).

    The default endpoint is 1/2 for the families with ell = 2 and 1 for
    those with ell = 1.  Cached on the exact endpoint and x, and mp.prec.
    """
    base = family(m)
    if endpoint is None:
        endpoint = Fraction(1, ELL[base])
    key = (base, endpoint, x, mp.prec)
    if key not in _lhs_cache:
        xv = fraction_mpf(x) if isinstance(x, (Fraction, int)) else mpc(x)
        _lhs_cache[key] = -0.5j * shadow_ray_integral(base, fraction_mpf(endpoint), xv)
    return _lhs_cache[key]


"""Period integrals: ray integrals against the 1/sqrt kernel.

The workhorse is ray_integral, which integrates G(z)/sqrt(-i(z+tau))
along the vertical path from a start point up to i*infinity.  The height
runs over the half-line and gets core's nested exp-sinh rule in one call:
its nodes crowd into the start of the ray, where the kernel may be steep.
Two cuts spare G the nodes that cannot change the result.  Above an upper
cut, set by G's exponential decay rate, G is not evaluated.  At a rational
start p/q, a cusp of g_{a,b}, G vanishes like e^{-pi D/t} as t -> 0, and
below a lower cut set by D it is not evaluated either.  Each cut is checked
with one value of G there, which bounds the part it leaves out.

The period integrals of E_m take one ray of g_{a,b} per shadow pair (a, b)
of E_m, weighted by e(-ab) (shadow_ray_integral).  The values of g_{a,b} on
a ray do not depend on tau, so the rays of one (a, b) from one start share
them through a memo (unary_ray_integral).

The checks that compare these integrals with the finite side of the
period identities live in verify.
"""

import math
from fractions import Fraction
from functools import lru_cache

from mpmath import mp, mpc, mpf

from .core import exp_sinh, fraction_mpf
# unused here: the benchmark's span tracer looks these up in this module
from .core import _gl_cache, adaptive_panels, gauss_legendre_nodes  # noqa: F401
from .qseries import e2pi
from .theta import g_ab
from .vmn import _SHADOW, family, parts
from .quantum import ELL

# entries kept by the memo of g_{a,b} values on rays, least recently used
# out: a benchmark round of the period identities fills about a thousand
RAY_MEMO = 4096


def ray_integral(G, z0, tau, decay, tol=None, cusp_decay=None):
    """int_{z0}^{i inf} G(z)/sqrt(-i(z+tau)) dz along the vertical path.

    `decay`: G(z0 + it) = O(e^{-pi*decay*t}); it sets the upper cut, the
    height above which G is not evaluated.  `cusp_decay`, if given:
    G(z0 + it) = O(t^{-3/2} e^{-pi*cusp_decay/t}) as t -> 0, as at a cusp;
    it sets the lower cut, the height below which G is not evaluated.  The
    height gets one exp-sinh rule with tol; its nodes crowd into t = 0,
    where the kernel is steepest.  The part beyond the upper cut is bounded
    from |G| there and the decay rate, the part below the lower cut from |G|
    there and cusp_decay.  A lower cut whose bound is above 10^-(dps+2)
    is dropped, and the rule then runs down to t = 0.
    ValueError, before G is evaluated, if the kernel's singularity -tau lies
    on the ray; RuntimeError, after one value of G, if the bound beyond the
    cut is above tol (as when `decay` overstates G's decay), and
    ConvergenceError, a RuntimeError, if the rule does not settle.
    """
    z0 = mpc(z0)
    tau = mpc(tau)
    w = z0 + tau
    if w.real == 0 and w.imag <= 0:
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

    low = 0
    if cusp_decay:
        # |G| <= C t^{-3/2} e^{-pi D/t} with C measured at t_low, D = cusp_decay,
        # integrates to |G(t_low)| t_low^2/(pi D) over [0, t_low]; the kernel
        # is largest at the t of the segment nearest -Im(z0 + tau)
        t_low = mp.pi * cusp_decay / S
        kernel = 1 / mp.sqrt(abs(w + 1j * min(max(-w.imag, 0), t_low)))
        below = abs(G(z0 + 1j * t_low)) * kernel * t_low ** 2 / (mp.pi * cusp_decay)
        if below < mpf(10) ** (-(mp.dps + 2)):
            low = t_low

    def integrand(t):
        z = z0 + 1j * t
        return 1j * G(z) / mp.sqrt(-1j * (z + tau))

    return exp_sinh(integrand, cut, tol, "ray integral", low=low)


def _cusp_pair(spec, x):
    """((a', b'), q) for g_{a,b} at the rational x = p/q, with
    |g_{a,b}(x + it)| = (qt)^{-3/2} |g_{a',b'}(X + i/(q^2 t))| for a real X.

    x is folded to infinity exactly by the laws that g_ab folds tau with:
    tau -> tau - n takes (a, b) to (a, b + n(a + 1/2)), and tau -> -1/tau
    takes it to (b, -a).  Their composite gamma sends x to infinity, so
    |c x + d| = 0 and |c(x + it) + d| = qt; each law carries the factor
    |c z + d|^{-3/2} of weight 3/2.
    """
    a, b = map(Fraction, spec)
    x = Fraction(x)
    q = x.denominator
    while True:
        n = round(x)
        x -= n
        a, b = b + n * (a + Fraction(1, 2)), -a
        if x == 0:
            return (a, b), q
        x = -1 / x


def g_decay_rate(a):
    """Exponential decay rate of g_{a,b}(z) as Im(z) grows."""
    af = float(a)
    frac = af - math.floor(af)
    alpha = min(frac, 1 - frac)
    # at alpha = 0 the n = 0 term vanishes, and the next exponent is 1/2
    return alpha * alpha if alpha else 1.0


def unary_ray_integral(spec, z0, tau, tol=None):
    """int_{z0}^{i inf} g_{a,b}(z)/sqrt(-i(z+tau)) dz.

    A start z0 given as a Fraction or an int is a cusp of g_{a,b}, and the
    ray gets the lower cut of ray_integral there, with the decay rate of
    _cusp_pair's (a', b'): cusp_decay = g_decay_rate(a')/q^2.  Any other z0
    gets no lower cut.  The values of g_{a,b} at the nodes z0 + it do not
    depend on tau, so they are kept in a memo keyed by (a, b), the node
    (which holds the start) and the mp.prec of the call, for the RAY_MEMO
    most recently used keys: a second ray of (a, b) from z0 reads them.
    """
    a, b = map(Fraction, spec)
    cusp_decay = None
    if isinstance(z0, (Fraction, int)):
        (a1, _), q = _cusp_pair((a, b), z0)
        cusp_decay = g_decay_rate(a1) / q ** 2
        z0 = fraction_mpf(z0)
    return ray_integral(lambda z: _ray_value(a, b, z, mp.prec), z0, tau, g_decay_rate(a),
                        tol=tol, cusp_decay=cusp_decay)


@lru_cache(maxsize=RAY_MEMO)
def _ray_value(a, b, z, prec):
    # prec only keys the memo: the caller's mp.prec is prec
    return g_ab((a, b), z)


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
        _lhs_cache[key] = -0.5j * shadow_ray_integral(base, Fraction(endpoint), xv)
    return _lhs_cache[key]


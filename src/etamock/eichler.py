"""Period integrals: ray integrals against the 1/sqrt kernel.

The period integrals of E_m take one ray of g_{a,b} per shadow pair (a, b)
of E_m, weighted by e(-ab) (shadow_ray_integral).  Every such ray starts
at a rational x = p/q, and there g_{a,b} obeys the exact identity

    g_{a,b}(x + it) = e(r) (qt)^{-3/2} g_{a',b'}(X + i/(q^2 t)),   t > 0,

whose (a', b'), X and r _cusp_pair finds by folding x to infinity once,
in Fractions.  Term by term, int_h^inf e^{-pi nu^2 t} (t + s)^{-1/2} dt =
|nu|^{-1} e^{-pi nu^2 h} erfcx(|nu| sqrt(pi (h + s))), s = -i(x + tau), so the
ray above t = 1/q is one sum of erfcx terms over nu in a + Z, and the fold
takes the ray below t = 1/q to a ray of g_{a',b'} above U = 1/(q^2 t) = 1/q,
another such sum (Zwegers, thesis, Thm 1.16 and its proof):

    ray = i [ sum_nu sgn(nu) e(b nu + x nu^2/2) e^{-pi nu^2/q}
                  erfcx(|nu| sqrt(pi (1/q + s)))
              + e(r) q^{-1/2} s^{-1/2} sum_mu sgn(mu) e(b' mu + X mu^2/2)
                  e^{-pi mu^2/q} erfcx(|mu| sqrt(pi (1/q + 1/(s q^2)))) ],

every root principal.  Both radicands have positive real part, so every
erfcx argument lies in the sector |arg| < pi/4 of core.fixed_erfcx.  The
weights of both sums do not depend on tau and are one table per (a, b, x)
and precision (_ray_table), so the rays of one (a, b) from one x share it.
No package path calls ray_integral, the tests' exp-sinh reference of a ray.

The checks that compare these integrals with the finite side of the
period identities live in verify.
"""

import math
from fractions import Fraction
from functools import lru_cache

from mpmath import mp, mpc, mpf

from .core import KERNEL_MEMO, exp_sinh, fixed_erfcx, fixed_prec, fraction_mpf, to_fixed
# unused here: the benchmark's span tracer looks these up in this module
from .core import _gl_cache, adaptive_panels, gauss_legendre_nodes  # noqa: F401
from .qseries import e2pi
from .vmn import _SHADOW, family, parts
from .quantum import ELL

SINGULAR = "the ray from %s meets the kernel's singularity -tau"


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
    w = z0 + tau
    if w.real == 0 and w.imag <= 0:
        raise ValueError(SINGULAR % mp.nstr(z0, 8))
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


def _cusp_pair(spec, x):
    """((a', b'), X, r) for g_{a,b} at the rational x = p/q: for every t > 0,

        g_{a,b}(x + it) = e(r) (qt)^{-3/2} g_{a',b'}(X + i/(q^2 t)),

    with X a rational of denominator q.

    x is folded to infinity exactly, in Fractions, by the laws that g_ab
    folds tau with.  tau -> tau - n takes (a, b) to (a, b + n(a + 1/2)) and
    adds -n a(a + 1)/2 to r.  tau -> -1/tau, at a point of real part x_k,
    takes the shifted (a, b) to (b, -a) and adds 1/4 + ab + (3/8) sgn(x_k)
    to r; x_k = 0 at the last inversion, which sends x to infinity.  Their
    composite gamma = (A B; C D) has C x + D = 0 and |C| = q, so
    C(x + it) + D = iCt and gamma(x + it) = A/C + i/(q^2 t): X = A/C.  The
    weight-3/2 factors (-i sigma)^{3/2} of the inversions multiply to
    (qt)^{-3/2} times a phase that is the same for every t > 0, since iCt
    keeps its argument; each inversion's share of it is its limit as
    t -> 0, e(3/8 sgn(x_k)).
    """
    a, b = map(Fraction, spec)
    x = Fraction(x)
    r = Fraction(0)
    A, C = 1, 0
    while True:
        n = round(x)
        x -= n
        r -= n * a * (a + 1) / 2
        b += n * (a + Fraction(1, 2))
        r += Fraction(1, 4) + a * b + Fraction(3, 8) * ((x > 0) - (x < 0))
        a, b = b, -a
        A, C = -C, A - n * C
        if x == 0:
            return (a, b), Fraction(A, C), r
        x = -1 / x


def _table_size(nu0, q, wp):
    """The least N >= 1 at which |nu| e^{-pi s nu^2}, s = 1/q, summed over
    |nu| > N, is below 2^-wp |nu0| e^{-pi s nu0^2}, nu0 the least nonzero
    |nu|: so are the terms |nu| > N of a sum of the ray, whose erfcx factors
    are at most 1.

    The terms past N of each run of nu are at most (N + k + 1)
    e^{-pi s((N + k)^2 - nu0^2)}, k >= 0, one per unit of |nu|; once
    pi s (2N + 1) >= log 4 each is at most half the one before, so the two
    runs sum to at most 4 (N + 1) e^{-pi s (N^2 - nu0^2)}.
    """
    s, nu0, target = math.pi / q, float(nu0), -wp * math.log(2)
    N = 1
    while s * (2 * N + 1) < math.log(4) \
            or math.log(4 * (N + 1) / nu0) - s * (N * N - nu0 * nu0) >= target:
        N += 1
    return N


def _gauss_side(a, b, x, q, wp):
    """The weights of one erfcx sum of a ray: (d, pairs), with the pair
    (m, w) for each |nu| = m/d of nu in a + Z, 0 < |nu| <= N of _table_size,
    d the denominator of a mod 1, and w at wp the sum of
    sgn(nu) e(b nu + x nu^2/2) e^{-pi nu^2/q} over the one or two nu of that
    |nu|.  The loop runs over every |nu| <= N, wherever a lies."""
    a0 = a % 1
    d = a0.denominator
    N = _table_size(min(a0 or 1, 1 - a0), q, wp)
    weights = {}
    with mp.workprec(wp):
        for nu in (a0 + n for n in range(-N - 1, N + 1)):
            if nu and abs(nu) <= N:
                w = mp.expjpi(fraction_mpf(2 * (b * nu + x * nu * nu / 2) % 2)) \
                    * mp.exp(-mp.pi * fraction_mpf(nu * nu) / q)
                m = abs(nu.numerator)
                weights[m] = weights.get(m, 0) + (w if nu > 0 else -w)
    return d, tuple((m, to_fixed(w, wp)) for m, w in weights.items())


@lru_cache(maxsize=KERNEL_MEMO)
def _ray_table(a, b, x, prec):
    """(e(r), the direct sum's weights, the cusp sum's weights) of g_{a,b} on
    the ray from x = p/q, each a _gauss_side table at wp = fixed_prec()."""
    # prec only keys the memo: the caller's mp.prec is prec
    (a1, b1), X, r = _cusp_pair((a, b), x)
    q = x.denominator
    wp = fixed_prec()
    with mp.workprec(wp):
        phase = mp.expjpi(fraction_mpf(2 * r % 2))
    return phase, _gauss_side(a, b, x, q, wp), _gauss_side(a1, b1, X, q, wp)


def _erfcx_sum(side, radicand, wp):
    """The sum of w erfcx(m/d sqrt(pi radicand)) over the pairs (m, w) of a
    _gauss_side table, Re radicand > 0, on integers at wp: one complex root,
    then one fixed_erfcx a pair."""
    d, pairs = side
    with mp.workprec(wp):
        cr, ci = to_fixed(mp.sqrt(mp.pi * radicand), wp)
    re = im = 0
    for m, (wr, wi) in pairs:
        er, ei = fixed_erfcx((m * cr // d, m * ci // d), wp)
        re += wr * er - wi * ei
        im += wr * ei + wi * er
    return mpc(mpf((re, -2 * wp)), mpf((im, -2 * wp)))


def unary_ray_integral(spec, z0, tau):
    """int_{z0}^{i inf} g_{a,b}(z)/sqrt(-i(z+tau)) dz.

    The start z0 = p/q, a Fraction or an int, is a cusp of g_{a,b}, and
    at Im tau >= 0 the ray is the two erfcx sums of the module docstring, to
    working precision and with no quadrature: the sum above t = 1/q, and
    the ray below it folded by _cusp_pair to a sum above U = 1/q.  Their
    weights come from one table (_ray_table), memoized on
    (a, b, z0, mp.prec) for the KERNEL_MEMO most recently used keys, and
    each ray then takes three complex roots and one fixed_erfcx per weight.
    TypeError for any other z0, and ValueError at Im tau < 0, where the
    radicands can leave the sector, both before any table or erfcx; and
    ValueError, before any erfcx, at s = -i(z0 + tau) = 0, where the ray
    meets the kernel's singularity.
    """
    if not isinstance(z0, (Fraction, int)):
        raise TypeError("a ray starts at a rational cusp, a Fraction or an int, not %r" % (z0,))
    tau = mpc(tau)
    if tau.imag < 0:
        raise ValueError("a ray needs Im tau >= 0, not %s" % mp.nstr(tau, 8))
    a, b = map(Fraction, spec)
    x = Fraction(z0)
    q = x.denominator
    phase, direct, cusp = _ray_table(a, b, x, mp.prec)
    wp = fixed_prec()
    with mp.workprec(wp):
        s = -1j * (fraction_mpf(x) + tau)
        if s == 0:
            raise ValueError(SINGULAR % x)
        ray = 1j * (_erfcx_sum(direct, 1 / mpf(q) + s, wp)
                    + phase * _erfcx_sum(cusp, 1 / mpf(q) + 1 / (s * q * q), wp) / mp.sqrt(q * s))
    return +ray


def shadow_ray_integral(m, z0, tau):
    """sum e(-ab) int_{z0}^{i inf} g_{a,b}(z)/sqrt(-i(z+tau)) dz over the
    shadow pairs (a, b) of E_m, one ray per pair.  Since E_m(2z/c_m^2) = (c_m/2) sum e(-ab) g_{a,b}(z), this is
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


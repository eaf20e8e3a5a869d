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
of E_m, weighted by e(-ab) (shadow_ray_integral).  Every such ray starts
at a rational x = p/q, and there g_{a,b} obeys the exact identity

    g_{a,b}(x + it) = e(r) (qt)^{-3/2} g_{a',b'}(X + i/(q^2 t)),   t > 0,

whose (a', b'), X and r _cusp_pair finds by folding x to infinity once,
in Fractions.  So a ray reads g_{a,b} from one table of exact coefficients
per (a, b, x) and precision (_ray_table): above t = 1/q the direct sum of
g_{a,b} at height t, below it the sum of g_{a',b'} at height 1/(q^2 t),
each a Gaussian sum at a height of at least 1/q, taken on integers at a
node with one real exponential (_ray_node).  The table does not depend on
tau, so the rays of one (a, b) from one x share it.

The checks that compare these integrals with the finite side of the
period identities live in verify.
"""

import math
from fractions import Fraction
from functools import lru_cache

from mpmath import mp, mpc, mpf

from .core import (KERNEL_MEMO, exp_sinh, fixed_power, fixed_prec, fixed_scale, fraction_mpf,
                   to_fixed)
# unused here: the benchmark's span tracer looks these up in this module
from .core import _gl_cache, adaptive_panels, gauss_legendre_nodes  # noqa: F401
from .qseries import e2pi
from .theta import g_ab
from .vmn import _SHADOW, family, parts
from .quantum import ELL

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
    """The least N >= 1 at which the terms |nu| > N of a side, at s = 1/q,
    sum below 2^-wp |nu0|, nu0 the least nonzero |nu|.

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
    """The table of sum nu e(b nu + x nu^2/2) e^{-pi s nu^2} over nu in a + Z,
    for s >= 1/q: (d, m0, runs), nu = m/d with d the denominator of a mod 1
    and m0/d the least nonzero |nu|.

    The up run takes nu = m/d >= 0 (from m = d at an integer a, whose
    nu = 0 term is zero), the down run nu < 0, each up to |nu| = N of
    _table_size.  A run is (lead, first, coefficients): its first weight
    relative to the scale e^{-pi s m0^2/d^2} is E^lead, E = e^{-pi s/d^2},
    the ratio to its second weight is E^first, and each ratio is E^{2 d^2}
    times the one before; the coefficients nu e(b nu + x nu^2/2) are pairs
    at wp, exact but for the last bit.
    """
    a0 = a % 1
    c, d = a0.numerator, a0.denominator
    starts = (c or d, c - d)
    m0 = min(map(abs, starts))
    N = _table_size(Fraction(m0, d), q, wp)
    runs = []
    with mp.workprec(wp):
        for m, sign in zip(starts, (1, -1)):
            nus = [Fraction(k, d) for k in range(m, sign * (N * d + 1), sign * d)]
            coefficients = tuple(fixed_scale(nu, to_fixed(mp.expjpi(fraction_mpf(
                2 * (b * nu + x * nu * nu / 2) % 2)), wp)) for nu in nus)
            runs.append((m * m - m0 * m0, 2 * abs(m) * d + d * d, coefficients))
    return d, m0, tuple(runs)


@lru_cache(maxsize=KERNEL_MEMO)
def _ray_table(a, b, x, prec):
    """(q, e(r), the direct side, the cusp side) of g_{a,b} on the ray from
    x = p/q, each side a _gauss_side table at wp = fixed_prec()."""
    # prec only keys the memo: the caller's mp.prec is prec
    (a1, b1), X, r = _cusp_pair((a, b), x)
    q = x.denominator
    wp = fixed_prec()
    with mp.workprec(wp):
        phase = mp.expjpi(fraction_mpf(2 * r % 2))
    return q, phase, _gauss_side(a, b, x, q, wp), _gauss_side(a1, b1, X, q, wp)


def _gauss_sum(side, s, wp):
    """The sum of a _gauss_side table at s >= 1/q: one real exponential
    E = e^{-pi s/d^2}, then the weights of each run relative to the scale
    walk on integers at wp, and the walk stops at its first zero weight (all
    later ones are zero too) or at the end of the table.  The powers of E
    are taken on integers at 2 log2(d) + 4 guard bits, which cover their
    exponents, at most 3 d^2."""
    d, m0, runs = side
    p = wp + 2 * d.bit_length() + 4
    with mp.workprec(p):
        E = mp.exp(-mp.pi * s / (d * d))
        scale = E ** (m0 * m0)
    e = to_fixed(E, p)[0]
    step = fixed_power((e, 0), 2 * d * d, p)[0] >> p - wp
    re = im = 0
    for lead, first, coefficients in runs:
        w, r = (fixed_power((e, 0), k, p)[0] >> p - wp for k in (lead, first))
        for x, y in coefficients:
            if not w:
                break
            re += x * w
            im += y * w
            w = w * r >> wp
            r = r * step >> wp
    return scale * mpc(mpf((re, -2 * wp)), mpf((im, -2 * wp)))


def _ray_node(table, t):
    """g_{a,b}(x + it) from the ray's table: the direct side at s = t if
    qt >= 1, else e(r) (qt)^{-3/2} times the cusp side at s = 1/(q^2 t), so
    that s >= 1/q on both."""
    q, phase, direct, cusp = table
    wp = fixed_prec()
    with mp.workprec(wp):
        qt = q * t
        if qt >= 1:
            value = _gauss_sum(direct, t, wp)
        else:
            value = phase * _gauss_sum(cusp, 1 / (q * qt), wp) / (qt * mp.sqrt(qt))
    return +value


def g_decay_rate(a):
    """Exponential decay rate of g_{a,b}(z) as Im(z) grows."""
    af = float(a)
    frac = af - math.floor(af)
    alpha = min(frac, 1 - frac)
    # at alpha = 0 the n = 0 term vanishes, and the next exponent is 1/2
    return alpha * alpha if alpha else 1.0


def unary_ray_integral(spec, z0, tau, tol=None):
    """int_{z0}^{i inf} g_{a,b}(z)/sqrt(-i(z+tau)) dz.

    A start z0 = p/q given as a Fraction or an int is a cusp of g_{a,b}.
    The ray reads g_{a,b}(z0 + it) from one table (_ray_table), memoized on
    (a, b, z0, mp.prec) for the KERNEL_MEMO most recently used keys and
    read at the mp.prec of each node: above t = 1/q the direct sum of
    g_{a,b}, below it the cusp side of the exact identity
    g_{a,b}(z0 + it) = e(r) (qt)^{-3/2} g_{a',b'}(X + i/(q^2 t)) of
    _cusp_pair, so each node is a Gaussian sum at s >= 1/q.  The ray gets
    the lower cut of ray_integral, with the decay rate of (a', b'):
    cusp_decay = g_decay_rate(a')/q^2.  Any other z0 evaluates g_ab at each
    node and gets no lower cut.
    """
    a, b = map(Fraction, spec)
    if not isinstance(z0, (Fraction, int)):
        return ray_integral(lambda z: g_ab((a, b), z), z0, tau, g_decay_rate(a), tol=tol)
    x = Fraction(z0)
    (a1, _), _, _ = _cusp_pair((a, b), x)
    return ray_integral(lambda z: _ray_node(_ray_table(a, b, x, mp.prec), z.imag),
                        fraction_mpf(x), tau, g_decay_rate(a), tol=tol,
                        cusp_decay=g_decay_rate(a1) / x.denominator ** 2)


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


"""The numeric core: working precision, series summation, the reduction to
the fundamental domain, and nested exp-sinh quadrature on the half-line.

Every series has one walk and one stopping rule.  Its terms are pairs of
Python integers, scaled per side, and `fixed_sum` stops each side after
QUIET_RUN terms in a row at or below eps = 10^-(dps + 1) times that side's
largest term so far; `lattice_sum` is the front of every theta-type series
but mu's and g_2's, and walks their phases with `fixed_walk`.
Every infinite product stops by `fixed_product`, on the same walks, and
`converging` counts the quiet run that ends each series and product; mu's
walk starts are powers of shared exponentials (`fixed_monomial`).  One
special function runs on integers too: `fixed_erfcx`, the scaled erfc
that R's erfc sum takes on the real line, and a ray from a cusp on the
sector |arg z| < pi/4 (Maclaurin series, trapezoid sum or continued
fraction by |z|, within 2 units of 2^-wp there), in place of mpmath's erfc.

Every other module of the package builds on these; this module imports
nothing from the package.  Numeric evaluation runs on mpmath's global
context, so the precision is whatever the caller set (`mp.workdps` is the
way to change it for a while); importing the package leaves it alone.
"""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import chain, count, islice

from mpmath import mp, mpc, mpf
from mpmath.libmp import from_man_exp
from mpmath.libmp import to_fixed as _mpf_to_fixed

DEFAULT_DPS = 16
MIN_DPS = 15

# a series stops after this many consecutive terms pass its stopping test
QUIET_RUN = 5

# the most terms a series takes on each side of its centre
SIDE_CAP = 10 ** 5

# entries kept by each memo of a kernel value (e2pi here, eta in qseries,
# jacobi_theta in theta, each atomic part of a row in vmn), least recently
# used out
KERNEL_MEMO = 256


class ConvergenceError(RuntimeError):
    """A series, product, reduction or quadrature that did not settle."""


def fraction_mpf(x):
    """A rational (Fraction or int) as an mpf at the working precision."""
    x = Fraction(x)
    return mpf(x.numerator) / x.denominator


# ---------------------------------------------------------------------------
# series


def converging(pairs, cap, what):
    """The values of the (value, small) `pairs` up to the end of the first
    run of QUIET_RUN small ones in a row.

    Every series and product stops here.  fixed_product marks a factor
    small when its envelope is below eps; fixed_sum marks a term small at
    or below eps times the largest term of its side so far.  ConvergenceError
    if `cap` pairs, or all of them, pass without such a run.
    """
    quiet = 0
    for value, small in islice(pairs, cap):
        yield value
        quiet = quiet + 1 if small else 0
        if quiet >= QUIET_RUN:
            return
    raise ConvergenceError("%s failed to converge" % what)


def e2pi(x):
    """exp(2*pi*i*x) for a real/complex number or a Fraction.

    Fractions are reduced mod 1 exactly first, so huge rational phases
    keep full precision.  Every value is memoized, keyed by the exponent (a
    Fraction as reduced, an mpc or mpf by its raw tuple, quick to hash, any
    other number as given, each kind apart) and mp.prec, for the KERNEL_MEMO
    most recently used keys: so q = e(tau) and the phases of the series at
    one tau are computed once.
    """
    x = x % 1 if isinstance(x, Fraction) else getattr(x, "_mpc_", None) or getattr(x, "_mpf_", x)
    return _e2pi(x, mp.prec)


@lru_cache(maxsize=KERNEL_MEMO, typed=True)
def _e2pi(x, prec):
    # prec only keys the memo: the caller's mp.prec is prec
    if isinstance(x, Fraction):
        x = mpf(x.numerator) / x.denominator
    elif isinstance(x, tuple):
        x = mp.make_mpc(x) if len(x) == 2 else mp.make_mpf(x)
    return mp.exp(2j * mp.pi * x)


# ---------------------------------------------------------------------------
# fixed point
#
# The inner loops of every product, theta-type sum, mu's series and finite
# sum F_hk run on Python integers, as mpmath's own jtheta does: at dps 16 a
# complex product of two integer pairs takes about an eighth of the time of
# one of two mpc (0.75 against 5.7 us).  A complex number there is a pair
# (re, im) of integers read as (re + i im) 2^-wp, at wp = fixed_prec() bits.
# A walk ratio keeps its own binary exponent: it is a pair with a shift s,
# read as (re + i im) 2^-s, whose integers have about wp bits however small
# the ratio is, so q = e^{-40 pi} at tau = 20i keeps all its digits.

# guard bits of the fixed-point kernels over mp.prec
FIXED_GUARD = 20


def fixed_prec():
    """The bits wp of a fixed-point pair: mp.prec + FIXED_GUARD."""
    return mp.prec + FIXED_GUARD


def to_fixed(z, wp):
    """The pair (re, im) of z 2^wp, z a number or a (pair, shift), rounded down."""
    if isinstance(z, tuple):
        (re, im), k = z[0], z[1] - wp
        return (re >> k, im >> k) if k >= 0 else (re << -k, im << -k)
    re, im = mpc(z)._mpc_
    return _mpf_to_fixed(re, wp), _mpf_to_fixed(im, wp)


def from_fixed(x, wp):
    """The mpc (re + i im) 2^-wp of the pair x = (re, im), rounded once."""
    prec, rounding = mp._prec_rounding
    return mp.make_mpc((from_man_exp(x[0], -wp, prec, rounding),
                        from_man_exp(x[1], -wp, prec, rounding)))


def fixed_mul(x, y, shift):
    """The pair x times the pair y read at 2^-shift: shift = wp for a
    pair at wp, a ratio's own shift for a walk ratio."""
    a, b = x
    c, d = y
    return (a * c - b * d) >> shift, (a * d + b * c) >> shift


def fixed_div(x, y, wp):
    """The pair x / y, both pairs at wp."""
    a, b = x
    c, d = y
    norm = c * c + d * d
    return ((a * c + b * d) << wp) // norm, ((b * c - a * d) << wp) // norm


def fixed_raise(x, shift, wp):
    """The pair x at 2^-shift as (pair, shift), raised to wp bits if below 1/2."""
    k = wp - max(map(abs, x)).bit_length()
    return ((x[0] << k, x[1] << k), shift + k) if k > 0 else (x, shift)


def fixed_power(x, k, shift):
    """The pair x at 2^-shift to the power k >= 0, at 2^-shift, by squaring."""
    y = (1 << shift, 0)
    while k:
        if k & 1:
            y = fixed_mul(y, x, shift)
        x = fixed_mul(x, x, shift)
        k >>= 1
    return y


def fixed_scale(c, x):
    """The pair x times the rational c: an int or a Fraction."""
    n, d = c.numerator, c.denominator
    return n * x[0] // d, n * x[1] // d


# guard bits of fixed_erfcx over its wp, and the ends of its three regimes
ERFCX_GUARD = 12
ERFCX_SERIES_END = 2
ERFCX_FRACTION_START = 16


@lru_cache(maxsize=KERNEL_MEMO)
def _erfcx_tables(wp, sector):
    # at p = wp + ERFCX_GUARD bits: the Maclaurin coefficients in t = x/2,
    # highest first; the pairs (e^{-k^2 h^2} 2^p, k^2 h^2) of the trapezoid
    # sum; 2h/pi; 1/sqrt(pi); and the length of the continued fraction.  On
    # the sector |arg z| < pi/4 (sector true) h is smaller and the fraction
    # longer than on the real line.
    p = wp + ERFCX_GUARD
    with mp.workprec(p + 20):
        root_pi = to_fixed(1 / mp.sqrt(mp.pi), p + 20)[0]
        # (-2)^k/Gamma(k/2 + 1): 4^j/j! at k = 2j, and at k = 2j + 1
        # -2^(3j + 2)/((2j + 1)!! sqrt(pi)), as Gamma(j + 3/2) = (2j + 1)!! sqrt(pi)/2^(j + 1)
        series, fact, odd = [], 1, 1
        for k in count():
            j = k // 2
            if k % 2:
                odd *= 2 * j + 1
                d = -((root_pi << 3 * j + 2) // odd >> 20)
            else:
                fact *= max(j, 1)
                d = (1 << 2 * j + p) // fact
            if not d:
                break
            series.append(d)
        # h keeps both of Chiarella and Reichel's error terms below 2^-(wp + 1)
        # for 2 <= |z| < 16 and Re z >= c |z|, c = 1 on the real line and
        # 1/sqrt(2) on the sector: e^{|z|^2 - pi^2/h^2}, largest at |z| = 16,
        # and the pole term 2 e^{z^2}/(e^{2 pi z/h} - 1), at most
        # 2 e^{r^2 - 2 pi c r/h} at r = |z|, convex in r; the h that holds it
        # at r = 2 holds it at r = 16 too for every wp >= 45
        bits = (wp + 1) * mp.ln2
        c = mp.sqrt(0.5) if sector else 1
        h = min(mp.pi / mp.sqrt(ERFCX_FRACTION_START ** 2 + bits),
                2 * ERFCX_SERIES_END * mp.pi * c / (bits + ERFCX_SERIES_END ** 2 + mp.ln2))
        trapezoid = []
        for k in count(1):
            e = to_fixed(mp.exp(-(k * h) ** 2), p)[0]
            if not e:
                break
            trapezoid.append((e << p, to_fixed((k * h) ** 2, p)[0]))
        width = to_fixed(2 * h / mp.pi, p)[0]
        # the fraction x + (1/2)/(x + 1/(x + ...)) has positive terms, so its
        # convergents A_n/B_n alternate about its value on the real line: its
        # length is the first n where two of them agree to 2^-(p + 4) at
        # x = 16, where it converges slowest, or at 16 e^{i pi/4} on the sector
        x = ERFCX_FRACTION_START * (mp.expjpi(0.25) if sector else 1)
        a, b = (mpf(1), x), (mpf(0), mpf(1))
        for terms in count(1):
            a, b = (a[1], x * a[1] + terms * a[0] / 2), (b[1], x * b[1] + terms * b[0] / 2)
            if abs(a[1] / b[1] - a[0] / b[0]) < mpf(2) ** -(p + 4):
                break
    return series[::-1], trapezoid, width, root_pi >> 20, terms


def fixed_erfcx(x, wp):
    """The integer erfcx(x) 2^wp = e^{x^2} erfc(x) 2^wp, rounded down, of
    x >= 0 given as the integer x 2^wp; of a complex x in the sector
    |arg x| < pi/4 given as the pair (re, im) of x 2^wp, the pair of
    erfcx(x) 2^wp, each part rounded down.

    Three regimes in |x|, each at wp + ERFCX_GUARD bits on integers, with
    its tables built on the first call at a wp and kept per wp, one set
    for the real line and one for the sector:
    - |x| < 2: the Maclaurin series sum of (-x)^k/Gamma(k/2 + 1), by Horner
      in t = x/2, |t| < 1, so no rounding error grows;
    - 2 <= |x| < 16: the trapezoid sum of C. Chiarella and A. Reichel (Math.
      Comp. 22, 1968), erfcx(x) = (2 h x/pi) [1/(2 x^2) +
      sum over k >= 1 of e^{-k^2 h^2}/(x^2 + k^2 h^2)], with h small
      enough that its two error terms stay below 2^-(wp + 1) where
      Re x >= |x|/sqrt(2) (the sector's h) or x is real (the real h);
    - |x| >= 16: Laplace's continued fraction
      erfcx(x) = 1/(sqrt(pi) (x + (1/2)/(x + 1/(x + (3/2)/(x + ...))))),
      evaluated backward, of a length fixed at 16 or 16 e^{i pi/4}.
    Against erfc(x) e^{x^2} at 30 more digits the result is within 1.02
    units of 2^-wp over [0, 40] at dps 16 to 200, as measured; the tests
    hold it to 64 units.  On the sector, at |x| <= 40 and |arg x| <= 0.78,
    it is within 1.41 units of 2^-wp in modulus at dps 16, 30 and 100, as
    measured; the tests hold it to 2 units.  A pair (x, 0) gives the real
    integers.
    """
    p = wp + ERFCX_GUARD
    if isinstance(x, tuple):
        if not x[1]:
            return fixed_erfcx(x[0], wp), 0
        series, trapezoid, width, root_pi, terms = _erfcx_tables(wp, True)
        xr, xi = x[0] << ERFCX_GUARD, x[1] << ERFCX_GUARD
        r2 = xr * xr + xi * xi >> 2 * p
        if r2 < ERFCX_SERIES_END ** 2:
            tr, ti, vr, vi = xr >> 1, xi >> 1, 0, 0
            for d in series:
                vr, vi = d + (vr * tr - vi * ti >> p), vr * ti + vi * tr >> p
        elif r2 < ERFCX_FRACTION_START ** 2:
            ar, ai = xr * xr - xi * xi >> p, xr * xi >> p - 1
            norm, ai2 = ar * ar + ai * ai, ai * ai
            tr, ti = (ar << 2 * p - 1) // norm, -(ai << 2 * p - 1) // norm
            for e, k2 in trapezoid:
                w = ar + k2
                norm = w * w + ai2
                tr += e * w // norm
                ti -= e * ai // norm
            wr, wi = width * xr >> p, width * xi >> p
            vr, vi = wr * tr - wi * ti >> p, wr * ti + wi * tr >> p
        else:
            vr, vi = xr, xi
            for k in range(terms, 0, -1):
                norm = vr * vr + vi * vi
                vr, vi = xr + (k * vr << 2 * p - 1) // norm, xi - (k * vi << 2 * p - 1) // norm
            norm = vr * vr + vi * vi
            vr, vi = (root_pi * vr << p) // norm, -(root_pi * vi << p) // norm
        return vr >> ERFCX_GUARD, vi >> ERFCX_GUARD
    series, trapezoid, width, root_pi, terms = _erfcx_tables(wp, False)
    x <<= ERFCX_GUARD
    if x >> p < ERFCX_SERIES_END:
        t, value = x >> 1, 0
        for d in series:
            value = d + (value * t >> p)
    elif x >> p < ERFCX_FRACTION_START:
        x2 = x * x >> p
        total = (1 << 2 * p) // (2 * x2) + sum(e // (x2 + k2) for e, k2 in trapezoid)
        value = (width * x >> p) * total >> p
    else:
        value = x
        for k in range(terms, 0, -1):
            value = x + (k << 2 * p - 1) // value
        value = (root_pi << p) // value
    return value >> ERFCX_GUARD


def fixed_ratio(z, wp, least=0):
    """The mpc z as a walk ratio (pair, shift), integers of at most wp bits or
    wider where the shift would fall below `least`; a (pair, shift) as it
    is.  An mpf (sign, man, exp, bc) is below 2^(exp + bc)."""
    if isinstance(z, tuple):
        return z
    shift = max(least, wp - max(exp + bc for _, man, exp, bc in z._mpc_ if man))
    return to_fixed(z, shift), shift


def fixed_monomial(powers, wp):
    """The product of x^k over the (x, k) of `powers`, x an mpc or a
    (pair, shift) and k an integer, as fixed_ratio's (pair, shift).  For
    x = pair 2^-s and 2^b the top of the pair, x^k = (pair/2^b)^k 2^(k (b - s)),
    and (pair/2^b)^k, of modulus at least 2^-k, is taken by fixed_power at
    wp + k + 8 bits, so its integers grow by about k bits, not k wp.  1/x is
    taken at 2 wp bits, and the exact product is rounded down once."""
    prod, shift = (1, 0), 0
    for x, k in filter(lambda power: power[1], powers):
        x, s = fixed_ratio(x, wp, -math.inf)
        if k < 0:
            x, s, k = fixed_div((1 << wp, 0), x, wp), 2 * wp - s, -k
        b = max(map(abs, x)).bit_length()
        g = max(0, wp + k + 8 - b)
        prod = fixed_mul(prod, fixed_power((x[0] << g, x[1] << g), k, b + g), 0)
        shift += b + g - k * (b - s)
    drop = min(max(map(abs, prod)).bit_length() - wp, shift)
    return to_fixed((prod, shift), shift - drop), shift - drop


def fixed_walk(start, ratio, step, wp):
    """The pairs w_0 = start, w_1, ... at wp of the walk w_(k+1) = w_k r_k,
    r_0 = ratio, r_(k+1) = r_k step; step None keeps r_k = ratio.

    start is a pair at wp; ratio and step, mpc or (pair, shift), are read
    when the walk is made, and r_k is kept as a walk ratio with its own
    exponent.  A walk should run the way its modulus shrinks: then each w_k
    is within a few units of 2^-wp of its value, and its integers stop
    growing after the first.  A ratio above 2^wp keeps shift 0 and widens.
    Each step rounds down, so a walk that has decayed below 2^-wp ends on
    pairs of -1 and 0, such as (-1, 0), not on (0, 0).
    """
    r, s = fixed_ratio(ratio, wp)
    step, t = (None, 0) if step is None else fixed_ratio(step, wp)

    def walk(w, r, s):
        while step is None:
            yield w
            w = fixed_mul(w, r, s)
        while True:
            yield w
            w = fixed_mul(w, r, s)
            # r step, its integers shifted back to wp bits
            c, d = fixed_mul(r, step, 0)
            k = min(max(abs(c), abs(d)).bit_length() - wp, s + t)
            r, s = (c >> k, d >> k), s + t - k

    return walk(start, r, s)


def fixed_sum(sides, wp, what):
    """The sum of a series given as its sides, each a pair (scale, terms):
    the terms are pairs at wp, or None, and a pair x stands for the term
    scale (x_re + i x_im) 2^-wp, scale an mpc or (pair, shift).

    This is the one stopping rule of every series.  Each side stops after
    QUIET_RUN terms in a row at or below eps = 10^-(dps + 1) times the
    largest |term| of that side so far, or with ConvergenceError after
    SIDE_CAP terms; None adds nothing and does not count toward the run.
    Each side is judged on its own, so a side that rises to its peak from
    terms far below eps, or below another side's peak, is never small
    while it rises.  The test is relative to the largest term, not to the
    running sum: a sum that cancels, such as theta near a zero, cannot be
    more exact than eps times that term.  A side is summed exactly in
    integers, scaled and added at wp bits, and the total is returned at wp
    bits for the caller to round.  A side's scale should be about its first
    nonzero term, so that its integers keep about wp bits however small or
    large the terms are.
    """
    tens = 10 ** (2 * mp.dps + 2)  # 1/eps^2
    total = mpc(0)
    for scale, terms in sides:
        bound2 = 0  # eps^2 |largest pair of the side so far|^2, rounded down

        def marked(terms):
            nonlocal bound2
            for x in terms:
                if x is None:
                    continue
                size2 = x[0] * x[0] + x[1] * x[1]
                if size2 <= bound2:
                    yield x, True
                else:
                    bound2 = max(bound2, size2 // tens)
                    yield x, False

        re = im = 0
        for x in converging(marked(islice(terms, SIDE_CAP)), SIDE_CAP, what):
            re += x[0]
            im += x[1]
        with mp.workprec(wp):
            total += (from_fixed(fixed_mul(scale[0], (re, im), 0), scale[1] + wp)
                      if isinstance(scale, tuple) else scale * from_fixed((re, im), wp))
    return total


def fixed_product(starts, q, what):
    """The product over k >= 0 of prod_(c in starts) (1 - c q^k), |q| < 1,
    at wp = fixed_prec() bits for the caller to round: every infinite product.

    Each start walks by q on fixed_walk and the factors multiply on integer
    pairs, the running product raised back to wp bits whenever it falls
    below 1/2.  It stops by `converging` after QUIET_RUN factors in a row
    whose envelope over 1 - |q|, about the tail it drops, is below
    eps = 10^-(dps + 1).
    """
    wp = fixed_prec()
    one = 1 << wp
    # (eps (1 - |q|) 2^wp)^2, in floats
    eps2 = int(((1 << wp) / 10 ** (mp.dps + 1) * (1 - abs(complex(q)))) ** 2)
    with mp.workprec(wp):
        q = fixed_ratio(q, wp)
        pairs = [to_fixed(c, wp) for c in starts]
        # every walk shrinks by |q|, so the largest start's is the envelope
        lead = max(range(len(pairs)), key=lambda i: pairs[i][0] ** 2 + pairs[i][1] ** 2)
        walks = zip(*(fixed_walk(x, q, None, wp) for x in pairs))
        marked = ((walk, walk[lead][0] ** 2 + walk[lead][1] ** 2 < eps2) for walk in walks)
        prod, shift = (one, 0), wp
        for walk in converging(marked, 10 ** 6, what):
            for a, b in walk:
                prod = fixed_mul(prod, (one - a, -b), wp)
            prod, shift = fixed_raise(prod, shift, wp)
        return from_fixed(prod, shift)


def lattice_sum(term, center, phases, what, one_sided=False):
    """Sum of term(n, w_1, ..., w_k) over n in center + Z, where
    w_i = e(a_i y^2 + b_i y) at y = n + s_i for phases = ((a_i, b_i, s_i), ...):
    the front of every theta-type series on fixed_walk and fixed_sum.

    The walk runs down from `center`, then up from center + 1; `one_sided`
    takes n = center and then runs up only.  Each phase takes three
    exponentials, shared by the sides: w at `center`, rho = e(a (2 y + 1) + b)
    to center + 1 and the step e(2a); the down side walks from (w, step/rho),
    the up side from (w rho, rho step), by w <- w r, r <- r step on integers.
    A side starts at its first n whose term is not None, its phases advanced
    in mpc, and is scaled by w_1 there: `term` gets w_1 as a pair at
    wp = fixed_prec() relative to that scale, every other w_i as a pair at wp
    of its own value, and returns a pair in the units of the scale, or None.
    A side of None terms raises ConvergenceError after SIDE_CAP n; a phase
    should shrink the way its side walks, and a_i, b_i, s_i may be Fractions.
    The sides stop by fixed_sum's rule, and the total is rounded once.
    """
    wp = fixed_prec()
    sides = []
    with mp.workprec(wp):
        walks = []
        for a, b, s in phases:
            y, b = (fraction_mpf(x) if isinstance(x, Fraction) else x for x in (center + s, b))
            rho = e2pi(a * (2 * y + 1) + b)
            walks.append((e2pi(a * y * y + b * y), rho, e2pi(2 * a) if a else None))
        starts = [(center, 1, walks)] if one_sided else [
            (center, -1, [(w, (t or 1) / r, t) for w, r, t in walks]),
            (center + 1, 1, [(w * r, r * (t or 1), t) for w, r, t in walks])]
        for n, dn, walks in starts:
            for skipped in range(SIDE_CAP):
                pairs = [(1 << wp, 0)] * bool(walks) + [to_fixed(w, wp) for w, _, _ in walks[1:]]
                steps = [fixed_walk(x, r, t, wp) for x, (_, r, t) in zip(pairs, walks)]
                # each walk's first pair, its ratios read at wp bits here
                first = term(n, *map(next, steps))
                if first is not None:
                    break
                walks = [(w * r, r * (t or 1), t) for w, r, t in walks]
                n += dn
            # after SIDE_CAP None terms, first is None and fixed_sum raises
            rest = map(term, islice(count(n + dn, dn), SIDE_CAP - skipped - 1), *steps)
            sides.append((walks[0][0] if walks else mpc(1), chain([first], rest)))
    return +fixed_sum(sides, wp, what)


# ---------------------------------------------------------------------------
# the fundamental domain


def fold_guard(tau):
    """Guard digits for a value folded into F from tau; 0 if nothing folds.

    At Im tau >= sqrt(3)/2, the lowest height in F, a series converges as
    fast as anywhere in F and nothing moves.  Below it the fold's
    exponentials cost about a digit, and log10(1/Im tau) more near a cusp:
    3 + 2*floor(log10(1/Im tau)) digits, as measured for theta and mu-hat.
    """
    if 4 * tau.imag ** 2 >= 3:
        return 0
    return 3 + 2 * max(0, int(-mp.log10(tau.imag)))


def period_cell(x, tau):
    """(x0, k, l) with x = x0 + k tau + l and x0 in the period cell
    |Im x0| <= Im tau/2, |Re x0| <= 1/2 (for tau in F)."""
    k = int(mp.nint(x.imag / tau.imag))
    x = x - k * tau
    l = int(mp.nint(x.real))
    return x - l, k, l


def reduce_tau(tau, state, shift, invert, what):
    """Move tau into the fundamental domain, folding a transformation law
    over `state` at each step.

    Each translation tau -> tau - n calls state = shift(state, n), and
    each inversion tau -> -1/tau calls state = invert(state, -1/tau).
    Returns the reduced tau and the final state.
    """
    edge = 1 - mpf(10) ** (-mp.dps)
    for _ in range(10 ** 4):
        n = int(mp.nint(tau.real))
        if n != 0:
            tau = tau - n
            state = shift(state, n)
        if abs(tau) >= edge:
            return tau, state
        tau = -1 / tau
        state = invert(state, tau)
    raise ConvergenceError("%s reduction failed to terminate" % what)


# ---------------------------------------------------------------------------
# nested exp-sinh quadrature (Takahasi-Mori; Bailey-Jeyabalan-Li 2005)

# the finest level tried: step 2^-12
MAX_LEVEL = 12

_es_cache = {}


def exp_sinh_nodes(level):
    """The nodes that `level` adds to the exp-sinh rule on [0, inf).

    The rule substitutes t = exp(pi/2 sinh u) and sums over u = k h,
    h = 2^-level, with weight w = pi/2 cosh(u) t per unit step.  Level 1
    holds every u = k/2 != 0; each later level the odd multiples of its
    step, so level k together with the levels before it is the whole rule
    at step 2^-k.  Each node is (t, w); the node at -u is taken as 1/t, so
    nodes near 0 keep full relative precision.  The centre u = 0 (t = 1,
    w = pi/2) belongs to every level and is not listed.  Nodes stop where
    t < 2^-(prec + 11), and their mirrors where t > 2^(prec + 11).  Cached
    per (level, mp.prec); there are at most MAX_LEVEL levels.
    """
    key = (level, mp.prec)
    if key not in _es_cache:
        huge = mpf(2) ** (mp.prec + 11)
        step = mpf(2) ** (1 - level) if level > 1 else mpf(0.5)
        nodes = []
        with mp.extraprec(20):
            u = mpf(2) ** -level
            while True:
                e = mp.exp(u)
                t = mp.exp(mp.pi * (e - 1 / e) / 4)
                if t > huge:
                    break
                c = mp.pi * (e + 1 / e) / 4
                nodes += [(1 / t, c / t), (t, c * t)]
                u += step
        _es_cache[key] = tuple(nodes)
    return _es_cache[key]


def exp_sinh(f, cut, tol, what):
    """int_0^cut f by the nested exp-sinh rule on [0, inf): nodes t > cut
    are not evaluated, and the part beyond the cut is the caller's to
    bound.  The centre t = 1 is always evaluated.

    Level k reuses every value of the levels before it and adds the
    values at its new nodes.  The estimate I_k is returned as soon as
    |I_k - I_(k-1)| < tol; ConvergenceError if no level up to MAX_LEVEL
    settles.  The nodes crowd double-exponentially into t = 0, so a steep
    start costs no substitution; a singularity such as t^-1/2 is cut off
    below the last node, and the levels then do not settle to a tolerance
    near working precision.
    """
    total = mp.pi / 2 * f(mpf(1))
    last = None
    for level in range(1, MAX_LEVEL + 1):
        for t, w in exp_sinh_nodes(level):
            if t <= cut:
                total += w * f(t)
        estimate = total / 2 ** level
        if last is not None and abs(estimate - last) < tol:
            return estimate
        last = estimate
    raise ConvergenceError("%s failed to converge" % what)


# ---------------------------------------------------------------------------
# Gauss-Legendre panel quadrature
#
# No package code integrates with these any more; exp_sinh has replaced
# them.  They stay because the benchmark's span tracer and its tests look
# `adaptive_panels`, `gauss_legendre_nodes` and `_gl_cache` up through
# `eichler` and pin their call counts.  They go once the benchmark's spans
# move to the exp-sinh rule.

_gl_cache = {}


def gauss_legendre_nodes(n):
    """Nodes and weights for n-point Gauss-Legendre on [-1, 1]."""
    key = (n, mp.prec)
    if key in _gl_cache:
        return _gl_cache[key]
    nodes = []
    tol = mpf(10) ** (-(mp.dps + 4))
    for k in range(1, n // 2 + 1):
        x = mpf(math.cos(math.pi * (k - 0.25) / (n + 0.5)))
        for _ in range(60):
            p0, p1 = mpf(1), x
            for j in range(2, n + 1):
                p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
            dp = n * (x * p1 - p0) / (x * x - 1)
            dx = p1 / dp
            x -= dx
            if abs(dx) < tol:
                break
        w = 2 / ((1 - x * x) * dp * dp)
        nodes.append((x, w))
        nodes.append((-x, w))
    if n % 2:
        x = mpf(0)
        p0, p1 = mpf(1), x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        dp = n * (x * p1 - p0) / (x * x - 1)
        nodes.append((x, 2 / (dp * dp)))
    _gl_cache[key] = tuple(nodes)
    return _gl_cache[key]


def gl_panel(f, a, b, npts=24):
    """Gauss-Legendre estimate of int_a^b f."""
    half = (mpf(b) - a) / 2
    mid = (mpf(b) + a) / 2
    total = mpc(0)
    for x, w in gauss_legendre_nodes(npts):
        total += w * f(mid + half * x)
    return half * total


def _panels(f, cuts, npts):
    total = mpc(0)
    for a, b in zip(cuts[:-1], cuts[1:]):
        total += gl_panel(f, a, b, npts)
    return total


def _refine(cuts):
    out = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        out.extend([a, (a + b) / 2])
    out.append(cuts[-1])
    return out


def adaptive_panels(f, cuts, tol, npts=24, max_rounds=4):
    """Panel integration with uniform refinement until estimates settle."""
    cuts = [mpf(c) for c in cuts]
    best = _panels(f, cuts, npts)
    for _ in range(max_rounds):
        cuts = _refine(cuts)
        nxt = _panels(f, cuts, npts)
        if abs(nxt - best) < tol:
            return nxt
        best = nxt
    return best

"""The numeric core: working precision, series summation, the reduction to
the fundamental domain, and nested tanh-sinh quadrature.

Every other module of the package builds on these; this module imports
nothing from the package.  Numeric evaluation runs on mpmath's global
context, so the precision is whatever the caller set (`mp.workdps` is the
way to change it for a while); importing the package leaves it alone.
"""

import math
from fractions import Fraction
from itertools import islice

from mpmath import mp, mpc, mpf

DEFAULT_DPS = 16
MIN_DPS = 15

# a series stops after this many consecutive terms pass its stopping test
QUIET_RUN = 5


def series_eps():
    """Stop threshold for infinite sums: one digit below working precision."""
    return mp.mpf(10) ** (-(mp.dps + 1))


def fraction_mpf(x):
    """A rational (Fraction or int) as an mpf at the working precision."""
    x = Fraction(x)
    return mpf(x.numerator) / x.denominator


# ---------------------------------------------------------------------------
# series


def converging(pairs, cap, what):
    """The values of the (value, small) `pairs` up to the end of the first
    run of QUIET_RUN small ones in a row.

    The caller decides what "small" means (an absolute, envelope or
    relative test) and how the values combine; this owns the run count and
    the iteration cap.  RuntimeError if `cap` pairs, or all of them, pass
    without such a run.
    """
    quiet = 0
    for value, small in islice(pairs, cap):
        yield value
        quiet = quiet + 1 if small else 0
        if quiet >= QUIET_RUN:
            return
    raise RuntimeError("%s failed to converge" % what)


def sum_outward(down, up, cap, what):
    """Sum of a two-sided series given as two streams of (value, small)
    pairs: `down` runs from the centre down, `up` from the next index up.

    The down side is summed first; each side stops on its own quiet run,
    or raises after `cap` terms.
    """
    total = mpc(0)
    for side in (down, up):
        total = sum(converging(side, cap, what), total)
    return total


def e2pi(x):
    """exp(2*pi*i*x) for a real/complex number or a Fraction.

    Fractions are reduced mod 1 exactly first, so huge rational phases
    keep full precision.
    """
    if isinstance(x, Fraction):
        x = x % 1
        x = mpf(x.numerator) / x.denominator
    return mp.exp(2j * mp.pi * x)


def quadratic_phases(a, b, center):
    """e(a x^2 + b x), e(t) = exp(2 pi i t), over x in center + Z.

    Returns two generators: one yields x = center, center - 1, ..., the
    other x = center + 1, center + 2, ...  Each steps by the recurrence
    w <- w r, r <- r e(2a), where r is the ratio to the next term, so the
    whole series costs three exponentials and one multiplication pair per
    term.  a and b may be complex; center may be any real.
    """
    w = e2pi(a * center * center + b * center)
    rho = e2pi(a * (2 * center + 1) + b)  # w(center + 1) / w(center)
    step = e2pi(2 * a)

    def walk(w, r):
        while True:
            yield w
            w *= r
            r *= step

    return walk(w, step / rho), walk(w * rho, rho * step)


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
    l = int(mp.nint((x - k * tau).real))
    return x - k * tau - l, k, l


def reduce_tau(tau, state, shift, invert, what):
    """Move tau into the fundamental domain, folding a transformation law
    over `state` at each step.

    Each translation tau -> tau - n calls state = shift(state, n), and
    each inversion tau -> -1/tau calls state = invert(state, -1/tau).
    Returns the reduced tau and the final state.
    """
    for _ in range(10 ** 4):
        n = int(mp.nint(tau.real))
        if n != 0:
            tau = tau - n
            state = shift(state, n)
        if abs(tau) >= 1 - mpf(10) ** (-mp.dps):
            return tau, state
        tau = -1 / tau
        state = invert(state, tau)
    raise RuntimeError("%s reduction failed to terminate" % what)


# ---------------------------------------------------------------------------
# nested tanh-sinh quadrature (Takahasi-Mori; Bailey-Jeyabalan-Li 2005)

# the finest level tried: step 2^-12, about 27,000 integrand values at dps 16
MAX_LEVEL = 12

_ts_cache = {}


def tanh_sinh_nodes(level):
    """The nodes that `level` adds to the tanh-sinh rule on [0, 1].

    The rule substitutes y = (1 + tanh(pi/2 sinh t))/2 and sums over
    t = k h, h = 2^-level.  Level 1 holds every t = k/2 > 0; each later
    level the odd multiples of its step, so level k together with the
    levels before it is the whole rule at step 2^-k.  Each node is
    (s, w) with s = 1/(1 + exp(pi sinh t)), the distance of y from the
    nearer endpoint, kept as a distance so that it has full relative
    precision; it stands for y = s and y = 1 - s, each with weight
    w = pi cosh(t) s (1 - s) per unit step.  The centre t = 0 (y = 1/2,
    w = pi/4) belongs to every level and is not listed.  Nodes stop where
    s < 2^-(prec + 11).  Cached per (level, mp.prec); there are at most
    MAX_LEVEL levels.
    """
    key = (level, mp.prec)
    if key not in _ts_cache:
        tiny = mpf(2) ** -(mp.prec + 11)
        step = mpf(2) ** (1 - level) if level > 1 else mpf(0.5)
        nodes = []
        with mp.extraprec(20):
            t = mpf(2) ** -level
            while True:
                e = mp.exp(t)
                s = 1 / (1 + mp.exp(mp.pi * (e - 1 / e) / 2))
                if s < tiny:
                    break
                nodes.append((s, mp.pi * (e + 1 / e) / 2 * s * (1 - s)))
                t += step
        _ts_cache[key] = tuple(nodes)
    return _ts_cache[key]


def tanh_sinh(f, a, b, tol, what):
    """int_a^b f for real a < b by the nested tanh-sinh rule.

    Level k reuses every value of the levels before it and adds the
    values at its new nodes.  The estimate I_k is returned as soon as
    |I_k - I_(k-1)| < tol; RuntimeError if no level up to MAX_LEVEL
    settles.  The nodes crowd double-exponentially into both endpoints,
    so a steep start costs no substitution; a singularity such as
    |x - a|^-1/2 is cut off below the last node, and the levels then do
    not settle to a tolerance near working precision.
    """
    a = mpf(a)
    b = mpf(b)
    length = b - a
    total = mp.pi / 4 * f(a + length / 2)
    last = None
    for level in range(1, MAX_LEVEL + 1):
        for s, w in tanh_sinh_nodes(level):
            d = length * s
            total += w * (f(a + d) + f(b - d))
        estimate = length * total / 2 ** level
        if last is not None and abs(estimate - last) < tol:
            return estimate
        last = estimate
    raise RuntimeError("%s failed to converge" % what)


# ---------------------------------------------------------------------------
# Gauss-Legendre panel quadrature
#
# No package code integrates with these any more; tanh_sinh has replaced
# them.  They stay because the benchmark's span tracer and its tests look
# `adaptive_panels`, `gauss_legendre_nodes` and `_gl_cache` up through
# `eichler` and pin their call counts.  They go once the benchmark's spans
# move to the tanh-sinh rule.

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

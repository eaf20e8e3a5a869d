"""The numeric core: working precision, series summation, the reduction to
the fundamental domain, and Gauss-Legendre panel quadrature.

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
# Gauss-Legendre panel quadrature

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

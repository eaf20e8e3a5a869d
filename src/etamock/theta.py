"""Jacobi theta, unary theta g_{a,b}, and the eta-theta catalogue.

The catalogue covers the thirteen even weight-1/2 functions, the six odd
weight-3/2 functions, their partial-theta cousins on the lower half
plane with their radial limits at rationals (radial_limit), and the
bridging identities that express theta specializations as even catalogue
members and the odd members as combinations of g_{a,b}.  Each of the
nineteen is one EtaTheta record of ETA_THETA, keyed by its label; an odd
record carries its shadow pairs (a, b), from which c_m follows.  The
theta point of e_1..e_8 (theta_point) follows from n.
"""

import math
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from mpmath import mp, mpc

from .core import (SIDE_CAP, ConvergenceError, fixed_prec, fixed_product, fixed_scale, fold_guard,
                   fraction_mpf, lattice_sum, period_cell, reduce_tau)
from .qseries import (
    KERNEL_MEMO,
    FormalQSeries,
    e2pi,
    eta,
    eta_quotient_qexp,
    kronecker,
)

Fr = Fraction

# the weight of g_{a,b}, exact in binary at every precision
_THREE_HALVES = mp.mpf(1.5)


def jacobi_theta(v, tau, representation="product"):
    """Jacobi theta of characteristic (1/2, 1/2) at (v, tau).

    The default route folds (v, tau) before it multiplies.  When
    Im tau < sqrt(3)/2, tau goes into the fundamental domain F by the laws
    theta(v; tau + 1) = e(1/8) theta(v; tau) and theta(v/tau; -1/tau) =
    -i sqrt(-i tau) e^{pi i v^2/tau} theta(v; tau), with
    3 + 2*floor(log10(1/Im tau)) guard digits, so the value keeps working
    precision as Im tau shrinks.  Then v goes into the period cell
    |Re v| <= 1/2, |Im v| <= Im tau/2 by the elliptic shifts in v
    (Zwegers, thesis, Prop. 1.3).  The triple product then needs a few
    factors whatever Im tau was.  For Im tau >= sqrt(3)/2 (all of F) and
    v in the cell nothing moves, and the value is the bare product.

    The product is core.fixed_product, its exponentials q, e(v) and
    e(tau/8) from core.e2pi at wp = mp.prec + 20 bits, q and e(v) at the
    keys mu's series reads.  Its leading factor 1 - e(v) is taken out as
    -2i sin(pi v) e(v/2), so theta keeps its relative precision next to
    its zeros v in Z + tau Z, where nothing folds.

    The folded value is memoized, keyed by (v, tau, mp.prec), for the
    KERNEL_MEMO = 256 most recently used keys, as eta's is: the rows of
    the catalogue at one tau share a few theta(v_n; tau).

    representation="sum" runs the defining series with no reduction and
    never reads or fills the memo; it is the independent cross-check of
    the folded product.
    """
    v = mpc(v)
    tau = mpc(tau)
    if tau.imag <= 0:
        raise ValueError("tau must have positive imaginary part")
    if representation == "sum":
        return _theta_sum(v, tau)
    if representation != "product":
        raise ValueError("unknown representation {!r}".format(representation))
    return _theta_folded(v, tau, mp.prec)


@lru_cache(maxsize=KERNEL_MEMO)
def _theta_folded(v, tau, prec):
    # prec only keys the memo: the caller's mp.prec is prec
    guard = fold_guard(tau)
    factor = mpc(1)
    with mp.extradps(guard):
        if guard:
            tau, word = reduce_tau(tau, "theta")
            for n, sigma in word:
                if n != 0:
                    # theta(v; sigma + n) = e(n/8) theta(v; sigma)
                    factor *= e2pi(Fr(n, 8))
                if sigma is not None:
                    # theta(v; -1/sigma) = -i sqrt(-i sigma) e^{pi i v^2 sigma} theta(v sigma; sigma)
                    factor *= -1j * mp.sqrt(-1j * sigma) * mp.exp(1j * mp.pi * v * v * sigma)
                    v = v * sigma
        # v0 = v - lam tau - m in the period cell, with about log2(lam^2 |tau v|) guard bits
        with mp.extraprec(max(0, 2 * mp.mag(v.imag / tau.imag) + mp.mag(tau) + mp.mag(v))):
            v, lam, m = period_cell(v, tau)
            if lam or m:
                # theta(v + lam tau + m; tau)/theta(v; tau)
                factor *= (-1) ** (lam + m) * mp.exp(-1j * mp.pi * lam * (lam * tau + 2 * v))
        value = factor * _theta_product(v, tau)
    return +value


def _theta_product(v, tau):
    # the triple product, unreduced: about 1/Im(tau) factors on
    # core.fixed_product.  Its n = 1 factor 1 - zeta = -2i sin(pi v) e(v/2) is
    # taken out, so theta keeps its digits near its zeros:
    # theta = -2 q^{1/8} sin(pi v) prod_{n >= 1} (1 - q^n)(1 - zeta q^n)(1 - q^n/zeta)
    with mp.workprec(fixed_prec()):
        q = e2pi(tau)
        zeta = e2pi(v)
        starts = [c * q for c in (1, zeta, 1 / zeta)]
        head = -2 * e2pi(tau / 8) * mp.sin(mp.pi * v)
    # head and product at wp bits, their product rounded once
    return head * fixed_product(starts, q, "theta product")


def _theta_sum(v, tau):
    # e(nu (v + 1/2)) q^{nu^2/2} = e(tau nu^2/2 + (v + 1/2) nu) for nu = n + 1/2
    center = int(mp.nint(-v.imag / tau.imag - 0.5))
    return lattice_sum(lambda n, w: w, center, ((tau / 2, v + 0.5, mp.mpf(0.5)),), "theta sum")


def _g_direct(a, b, tau):
    """The sum of x e(b x) q^{x^2/2} = x e(tau x^2/2 + b x) over x in a + Z,
    for rationals a and b, at tau itself.

    A term on core.lattice_sum: x = k/d for the integer k = n d + c, c/d = a,
    and a term is the phase pair times k/d on integers, None at x = 0.  The
    walk runs from round(-a), nearest the phase's peak at x = 0, and each
    side is scaled at its first nonzero term, so its integers keep about wp
    bits however large Im tau is: at Im tau = 10^6 that term is e^(-pi 10^6).
    """
    a, b = Fr(a), Fr(b)
    c, d = a.numerator, a.denominator

    def term(n, w):
        k = n * d + c
        return (k * w[0] // d, k * w[1] // d) if k else None

    return lattice_sum(term, round(-a), ((tau / 2, b, a),), "unary theta sum")


def g_ab(spec, tau):
    """Unary theta g_{a,b}(tau) for spec = (a, b), read as Fractions.

    Reduces tau to the fundamental domain with the translation and
    inversion laws first, so the sum converges fast even for Im(tau)
    close to zero, with core.fold_guard(tau) guard digits, as theta and
    mu-hat take: at dps 16 it keeps about 1e-17 relative down to
    Im tau = 1e-10.  The sum in F is _g_direct, on Python integers, which
    keeps its digits at the Im tau in the millions that a fold from near a
    rational cusp can leave.
    """
    a, b = map(Fr, spec)
    tau = mpc(tau)
    if tau.imag <= 0:
        raise ValueError("tau must have positive imaginary part")

    with mp.extradps(fold_guard(tau)):
        tau, word = reduce_tau(tau, "unary theta")
        factor = mpc(1)
        for n, t in word:
            if n != 0:
                # g_{a,b}(t + n) = e^{-pi i n a(a+1)} g_{a, b + n(a+1/2)}(t)
                factor *= e2pi(Fr(-n) * a * (a + 1) / 2)
                b += n * (a + Fr(1, 2))
            if t is not None:
                # g_{a,b}(-1/t) = i e^{2 pi i a b} (-i t)^{3/2} g_{b,-a}(t)
                factor *= 1j * e2pi(a * b) * (-1j * t) ** _THREE_HALVES
                a, b = b, -a
        # normalize a mod 1 (free) and b mod 1 (costs the phase e(a*floor(b)))
        a = a - math.floor(a)
        kb = math.floor(b)
        if kb:
            factor *= e2pi(a * kb)
            b = b - kb
        value = factor * _g_direct(a, b, tau)
    return +value


HALF = Fr(1, 2)


@dataclass(frozen=True)
class EtaTheta:
    """One eta-theta function: prod eta(d tau)^e over its eta_quotient pairs
    (d, e) is sum chi(n) n^weight q^(n^2) over n >= 1, or over Z if over_z;
    weight is 0 for e_n (of weight 1/2) and 1 for E_m (3/2).  E_m = (c/2) sum
    e(-ab) g_{a,b}(c^2 tau/2) over its g_pairs (a, b), with c = c_m = 2
    denominator(a), the same for each pair: the n = nu c/2 of the sum for
    each nu in a + Z, and n^2 = nu^2 c^2/4."""

    eta_quotient: tuple
    chi: object
    over_z: bool = False
    weight: int = 0
    g_pairs: tuple = ()

    @property
    def c(self):
        return 2 * self.g_pairs[0][0].denominator


# Lemke Oliver's thirteen even and six odd eta-theta functions, by label
ETA_THETA = {
    "e1": EtaTheta(((1, 2), (2, -1)), lambda n: Fr((-1) ** n), over_z=True),
    "e2": EtaTheta(((2, 5), (1, -2), (4, -2)), lambda n: Fr(1), over_z=True),
    "e3": EtaTheta(((24, 1),), lambda n: Fr(kronecker(12, n))),
    "e4": EtaTheta(((48, 1), (72, 2), (24, -1), (144, -1)), lambda n: Fr(kronecker(n, 6) ** 2)),
    "e5": EtaTheta(((8, 1), (32, 1), (16, -1)), lambda n: Fr(kronecker(2, n))),
    "e6": EtaTheta(((16, 2), (8, -1)), lambda n: Fr(kronecker(n, 2) ** 2)),
    "e7": EtaTheta(((3, 1), (18, 2), (6, -1), (9, -1)),
                   lambda n: Fr(2 * kronecker(n, 6) ** 2 - kronecker(n, 3) ** 2)),
    "e8": EtaTheta(((6, 2), (9, 1), (36, 1), (3, -1), (12, -1), (18, -1)),
                   lambda n: Fr(kronecker(n, 3) ** 2)),
    "e9": EtaTheta(((48, 3), (24, -1), (96, -1)), lambda n: Fr(kronecker(24, n))),
    "e10": EtaTheta(((24, 1), (96, 1), (144, 5), (48, -2), (72, -2), (288, -2)),
                    lambda n: Fr(kronecker(18, n))),
    "e11": EtaTheta(((1, 1), (4, 1), (6, 2), (2, -1), (3, -1), (12, -1)),
                    lambda n: 1 - Fr(3, 2) * kronecker(n, 3) ** 2, over_z=True),
    "e12": EtaTheta(((2, 2), (3, 1), (1, -1), (6, -1)),
                    lambda n: 1 - 2 * Fr(kronecker(n, 2) ** 2) - Fr(3, 2) * kronecker(n, 3) ** 2
                    + 3 * Fr(kronecker(n, 6) ** 2), over_z=True),
    "e13": EtaTheta(((8, 2), (48, 1), (16, -1), (24, -1)),
                    lambda n: Fr(3 * kronecker(n, 6) ** 2 - 2 * kronecker(n, 2) ** 2)),
    "E1": EtaTheta(((8, 3),), lambda n: Fr(kronecker(-4, n)), weight=1,
                   g_pairs=((Fr(1, 4), Fr(0)),)),
    "E2": EtaTheta(((16, 9), (8, -3), (32, -3)), lambda n: Fr(kronecker(-2, n)), weight=1,
                   g_pairs=((Fr(1, 4), HALF),)),
    "E3": EtaTheta(((3, 2), (12, 2), (6, -1)), lambda n: Fr(kronecker(n, 3)), weight=1,
                   g_pairs=((Fr(1, 3), Fr(0)),)),
    "E4": EtaTheta(((48, 13), (24, -5), (96, -5)), lambda n: Fr(kronecker(-6, n)), weight=1,
                   g_pairs=((Fr(1, 12), HALF), (Fr(5, 12), HALF))),
    "E5": EtaTheta(((24, 5), (48, -2)), lambda n: Fr(kronecker(n, 12)), weight=1,
                   g_pairs=((Fr(1, 6), Fr(0)),)),
    "E6": EtaTheta(((6, 5), (3, -2)), lambda n: Fr(2 * kronecker(n, 12) - kronecker(n, 3)),
                   weight=1, g_pairs=((Fr(1, 3), HALF),)),
}


def _parse_label(label):
    """The record of an 'e7', 'E3', 'e_7' or ('even', 7) style label."""
    if isinstance(label, tuple):
        kind, index = label
        prefix = {"even": "e", "odd": "E"}.get(kind)
        key = "%s%d" % (prefix, index) if prefix and isinstance(index, int) else None
    else:
        s = str(label).replace("_", "")
        key = s[:1] + str(int(s[1:])) if s[1:].isdigit() else None
    if key not in ETA_THETA:
        raise ValueError("unknown eta-theta label {!r}".format(label))
    return ETA_THETA[key]


def eta_theta_eval(label, tau, representation="eta-quotient"):
    """Evaluate a catalogue member at tau via either representation."""
    rec = _parse_label(label)
    tau = mpc(tau)
    if representation == "eta-quotient":
        out = mpc(1)
        for scale, power in rec.eta_quotient:
            out *= eta(scale * tau) ** power
        return out
    if representation != "character-sum":
        raise ValueError("unknown representation {!r}".format(representation))
    # n runs over 0, 1, 2, ...; a chi summed over n >= 1 only has chi(0) = 0
    return _character_sum(lambda n: (rec.chi(n) + (rec.chi(-n) if rec.over_z and n else 0))
                          * n ** rec.weight, tau, "character sum")


def _character_sum(coefficient, tau, what):
    # sum over n >= 0 of coefficient(n) e(tau n^2), scaled at its first nonzero term
    def term(n, w):
        c = coefficient(n)
        return fixed_scale(c, w) if c else None

    return lattice_sum(term, 0, ((tau, 0, 0),), what, one_sided=True)


def eta_theta_qexp(label, order, representation="eta-quotient"):
    """Exact q-expansion of a catalogue member, truncated at `order`."""
    rec = _parse_label(label)
    order = Fraction(order)
    if representation == "eta-quotient":
        return eta_quotient_qexp(rec.eta_quotient, order)
    if representation != "character-sum":
        raise ValueError("unknown representation {!r}".format(representation))
    # every exponent is a square n^2, and only n^2 < order is kept
    bound = math.isqrt(math.ceil(order))
    rng = range(-bound if rec.over_z else 1, bound + 1)
    return FormalQSeries.from_terms([(n * n, rec.chi(n) * n ** rec.weight) for n in rng], order)


ThetaPoint = namedtuple("ThetaPoint", "coef shift pref power scale")


def theta_point(n):
    """theta(coef tau + shift; tau) = pref q^power e_n(scale tau) for e_n, n <= 8: coef
    is 1/2, 1/3, 1/4, 1/6 for n = 1-2, 3-4, 5-6, 7-8, shift is 0 for an odd n and -1/2
    for an even n, pref is -i at shift 0 and 1 at -1/2, power = -coef^2/2, and
    scale = 1/(2 d^2) for d the denominator of coef + 1/2."""
    if n not in range(1, 9):
        raise ValueError("only the first eight even members specialize")
    coef, shift = Fr(1, (2, 3, 4, 6)[(n - 1) // 2]), Fr(n % 2 - 1, 2)
    return ThetaPoint(coef, shift, 1 if shift else -1j, -coef ** 2 / 2,
                      Fr(1, 2 * (coef + HALF).denominator ** 2))


def theta_specialization_point(n, tau):
    """The theta argument (v, tau) matching even catalogue member n <= 8."""
    point, tau = theta_point(n), mpc(tau)
    return tau * point.coef.numerator / point.coef.denominator \
        + mpc(point.shift.numerator) / point.shift.denominator, tau


def e_from_theta(n, tau):
    """Right-hand side prefactor * q^power * e_n(scale*tau) for n <= 8.

    Matches jacobi_theta at the specialization point returned by
    theta_specialization_point.
    """
    point, tau = theta_point(n), mpc(tau)
    return point.pref * e2pi(tau * point.power) * eta_theta_eval(
        ("even", n), tau * point.scale.numerator / point.scale.denominator)


def E_from_g(m, tau):
    """Odd catalogue member m as its g_{a,b} combination."""
    tau = mpc(tau)
    return sum(c * g_ab(spec, scale * tau) for c, spec, scale in unary_theta_combination(m))


def unary_theta_combination(m):
    """The (c/2 e(-ab), (a, b), c^2/2) rows behind E_from_g, c = c_m."""
    rec = _parse_label(("odd", m))
    return [(rec.c // 2 * e2pi(-a * b), (a, b), rec.c ** 2 // 2) for a, b in rec.g_pairs]


def partial_theta(m, z):
    """Partial theta sum(chi_m(n) e^{-2 pi i z n^2}) on the lower half plane;
    ConvergenceError at once when its terms would need more than SIDE_CAP
    steps to fall below 10^-(dps+1)."""
    z = mpc(z)
    if z.imag >= 0:
        raise ValueError("partial theta needs Im(z) < 0")
    chi = _parse_label(("odd", m)).chi
    if mp.sqrt((mp.dps + 1) * mp.ln(10) / (2 * mp.pi * -z.imag)) > SIDE_CAP:
        raise ConvergenceError("partial theta failed to converge")
    return _character_sum(chi, -z, "partial theta")  # chi(0) = 0 for every odd record


def radial_limit(m, x):
    """The limit of partial_theta(m, -2(x + it)/c^2) as t -> 0+ at a rational x,
    c = c_m = 2 denominator(a) for the shadow pairs (a, b) of E_m.

    There the sum is sum C(n) e^{-n^2 s}, s = 4 pi t/c^2, C(n) = chi_m(n)
    e(2 x n^2/c^2), of period M = k c^2 at x = h/k.  If C has mean zero (an odd
    chi_m gives that), the limit is L(0, C) = -sum_{n<=M} C(n)(n/M - 1/2)
    (Lawrence and Zagier, Asian J. Math. 3, 1999), summed by phase mod 1 with
    exact Fraction coefficients and one e(r) per phase; else ValueError.
    """
    if isinstance(x, float):
        raise TypeError("a rational point must be exact; got float %r" % (x,))
    rec = _parse_label(("odd", m))
    h, k = Fr(x).numerator, Fr(x).denominator
    M = k * rec.c ** 2
    mean, coef = {}, {}
    for n in range(1, M + 1):
        c = rec.chi(n)
        if c:
            r = 2 * h * n * n % M
            mean[r] = mean.get(r, 0) + c
            coef[r] = coef.get(r, 0) + c * (2 * n - M)
    if abs(sum(fraction_mpf(c) * e2pi(Fr(r, M)) for r, c in mean.items() if c)) \
            > sum(map(abs, mean.values())) * mp.mpf(10) ** (4 - mp.dps):
        raise ValueError("chi_%d e(2 x n^2/c^2) has a nonzero mean at x = %s; "
                         "the partial theta has no radial limit there" % (m, Fr(x)))
    return -sum(fraction_mpf(c / (2 * M)) * e2pi(Fr(r, M)) for r, c in coef.items())

"""Jacobi theta, unary theta g_{a,b}, and the eta-theta catalogue.

The catalogue covers the thirteen even weight-1/2 functions, the six odd
weight-3/2 functions, their partial-theta cousins on the lower half
plane, and the bridging identities that express theta specializations as
even catalogue members and the odd members as combinations of g_{a,b}.
"""

import math
from fractions import Fraction
from itertools import count

from mpmath import mp, mpc

from .core import (converging, fold_guard, fraction_mpf, period_cell, quadratic_phases,
                   reduce_tau, series_eps, sum_outward)
from .qseries import (
    FormalQSeries,
    e2pi,
    eta,
    eta_multiplier,
    eta_quotient_qexp,
    kronecker,
)

Fr = Fraction


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

    representation="sum" runs the defining series with no reduction; it
    is the independent cross-check of the folded product.
    """
    v = mpc(v)
    tau = mpc(tau)
    if tau.imag <= 0:
        raise ValueError("tau must have positive imaginary part")
    if representation == "sum":
        return _theta_sum(v, tau)
    if representation != "product":
        raise ValueError("unknown representation {!r}".format(representation))

    def shift(state, n):
        # theta(v; sigma + n) = e(n/8) theta(v; sigma)
        factor, v = state
        return factor * e2pi(Fr(n, 8)), v

    def invert(state, sigma):
        # theta(v; -1/sigma) = -i sqrt(-i sigma) e^{pi i v^2 sigma} theta(v sigma; sigma)
        factor, v = state
        factor *= -1j * mp.sqrt(-1j * sigma) * mp.exp(1j * mp.pi * v * v * sigma)
        return factor, v * sigma

    guard = fold_guard(tau)
    factor = mpc(1)
    with mp.extradps(guard):
        if guard:
            tau, (factor, v) = reduce_tau(tau, (factor, v), shift, invert, "theta")
        # v = v0 + lam tau + m with v0 in the period cell
        v, lam, m = period_cell(v, tau)
        if lam or m:
            factor *= _elliptic_factor(v, tau, lam, m)
        value = factor * _theta_product(v, tau)
    return +value


def _elliptic_factor(v, tau, lam, m):
    """theta(v + lam*tau + m; tau) / theta(v; tau), for integers lam, m."""
    return (-1) ** (lam + m) * mp.exp(-1j * mp.pi * lam * (lam * tau + 2 * v))


def _theta_product(v, tau):
    # the triple product, unreduced: about 1/Im(tau) factors
    q = e2pi(tau)
    zeta = e2pi(v)
    eps = series_eps()
    big = max(abs(zeta), abs(1 / zeta), mp.one)

    def factors():
        qn = q
        while True:
            factor = (1 - qn) * (1 - zeta * qn) * (1 - qn / zeta)
            scale = abs(qn) * big
            qn *= q
            yield factor, scale < eps

    # the n = 1 factor (1 - zeta q^{n-1}) leads
    prod = math.prod(converging(factors(), 10 ** 6, "theta product"), start=mpc(1) - zeta)
    return -1j * e2pi(tau / 8) * mp.exp(-1j * mp.pi * v) * prod


def _theta_sum(v, tau):
    # e(nu (v + 1/2)) q^{nu^2/2} = e(tau nu^2/2 + (v + 1/2) nu) for nu = n + 1/2
    eps = series_eps()

    def terms(phases):
        for term in phases:
            yield term, abs(term) < eps

    center = int(mp.nint(-v.imag / tau.imag - 0.5))
    down, up = quadratic_phases(tau / 2, v + 0.5, center + mp.mpf(0.5))
    return sum_outward(terms(down), terms(up), 10 ** 5 + 1, "theta sum")


def jacobi_theta_transform(v, tau, lam, mu, gamma):
    """Predicted theta value at ((v+lam*tau+mu)/(c*tau+d), gamma*tau).

    Built from jacobi_theta(v, tau) with the elliptic shift law and the
    modular law with multiplier psi(gamma)^3; for comparison against
    direct evaluation at the transformed point.
    """
    v = mpc(v)
    tau = mpc(tau)
    w = v + lam * tau + mu
    pred = _elliptic_factor(v, tau, lam, mu) * jacobi_theta(v, tau)
    cd = gamma.c * tau + gamma.d
    psi3 = eta_multiplier(gamma).value() ** 3
    return psi3 * mp.sqrt(cd) * mp.exp(1j * mp.pi * gamma.c * w ** 2 / cd) * pred


def _g_direct(a, b, tau):
    af = fraction_mpf(a)
    bf = fraction_mpf(b)
    eps = series_eps()

    def terms(xs, phases):
        for x, w in zip(xs, phases):
            term = x * w
            yield term, abs(term) < eps

    # x e(b x) q^{x^2/2} = x e(tau x^2/2 + b x) over x in a + Z
    center = int(mp.nint(-af)) + af
    down, up = quadratic_phases(tau / 2, bf, center)
    return sum_outward(terms(count(center, -1), down), terms(count(center + 1), up),
                       10 ** 5 + 1, "unary theta sum")


def g_ab(spec, tau):
    """Unary theta g_{a,b}(tau) for spec = (a, b), read as Fractions.

    Reduces tau to the fundamental domain with the translation and
    inversion laws first, so the sum converges fast even for Im(tau)
    close to zero (needed by the period integrals).
    """
    a, b = map(Fr, spec)
    tau = mpc(tau)
    if tau.imag <= 0:
        raise ValueError("tau must have positive imaginary part")

    def shift(state, n):
        # g_{a,b}(sigma + n) = e^{-pi i n a(a+1)} g_{a, b + n(a+1/2)}(sigma)
        factor, a, b = state
        factor *= e2pi(Fr(-n) * a * (a + 1) / 2)
        return factor, a, b + n * (a + Fr(1, 2))

    def invert(state, t):
        # g_{a,b}(-1/t) = i e^{2 pi i a b} (-i t)^{3/2} g_{b,-a}(t)
        factor, a, b = state
        return factor * (1j * e2pi(a * b) * (-1j * t) ** mp.mpf("1.5")), b, -a

    tau, (factor, a, b) = reduce_tau(tau, (mpc(1), a, b), shift, invert, "unary theta")
    # normalize a mod 1 (free) and b mod 1 (costs the phase e(a*floor(b)))
    ka = math.floor(a)
    a = a - ka
    kb = math.floor(b)
    if kb:
        factor *= e2pi(a * kb)
        b = b - kb
    return factor * _g_direct(a, b, tau)


# even catalogue: eta-quotient factors, summation domain, character
_EVEN = {
    1: ([(1, 2), (2, -1)], "Z", lambda n: Fr((-1) ** n)),
    2: ([(2, 5), (1, -2), (4, -2)], "Z", lambda n: Fr(1)),
    3: ([(24, 1)], "N", lambda n: Fr(kronecker(12, n))),
    4: ([(48, 1), (72, 2), (24, -1), (144, -1)], "N", lambda n: Fr(kronecker(n, 6) ** 2)),
    5: ([(8, 1), (32, 1), (16, -1)], "N", lambda n: Fr(kronecker(2, n))),
    6: ([(16, 2), (8, -1)], "N", lambda n: Fr(kronecker(n, 2) ** 2)),
    7: ([(3, 1), (18, 2), (6, -1), (9, -1)], "N",
        lambda n: Fr(2 * kronecker(n, 6) ** 2 - kronecker(n, 3) ** 2)),
    8: ([(6, 2), (9, 1), (36, 1), (3, -1), (12, -1), (18, -1)], "N",
        lambda n: Fr(kronecker(n, 3) ** 2)),
    9: ([(48, 3), (24, -1), (96, -1)], "N", lambda n: Fr(kronecker(24, n))),
    10: ([(24, 1), (96, 1), (144, 5), (48, -2), (72, -2), (288, -2)], "N",
         lambda n: Fr(kronecker(18, n))),
    11: ([(1, 1), (4, 1), (6, 2), (2, -1), (3, -1), (12, -1)], "Z",
         lambda n: 1 - Fr(3, 2) * kronecker(n, 3) ** 2),
    12: ([(2, 2), (3, 1), (1, -1), (6, -1)], "Z",
         lambda n: 1 - 2 * Fr(kronecker(n, 2) ** 2) - Fr(3, 2) * kronecker(n, 3) ** 2
         + 3 * Fr(kronecker(n, 6) ** 2)),
    13: ([(8, 2), (48, 1), (16, -1), (24, -1)], "N",
         lambda n: Fr(3 * kronecker(n, 6) ** 2 - 2 * kronecker(n, 2) ** 2)),
}

# odd catalogue: eta-quotient factors, character (without the weight-n factor)
_ODD = {
    1: ([(8, 3)], lambda n: Fr(kronecker(-4, n))),
    2: ([(16, 9), (8, -3), (32, -3)], lambda n: Fr(kronecker(-2, n))),
    3: ([(3, 2), (12, 2), (6, -1)], lambda n: Fr(kronecker(n, 3))),
    4: ([(48, 13), (24, -5), (96, -5)], lambda n: Fr(kronecker(-6, n))),
    5: ([(24, 5), (48, -2)], lambda n: Fr(kronecker(n, 12))),
    6: ([(6, 5), (3, -2)], lambda n: Fr(2 * kronecker(n, 12) - kronecker(n, 3))),
}


def _parse_label(label):
    """Accept 'e7', 'E3', or ('even', 7) style labels."""
    if isinstance(label, tuple):
        kind, index = label
    else:
        s = str(label).replace("_", "")
        kind = "odd" if s[0] == "E" else "even"
        index = int(s[1:])
    if kind == "even" and index in _EVEN:
        return kind, index
    if kind == "odd" and index in _ODD:
        return kind, index
    raise ValueError("unknown eta-theta label {!r}".format(label))


def eta_theta_eval(label, tau, representation="eta-quotient"):
    """Evaluate a catalogue member at tau via either representation."""
    kind, index = _parse_label(label)
    tau = mpc(tau)
    if representation == "eta-quotient":
        factors = _EVEN[index][0] if kind == "even" else _ODD[index][0]
        out = mpc(1)
        for scale, power in factors:
            out *= eta(scale * tau) ** power
        return out
    if representation != "character-sum":
        raise ValueError("unknown representation {!r}".format(representation))
    eps = series_eps()
    if kind == "even":
        _, domain, chi = _EVEN[index]
        weight = 0
    else:
        _, chi = _ODD[index]
        domain, weight = "N", 1
    total = mpc(0) if kind == "odd" or domain == "N" else mpc(1)  # n = 0 term
    if kind == "even" and domain == "Z":
        total = mpc(chi(0).numerator) / chi(0).denominator

    _, squares = quadratic_phases(tau, 0, 0)

    def terms():
        for n, qn in zip(range(1, 10 ** 5), squares):
            c = chi(n) + (chi(-n) if domain == "Z" else 0)
            term = (mpc(c.numerator) / c.denominator) * (n ** weight) * qn if c else None
            yield term, abs(qn) * max(n, 1) < eps

    # None stands for a zero coefficient: nothing to add
    return sum(filter(None, converging(terms(), 10 ** 5, "character sum")), total)


def eta_theta_qexp(label, order, representation="eta-quotient"):
    """Exact q-expansion of a catalogue member, truncated at `order`."""
    kind, index = _parse_label(label)
    order = Fraction(order)
    if representation == "eta-quotient":
        factors = _EVEN[index][0] if kind == "even" else _ODD[index][0]
        return eta_quotient_qexp(factors, order)
    if representation != "character-sum":
        raise ValueError("unknown representation {!r}".format(representation))
    # every exponent is a square n^2, and only n^2 < order is kept
    bound = math.isqrt(math.ceil(order))
    pairs = []
    if kind == "even":
        _, domain, chi = _EVEN[index]
        rng = range(-bound, bound + 1) if domain == "Z" else range(1, bound + 1)
        pairs = [(n * n, chi(n)) for n in rng]
    else:
        _, chi = _ODD[index]
        pairs = [(n * n, chi(n) * n) for n in range(1, bound + 1)]
    return FormalQSeries.from_terms(pairs, order)


# Lemma-style theta specializations: each even label e_n for n <= 8 equals
# prefactor * q^power * e_n(scale * tau) with theta argument coef*tau + shift.
_THETA_ROWS = {
    1: (Fr(1, 2), Fr(0), -1j, Fr(-1, 8), Fr(1, 2)),
    2: (Fr(1, 2), Fr(-1, 2), 1, Fr(-1, 8), Fr(1, 2)),
    3: (Fr(1, 3), Fr(0), -1j, Fr(-1, 18), Fr(1, 72)),
    4: (Fr(1, 3), Fr(-1, 2), 1, Fr(-1, 18), Fr(1, 72)),
    5: (Fr(1, 4), Fr(0), -1j, Fr(-1, 32), Fr(1, 32)),
    6: (Fr(1, 4), Fr(-1, 2), 1, Fr(-1, 32), Fr(1, 32)),
    7: (Fr(1, 6), Fr(0), -1j, Fr(-1, 72), Fr(1, 18)),
    8: (Fr(1, 6), Fr(-1, 2), 1, Fr(-1, 72), Fr(1, 18)),
}


def theta_specialization_point(n, tau):
    """The theta argument (v, tau) matching even catalogue member n <= 8."""
    coef, shift, _, _, _ = _THETA_ROWS[n]
    tau = mpc(tau)
    return tau * coef.numerator / coef.denominator + mpc(shift.numerator) / shift.denominator, tau


def e_from_theta(n, tau):
    """Right-hand side prefactor * q^power * e_n(scale*tau) for n <= 8.

    Matches jacobi_theta at the specialization point returned by
    theta_specialization_point.
    """
    if n not in _THETA_ROWS:
        raise ValueError("only the first eight even members specialize")
    _, _, pref, qpow, scale = _THETA_ROWS[n]
    tau = mpc(tau)
    return pref * e2pi(tau * qpow) * eta_theta_eval(("even", n), tau * scale.numerator / scale.denominator)


# odd members as phase-weighted g_{a,b} combinations: (coeff, phase, (a,b), scale)
_G_ROWS = {
    1: [(4, Fr(0), (Fr(1, 4), Fr(0)), 32)],
    2: [(4, Fr(-1, 8), (Fr(1, 4), Fr(1, 2)), 32)],
    3: [(3, Fr(0), (Fr(1, 3), Fr(0)), 18)],
    4: [(12, Fr(-1, 24), (Fr(1, 12), Fr(1, 2)), 288),
        (12, Fr(-5, 24), (Fr(5, 12), Fr(1, 2)), 288)],
    5: [(6, Fr(0), (Fr(1, 6), Fr(0)), 72)],
    6: [(3, Fr(-1, 6), (Fr(1, 3), Fr(1, 2)), 18)],
}


def E_from_g(m, tau):
    """Odd catalogue member m as its g_{a,b} combination."""
    tau = mpc(tau)
    total = mpc(0)
    for coeff, phase, spec, scale in _G_ROWS[m]:
        total += coeff * e2pi(phase) * g_ab(spec, scale * tau)
    return total


def unary_theta_combination(m):
    """The (coeff*e(phase), (a,b), scale) table behind E_from_g."""
    return [(c * e2pi(ph), spec, scale) for c, ph, spec, scale in _G_ROWS[m]]


def partial_theta(m, z):
    """Partial theta sum(chi_m(n) e^{-2 pi i z n^2}) on the lower half plane."""
    z = mpc(z)
    if z.imag >= 0:
        raise ValueError("partial theta needs Im(z) < 0")
    _, chi = _ODD[m]
    eps = series_eps()
    _, squares = quadratic_phases(-z, 0, 0)

    def terms():
        for n, w in zip(range(1, 10 ** 5), squares):
            c = chi(n)
            yield (mpc(c.numerator) / c.denominator) * w if c else None, abs(w) < eps

    return sum(filter(None, converging(terms(), 10 ** 5, "partial theta")), mpc(0))

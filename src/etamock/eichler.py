"""Period integrals and the verification drivers of the catalogue.

The workhorse is ray_integral, which integrates G(z)/sqrt(-i(z+tau))
along the vertical path from a start point up to i*infinity.  The finite
part uses Gauss-Legendre panels (t = s^2 near the start to tame the
kernel, then geometrically growing panels), and the far tail is bounded
analytically using the exponential decay rate of G.

On top of it sit the drivers that check the period-integral identities
of the catalogue, the I/J decomposition of Table 2, the corollary at
rationals and the partial-theta radial limits.  The Theorem 1.2 checks
evaluate their finite side with quantum.two_term_law, the same law that
gives quantum.integral_identity_rhs.  Table 2 is one formula over a
six-row table of prefactors and Mordell offsets; the ray combinations
come from the g_{a,b} rows of theta.  This is the top numeric layer: it
imports from the modules below it, and only the command line and the
package namespace import it.
"""

import math
from fractions import Fraction

from mpmath import mp, mpc, mpf

# the quadrature lives in core; its names stay importable from here too
from .core import (_gl_cache, adaptive_panels, fraction_mpf,  # noqa: F401
                   gauss_legendre_nodes)
from .qseries import e2pi
from .theta import _G_ROWS, E_from_g, g_ab, partial_theta, unary_theta_combination
from .mu import mordell_h
from .vmn import base_label, normalize_label, vmn_eval_mu
from .quantum import (ELL, ROOT_A, ROOT_C, SHIFT_B, as_fraction, in_quantum_set,
                      integral_identity_rhs, kappa, two_term_law, vmn_any)


def ray_integral(G, z0, tau, decay, tol=None):
    """int_{z0}^{i inf} G(z)/sqrt(-i(z+tau)) dz along the vertical path.

    `decay`: G(z0 + it) = O(e^{-pi*decay*t}); sets the truncation height.
    The start segment is parametrized t = s^2 so a 1/sqrt kernel at the
    endpoint is absorbed; the tail beyond the truncation height is
    bounded by the decay rate and dropped once negligible.
    """
    z0 = mpc(z0)
    tau = mpc(tau)
    if tol is None:
        tol = mpf(10) ** (-(mp.dps - 3))
    S = mp.log(10) * (mp.dps + 4)
    T = max(4, S / (mp.pi * decay), 4 * abs(tau) + 4)

    def integrand(t):
        z = z0 + 1j * t
        return 1j * G(z) / mp.sqrt(-1j * (z + tau))

    # t in [0, 1] via t = s^2, dt = 2s ds
    head = adaptive_panels(lambda s: integrand(s * s) * 2 * s, [0, mpf(0.5), 1], tol / 2)
    cuts = [mpf(1)]
    while cuts[-1] < T:
        cuts.append(min(2 * cuts[-1], mpf(T)))
    body = adaptive_panels(integrand, cuts, tol / 2)
    # tail bound: |G| <= C e^{-pi*decay*t} with C measured at T, kernel >= sqrt(t/2)
    gT = abs(G(z0 + 1j * mpf(T)))
    tail_bound = gT * mp.sqrt(2) / (mp.pi * decay * mp.sqrt(T))
    if tail_bound > tol:
        extra_cuts = [mpf(T)]
        T2 = T + S / (mp.pi * decay)
        while extra_cuts[-1] < T2:
            extra_cuts.append(min(2 * extra_cuts[-1], mpf(T2)))
        body += adaptive_panels(integrand, extra_cuts, tol / 2)
    return head + body


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


# ---------------------------------------------------------------------------
# drivers for the period-integral identities of the catalogue


def E_ray_integral(m, z0, x, tol=None):
    """int_{z0}^{i inf} E_m(2u/c_m^2)/sqrt(-i(u+x)) du, one unary component
    at a time so each gets its own decay rate."""
    base = base_label(normalize_label(m))
    c = ROOT_C[base]
    factor = Fraction(2, c * c)
    total = mpc(0)
    for coeff, spec, scale in unary_theta_combination(int(base)):
        eff = Fraction(scale) * factor
        total += coeff * unary_ray_integral(spec, z0, x, scale=eff, tol=tol)
    return total


_lhs_cache = {}


def integral_identity_lhs(m, x, endpoint=None):
    """-(i/c_m) int_{endpoint}^{i inf} E_m(2u/c_m^2)/sqrt(-i(u+x)) du.

    The default endpoint is 1/2 for the families with ell = 2 and 1 for
    those with ell = 1.
    """
    base = base_label(normalize_label(m))
    if endpoint is None:
        endpoint = Fraction(1, ELL[base])
    key = (base, str(endpoint), str(x), mp.dps)
    if key not in _lhs_cache:
        c = ROOT_C[base]
        xv = fraction_mpf(x) if isinstance(x, (Fraction, int)) else mpc(x)
        _lhs_cache[key] = -1j / c * E_ray_integral(base, fraction_mpf(endpoint), xv)
    return _lhs_cache[key]


def verify_thm12_i(m, n, x):
    """Residual of: V(x) + i^ell (2x+1)^(-1/2) V(x/(2x+1)) equals the
    ray integral from 1/2."""
    base = base_label(normalize_label(m))
    lhs = two_term_law(lambda y: vmn_any(m, n, y), x, 2, e2pi(Fraction(ELL[base], 4)))
    return abs(lhs - integral_identity_lhs(base, x, endpoint=Fraction(1, 2)))


def verify_thm12_ii(m, x):
    """Residual of the first-column variant with x -> x/(x+1) and the ray
    from 1; defined for the even families 2, 4, 6."""
    base = base_label(normalize_label(m))
    if base not in ("2", "4", "6"):
        raise ValueError("this variant needs an even family, got %r" % (m,))
    lhs = two_term_law(lambda y: vmn_any(base, 1, y), x, 1, -e2pi(Fraction(-1, 8)))
    return abs(lhs - integral_identity_lhs(base, x, endpoint=Fraction(1)))


def verify_thm12_iii(m, n, x):
    """Residual of V(x) - zeta_a^kappa V(x + kappa b) = 0."""
    base = base_label(normalize_label(m))
    kap = kappa(base, n)
    root = e2pi(Fraction(kap, ROOT_A[base]))
    x = Fraction(x) if isinstance(x, (Fraction, int)) else mpc(x)
    return abs(vmn_any(m, n, x) - root * vmn_any(m, n, x + kap * SHIFT_B[base]))


# ---------------------------------------------------------------------------
# the I/J decomposition of the completed transformation


def _g_combo_ray(pairs, z0, tau, tol=None):
    """int of (sum coeff * g_spec(u)) / sqrt(-i(u+tau)) from z0 upward."""
    decay = min(g_decay_rate(spec[0]) for _, spec in pairs)

    def G(z):
        return sum(c * g_ab(spec, z) for c, spec in pairs)

    return ray_integral(G, z0, tau, decay, tol=tol)


# Table 2, one row per family: the phases of the prefactors P_I = e(.)/2
# and P_J = e(.)/2, and the offsets of the Mordell integrals.  The rest
# follows from ell = ELL[m] and the g_{a,b} combination of E_m.
_TABLE2 = {
    "1": (Fraction(1, 8), Fraction(-1, 4), (Fraction(1, 4),)),
    "2": (Fraction(0), Fraction(5, 8), (Fraction(1, 4),)),
    "3": (Fraction(1, 6), Fraction(-1, 4), (Fraction(1, 6),)),
    "4": (Fraction(0), Fraction(5, 8), (Fraction(5, 12), Fraction(1, 12))),
    "5": (Fraction(1, 12), Fraction(-1, 4), (Fraction(1, 3),)),
    "6": (Fraction(0), Fraction(5, 8), (Fraction(1, 6),)),
}


def _mordell_piece(alpha, beta, tau):
    """e(-alpha^2 tau/2) h(alpha tau - beta; tau)."""
    return e2pi(-alpha * alpha * tau / 2) * mordell_h(alpha * tau - fraction_mpf(beta), tau)


def table2_terms(m, tau):
    """Both printed forms of the I and J pieces for the first column.

    With tau' = -1/tau - ell and a = (ell - 1)/2, the closed forms are
        I = P_I sqrt(-i tau') sum_off e(-a^2 tau'/2) h(a tau' + off; tau'),
        J = P_J sqrt(ell tau + 1) sum_off e(-off^2 tau/2) h(off tau - a; tau),
    and the quadrature forms integrate G = E_m(u/scale)/coeff (the g_{a,b}
    combination of E_m over its first integer coefficient) from 0 and 1/ell:
        I = P (ray(1/ell) - ray(0)) + C,  J = P ray(0) - C,
    with P = (i/2) e((2 - ell)/8) sqrt(ell tau + 1) and
    C = (i/2) (ell - 1) sqrt(-i tau').
    """
    base = base_label(normalize_label(m))
    phase_i, phase_j, offsets = _TABLE2[base]
    ell = ELL[base]
    a = Fraction(ell - 1, 2)
    tau = mpc(tau)
    tau1 = -1 / tau - ell
    root, root1 = mp.sqrt(ell * tau + 1), mp.sqrt(-1j * tau1)
    rows = _G_ROWS[int(base)]
    pairs = [(coeff * e2pi(phase) / rows[0][0], spec) for coeff, phase, spec, _ in rows]
    ray0 = _g_combo_ray(pairs, mpf(0), tau)
    ray1 = _g_combo_ray(pairs, fraction_mpf(Fraction(1, ell)), tau)
    pref = 0.5j * e2pi(Fraction(2 - ell, 8)) * root
    corr = 0.5j * (ell - 1) * root1
    return {
        "I_closed": e2pi(phase_i) / 2 * root1
        * sum(_mordell_piece(a, -off, tau1) for off in offsets),
        "I_quad": pref * (ray1 - ray0) + corr,
        "J_closed": e2pi(phase_j) / 2 * root
        * sum(_mordell_piece(off, a, tau) for off in offsets),
        "J_quad": pref * ray0 - corr,
    }


def verify_table2(m, tau):
    """Residuals: closed vs quadrature for I and J, and the completed
    transformation they decompose."""
    base = base_label(normalize_label(m))
    tau = mpc(tau)
    parts = table2_terms(base, tau)
    ell = ELL[base]
    mat_tau = tau / (ell * tau + 1)
    lhs = vmn_eval_mu(base, 1, mat_tau)
    rhs = e2pi(Fraction(2 - ell, 8)) * mp.sqrt(ell * tau + 1) \
        * vmn_eval_mu(base, 1, tau) \
        + parts["I_closed"] + parts["J_closed"]
    return {
        "I": abs(parts["I_closed"] - parts["I_quad"]),
        "J": abs(parts["J_closed"] - parts["J_quad"]),
        "functional_equation": abs(lhs - rhs),
    }


# ---------------------------------------------------------------------------
# partial theta asymptotics toward the rational line


def partial_theta_radial(m, x, ts):
    """Values of the partial theta at -2(x+it)/c_m^2 for each t in ts."""
    base = base_label(normalize_label(m))
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
    base = base_label(normalize_label(m))
    tau0 = mpc(tau0)
    z0 = -mp.conj(tau0)
    raw = ray_integral(lambda z: E_from_g(int(base), z), z0, tau0, decay=2)
    return raw / e2pi(Fraction(1, 8))


def radial_proportionality(m, n, x, ts=(0.05, 0.02, 0.01), anchor_ts=None):
    """Fitted constant and residuals for the partial-theta radial limit.

    The limit of the partial theta along x + it is estimated by Richardson
    extrapolation at the two anchor heights (by default the two finest
    heights in ts), the constant is that limit divided by the
    rational-point value of the catalogue entry, and the residuals are
    reported at the heights in ts.  The constant is fitted, never
    asserted; the informative content is the decrease of the residuals.
    """
    t1, t2 = anchor_ts if anchor_ts is not None else ts[-2:]
    a1, a2 = partial_theta_radial(m, x, (t1, t2))
    limit = (t1 * a2 - t2 * a1) / (t1 - t2)
    V = vmn_any(m, n, Fraction(x))
    const = limit / V
    vals = partial_theta_radial(m, x, ts)
    residuals = [abs(v - const * V) for v in vals]
    return const, residuals


def eichler_integral(theta, lower, target, tol=None):
    """Generic ray integral against the 1/sqrt kernel.

    theta: an (a, b) pair for a unary component at scale 1, or a family
    label for the weight 3/2 combination at its 2/c_m^2 rescaling.
    lower: a real number or the string "-conj" for minus the conjugate
    of the target.
    """
    target = mpc(target)
    if lower == "-conj":
        z0 = -mp.conj(target)
    else:
        z0 = mpc(fraction_mpf(lower)) if isinstance(lower, (int, Fraction)) else mpc(lower)
    if isinstance(theta, tuple):
        return unary_ray_integral(theta, z0, target, tol=tol)
    return E_ray_integral(theta, z0, target, tol=tol)


def corollary_check(m, x):
    """Quadrature and finite-sum sides of the period identity at a rational.

    Returns (lhs, rhs, residual): lhs is the weighted ray integral, rhs
    the closed q-hypergeometric expression.  The identity holds on the
    quantum set of the family's first column; elsewhere this raises
    ValueError.
    """
    base = base_label(normalize_label(m))
    x = as_fraction(x)
    if not in_quantum_set(base, 1, x):
        raise ValueError("%s is outside the quantum set of row (%s, 1)"
                         % (x, base))
    lhs = integral_identity_lhs(base, x)
    rhs = integral_identity_rhs(base, x)
    return lhs, rhs, abs(lhs - rhs)

"""The checks of the paper's claims: their residuals, default tolerances and names.

The drivers check Theorem 1.2 as one law, quantum.two_term_law: zero at
the row's translation (iii), a ray integral of E_m at M_2 (i) and at M_1
(ii).  Table 2's I/J split (read off the shadow pairs of E_m) decomposes
the completed law at M_ell; the corollary is that law's ray identity at
rationals.  Each root is the row's multiplier; Theorem 1.1's driver,
vmn.verify_thm11, stays next to the completion it checks.
The e_n, E_m and V_{m,n} route residuals serve `eval --crosscheck` and suites.
The suite `radial` checks that E_m's partial theta tends to 2 conj(V_m1(x))
at a rational x, and `columns` that V_mn - V_m1 is a theta quotient and a product.

A suite is called as suite(report, rng, samples, **given).  It adds each
check with report.add_check(name, residual, default tolerance), and
names as keyword parameters the command-line options it takes.
"""

from fractions import Fraction

from mpmath import mp, mpc, mpf

from .core import fraction_mpf
from .qseries import e2pi
from .theta import (E_from_g, e_from_theta, eta_theta_eval, jacobi_theta, radial_limit,
                    theta_specialization_point)
from .mu import MabSpec, g_complement, kang_pair, mordell_h, mu, xi_shadow
from .vmn import (_SHADOW, FAMILIES, all_rows, family, fmn_product_form, fmn_theta_quotient,
                  group_sample, parts, transformation_root, verify_thm11, vmn_eval_mu,
                  vmn_eval_series, vmn_spec)
from .quantum import (ELL, M_ell, as_fraction, companion_sum, group_generators,
                      in_quantum_set, integral_identity_rhs, mobius_rational, two_term_law,
                      vm1_at_rational, vmn_any)
from .eichler import integral_identity_lhs, shadow_ray_integral, unary_ray_integral


# ---------------------------------------------------------------------------
# the period-integral identities of Theorem 1.2


def _period_residual(m, n, gamma, x):
    """|L(x) - the ray integral from 1/c| for the law at gamma = M_c."""
    base = family(m)
    law = two_term_law(lambda y: vmn_any(base, n, y), base, n, gamma, x)
    return abs(law - integral_identity_lhs(base, x, endpoint=Fraction(1, gamma.c)))


def verify_thm12_i(m, n, x):
    """Residual of (i): the law of row (m, n) at M_2 equals the ray
    integral from 1/2."""
    return _period_residual(m, n, M_ell(2), x)


def verify_thm12_ii(m, x):
    """Residual of (ii): the law of the first column at M_1 equals the ray
    integral from 1; defined for the even families 2, 4, 6."""
    if ELL[family(m)] != 1:
        raise ValueError("this variant needs an even family, got %r" % (m,))
    return _period_residual(m, 1, M_ell(1), x)


def verify_thm12_iii(m, n, x):
    """Residual of (iii): the law of row (m, n) at its translation
    T^lcm(N, 2), V(x) - conj(nu) V(x + lcm(N, 2)), vanishes."""
    return abs(two_term_law(lambda y: vmn_any(m, n, y), m, n, group_generators(m, n)[1], x))


# ---------------------------------------------------------------------------
# the I/J decomposition of the completed transformation


def _mordell_piece(alpha, beta, tau):
    """e(-alpha^2 tau/2) h(alpha tau - beta; tau)."""
    return e2pi(-alpha * alpha * tau / 2) * mordell_h(alpha * tau - fraction_mpf(beta), tau)


def _table2_row(m):
    """Table 2's row of family m: (phase of P_I, phase of P_J, offsets)."""
    ell = ELL[m]
    pairs = [_SHADOW[p] for p in parts(m)]
    return (pairs[0][0] * (ell - 1) / 2, Fraction(ell - 4, 8),
            tuple(Fraction(1, 2) - a for a, _ in pairs))


def table2_terms(m, tau):
    """Both printed forms of the I and J pieces for the first column.

    With tau' = -1/tau - ell and A = (ell - 1)/2, the closed forms are
        I = P_I sqrt(-i tau') sum_off e(-A^2 tau'/2) h(A tau' + off; tau'),
        J = P_J sqrt(ell tau + 1) sum_off e(-off^2 tau/2) h(off tau - A; tau),
    and the quadrature forms take ray(z0) = shadow_ray_integral(m, z0, tau)
    from 0 and 1/ell:
        I = P (ray(1/ell) - ray(0)) + C,  J = P ray(0) - C,
    with P = (i/2) nu sqrt(ell tau + 1), nu = e((2 - ell)/8) the multiplier
    at M_ell, and C = (i/2) (ell - 1) sqrt(-i tau').  Each shadow pair (a, b) of E_m, with
    b = 1/2 - A, has the ray from 0 -e(alpha b) e(-alpha^2 tau/2)
    h(alpha tau - b + 1/2; tau), alpha = a - 1/2 (Zwegers, thesis, Thm 1.16;
    at b = 0 it adds 1/sqrt(-i tau), which C takes back).  Table 2 follows:
    the offset of a pair is 1/2 - a = -alpha, as h is even; P_J's phase
    (ell - 4)/8 is that of -P times e(-ab) e(alpha b) = e(-b/2); P_I's phase
    a (ell - 1)/2, a of the first pair, is e(alpha (beta + 1/2)) at alpha = A,
    beta = -off, for I's Mordell integral at tau'.
    """
    base = family(m)
    phase_i, phase_j, offsets = _table2_row(base)
    ell = ELL[base]
    nu = transformation_root(base, 1, M_ell(ell)).value()
    A = Fraction(ell - 1, 2)
    tau = mpc(tau)
    tau1 = -1 / tau - ell
    root, root1 = mp.sqrt(ell * tau + 1), mp.sqrt(-1j * tau1)
    ray0 = shadow_ray_integral(base, Fraction(0), tau)
    ray1 = shadow_ray_integral(base, Fraction(1, ell), tau)
    pref = 0.5j * nu * root
    corr = 0.5j * (ell - 1) * root1
    return {
        "I_closed": e2pi(phase_i) / 2 * root1
        * sum(_mordell_piece(A, -off, tau1) for off in offsets),
        "I_quad": pref * (ray1 - ray0) + corr,
        "J_closed": e2pi(phase_j) / 2 * root
        * sum(_mordell_piece(off, A, tau) for off in offsets),
        "J_quad": pref * ray0 - corr,
    }


def verify_table2(m, tau):
    """Residuals: closed vs quadrature for I and J, and the completed
    transformation they decompose, V(M_ell tau) = nu sqrt(ell tau + 1) V(tau)
    + I + J."""
    base = family(m)
    tau = mpc(tau)
    terms = table2_terms(base, tau)
    gamma = M_ell(ELL[base])
    lhs = vmn_eval_mu(base, 1, gamma.act(tau))
    rhs = transformation_root(base, 1, gamma).value() * mp.sqrt(gamma.c * tau + 1) \
        * vmn_eval_mu(base, 1, tau) + terms["I_closed"] + terms["J_closed"]
    return {
        "I": abs(terms["I_closed"] - terms["I_quad"]),
        "J": abs(terms["J_closed"] - terms["J_quad"]),
        "functional_equation": abs(lhs - rhs),
    }


# ---------------------------------------------------------------------------
# the corollary at rationals


def corollary_check(m, x):
    """Quadrature and finite-sum sides of the period identity at a rational.

    Returns (lhs, rhs, residual): lhs is the weighted ray integral, rhs
    the closed q-hypergeometric expression.  The identity holds on the
    quantum set of the family's first column; elsewhere this raises
    ValueError.
    """
    base = family(m)
    x = as_fraction(x)
    if not in_quantum_set(base, 1, x):
        raise ValueError("%s is outside the quantum set of row (%s, 1)"
                         % (x, base))
    lhs = integral_identity_lhs(base, x)
    rhs = integral_identity_rhs(base, x)
    return lhs, rhs, abs(lhs - rhs)


# ---------------------------------------------------------------------------
# residuals between the two routes to one value


def e_route_residual(n, tau):
    """|e_n by its eta quotient - e_n by its character sum|."""
    return abs(eta_theta_eval("e%d" % n, tau)
               - eta_theta_eval("e%d" % n, tau, representation="character-sum"))


def E_route_residual(m, tau):
    """|E_m by its eta quotient - E_m by its g_{a,b} combination|."""
    return abs(eta_theta_eval("E%d" % m, tau) - E_from_g(m, tau))


def vmn_route_residual(label, n, tau):
    """|V_{m,n} by its mu form - V_{m,n} by its series form|."""
    return abs(vmn_eval_mu(label, n, tau) - vmn_eval_series(label, n, tau))


# ---------------------------------------------------------------------------
# the suites of the verify command


def _dps_tol(value):
    """A check's tolerance at working precision: 10^(4 - dps) max(1, |value|)."""
    return mpf(10) ** (4 - mp.dps) * max(1, abs(value))


def _sample_tau(rng):
    return mpc(rng.uniform(-0.5, 0.5), rng.uniform(0.6, 1.4))


def _sample_uv(rng, tau):
    def pt():
        return (rng.uniform(-0.4, 0.4) + rng.uniform(0.1, 0.9) * tau
                + mpc(0.013, 0.007))
    return pt(), pt()


def _suite_mu(report, rng, samples):
    for i in range(samples):
        tau = _sample_tau(rng)
        u, v = _sample_uv(rng, tau)
        report.add_check("mu symmetric in u and v (sample %d)" % i,
                         abs(mu(u, v, tau) - mu(v, u, tau)), 1e-11)
        report.add_check("mu elliptic shift u+1 (sample %d)" % i,
                         abs(mu(u + 1, v, tau) + mu(u, v, tau)), 1e-11)
        a = rng.uniform(0.05, 0.45) + 1j * rng.uniform(0.0, 0.2)
        lhs, rhs = kang_pair(a, tau)
        report.add_check("mu factors through g2 at alpha (sample %d)" % i,
                         abs(lhs - rhs), 1e-9)
    tau0 = mpc(0, 1)
    quad = unary_ray_integral((Fraction(3, 4), Fraction(3, 4)), Fraction(0), tau0)
    closed = -e2pi(Fraction(3, 16)) * e2pi(tau0 * Fraction(-1, 32)) \
        * mordell_h(tau0 / 4 - Fraction(1, 4), tau0)
    report.add_check("ray integral of unary theta matches Mordell integral",
                     abs(quad - closed), 1e-7)


def _suite_theta(report, rng, samples):
    for i in range(samples):
        tau = _sample_tau(rng)
        for n in (1, 3, 7, 11):
            report.add_check(
                "e_%d eta-quotient equals character sum (sample %d)" % (n, i),
                e_route_residual(n, tau), 1e-11)
        for m_idx in (1, 4, 6):
            report.add_check(
                "E_%d eta-quotient equals unary combination (sample %d)"
                % (m_idx, i), E_route_residual(m_idx, tau), 1e-11)
        v, t = theta_specialization_point(3, tau)
        diff = abs(jacobi_theta(v, t) - e_from_theta(3, tau))
        report.add_check("theta at the row 3 specialization point (sample %d)" % i,
                         diff, 1e-11)


def _suite_vmn(report, rng, samples):
    rows = all_rows()
    for i in range(samples):
        tau = _sample_tau(rng)
        for label, n in rng.sample(rows, min(6, len(rows))):
            report.add_check(
                "row (%s,%d) mu form equals series form (sample %d)"
                % (label, n, i), vmn_route_residual(label, n, tau), 1e-11)


def _suite_thm11(report, rng, samples):
    rows = all_rows()
    picked = rng.sample(rows, min(max(samples, 3), len(rows)))
    for label, n in picked:
        tau = _sample_tau(rng)
        for gamma in group_sample(label, n, count=2):
            res = verify_thm11(label, n, gamma, tau)
            report.add_check(
                "completed row (%s,%d) transforms under (%d,%d;%d,%d)"
                % (label, n, gamma.a, gamma.b, gamma.c, gamma.d),
                res, 1e-8)


def _suite_thm12(report, rng, samples):
    points = {"1": Fraction(1, 3), "2": Fraction(1, 3), "3": Fraction(1, 1),
              "4": Fraction(1, 3), "5": Fraction(1, 2), "6": Fraction(1, 1)}
    for base in FAMILIES:
        x = points[base]
        tau = _sample_tau(rng)
        report.add_check("family %s two-step shift identity at %s" % (base, x),
                         verify_thm12_iii(base, 1, x), 1e-10)
        report.add_check("family %s ray identity at tau sample" % base,
                         verify_thm12_i(base, 1, tau), 1e-6)
        if ELL[base] == 1:
            report.add_check("family %s one-step ray identity at %s" % (base, x),
                             verify_thm12_ii(base, x), 1e-6)


def _suite_table2(report, rng, samples):
    for base in FAMILIES:
        tau = _sample_tau(rng)
        res = verify_table2(base, tau)
        report.add_check("I_%s closed form equals quadrature" % base,
                         res["I"], 1e-7)
        report.add_check("J_%s closed form equals quadrature" % base,
                         res["J"], 1e-7)
        report.add_check("family %s completed transformation" % base,
                         res["functional_equation"], 1e-7)


def _suite_columns(report, rng, samples):
    rows = [(label, n) for label, n in all_rows() if n > 1]
    for i in range(samples):
        tau = _sample_tau(rng)
        for label, n in rows:
            gap = vmn_eval_mu(label, n, tau) - vmn_eval_mu(label, 1, tau)
            for form, f in (("theta quotient", fmn_theta_quotient), ("product", fmn_product_form)):
                report.add_check("row (%s,%d) minus its first column is the %s (sample %d)"
                                 % (label, n, form, i), abs(gap - f(label, n, tau)), _dps_tol(gap))


def _suite_radial(report, rng, samples):
    # k <= 24; the finite sums' guard bits grow with k, past the 0.35 k digits they cancel
    window = [Fraction(h, k) for k in range(1, 25) for h in range(-k, k + 1)
              if Fraction(h, k).denominator == k]
    for base in FAMILIES:
        points = [x for x in window if in_quantum_set(base, 1, x)]
        for x in rng.sample(points, min(samples, len(points))):
            limit = radial_limit(int(base), x)
            report.add_check("family %s partial theta tends to 2 conj(V) at %s" % (base, x),
                             abs(limit - 2 * mp.conj(vm1_at_rational(base, x))), _dps_tol(limit))


def _suite_corollary(report, rng, samples, m="1", x=Fraction(1, 3)):
    lhs, rhs, res = corollary_check(m, x)
    report.outputs["lhs"] = lhs
    report.outputs["rhs"] = rhs
    report.add_check("quadrature matches finite hypergeometric sum", res, 1e-9)
    base = family(m)
    kind = "four-term companion" if base == "4" else "sign-companion"
    report.add_check("%s sums cancel at %s" % (kind, x), abs(companion_sum(base, x)), 1e-12)


def orbit(label, n, gens, x):
    """The images of x under the generators and their inverses, infinity
    left out, and how many of them fall outside the quantum set of row
    (label, n)."""
    mats = gens + tuple(g.inv() for g in gens)
    images = [y for y in (mobius_rational(g, x) for g in mats) if y is not None]
    return images, sum(not in_quantum_set(label, n, y) for y in images)


def _suite_quantum_closure(report, rng, samples):
    bound = min(12 + samples, 30)
    rows = sorted({(family(lbl), n) for lbl, n in all_rows()})
    failures = 0
    images = 0
    for label, n in rows:
        gens = group_generators(label, n)
        for h in range(-bound, bound + 1):
            for k in range(1, bound + 1):
                x = Fraction(h, k)
                if x.denominator != k or not in_quantum_set(label, n, x):
                    continue
                found, bad = orbit(label, n, gens, x)
                images += len(found)
                failures += bad
    report.outputs["rows"] = len(rows)
    report.outputs["images_checked"] = images
    report.add_check("generator orbits stay inside each quantum set",
                     float(failures), 0.0)


def _suite_shadow(report, rng, samples):
    pairs = [p for m in FAMILIES for p in vmn_spec(m, 1).shadow_pairs()]
    tau = mpc(0.12, 0.9)
    half = Fraction(1, 2)
    for a, b in pairs:
        diff = abs(xi_shadow(MabSpec(a, b), tau)
                   - g_complement((a + half, b + half), tau))
        report.add_check("xi image matches complement theta at (%s,%s)" % (a, b),
                         diff, 1e-5)


SUITES = {
    "mu": _suite_mu,
    "theta": _suite_theta,
    "vmn": _suite_vmn,
    "columns": _suite_columns,
    "thm11": _suite_thm11,
    "thm12": _suite_thm12,
    "table2": _suite_table2,
    "corollary": _suite_corollary,
    "radial": _suite_radial,
    "quantum-closure": _suite_quantum_closure,
    "shadow": _suite_shadow,
}

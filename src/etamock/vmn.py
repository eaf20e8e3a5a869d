"""Catalogue of mock theta functions built from Appell-Lerch specializations.

Fifty-nine rows indexed by a label m in {1..6, 4p, 4pp} and a column
n in {1..8}.  Each admissible row carries two representations that must
agree: a mu-specialization w * q^t * mu(u, v; tau) with affine-in-tau
arguments, and a Lambert-type series against one of the weight 1/2
eta-theta functions.  Label "4" is the composite row: the sum of the
"4p" and "4pp" specializations.

The module also knows, for every row, the congruence group on which the
completed function transforms with weight 1/2, and computes the exact
root-of-unity multiplier of that transformation.

Row (m, n) is built from two eta-theta functions, and its data come from
the tables of theta.  The even e_n gives the point v_n (_THETA_ROWS).
The odd E_m gives the shadow g_{a,b} (_G_ROWS; E_4's two rows belong to
4p and 4pp).  From (a, b) follow u_n = v_n + (a - 1/2) tau + (1/2 - b),
t, w, the series data and the transformation group.  Only the
multiplier's extra root of unity (_epsilon) is typed out.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction as Fr
from itertools import count

from mpmath import mp, mpc, mpf

from .core import fraction_mpf, quadratic_phases, series_eps, sum_outward
from .qseries import RootOfUnity, SL2Matrix, e2pi, eta, eta_multiplier, qpoch
from .theta import _G_ROWS, _THETA_ROWS, eta_theta_eval, jacobi_theta
from .mu import mu, mu_hat

HALF = Fr(1, 2)

ATOMIC_LABELS = ("1", "2", "3", "4p", "4pp", "5", "6")
ALL_LABELS = ATOMIC_LABELS + ("4",)

# v, the e_n scale and the gaussian center depend only on the column: v is
# the theta specialization point of e_n (tau/2, tau/2 - 1/2, tau/3, ...,
# tau/6 - 1/2), and the center is 1/2 plus its tau coefficient
_V_FORMS = {n: (coef, shift) for n, (coef, shift, _, _, _) in _THETA_ROWS.items()}
_E_SCALE = {n: scale for n, (_, _, _, _, scale) in _THETA_ROWS.items()}
_GAUSS_C = {n: HALF + coef for n, (coef, _) in _V_FORMS.items()}

# the shadow g_{a,b} of each atomic label: the (a, b) of its odd E_m, in the
# order of theta._G_ROWS, where E_4's two rows belong to 4p and 4pp
_SHADOW = dict(zip(ATOMIC_LABELS, (spec for m in sorted(_G_ROWS)
                                   for _, _, spec, _ in _G_ROWS[m]), strict=True))

# u_n = v_n + (a - 1/2) tau + (1/2 - b); a column where u_n = 0, a pole of
# mu, is not admissible
_U_FORMS = {label: {n: (coef + a - HALF, shift + HALF - b)
                    for n, (coef, shift) in _V_FORMS.items()}
            for label, (a, b) in _SHADOW.items()}
_INADMISSIBLE = {(label, n) for label, forms in _U_FORMS.items()
                 for n, u in forms.items() if u == (0, 0)}

# w * q^t is the prefactor of the mu form; b = 0 gives w = -1 and the family
# sign +1, b = 1/2 gives w = i and the sign -1
_T = {label: -(a - HALF) ** 2 / 2 for label, (a, _) in _SHADOW.items()}
_W = {label: RootOfUnity(1, 2) if b == 0 else RootOfUnity(1, 4)
      for label, (_, b) in _SHADOW.items()}

# the series of row (label, n) is
#   sign * q^pref / e_n(scale*tau) * sum (-1)^j q^{(j+c)^2/2} / (1 + sign q^{j+d})
# with sign = s * (-1)^(n+1) for the family sign s below, pref = -(1 - a)^2/2,
# and the denominator offset d equal to the tau coefficient of u
_FAMILY_SIGN = {label: 1 if b == 0 else -1 for label, (_, b) in _SHADOW.items()}
_SERIES_PREF = {label: -(1 - a) ** 2 / 2 for label, (a, _) in _SHADOW.items()}


def normalize_label(m):
    """Accept 1..6, "1".."6", "4p"/"4'"/"4prime", "4pp"/"4''" and friends."""
    s = str(m).strip().lower()
    s = s.replace("′", "'").replace("″", "''")
    aliases = {"4'": "4p", "4''": "4pp", "4prime": "4p", "4primeprime": "4pp",
               "4page": "4p"}
    s = aliases.get(s, s)
    if s not in ALL_LABELS:
        raise ValueError("unknown label %r; use 1..6, 4p, or 4pp" % (m,))
    return s


def base_label(label):
    """Collapse 4p/4pp onto 4 for the shared group and quantum-set data."""
    return "4" if label in ("4p", "4pp") else label


def is_admissible(m, n):
    label = normalize_label(m)
    return n in range(1, 9) and (label, n) not in _INADMISSIBLE


def _group(label, n):
    """(N, c_even) of base row (label, n): N is the lcm of the denominators
    of the tau coefficients of u and v over the row's parts, and c must be
    even when a constant term is not an integer."""
    parts = ("4p", "4pp") if label == "4" else (label,)
    forms = [_V_FORMS[n]] + [_U_FORMS[p][n] for p in parts]
    return (math.lcm(*(coef.denominator for coef, _ in forms)),
            any(shift.denominator != 1 for _, shift in forms))


# transformation group per (base label, column): {a = d = 1, b = 0 mod N},
# with c even when c_even; in_A_group checks that it shifts (u, v) by integers
_A_TABLE = {(label, n): _group(label, n) for label in ("1", "2", "3", "4", "5", "6")
            for n in range(1, 9) if is_admissible(label, n)}


@dataclass(frozen=True)
class AffineTauForm:
    """Exact point alpha*tau + beta with rational alpha, beta."""

    alpha: Fr
    beta: Fr

    def at(self, tau):
        return mpc(tau) * fraction_mpf(self.alpha) + fraction_mpf(self.beta)

    def as_dict(self):
        return {"alpha": {"num": self.alpha.numerator, "den": self.alpha.denominator},
                "beta": {"num": self.beta.numerator, "den": self.beta.denominator}}


@dataclass(frozen=True)
class SeriesPart:
    """One Lambert-type summand of the series representation."""

    sign: int
    e_index: int
    e_scale: Fr
    q_prefactor: Fr
    gauss_center: Fr
    alternating: bool
    den_sign: int
    den_offset: Fr


@dataclass(frozen=True)
class VmnSpec:
    """Static data for one catalogue row."""

    label: str
    n: int
    w: RootOfUnity
    t: Fr | None
    u: AffineTauForm | None
    v: AffineTauForm
    series: tuple
    group_N: int
    group_c_even: bool
    parts: tuple = ()

    @property
    def composite(self):
        return bool(self.parts)

    def shadow_pairs(self):
        """Indices (a, b) with u - v = a*tau - b, one pair per mu part."""
        if self.composite:
            return tuple(p for lbl in self.parts
                         for p in vmn_spec(lbl, self.n).shadow_pairs())
        return ((self.u.alpha - self.v.alpha, -(self.u.beta - self.v.beta)),)


def _series_part(label, n):
    sign = _FAMILY_SIGN[label] * (-1) ** (n + 1)
    return SeriesPart(sign=sign, e_index=n, e_scale=_E_SCALE[n],
                      q_prefactor=_SERIES_PREF[label], gauss_center=_GAUSS_C[n],
                      alternating=(n % 2 == 1), den_sign=sign,
                      den_offset=_U_FORMS[label][n][0])


def vmn_spec(m, n):
    label = normalize_label(m)
    if n not in range(1, 9):
        raise ValueError("column n must be in 1..8, got %r" % (n,))
    if not is_admissible(label, n):
        raise ValueError(
            "row (%s, %d) is not admissible: the construction would place the "
            "first Appell-Lerch argument at u = 0, a pole of mu" % (label, n))
    group = _A_TABLE[(base_label(label), n)]
    v = AffineTauForm(*_V_FORMS[n])
    if label == "4":
        return VmnSpec(label="4", n=n, w=RootOfUnity(1, 4), t=None, u=None,
                       v=v, series=(_series_part("4p", n), _series_part("4pp", n)),
                       group_N=group[0], group_c_even=group[1],
                       parts=("4p", "4pp"))
    return VmnSpec(label=label, n=n, w=_W[label], t=_T[label],
                   u=AffineTauForm(*_U_FORMS[label][n]), v=v,
                   series=(_series_part(label, n),),
                   group_N=group[0], group_c_even=group[1])


def all_rows():
    """The 59 admissible (label, n) pairs: 35 atomic, 16 primed, 8 composite."""
    rows = []
    for label in ("1", "2", "3", "5", "6", "4p", "4pp", "4"):
        for n in range(1, 9):
            if is_admissible(label, n):
                rows.append((label, n))
    return rows


def vmn_eval_mu(m, n, tau):
    """Appell-Lerch representation w * q^t * mu(u, v; tau)."""
    spec = vmn_spec(m, n)
    tau = mpc(tau)
    if spec.composite:
        return sum(vmn_eval_mu(lbl, n, tau) for lbl in spec.parts)
    u = spec.u.at(tau)
    v = spec.v.at(tau)
    return spec.w.value() * e2pi(spec.t * tau) * mu(u, v, tau)


def vmn_completed(m, n, tau):
    """Completion w * q^t * mu_hat(u, v; tau)."""
    spec = vmn_spec(m, n)
    tau = mpc(tau)
    if spec.composite:
        return sum(vmn_completed(lbl, n, tau) for lbl in spec.parts)
    u = spec.u.at(tau)
    v = spec.v.at(tau)
    return spec.w.value() * e2pi(spec.t * tau) * mu_hat(u, v, tau)


def _lambert_sum(part, tau):
    eps = series_eps()
    tiny = mpf(10) ** (-3 * mp.dps)
    top = mpf(0)

    def terms(ns, gauss, powers):
        # j = -n: the sum runs up from j = 0 first, then down from j = -1,
        # and stops relative to the largest term seen
        nonlocal top
        for n, num, qj in zip(ns, gauss, powers):
            den = 1 + part.den_sign * qj
            if abs(den) < tiny:
                raise ZeroDivisionError("Lambert denominator vanished at j=%d" % -n)
            val = num / den
            if part.alternating and n % 2:
                val = -val
            top = max(top, abs(val))
            yield val, abs(val) < eps * (1 + top)

    # numerator e(tau (j + c)^2/2) = e(tau x^2/2) for x = n - c, and the
    # q^{j + d} of the denominator is e(-tau x) for x = n - d
    gauss = quadratic_phases(tau / 2, 0, -fraction_mpf(part.gauss_center))
    powers = quadratic_phases(0, -tau, -fraction_mpf(part.den_offset))
    return sum_outward(terms(count(0, -1), gauss[0], powers[0]),
                       terms(count(1), gauss[1], powers[1]), 10 ** 5 + 1, "Lambert series")


def vmn_eval_series(m, n, tau):
    """Lambert-type series representation against e_n."""
    spec = vmn_spec(m, n)
    tau = mpc(tau)
    total = mpc(0)
    for part in spec.series:
        e_val = eta_theta_eval("e%d" % part.e_index, tau * fraction_mpf(part.e_scale))
        pref = part.sign * e2pi(part.q_prefactor * tau) / e_val
        total += pref * _lambert_sum(part, tau)
    return total


# ---------------------------------------------------------------------------
# transformation machinery


@dataclass(frozen=True)
class MultiplierData:
    """Integer shifts of (u, v) under gamma plus the exact extra root of unity.

    k, l shift u; r, s shift v:  u(gamma tau) * (c tau + d) = u + k tau + l.
    """

    k: int
    l: int
    r: int
    s: int
    epsilon: RootOfUnity

    @property
    def delta(self):
        return self.k - self.r

    @property
    def rho(self):
        return self.l - self.s

    @property
    def parity(self):
        return (-1) ** ((self.k + self.l + self.r + self.s) % 2)


def _form_shift(form, gamma):
    """(k, l) with form(gamma tau)(c tau + d) = form(tau) + k tau + l, or None."""
    p, r = form.alpha, form.beta
    k = p * gamma.a + r * gamma.c - p
    l = p * gamma.b + r * gamma.d - r
    if k.denominator != 1 or l.denominator != 1:
        return None
    return int(k), int(l)


def _epsilon(label, gamma):
    a, b, c, d = gamma.a, gamma.b, gamma.c, gamma.d
    if label in ("2", "4p", "4pp", "6"):
        return RootOfUnity.from_fraction(Fr(a * b) * _T[label])
    if label == "1":
        return RootOfUnity.from_fraction(Fr(4 - 4 * a - a * b + 4 * c, 32))
    if label == "3":
        return RootOfUnity.from_fraction(
            Fr(6 - 6 * a - a * b + 18 * c - 9 * c * d, 72))
    if label == "5":
        return RootOfUnity.from_fraction(
            Fr(12 - 12 * a - 4 * a * b + 18 * c - 9 * c * d, 72))
    raise ValueError("no multiplier data for label %r" % (label,))


def shift_data(m, n, gamma):
    """MultiplierData for gamma, or ValueError if the shifts are not integral."""
    spec = vmn_spec(m, n)
    if spec.composite:
        first = shift_data("4p", n, gamma)
        second = shift_data("4pp", n, gamma)
        if first.parity != second.parity or \
                first.epsilon.exponent != second.epsilon.exponent:
            raise ValueError("composite multiplier mismatch for %r" % (gamma,))
        return first
    kl = _form_shift(spec.u, gamma)
    rs = _form_shift(spec.v, gamma)
    if kl is None or rs is None:
        raise ValueError(
            "gamma %r does not preserve the (u, v) lattice data of row "
            "(%s, %d)" % (gamma, spec.label, n))
    return MultiplierData(k=kl[0], l=kl[1], r=rs[0], s=rs[1],
                          epsilon=_epsilon(spec.label, gamma))


def in_A_group(m, n, gamma):
    """Membership in the named transformation group of the row.

    The named predicate is {a = d = 1, b = 0 mod N}, optionally with c even.
    Named membership must imply integral (u, v) shifts; that implication is
    checked on every call.
    """
    spec = vmn_spec(m, n)
    N = spec.group_N
    named = (gamma.a % N == 1 and gamma.d % N == 1 and gamma.b % N == 0)
    if named and spec.group_c_even:
        named = gamma.c % 2 == 0
    if named:
        try:
            shift_data(m, n, gamma)
        except ValueError:
            raise RuntimeError(
                "internal table inconsistency: named member %r has "
                "non-integral shifts for row (%s, %d)" % (gamma, spec.label, n))
    return named


def transformation_root(m, n, gamma):
    """Exact multiplier psi^-3 * (-1)^(k+l+r+s) * epsilon as a root of unity."""
    data = shift_data(m, n, gamma)
    psi = eta_multiplier(gamma)
    root = (psi ** -3) * data.epsilon
    if data.parity < 0:
        root = root * RootOfUnity(1, 2)
    return root


def verify_thm11(m, n, gamma, tau):
    """Absolute residual of the weight 1/2 transformation law at tau.

    Both sides go through vmn_completed and so through mu_hat.  At
    gamma tau, near a cusp, mu_hat folds the point back into F by
    Zwegers' T, S and elliptic laws; at tau, in or near F, it sums
    directly.  The check therefore tests the paper's data (the row's
    w q^t and affine u, v, and the multiplier of transformation_root)
    against Zwegers' laws.  That the fold equals the unfolded series is
    tested on its own, on every row down to Im tau = 1e-3.
    """
    tau = mpc(tau)
    with mp.extradps(10):
        lhs = vmn_completed(m, n, gamma.act(tau))
        root = transformation_root(m, n, gamma)
        rhs = root.value() * mp.sqrt(gamma.c * tau + gamma.d) * \
            vmn_completed(m, n, tau)
        return abs(lhs - rhs)


def group_sample(m, n, count=4, include_negative_c=True):
    """Distinct non-identity members of the named group, built from words."""
    spec = vmn_spec(m, n)
    N = spec.group_N
    tN = SL2Matrix(1, N, 0, 1)
    m2 = SL2Matrix(1, 0, 2, 1)
    words = [m2 * tN, tN * m2]
    if include_negative_c:
        words += [m2.inv() * tN, tN * m2.inv(), m2.inv() * tN.inv()]
    words += [m2 * tN * m2, tN.inv() * m2 * tN, m2 * m2 * tN, tN * tN * m2]
    if not spec.group_c_even:
        m1 = SL2Matrix(1, 0, 1, 1)
        words += [m1 * tN, tN * m1, m1.inv() * tN]
    out = []
    seen = set()
    for g in words:
        key = (g.a, g.b, g.c, g.d)
        if key in seen or key == (1, 0, 0, 1):
            continue
        seen.add(key)
        if not in_A_group(m, n, g):
            raise RuntimeError("sample word %r fell outside the group" % (g,))
        out.append(g)
        if len(out) >= count:
            break
    return out


# ---------------------------------------------------------------------------
# differences against the first column


def fmn_theta_quotient(m, n, tau):
    """The theta-quotient form of V_mn - V_m1 (zero in the first column)."""
    spec = vmn_spec(m, n)
    tau = mpc(tau)
    if spec.composite:
        return sum(fmn_theta_quotient(lbl, n, tau) for lbl in spec.parts)
    if n == 1:
        return mpc(0)
    first = vmn_spec(spec.label, 1)
    u1 = first.u.at(tau)
    un = spec.u.at(tau)
    vn = spec.v.at(tau)
    num = eta(tau) ** 3 * jacobi_theta(tau / 2 + un, tau) \
        * jacobi_theta(un - u1, tau)
    den = jacobi_theta(u1, tau) * jacobi_theta(tau / 2, tau) \
        * jacobi_theta(un, tau) * jacobi_theta(vn, tau)
    return 1j * spec.w.value() * e2pi(spec.t * tau) * num / den


def fmn_product_form(m, n, tau):
    """Same difference as an explicit infinite product (independent route)."""
    spec = vmn_spec(m, n)
    tau = mpc(tau)
    if spec.composite:
        return sum(fmn_product_form(lbl, n, tau) for lbl in spec.parts)
    if n == 1:
        return mpc(0)
    first = vmn_spec(spec.label, 1)
    q = e2pi(tau)

    def pair(z):
        return qpoch(e2pi(z), q) * qpoch(e2pi(-z) * q, q)

    u1 = first.u.at(tau)
    un = spec.u.at(tau)
    vn = spec.v.at(tau)
    pref = -1j * spec.w.value() * e2pi(u1 - un / 2 + vn / 2) \
        * e2pi((spec.t - Fr(1, 8)) * tau)
    num = pair(un - u1) * qpoch(q, q) * pair(tau / 2 + un)
    den = qpoch(e2pi(tau / 2), q) ** 2 * pair(u1) * pair(un) * pair(vn)
    return pref * num / den


# ---------------------------------------------------------------------------
# catalogue export


def _fr_dict(fr):
    return {"num": fr.numerator, "den": fr.denominator}


def catalogue_rows():
    """JSON-ready description of all 59 rows."""
    rows = []
    for label, n in all_rows():
        spec = vmn_spec(label, n)
        row = {
            "label": label,
            "n": n,
            "w": _fr_dict(spec.w.exponent),
            "group": {"N": spec.group_N, "c_even": spec.group_c_even},
            "series": [
                {
                    "sign": p.sign,
                    "e_index": p.e_index,
                    "e_scale": _fr_dict(p.e_scale),
                    "q_prefactor": _fr_dict(p.q_prefactor),
                    "gauss_center": _fr_dict(p.gauss_center),
                    "alternating": p.alternating,
                    "den_sign": p.den_sign,
                    "den_offset": _fr_dict(p.den_offset),
                }
                for p in spec.series
            ],
            "v": spec.v.as_dict(),
        }
        if spec.composite:
            row["parts"] = list(spec.parts)
        else:
            row["t"] = _fr_dict(spec.t)
            row["u"] = spec.u.as_dict()
            a, b = spec.shadow_pairs()[0]
            row["shadow"] = {"a": _fr_dict(a), "b": _fr_dict(b)}
        rows.append(row)
    return rows


def catalogue_json(indent=None):
    return json.dumps(catalogue_rows(), indent=indent, sort_keys=True)

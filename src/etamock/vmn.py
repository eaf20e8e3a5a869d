"""Catalogue of mock theta functions built from Appell-Lerch specializations.

Fifty-nine rows indexed by a label m in {1..6, 4p, 4pp} and a column
n in {1..8}.  Each admissible row carries two representations that must
agree: a mu-specialization w * q^t * mu(u, v; tau) with affine-in-tau
arguments, and a Lambert-type series against one of the weight 1/2
eta-theta functions.

The module also knows, for every row, the congruence group on which the
completed function transforms with weight 1/2, and computes the exact
root-of-unity multiplier of that transformation.

Each row is one frozen VmnSpec, built once at import by _row and kept in
_ROWS in the order of all_rows.  Row (m, n) pairs two eta-theta records
of theta: the even e_n gives the point v_n (theta_point), and the odd E_m
the shadow g_{a,b} (its g_pairs).  From (a, b) follow u_n = v_n + (a - 1/2)
tau + (1/2 - b), t, w, the series data and the transformation group, and
from (u, v, t) by Zwegers' laws the multiplier of any gamma.  E_4 has two
g_{a,b} rows, the labels 4p and 4pp, and row 4 is their sum.  parts(label)
alone knows that split, and family(m) maps a label to its family.  Every
evaluation is written once on an atomic record and summed over the parts.
On each route (mu, mu_hat, the Lambert series) a part's value is memoized
on (route, label, n, tau, mp.prec), so the catalogue at one tau computes
each of its 51 atomic parts once: row 4 is the sum of rows 4p and 4pp.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from fractions import Fraction as Fr
from functools import cache, lru_cache

from mpmath import mp, mpc

from .core import KERNEL_MEMO, fixed_div, fixed_prec, fixed_product, fraction_mpf, lattice_sum
from .qseries import RootOfUnity, SL2Matrix, e2pi, eta, eta_multiplier
from .theta import ETA_THETA, HALF, eta_theta_eval, jacobi_theta, theta_point
from .mu import mu, mu_hat

ATOMIC_LABELS = ("1", "2", "3", "4p", "4pp", "5", "6")
ALL_LABELS = ATOMIC_LABELS + ("4",)
# the families, one per odd E_m
FAMILIES = ("1", "2", "3", "4", "5", "6")

# the shadow (a, b) of each atomic label, from its E_m's g_pairs: E_4's two are 4p and 4pp
_SHADOW = dict(zip(ATOMIC_LABELS, (pair for m in FAMILIES for pair in ETA_THETA["E" + m].g_pairs),
                   strict=True))


def normalize_label(m):
    """Accept 1..6, "1".."6", "4p"/"4'"/"4prime", "4pp"/"4''" and friends."""
    s = str(m).strip().lower()
    s = s.replace("′", "'").replace("″", "''")
    aliases = {"4'": "4p", "4''": "4pp", "4prime": "4p", "4primeprime": "4pp"}
    s = aliases.get(s, s)
    if s not in ALL_LABELS:
        raise ValueError("unknown label %r; use 1..6, 4p, or 4pp" % (m,))
    return s


def parts(label):
    """The atomic labels whose rows sum to row `label`: 4p and 4pp for 4."""
    return ("4p", "4pp") if label == "4" else (label,)


def family(m):
    """The family of label m, the index of its odd E_m: 4 for 4p and 4pp."""
    label = normalize_label(m)
    return "4" if label in parts("4") else label


@dataclass(frozen=True)
class AffineTauForm:
    """Exact point alpha*tau + beta with rational alpha, beta."""

    alpha: Fr
    beta: Fr

    def at(self, tau):
        return mpc(tau) * fraction_mpf(self.alpha) + fraction_mpf(self.beta)


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

    def shadow_pairs(self):
        """Indices (a, b) with u - v = a*tau - b, one pair per mu part."""
        return tuple((s.u.alpha - s.v.alpha, -(s.u.beta - s.v.beta))
                     for s in _atoms(self.label, self.n))


def _row(label, n):
    """The record of row (label, n), or None when a part puts u_n = 0, a pole of mu.

    v_n is the theta point of e_n (tau/2, tau/2 - 1/2, tau/3, ..., tau/6 - 1/2).
    A part with shadow g_{a,b} gives u_n = v_n + (a - 1/2) tau + (1/2 - b),
    t = -(a - 1/2)^2/2, w = -1 when b = 0 and i when b = 1/2 (the parts of
    row 4 share b = 1/2), and the series
        sign * q^pref / e_n(scale*tau) * sum (-1)^j q^{(j+c)^2/2} / (1 + sign q^{j+d})
    with sign = +-(-1)^(n+1), + when b = 0, pref = -(1 - a)^2/2, c = 1/2 plus
    the tau coefficient of v, and d the tau coefficient of u.  The group
    {a = d = 1, b = 0 mod N}, with c even when c_even, shifts (u, v) by
    integers: N is the lcm of the denominators of the tau coefficients of v
    and each u, and c is even when a constant term is not an integer.
    """
    point = theta_point(n)
    v = AffineTauForm(point.coef, point.shift)
    us, series = [], []
    for a, b in (_SHADOW[p] for p in parts(label)):
        u = AffineTauForm(point.coef + a - HALF, point.shift + HALF - b)
        if u == AffineTauForm(0, 0):
            return None
        sign = (1 if b == 0 else -1) * (-1) ** (n + 1)
        us.append(u)
        series.append(SeriesPart(sign=sign, e_index=n, e_scale=point.scale,
                                 q_prefactor=-(1 - a) ** 2 / 2, gauss_center=HALF + point.coef,
                                 alternating=(n % 2 == 1), den_sign=sign, den_offset=u.alpha))
    atomic = len(us) == 1
    return VmnSpec(label=label, n=n, w=RootOfUnity(1, 2) if b == 0 else RootOfUnity(1, 4),
                   t=-(a - HALF) ** 2 / 2 if atomic else None, u=us[0] if atomic else None,
                   v=v, series=tuple(series),
                   group_N=math.lcm(*(f.alpha.denominator for f in [v] + us)),
                   group_c_even=any(f.beta.denominator != 1 for f in [v] + us),
                   parts=() if atomic else parts(label))


# every admissible row in the order of all_rows: the atomic families, the
# parts of family 4, then family 4
_ROWS = {(spec.label, spec.n): spec
         for spec in (_row(label, n) for label in ("1", "2", "3", "5", "6", "4p", "4pp", "4")
                      for n in range(1, 9))
         if spec is not None}


def is_admissible(m, n):
    return (normalize_label(m), n) in _ROWS


def vmn_spec(m, n):
    label = normalize_label(m)
    if n not in range(1, 9):
        raise ValueError("column n must be in 1..8, got %r" % (n,))
    if (label, n) not in _ROWS:
        raise ValueError(
            "row (%s, %d) is not admissible: the construction would place the "
            "first Appell-Lerch argument at u = 0, a pole of mu" % (label, n))
    return _ROWS[(label, n)]


def _atoms(m, n):
    """The records of the atomic parts of row (m, n)."""
    return [_ROWS[(label, n)] for label in parts(vmn_spec(m, n).label)]


def all_rows():
    """The 59 admissible (label, n) pairs: 35 atomic, 16 primed, 8 composite."""
    return list(_ROWS)


def _mu_form(spec, f, tau):
    """w * q^t * f(u, v; tau) on an atomic row."""
    return spec.w.value() * e2pi(spec.t * tau) * f(spec.u.at(tau), spec.v.at(tau), tau)


@lru_cache(maxsize=KERNEL_MEMO)
def _part_memo(route, label, n, tau, prec):
    # prec only keys the memo; mu and mu_hat are read from the module at call time
    spec = _ROWS[(label, n)]
    if route == "series":
        return _series_form(spec, tau)
    return _mu_form(spec, mu if route == "mu" else mu_hat, tau)


def _parts_sum(route, m, n, tau):
    """Row (m, n) at tau on one route: the sum of its parts' memoized values."""
    tau = mpc(tau)
    return sum(_part_memo(route, spec.label, spec.n, tau, mp.prec) for spec in _atoms(m, n))


def vmn_eval_mu(m, n, tau):
    """Appell-Lerch representation w * q^t * mu(u, v; tau), summed over the memoized parts."""
    return _parts_sum("mu", m, n, tau)


def vmn_completed(m, n, tau):
    """Completion w * q^t * mu_hat(u, v; tau), summed over the memoized parts."""
    return _parts_sum("mu_hat", m, n, tau)


def _lambert_sum(part, tau):
    wp = fixed_prec()
    one = 1 << wp

    def term(n, num, qj):
        # j = -n: the sum runs up from j = 0 first, then down from j = -1
        den = (one + part.den_sign * qj[0], part.den_sign * qj[1])
        if den == (0, 0):
            raise ZeroDivisionError("Lambert denominator vanished at j=%d" % -n)
        val = fixed_div(num, den, wp)
        return (-val[0], -val[1]) if part.alternating and n % 2 else val

    # numerator e(tau (j + c)^2/2) = e(tau y^2/2) at y = n - c, and the
    # q^{j + d} of the denominator is e(-tau y) at y = n - d
    return lattice_sum(term, 0, ((tau / 2, 0, -fraction_mpf(part.gauss_center)),
                                 (0, -tau, -fraction_mpf(part.den_offset))), "Lambert series")


def _series_form(spec, tau):
    """sign * q^pref / e_n(scale tau) * the Lambert sum, on an atomic row."""
    part, = spec.series
    e_val = eta_theta_eval("e%d" % part.e_index, tau * fraction_mpf(part.e_scale))
    return part.sign * e2pi(part.q_prefactor * tau) / e_val * _lambert_sum(part, tau)


def vmn_eval_series(m, n, tau):
    """Lambert-type series representation against e_n, summed over the memoized parts."""
    return _parts_sum("series", m, n, tau)


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


def _shift_data(spec, gamma):
    """The shifts of (u, v) under gamma and the root epsilon they leave.

    By Zwegers' modular and elliptic laws (thesis, Prop. 1.4, Thm 1.11),
    with z = u - v, J = c tau + d and delta = k - r, the exponent that
    w q^t mu_hat(u, v; tau) leaves under gamma, times J, is
        P = t(-c tau^2 + (a - d) tau + b) - (c/2)(z + delta tau + l - s)^2
            + (delta^2 tau/2 + delta z) J,
    and it must be epsilon * J for a constant epsilon.
    """
    kl, rs = _form_shift(spec.u, gamma), _form_shift(spec.v, gamma)
    if kl is None or rs is None:
        raise ValueError(
            "gamma %r does not preserve the (u, v) lattice data of row "
            "(%s, %d)" % (gamma, spec.label, spec.n))
    (k, l), (r, s) = kl, rs
    a, b, c, d = gamma.a, gamma.b, gamma.c, gamma.d
    t, delta = spec.t, k - r
    # P = p2 tau^2 + p1 tau + p0, with z = A tau + B,
    # z + delta tau + l - s = m1 tau + m0 and delta^2 tau/2 + delta z = e1 tau + e0
    A, B = spec.u.alpha - spec.v.alpha, spec.u.beta - spec.v.beta
    m1, m0 = A + delta, B + l - s
    e1, e0 = Fr(delta * delta, 2) + delta * A, delta * B
    p2 = c * (e1 - t - m1 * m1 / 2)
    p1 = t * (a - d) - c * m1 * m0 + e1 * d + e0 * c
    p0 = t * b - c * m0 * m0 / 2 + e0 * d
    if p2 != 0 or p1 * d != p0 * c:
        raise ValueError("row (%s, %d) has no multiplier under gamma %r: c tau + d does "
                         "not divide P = %s tau^2 + %s tau + %s"
                         % (spec.label, spec.n, gamma, p2, p1, p0))
    return MultiplierData(k=k, l=l, r=r, s=s,
                          epsilon=RootOfUnity.from_fraction(p1 / c if c else p0 / d))


def shift_data(m, n, gamma):
    """MultiplierData for gamma; ValueError if a shift is not integral or
    the leftover exponent is not a constant.

    A row of several parts takes its first part's data; the parts' shifts
    may differ, but they must agree on the parity and epsilon the
    multiplier reads.
    """
    first, *rest = (_shift_data(spec, gamma) for spec in _atoms(m, n))
    if any(d.parity != first.parity or d.epsilon != first.epsilon for d in rest):
        raise ValueError("composite multiplier mismatch for %r" % (gamma,))
    return first


def in_A_group(m, n, gamma):
    """Membership in the named transformation group of the row.

    The named predicate is {a = d = 1, b = 0 mod N}, optionally with c even.
    Named membership must imply a multiplier (integral (u, v) shifts and a
    constant epsilon); that implication is checked on every call.
    """
    spec = vmn_spec(m, n)
    N = spec.group_N
    named = (gamma.a % N == 1 and gamma.d % N == 1 and gamma.b % N == 0)
    if named and spec.group_c_even:
        named = gamma.c % 2 == 0
    if named:
        try:
            shift_data(m, n, gamma)
        except ValueError as err:
            raise RuntimeError("a member of the named group has no multiplier: %s" % err)
    return named


@cache
def transformation_root(m, n, gamma):
    """Exact multiplier psi^-3 * (-1)^(k+l+r+s) * epsilon as a root of unity,
    on every gamma that shifts (u, v) by integers, in the named group or not; memoized."""
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


def group_sample(m, n, count=4):
    """Distinct non-identity members of the named group, built from words."""
    spec = vmn_spec(m, n)
    N = spec.group_N
    tN = SL2Matrix(1, N, 0, 1)
    m2 = SL2Matrix(1, 0, 2, 1)
    words = [m2 * tN, tN * m2, m2.inv() * tN, tN * m2.inv(), m2.inv() * tN.inv(),
             m2 * tN * m2, tN.inv() * m2 * tN, m2 * m2 * tN, tN * tN * m2]
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


def _theta_quotient(spec, tau):
    if spec.n == 1:
        return mpc(0)
    u1 = _ROWS[(spec.label, 1)].u.at(tau)
    un = spec.u.at(tau)
    vn = spec.v.at(tau)
    num = eta(tau) ** 3 * jacobi_theta(tau / 2 + un, tau) \
        * jacobi_theta(un - u1, tau)
    den = jacobi_theta(u1, tau) * jacobi_theta(tau / 2, tau) \
        * jacobi_theta(un, tau) * jacobi_theta(vn, tau)
    return 1j * spec.w.value() * e2pi(spec.t * tau) * num / den


def fmn_theta_quotient(m, n, tau):
    """The theta-quotient form of V_mn - V_m1 (zero in the first column)."""
    tau = mpc(tau)
    return sum(_theta_quotient(spec, tau) for spec in _atoms(m, n))


def _product_form(spec, tau):
    if spec.n == 1:
        return mpc(0)
    q = e2pi(tau)
    u1 = _ROWS[(spec.label, 1)].u.at(tau)
    un = spec.u.at(tau)
    vn = spec.v.at(tau)
    pref = -1j * spec.w.value() * e2pi(u1 - un / 2 + vn / 2 + (spec.t - Fr(1, 8)) * tau)
    # (z; q)(q/z; q) is the product over the starts z and q/z, at z = e(w)
    starts = [c for w in (un - u1, tau / 2 + un, u1, un, vn) for c in (e2pi(w), e2pi(-w) * q)]
    num = fixed_product(starts[:4] + [q], q, "product form")
    den = fixed_product([e2pi(tau / 2)] * 2 + starts[4:], q, "product form")
    return pref * num / den


def fmn_product_form(m, n, tau):
    """Same difference as an explicit infinite product (independent route)."""
    tau = mpc(tau)
    return sum(_product_form(spec, tau) for spec in _atoms(m, n))


# ---------------------------------------------------------------------------
# catalogue export


def _fraction_json(value):
    if isinstance(value, Fr):
        return {"num": value.numerator, "den": value.denominator}
    raise TypeError("%r is not JSON serializable" % (value,))


def catalogue_json():
    """JSON description of all 59 rows, read off their records."""
    rows = []
    for spec in _ROWS.values():
        row = {key: value for key, value in asdict(spec).items()
               if value is not None and value != ()}
        row["group"] = {"N": row.pop("group_N"), "c_even": row.pop("group_c_even")}
        if spec.u is not None:
            (a, b), = spec.shadow_pairs()
            row["shadow"] = {"a": a, "b": b}
        rows.append(row)
    return json.dumps(rows, sort_keys=True, default=_fraction_json)

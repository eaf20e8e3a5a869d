"""Rational-point arithmetic for the catalogue: quantum sets, finite
q-hypergeometric sums at roots of unity, and exact evaluation at rationals.

Everything here is driven by reduced fractions h/k and exact roots of
unity.  Every finite sum has one path, _finite_sums: its terms are pairs of
integers at fixed_prec() (core's fixed point), and F_hk, companion_sum and
vm1_at_rational each add theirs exactly and round the value once.

The arguments z1, z2 of F_hk for each family come from rational_z_args
alone.  The rest is read off from it: the rational values of the first
column, the sign-companion sums (F_hk at (z1, z2) and at (-z1, -z2)), and
the finite side of the period identities.  A value of family 4 is the sum
over vmn.parts, the labels of E_4's two g_{a,b} rows, written once for one
part and summed or chained over the parts.

The steps e(h/(2k))^j and the numerators of F_hk at x = h/k are read from
one table of 4k-th roots of unity, memoized on (k, precision) (_roots); the
denominators depend on each argument pair.  So every finite sum at one h/k
and one precision reads one table: both sign companions, the parts of
family 4, the first-column value, and x + lcm(N, 2) in the shift law.

Theorem 1.2 is one law, two_term_law: at a generator gamma = (a, b; c, d)
of the row's group (group_generators),
    L(x) = V(x) - conj(nu) (c x + d)^(-1/2) V(gamma x),
with nu the row's exact multiplier under gamma (vmn.transformation_root).
L vanishes at the translation T^lcm(N, 2); at M_1 and M_2 it is a period
integral of E_m, and the finite side of the period identities is L of the
first column at M_ell.  What the paper prints
and the checks compare against stays typed: the quantum sets.  Where the
finite sums are defined is derived: h odd, and no denominator factor zero.
"""

from __future__ import annotations

import math
from fractions import Fraction as Fr
from functools import cache, lru_cache

from mpmath import mp, mpc

from .core import (KERNEL_MEMO, fixed_div, fixed_mul, fixed_prec, fixed_raise, fraction_mpf,
                   from_fixed, to_fixed)
from .qseries import RootOfUnity, SL2Matrix
from .vmn import (_SHADOW, FAMILIES, family, is_admissible, normalize_label, parts,
                  transformation_root, vmn_eval_mu, vmn_spec)


def M_ell(ell):
    """M_ell = (1, 0; ell, 1), which sends x to x/(ell x + 1)."""
    return SL2Matrix(1, 0, ell, 1)


def group_generators(m, n):
    """Generators of the quantum-modularity group of row (m, n): M_1 for a
    first column whose group does not need c even, M_2 otherwise, and the
    translation T^lcm(N, 2)."""
    spec = vmn_spec(family(m), n)
    ell = 1 if n == 1 and not spec.group_c_even else 2
    return M_ell(ell), SL2Matrix(1, math.lcm(spec.group_N, 2), 0, 1)


def mobius_rational(gamma, x):
    """gamma acting on a rational; None when the image is infinity."""
    x = as_fraction(x)
    den = gamma.c * x + gamma.d
    if den == 0:
        return None
    return (gamma.a * x + gamma.b) / den


# ell of each family, read off its first column's generators
ELL = {m: group_generators(m, 1)[0].c for m in FAMILIES}


# ---------------------------------------------------------------------------
# quantum sets


def as_fraction(x):
    if isinstance(x, Fr):
        return x
    if isinstance(x, float):
        raise TypeError("rational points must be exact; got float %r" % (x,))
    return Fr(x)


def in_S(x):
    """Reduced h/k with h odd."""
    x = as_fraction(x)
    return x.numerator % 2 != 0


def in_S_even(x):
    x = as_fraction(x)
    return in_S(x) and x.denominator % 2 == 0


def in_S_odd(x):
    x = as_fraction(x)
    return in_S(x) and x.denominator % 2 == 1


def in_S_prime(x):
    """Reduced h/k with h = +-1 mod 6 (a subset of in_S)."""
    x = as_fraction(x)
    return x.numerator % 6 in (1, 5)


_SET_PREDICATES = {
    "S": in_S,
    "S_ev": in_S_even,
    "S_od": in_S_odd,
    "S'": in_S_prime,
    "S'&S_ev": lambda x: in_S_prime(x) and in_S_even(x),
    "S'&S_od": lambda x: in_S_prime(x) and in_S_odd(x),
    "S'|S_ev": lambda x: in_S_prime(x) or in_S_even(x),
    "S'|S_od": lambda x: in_S_prime(x) or in_S_odd(x),
}

_QUANTUM_SET = {
    ("1", 1): "S", ("1", 2): "S_ev", ("1", 3): "S'", ("1", 4): "S_od",
    ("1", 5): "S_od", ("1", 7): "S", ("1", 8): "S_ev",
    ("2", 1): "S", ("2", 2): "S_ev", ("2", 3): "S'", ("2", 4): "S_od",
    ("2", 6): "S_od", ("2", 7): "S", ("2", 8): "S_ev",
    ("3", 1): "S'", ("3", 2): "S'&S_ev", ("3", 3): "S'&S_ev",
    ("3", 4): "S'", ("3", 5): "S'", ("3", 6): "S'", ("3", 7): "S'&S_od",
    ("4", 1): "S", ("4", 2): "S_ev", ("4", 3): "S'", ("4", 4): "S'|S_od",
    ("4", 5): "S", ("4", 6): "S'|S_ev", ("4", 7): "S", ("4", 8): "S'|S_ev",
    ("5", 1): "S'|S_ev", ("5", 2): "S_ev", ("5", 3): "S'",
    ("5", 5): "S'|S_ev", ("5", 6): "S'|S_ev", ("5", 7): "S'|S_ev",
    ("5", 8): "S'|S_ev",
    ("6", 1): "S'", ("6", 2): "S'&S_ev", ("6", 3): "S'", ("6", 4): "S'",
    ("6", 5): "S'", ("6", 6): "S'", ("6", 8): "S'&S_od",
}


def quantum_set_label(m, n):
    base = family(m)
    try:
        return _QUANTUM_SET[(base, n)]
    except KeyError:
        raise ValueError("no quantum set for row (%s, %d)" % (base, n))


def in_quantum_set(m, n, x):
    return _set_predicate(m, n)(x)


@cache
def _set_predicate(m, n):
    """The predicate of row (m, n)'s quantum set, looked up once per row."""
    return _SET_PREDICATES[quantum_set_label(m, n)]


def rational_formula_defined(m, x):
    """Whether family m's finite sums have a value at x = h/k: h is odd, and
    no denominator factor of the family's argument pairs vanishes."""
    x = as_fraction(x)
    return in_S(x) and not _vanishing_factor(x, [rational_z_args(p, x) for p in parts(family(m))])


# ---------------------------------------------------------------------------
# finite q-hypergeometric sums


def _finite_sums(x, pairs):
    """The term lists of F_hk at x = h/k, one per argument pair (z1, z2):
    the k summands (-zeta;zeta)_j e(h j(j+1)/(4k)) / ((z1;zeta)_(j+1) (z2;zeta)_(j+1)),
    zeta = e(h/(2k)), as pairs at fixed_prec().

    The steps zeta^j and the numerators are read from one table of 4k-th
    roots of unity (_roots) once per call; then one integer pass runs per
    pair, at max(0, ceil(1.2 k) - 12) more bits for the 0.35 k digits the
    terms cancel.  z1 and z2 must be RootOfUnity values (TypeError
    otherwise); a vanishing denominator factor raises ZeroDivisionError
    naming it.
    """
    x = as_fraction(x)
    h, k = x.numerator, x.denominator
    zero = _vanishing_factor(x, pairs)
    if zero:
        raise ZeroDivisionError("factor (1 - %s zeta^%d) vanishes for h/k = %s" % (*zero, x))
    extra = max(0, -(-6 * k // 5) - 12)
    wp = fixed_prec() + extra
    one = 1 << wp
    # zeta^j and the phase e(h j(j+1)/(4k)) are the 4k-th roots at 2 h j and h j(j+1)
    roots = _roots(k, wp)
    steps = [roots[2 * h * j % (4 * k)] for j in range(k + 1)]
    numerators, poch = [], (one, 0)
    for j in range(k):
        numerators.append(fixed_mul(poch, roots[h * j * (j + 1) % (4 * k)], wp))
        poch = fixed_mul(poch, (one + steps[j + 1][0], steps[j + 1][1]), wp)
    with mp.workprec(wp):
        pairs = [(to_fixed(z1.value(), wp), to_fixed(z2.value(), wp)) for z1, z2 in pairs]
    sums = []
    for z1, z2 in pairs:
        # the running denominator (z1;zeta)_(j+1) (z2;zeta)_(j+1), read at 2^-shift
        den, shift, terms = (one, 0), wp, []
        for numerator, step in zip(numerators, steps):
            a, b = fixed_mul(z1, step, wp)
            c, d = fixed_mul(z2, step, wp)
            den = fixed_mul(den, fixed_mul((one - a, -b), (one - c, -d), wp), wp)
            den, shift = fixed_raise(den, shift, wp)
            re, im = fixed_div(numerator, den, shift)
            terms.append((re >> extra, im >> extra))
        sums.append(terms)
    return sums


def _vanishing_factor(x, pairs):
    """(name, j) of the first factor 1 - z zeta^j, j < k, of the pairs
    (z1, z2) that vanishes at x = h/k, zeta = e(h/(2k)), or None."""
    h, k = x.numerator, x.denominator
    for z1, z2 in pairs:
        for name, z in (("z1", z1), ("z2", z2)):
            if not isinstance(z, RootOfUnity):
                raise TypeError("%s must be a RootOfUnity, got %r" % (name, z))
            # 1 - z zeta^j = 0 iff num/den + h j/(2k) is an integer
            for j in range(k):
                if (2 * k * z.num + z.den * h * j) % (2 * k * z.den) == 0:
                    return name, j
    return None


@lru_cache(maxsize=KERNEL_MEMO)
def _roots(k, wp):
    """The roots e(i/(4k)), i < 4k, as pairs at wp: the k of the first
    quadrant computed, the rest from them by exact quarter turns."""
    with mp.workprec(wp + 10):
        quadrant = [to_fixed(mp.expjpi(mp.mpf(i) / (2 * k)), wp) for i in range(k)]
    return tuple(quadrant + [(-b, a) for a, b in quadrant] + [(-a, -b) for a, b in quadrant]
                 + [(b, -a) for a, b in quadrant])


def F_hk(x, z1, z2):
    """The finite q-hypergeometric sum at the reduced fraction x = h/k of
    the k terms of _finite_sums for one pair: added exactly, rounded once."""
    terms = _finite_sums(x, ((z1, z2),))[0]
    return from_fixed([sum(c) for c in zip(*terms)], fixed_prec())


def rational_z_args(m, x):
    """The exact root-of-unity arguments fed to F_hk for this family."""
    label = normalize_label(m)
    if label == "4":
        raise ValueError("composite label has two argument pairs; use 4p, 4pp")
    x = as_fraction(x)
    a, b = _SHADOW[label]
    # z1 = s e(a x/2) and z2 = s^-1 e((1 - a) x/2) for the shadow g_{a,b},
    # with s = i when b = 0 (families 1, 3, 5) and s = 1 when b = 1/2
    s = Fr(1, 4) if b == 0 else Fr(0)
    return (RootOfUnity.from_fraction(s + a * x / 2),
            RootOfUnity.from_fraction(-s + (1 - a) * x / 2))


def rational_prefactor(m, x):
    """i * w * e(x (t + 1/8)) as an exact root of unity."""
    label = normalize_label(m)
    if label == "4":
        raise ValueError("composite label has two prefactors; use 4p, 4pp")
    spec = vmn_spec(label, 1)
    x = as_fraction(x)
    return RootOfUnity.from_fraction(
        Fr(1, 4) + spec.w.exponent + (spec.t + Fr(1, 8)) * x)


def vm1_at_rational(m, x):
    """Exact-terminating value of the first-column function at x = h/k,
    summed over the row's parts."""
    label = normalize_label(m)
    x = as_fraction(x)
    if not rational_formula_defined(label, x):
        raise ValueError(
            "the terminating evaluation for family %s is not defined at %s"
            % (label, x))
    labels = parts(label)
    sums = _finite_sums(x, [rational_z_args(part, x) for part in labels])
    wp = fixed_prec()
    with mp.workprec(wp):
        prefactors = [to_fixed(rational_prefactor(part, x).value(), wp) for part in labels]
    # each part added exactly and rounded once: family 4's value is its parts' sum
    return sum(from_fixed(fixed_mul(prefactor, [sum(c) for c in zip(*terms)], wp), wp)
               for prefactor, terms in zip(prefactors, sums))


def vmn_at_rational(m, n, x):
    """Radial value of row (m, n) at x in its quantum set.

    On the quantum set the difference against the first column vanishes
    radially, so every column shares the first column's value.
    """
    label = normalize_label(m)
    x = as_fraction(x)
    if not is_admissible(label, n):
        raise ValueError("row (%s, %d) is not admissible" % (label, n))
    if not in_quantum_set(label, n, x):
        raise ValueError("%s is outside the quantum set of row (%s, %d)"
                         % (x, label, n))
    return vm1_at_rational(label, x)


def vmn_any(m, n, x):
    """Evaluate row (m, n) at a rational (exact) or upper half-plane point.

    A string, int, Fraction or float is a rational point, read by
    as_fraction (so a float raises TypeError); anything else is complex.
    """
    if isinstance(x, (str, int, Fr, float)):
        return vmn_at_rational(m, n, as_fraction(x))
    x = mpc(x)
    if x.imag <= 0:
        raise ValueError("points on or below the real line are not supported; "
                         "a rational point must be exact")
    return vmn_eval_mu(m, n, x)


# ---------------------------------------------------------------------------
# the law of Theorem 1.2 and the finite sums read off from it


def two_term_law(V, m, n, gamma, x):
    """L(x) = V(x) - conj(nu) (c x + d)^(-1/2) V(gamma x), principal root,
    with nu = transformation_root(family(m), n, gamma) and gamma = (a, b; c, d).

    x is a rational or a point of the upper half plane.  Where gamma sends
    x to infinity this raises ZeroDivisionError.
    """
    r = -(transformation_root(family(m), n, gamma).conjugate().value())
    exact = isinstance(x, (Fr, int))
    x = Fr(x) if exact else mpc(x)
    w = gamma.c * x + gamma.d
    if w == 0:
        raise ZeroDivisionError("x = %s maps to infinity" % x)
    w = fraction_mpf(w) if exact else w
    return V(x) + r * (1 / mp.sqrt(mpc(w))) * V(gamma.act(x))


def integral_identity_rhs(m, x):
    """Finite q-hypergeometric side equal to the weighted period integral
    -(i/c_m) int E_m(2u/c_m^2)/sqrt(-i(u+x)) du from 1/ell_m to i-infinity:
    the law of the first column at M_ell, read at the rational x."""
    base = family(m)
    return two_term_law(lambda y: vm1_at_rational(base, y), base, 1, M_ell(ELL[base]),
                        as_fraction(x))


def companion_sum(m, x):
    """Sum of the sign-companion finite sums of one family: F_hk at the
    family's arguments (z1, z2) and at (-z1, -z2), over the family's parts,
    every term added exactly and rounded once.  It vanishes on the quantum
    set of the family's first column (termwise for the families 3 and 6).

    ValueError outside the quantum set of the family's row (m, 1).
    """
    base = family(m)
    x = as_fraction(x)
    if not in_quantum_set(base, 1, x):
        raise ValueError("%s is outside the quantum set of row (%s, 1)" % (x, base))
    flip = RootOfUnity.from_fraction(Fr(1, 2))
    pairs = []
    for label in parts(base):
        z1, z2 = rational_z_args(label, x)
        pairs += [(z1, z2), (z1 * flip, z2 * flip)]
    terms = [term for pair_terms in _finite_sums(x, pairs) for term in pair_terms]
    return from_fixed([sum(c) for c in zip(*terms)], fixed_prec())


def companion_sum_composite(x):
    """companion_sum for the composite family 4; it stays because the
    benchmark inputs (perfbench/inputs.py) call it."""
    return companion_sum("4", x)


"""The finite sums F_hk against the per-pair loop of their definition.

`quantum._finite_sums` reads the x-only half of F_hk (the steps zeta^j and
the numerators) from one table of 4k-th roots of unity, and then runs one
integer pass per argument pair; F_hk, companion_sum and vm1_at_rational add
its terms exactly and round once.  The reference below is
the mpc loop that computes every term of one pair from scratch, with its
exact vanishing test on Fractions, run at 30 more digits.  Every term and
every sum must be within 1 unit of 10^-dps of the sum of the moduli of its
pair's terms, at dps 16 and 40.  The same mpc loop run at dps itself misses
that bound by up to 787 units on this sweep: it loses digits to the
rounding of its steps and factors.  Both must raise for exactly the same (x, z1, z2) with
the same type and message, on every reduced h/k with k <= 20 (h running
over all residues mod 2k) and on arbitrary root-of-unity arguments, as
`etamock eval Fhk --z1 --z2` passes them.
"""

import math
from fractions import Fraction as Fr
from functools import cache

import pytest
from mpmath import mp, mpc, mpf

from etamock import quantum
from etamock.core import fixed_prec, fraction_mpf, from_fixed
from etamock.qseries import RootOfUnity, e2pi
from etamock.quantum import (ELL, F_hk, M_ell, companion_sum, in_quantum_set,
                             integral_identity_rhs, rational_formula_defined,
                             rational_prefactor, rational_z_args, two_term_law,
                             vm1_at_rational)
from etamock.vmn import ATOMIC_LABELS, FAMILIES, parts

DPS = 16

# the reference runs at this many more digits
EXTRA = 30

FLIP = RootOfUnity(1, 2)


def reference_vanishing(x, z1, z2):
    """The message for the first factor 1 - z zeta^j that vanishes, or None."""
    h, k = x.numerator, x.denominator
    for name, z in (("z1", z1), ("z2", z2)):
        for j in range(k):
            if (z.exponent + Fr(h * j, 2 * k)) % 1 == 0:
                return "factor (1 - %s zeta^%d) vanishes for h/k = %s" % (name, j, x)
    return None


@cache
def reference_terms(x, z1, z2, prec):
    """The summands of F_hk at x = h/k for one pair, computed from scratch."""
    # prec only keys the cache: the caller's mp.prec is prec
    h, k = x.numerator, x.denominator
    z1v, z2v = z1.value(), z2.value()
    zeta = e2pi(Fr(h, 2 * k))
    terms = []
    num_poch = mpc(1)
    d1 = 1 - z1v
    d2 = 1 - z2v
    for j in range(k):
        terms.append(num_poch * e2pi(Fr(h * j * (j + 1), 4 * k)) / (d1 * d2))
        step = zeta ** (j + 1)
        num_poch *= 1 + step
        d1 *= 1 - z1v * step
        d2 *= 1 - z2v * step
    return tuple(terms)


# Each reference returns its values as (value, scale) at dps + EXTRA, the
# scale being the sum of the moduli of the terms that make the value.


def reference(x, z1, z2):
    """The terms and the sum of F_hk at one pair."""
    message = reference_vanishing(x, z1, z2)
    if message is not None:
        raise ZeroDivisionError(message)
    with mp.workdps(mp.dps + EXTRA):
        terms = reference_terms(x, z1, z2, mp.prec)
        scale = sum(abs(t) for t in terms)
        return [(t, scale) for t in terms] + [(sum(terms), scale)]


def reference_companion(m, x):
    minus, plus = [], []
    for part in parts(m):
        z1, z2 = rational_z_args(part, x)
        minus += reference(x, z1, z2)[:-1]
        plus += reference(x, z1 * FLIP, z2 * FLIP)[:-1]
    both = minus + plus
    return both + [(sum(t for t, _ in both), sum(s for _, s in both))]


def reference_vm1(m, x):
    value = scale = 0
    for part in parts(m):
        total, part_scale = reference(x, *rational_z_args(part, x))[-1]
        with mp.workdps(mp.dps + EXTRA):
            value += rational_prefactor(part, x).value() * total
        scale += part_scale
    return [(value, scale)]


def reference_rhs(m, x):
    gamma = M_ell(ELL[m])
    with mp.workdps(mp.dps + EXTRA):
        value = two_term_law(lambda y: reference_vm1(m, y)[0][0], m, 1, gamma, x)
        # the law adds V(x) and V(gamma x) / sqrt(c x + d) up to a phase
        width = 1 / mp.sqrt(abs(fraction_mpf(gamma.c * x + gamma.d)))
        scale = reference_vm1(m, x)[0][1] + width * reference_vm1(m, gamma.act(x))[0][1]
        return [(value, scale)]


def finite_terms(x, pairs):
    """The term lists of quantum._finite_sums, each term rounded once."""
    return [[from_fixed(term, fixed_prec()) for term in terms]
            for terms in quantum._finite_sums(x, pairs)]


def terms_and_sum(x, z1, z2):
    return finite_terms(x, [(z1, z2)])[0] + [F_hk(x, z1, z2)]


def companion_terms_and_sum(m, x):
    pairs = []
    for part in parts(m):
        z1, z2 = rational_z_args(part, x)
        pairs += [(z1, z2), (z1 * FLIP, z2 * FLIP)]
    sums = finite_terms(x, pairs)
    return sum(sums[0::2], []) + sum(sums[1::2], []) + [companion_sum(m, x)]


def vm1_value(m, x):
    return [vm1_at_rational(m, x)]


def rhs_value(m, x):
    return [integral_identity_rhs(m, x)]


def outcome(f, *args):
    """The values of f(*args), or the type and message of what it raised."""
    try:
        return f(*args)
    except (ZeroDivisionError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def check(f, ref, args):
    """Whether f raised as ref did, or else the worst error of its values
    in units of 10^-dps of their scales; None when it raised."""
    want = outcome(ref, *args)
    got = outcome(f, *args)
    if isinstance(want, tuple):
        assert got == want, (f.__name__, args)
        return None
    assert isinstance(got, list) and len(got) == len(want), (f.__name__, args, got)
    unit = mpf(10) ** -mp.dps
    with mp.workdps(mp.dps + EXTRA):
        return max(abs(value - ref_value) / (scale * unit)
                   for value, (ref_value, scale) in zip(got, want, strict=True))


def residues(height):
    """Every reduced h/k with k <= height and -k <= h < k: each residue of
    h mod 2k, on which the numerators depend, once."""
    return [Fr(h, k) for k in range(1, height + 1) for h in range(-k, k)
            if math.gcd(h, k) == 1]


@pytest.mark.parametrize("dps", [16, 40])
def test_every_finite_sum_is_within_a_unit_of_the_reference(dps):
    compared = raised = 0
    with mp.workdps(dps):
        for x in residues(20):
            cases = [(terms_and_sum, reference, (x, *rational_z_args(label, x)))
                     for label in ATOMIC_LABELS]
            for m in FAMILIES:
                if in_quantum_set(m, 1, x):
                    cases.append((companion_terms_and_sum, reference_companion, (m, x)))
                if rational_formula_defined(m, x):
                    cases += [(vm1_value, reference_vm1, (m, x)),
                              (rhs_value, reference_rhs, (m, x))]
            for f, ref, args in cases:
                error = check(f, ref, args)
                if error is None:
                    raised += 1
                else:
                    assert error <= 1, (f.__name__, args, error)
                compared += 1
    # 4,606 cases, 158 of which raise at both ends
    assert (compared, raised) == (4606, 158)


@pytest.mark.parametrize("dps", [16, 40])
def test_small_denominators_keep_their_digits(dps):
    # at x = +-1/k the running denominator falls to about e^(-0.65 k), and
    # its terms are the largest: a denominator kept at 2^-wp absolute instead
    # of raised back to wp bits misses the bound by 10 units at k = 30 and
    # by 1.4e6 at k = 48
    with mp.workdps(dps):
        for k in (30, 40, 48):
            for x in (Fr(1, k), Fr(-1, k)):
                for label in ATOMIC_LABELS:
                    args = (x, *rational_z_args(label, x))
                    assert check(terms_and_sum, reference, args) <= 1, args


@pytest.mark.parametrize("x", [Fr(1, 24), Fr(-1, 24)], ids=["1/24", "-1/24"])
def test_a_first_column_value_at_k_24_keeps_its_digits(x):
    # its terms reach about 1e8 and cancel to a value of about 1; the mpc
    # loop's relative error at -1/24 was 2.6e-8
    value = vm1_at_rational("2", x)
    with mp.workdps(DPS + 40):
        want = vm1_at_rational("2", x)
        assert abs(value - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("m, x", [("2", Fr(-1, 40)), ("6", Fr(1, 48)), ("6", Fr(1, 30))],
                         ids=["2-at--1/40", "6-at-1/48", "6-at-1/30"])
def test_a_first_column_value_past_k_24_keeps_its_digits(m, x):
    # the terms cancel about 0.35 k digits, which a fixed guard of 20 bits
    # does not cover: with it the relative errors were 8.5e-9, 5.8e-6, 8.8e-13
    value = vm1_at_rational(m, x)
    with mp.workdps(DPS + 40):
        want = vm1_at_rational(m, x)
        assert abs(value - want) <= 1e-16 * abs(want)


# exponents of the --z1/--z2 arguments: every root of unity of these orders,
# and one of an order prime to every 2k, which never vanishes
EXPONENTS = [Fr(n, d) for d in (1, 2, 3, 4, 6, 8, 16) for n in range(d)] + [Fr(1, 97)]


def test_arbitrary_arguments_vanish_exactly_where_the_reference_does():
    raised = computed = 0
    for x in residues(8):
        for e1 in EXPONENTS:
            for e2 in (Fr(0), Fr(1, 2), Fr(3, 8), Fr(1, 97)):
                for z1, z2 in ((e1, e2), (e2, e1)):
                    args = (x, RootOfUnity.from_fraction(z1), RootOfUnity.from_fraction(z2))
                    error = check(terms_and_sum, reference, args)
                    if error is None:
                        raised += 1
                    else:
                        assert error <= 1, (args, error)
                        computed += 1
    assert raised > 1000 and computed > 1000

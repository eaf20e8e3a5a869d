"""The finite sums F_hk against the per-pair loop of their definition.

`quantum` computes the x-only half of F_hk (the steps zeta^(j+1) and the
numerators) once per (h mod 2k, k) and then runs one denominator pass per
argument pair.  The reference below is the loop that computes every term
of one pair from scratch, with its exact vanishing test on Fractions.  The
two must agree bit for bit, and raise for exactly the same (x, z1, z2)
with the same message, on every reduced h/k with k <= 20 (h running over
all residues mod 2k) and on arbitrary root-of-unity arguments, as
`etamock eval Fhk --z1 --z2` passes them.
"""

import math
from fractions import Fraction as Fr
from functools import cache

import pytest
from mpmath import mp, mpc

from etamock.qseries import RootOfUnity, e2pi
from etamock.quantum import (ELL, F_hk_terms, M_ell, companion_terms, in_quantum_set,
                             integral_identity_rhs, rational_formula_defined,
                             rational_prefactor, rational_z_args, two_term_law,
                             vm1_at_rational)
from etamock.vmn import ATOMIC_LABELS, FAMILIES, parts

DPS = 16

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


def reference(x, z1, z2):
    message = reference_vanishing(x, z1, z2)
    if message is not None:
        raise ZeroDivisionError(message)
    return list(reference_terms(x, z1, z2, mp.prec))


def reference_companion(m, x):
    minus, plus = [], []
    for part in parts(m):
        z1, z2 = rational_z_args(part, x)
        minus += reference(x, z1, z2)
        plus += reference(x, z1 * FLIP, z2 * FLIP)
    return minus, plus


def reference_vm1(m, x):
    return sum(rational_prefactor(part, x).value() * sum(reference(x, *rational_z_args(part, x)))
               for part in parts(m))


def reference_rhs(m, x):
    return two_term_law(lambda y: reference_vm1(m, y), m, 1, M_ell(ELL[m]), x)


def outcome(f, *args):
    """The bits of f(*args), or the type and message of what it raised."""
    try:
        value = f(*args)
    except (ZeroDivisionError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return bits(value)


def bits(value):
    if isinstance(value, (list, tuple)):
        return [bits(v) for v in value]
    return value.real._mpf_, value.imag._mpf_


def residues(height):
    """Every reduced h/k with k <= height and -k <= h < k: each residue of
    h mod 2k, on which the numerators depend, once."""
    return [Fr(h, k) for k in range(1, height + 1) for h in range(-k, k)
            if math.gcd(h, k) == 1]


@pytest.mark.parametrize("dps", [16, 40])
def test_every_finite_sum_is_the_reference_bit_for_bit(dps):
    compared = raised = 0
    with mp.workdps(dps):
        for x in residues(20):
            cases = [(F_hk_terms, reference, (x, *rational_z_args(label, x)))
                     for label in ATOMIC_LABELS]
            for m in FAMILIES:
                if in_quantum_set(m, 1, x):
                    cases.append((companion_terms, reference_companion, (m, x)))
                if rational_formula_defined(m, x):
                    cases += [(vm1_at_rational, reference_vm1, (m, x)),
                              (integral_identity_rhs, reference_rhs, (m, x))]
            for f, ref, args in cases:
                want = outcome(ref, *args)
                assert outcome(f, *args) == want, (f.__name__, args)
                raised += isinstance(want[0], str)
                compared += 1
    # 4,606 cases, 158 of which raise at both ends
    assert compared > 4500 and raised > 150


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
                    want = outcome(reference, *args)
                    assert outcome(F_hk_terms, *args) == want, args
                    if want[0] == "ZeroDivisionError":
                        raised += 1
                    else:
                        computed += 1
    assert raised > 1000 and computed > 1000

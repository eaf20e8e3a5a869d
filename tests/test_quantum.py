"""Quantum sets, finite sums at roots of unity, and rational evaluation."""

import math
from fractions import Fraction

import pytest
from mpmath import mp, mpc, mpf

import etamock.quantum as quantum
from etamock.core import fixed_prec, from_fixed
from etamock.qseries import RootOfUnity
from etamock.quantum import (ELL, M_ell, F_hk, as_fraction,
                             companion_sum, companion_sum_composite,
                             group_generators, in_quantum_set,
                             in_S, in_S_even, in_S_odd, in_S_prime,
                             mobius_rational, quantum_set_label,
                             rational_formula_defined, rational_z_args,
                             two_term_law, vm1_at_rational, vmn_any,
                             vmn_at_rational)
from etamock.verify import verify_thm12_i, verify_thm12_iii
from etamock.vmn import FAMILIES, all_rows, family, parts, transformation_root

# working precision of every test here; see conftest.py
DPS = 20

# the 43 rows of the catalogue, family 4's two parts as one
ROWS = sorted({(family(lbl), n) for lbl, n in all_rows()})

# Theorem 1.2 as the paper prints it.  (iii): V(x) = zeta_a^kappa V(x + kappa b),
# with zeta_a a root of these orders and b these first-column steps
PAPER_ROOT_A = {"1": 8, "2": 8, "3": 3, "4": 24, "5": 12, "6": 3}
PAPER_SHIFT_B = {"1": 4, "2": 4, "3": 6, "4": 12, "5": 6, "6": 6}
# (i) and (ii): V(x) + r (c x + d)^(-1/2) V(gamma x) equals a ray integral,
# with r = e(ell/4) at M_2 and r = e(3/8) at M_1
PAPER_M1_ROOT = RootOfUnity(3, 8)


def test_basic_set_predicates():
    assert in_S(Fraction(1, 3)) and in_S(Fraction(3, 4))
    assert not in_S(Fraction(2, 3)) and not in_S(Fraction(0))
    assert in_S_even(Fraction(1, 2)) and not in_S_even(Fraction(1, 3))
    assert in_S_odd(Fraction(1, 3)) and not in_S_odd(Fraction(1, 2))
    assert in_S_prime(Fraction(5, 4)) and in_S_prime(Fraction(7, 2))
    assert not in_S_prime(Fraction(3, 4))


def test_set_lookup_by_label():
    # rows (1, 1), (1, 2) and (1, 3) have the sets S, S_ev and S'
    assert [quantum_set_label("1", n) for n in (1, 2, 3)] == ["S", "S_ev", "S'"]
    assert in_quantum_set("1", 1, Fraction(1, 3))
    assert in_quantum_set("1", 2, Fraction(1, 2))
    assert not in_quantum_set("1", 3, Fraction(3, 5))
    with pytest.raises(ValueError, match="no quantum set"):
        in_quantum_set("1", 6, Fraction(1, 2))


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        as_fraction(0.3333)
    with pytest.raises(TypeError):
        in_S(0.5)


def test_every_row_has_a_quantum_set():
    assert len(ROWS) == 43
    for lbl, n in ROWS:
        label = quantum_set_label(lbl, n)
        assert label in ("S", "S_ev", "S_od", "S'", "S'&S_ev", "S'&S_od",
                         "S'|S_ev", "S'|S_od")


@pytest.mark.parametrize("ell, x, image", [
    (2, Fraction(1, 3), (1, 5)),
    (1, Fraction(-3), (3, 2)),
    (1, Fraction(1), (1, 2)),
    (2, Fraction(-3, 5), (3, 1)),
])
def test_mobius_image_normalization(ell, x, image):
    assert mobius_rational(M_ell(ell), x) == Fraction(*image)


@pytest.mark.parametrize("x", [Fraction(1, 3), mpc(0.2, 0.9)])
def test_two_term_law_reads_the_image(x):
    xv = mpc(x.numerator) / x.denominator if isinstance(x, Fraction) else x
    seen = []

    def V(y):
        seen.append(y)
        return mpc(3)

    # r = -conj(nu) = i at M_2 for family 2, whose ell is 1
    got = two_term_law(V, "2", 1, M_ell(2), x)
    assert seen == [x, x / (2 * x + 1)]
    assert abs(got - (3 + 3j / mp.sqrt(2 * xv + 1))) < 1e-18


def test_mobius_rational_action():
    g = group_generators("1", 1)[0]
    x = Fraction(1, 3)
    y = mobius_rational(g, x)
    assert y == Fraction(g.a * 1 + g.b * 3, g.c * 1 + g.d * 3)
    assert mobius_rational(g, Fraction(-g.d, g.c)) is None


def test_generator_orbit_closure_sample():
    for lbl, n in [("1", 1), ("2", 3), ("3", 2), ("5", 5), ("6", 4), ("4", 1)]:
        g1, g2 = group_generators(lbl, n)
        for h in range(-8, 9):
            for k in range(1, 9):
                x = Fraction(h, k)
                if x.denominator != k or not in_quantum_set(lbl, n, x):
                    continue
                for mat in (g1, g2, g1.inv(), g2.inv()):
                    y = mobius_rational(mat, x)
                    if y is not None:
                        assert in_quantum_set(lbl, n, y)


def finite_terms(x, pairs):
    """The term lists of quantum._finite_sums, each term rounded once."""
    return [[from_fixed(term, fixed_prec()) for term in terms]
            for terms in quantum._finite_sums(x, pairs)]


def companion_pairs(m, x):
    """The argument pairs of companion_sum: each part's (z1, z2), then (-z1, -z2)."""
    flip = RootOfUnity(1, 2)
    pairs = []
    for part in parts(m):
        z1, z2 = rational_z_args(part, x)
        pairs += [(z1, z2), (z1 * flip, z2 * flip)]
    return pairs


def test_finite_sum_terminates_and_is_exact():
    z1, z2 = rational_z_args("1", Fraction(1, 3))
    terms = finite_terms(Fraction(1, 3), [(z1, z2)])[0]
    assert len(terms) <= 3
    total = F_hk(Fraction(1, 3), z1, z2)
    assert abs(total - sum(terms)) < 1e-18


def test_finite_sum_never_divides_by_zero():
    # sweep every family over a window; a zero denominator would raise
    for lbl in ("1", "2", "3", "5", "6", "4p", "4pp"):
        for h in range(-10, 11):
            for k in range(1, 11):
                x = Fraction(h, k)
                if x.denominator != k:
                    continue
                if not rational_formula_defined(lbl, x):
                    continue
                z1, z2 = rational_z_args(lbl, x)
                F_hk(x, z1, z2)


# where the finite sums of each family are defined, as once typed in the
# package; rational_formula_defined now derives it from the vanishing factors
TYPED_DEFINED_SET = {"1": "S", "2": "S", "3": "S'|S_od", "4": "S", "5": "S'|S_ev", "6": "S'"}


def test_derived_defined_set_is_the_typed_table():
    points = [Fraction(h, k) for k in range(1, 41) for h in range(-2 * k, 2 * k + 1)
              if math.gcd(h, k) == 1]
    for m, label in TYPED_DEFINED_SET.items():
        typed = quantum._SET_PREDICATES[label]
        for x in points:
            assert rational_formula_defined(m, x) == typed(x), (m, x)
    assert len(points) * len(TYPED_DEFINED_SET) == 11766


def test_rational_evaluation_requires_membership():
    with pytest.raises(ValueError):
        vmn_at_rational("6", 3, Fraction(2, 3))
    vmn_at_rational("6", 3, Fraction(1, 3))


def _to_mpf(fr):
    from mpmath import mpf
    return mpf(fr.numerator) / fr.denominator


def test_rational_evaluation_matches_radial_limit():
    """Finite sum at h/k against the mu route just above the real line."""
    for lbl, n, x in [("1", 1, Fraction(1, 3)), ("2", 1, Fraction(1, 2)),
                      ("5", 1, Fraction(1, 5))]:
        exact = vmn_at_rational(lbl, n, x)
        heights = [mpc(_to_mpf(x), t) for t in (0.02, 0.01)]
        gaps = [abs(vmn_any(lbl, n, tau) - exact) for tau in heights]
        assert gaps[1] < gaps[0]
        assert gaps[1] < 0.2


def test_first_column_rational_values_agree_with_general_entry():
    for lbl in ("1", "2", "3", "5", "6"):
        x = Fraction(1, 3) if lbl not in ("3",) else Fraction(1, 1)
        got = vm1_at_rational(lbl, x)
        assert abs(got - vmn_at_rational(lbl, 1, x)) < 1e-18


def test_vmn_any_dispatches_on_point_type():
    tau = mpc(0.1, 1.0)
    a = vmn_any("1", 1, tau)
    b = vmn_any("1", 1, Fraction(1, 3))
    from etamock.vmn import vmn_eval_mu
    assert abs(a - vmn_eval_mu("1", 1, tau)) < 1e-18
    assert abs(b - vmn_at_rational("1", 1, Fraction(1, 3))) < 1e-18
    # every string and int is a rational point, with or without a slash
    for x in ("1", "-1", 1, -1, "1/1", "-3/3"):
        assert vmn_any("1", 1, x) == vmn_at_rational("1", 1, Fraction(x))
    for x in ("2", "2/1", 2):
        with pytest.raises(ValueError, match="outside the quantum set"):
            vmn_any("1", 1, x)
    # a float is not exact: as_fraction refuses it
    for x in (0.5, 1.0):
        with pytest.raises(TypeError, match="rational points must be exact"):
            vmn_any("1", 1, x)
    for x in (mpc(0.1, -1), mpc(0.5, 0), mpf(0.5)):
        with pytest.raises(ValueError, match="on or below the real line"):
            vmn_any("1", 1, x)


@pytest.mark.parametrize("lbl", ["1", "2", "5"])
def test_companion_sums_cancel(lbl):
    for x in (Fraction(1, 3), Fraction(3, 5), Fraction(-1, 7)):
        if not in_quantum_set(lbl, 1, x):
            continue
        assert abs(companion_sum(lbl, x)) < 1e-13


@pytest.mark.parametrize("lbl", ["3", "6"])
def test_companion_sums_cancel_trivial_families(lbl):
    # the two finite sums are individually nonzero yet the signed total is 0
    for x in (Fraction(1, 5), Fraction(5, 7)):
        if not in_quantum_set(lbl, 1, x):
            continue
        assert abs(companion_sum(lbl, x)) < 1e-13


@pytest.mark.parametrize("lbl, x", [
    ("1", Fraction(2, 5)), ("2", Fraction(2, 5)), ("3", Fraction(2, 5)),
    ("5", Fraction(-3, 11)), ("6", Fraction(-3, 11)), ("4", Fraction(2, 5)),
])
def test_companion_sum_outside_quantum_set_is_domain_error(lbl, x):
    assert not in_quantum_set(lbl, 1, x)
    with pytest.raises(ValueError, match="outside the quantum set"):
        companion_sum(lbl, x)


@pytest.mark.parametrize("lbl", ["1", "2", "3", "4", "5", "6"])
def test_companion_sum_defined_at_minus_one_over_ell(lbl):
    # -1/ell_m lies in the quantum set, so the sums are still evaluated there
    x = Fraction(-1, ELL[lbl])
    assert in_quantum_set(lbl, 1, x)
    assert mp.isfinite(companion_sum(lbl, x))
    sums = finite_terms(x, companion_pairs(lbl, x))
    minus, plus = sum(sums[0::2], []), sum(sums[1::2], [])
    assert len(minus) == len(plus) > 0


def test_composite_rational_values_split():
    # family 4's value is the sum of its parts' values, bit for bit, and its
    # companion sum is the exact total of the parts' term lists, one pair at a time
    for x in (Fraction(1, 3), Fraction(1, 5), Fraction(-3, 7)):
        assert vm1_at_rational("4", x) == vm1_at_rational("4p", x) + vm1_at_rational("4pp", x)
        terms = [term for pair in companion_pairs("4", x)
                 for term in quantum._finite_sums(x, [pair])[0]]
        assert companion_sum("4", x) == from_fixed([sum(c) for c in zip(*terms)], fixed_prec())


def test_composite_four_term_cancellation():
    for x in (Fraction(1, 3), Fraction(1, 5), Fraction(3, 7)):
        assert abs(companion_sum_composite(x)) < 1e-13


def test_root_arguments_are_exact():
    z1, z2 = rational_z_args("5", Fraction(3, 7))
    assert isinstance(z1, RootOfUnity) and isinstance(z2, RootOfUnity)
    assert z1.exponent.denominator <= 4 * 6 * 7


def test_finite_sum_needs_exact_arguments():
    z1, z2 = rational_z_args("1", Fraction(1, 3))
    with pytest.raises(TypeError):
        F_hk(Fraction(1, 3), z1.value(), z2.value())


@pytest.mark.parametrize("m, n", ROWS)
def test_shift_root_is_the_multiplier_of_the_shift(m, n):
    # the row's translation is T^(kappa b), and conj(nu) there is zeta_a^kappa
    T = group_generators(m, n)[1]
    kappa, rest = divmod(T.b, PAPER_SHIFT_B[m])
    assert rest == 0 and kappa >= 1
    assert transformation_root(m, n, T).conjugate() == \
        RootOfUnity.from_fraction(Fraction(kappa, PAPER_ROOT_A[m]))


def test_shift_roots_are_the_papers():
    firsts = {m: group_generators(m, 1)[1] for m in FAMILIES}
    assert {m: T.b for m, T in firsts.items()} == PAPER_SHIFT_B
    assert {m: transformation_root(m, 1, T).conjugate() for m, T in firsts.items()} == \
        {m: RootOfUnity(1, order) for m, order in PAPER_ROOT_A.items()}


@pytest.mark.parametrize("m, n", ROWS)
def test_two_term_roots_are_the_papers(m, n):
    # r = -conj(nu), exactly, at M_2 on every row and at M_1 where it generates
    def r(gamma):
        return transformation_root(m, n, gamma).conjugate() * RootOfUnity(1, 2)

    assert r(M_ell(2)) == RootOfUnity.from_fraction(Fraction(ELL[m], 4))
    first = group_generators(m, n)[0]
    assert first.c == (ELL[m] if n == 1 else 2)
    if first.c == 1:
        assert r(first) == PAPER_M1_ROOT


def test_mutant_multiplier_fails_the_laws(monkeypatch):
    # a multiplier off by e(1/8) must fail the shift law and the ray identity
    # at their suite tolerances; the mutant wraps the memoized root, so no
    # mutated root enters the memo
    root = quantum.transformation_root
    monkeypatch.setattr(quantum, "transformation_root",
                        lambda m, n, gamma: root(m, n, gamma) * RootOfUnity(1, 8))
    assert verify_thm12_iii("1", 1, Fraction(1, 3)) > 1e-10
    assert verify_thm12_iii("3", 2, mpc(0.1, 0.9)) > 1e-10
    assert verify_thm12_i("1", 1, Fraction(1, 3)) > 1e-6

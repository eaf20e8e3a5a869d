"""The 59-row catalogue, its completions, and the transformation law."""

import dataclasses
import json
import random
from fractions import Fraction

import pytest
from mpmath import mp, mpc, mpf

from etamock.mu import R_correction, _mu_series, mu_hat
from etamock.qseries import RootOfUnity, SL2Matrix, e2pi
from etamock.theta import jacobi_theta
from etamock.vmn import (ATOMIC_LABELS, AffineTauForm, _shift_data, all_rows,
                         catalogue_json, fmn_product_form, fmn_theta_quotient,
                         group_sample, in_A_group, is_admissible, normalize_label,
                         shift_data, transformation_root, verify_thm11,
                         vmn_completed, vmn_eval_mu, vmn_eval_series, vmn_spec)

# working precision of every test here; see conftest.py
DPS = 20

ROWS = all_rows()


def test_row_census():
    atomic = [r for r in ROWS if r[0] in ("1", "2", "3", "5", "6")]
    primed = [r for r in ROWS if r[0] in ("4p", "4pp")]
    composite = [r for r in ROWS if r[0] == "4"]
    assert len(atomic) == 35
    assert len(primed) == 16
    assert len(composite) == 8
    assert len(ROWS) == 59


def test_admissibility_guards():
    assert not is_admissible("1", 7) or vmn_spec("1", 7)
    bad = [(lbl, n) for lbl in ("1", "2", "3", "5", "6")
           for n in range(1, 9) if not is_admissible(lbl, n)]
    assert len(bad) == 40 - 35
    for lbl, n in bad:
        with pytest.raises(ValueError):
            vmn_spec(lbl, n)


def test_label_normalization():
    assert normalize_label(4) == "4"
    assert normalize_label("4'") == "4p"
    assert normalize_label("4''") == "4pp"
    assert normalize_label("4prime") == "4p"
    for stray in ("9", "4page"):
        with pytest.raises(ValueError):
            normalize_label(stray)


@pytest.mark.parametrize("label, n", ROWS)
def test_mu_form_equals_series_form(label, n):
    tau = mpc(0.13, 1.02)
    diff = abs(vmn_eval_mu(label, n, tau) - vmn_eval_series(label, n, tau))
    assert diff < 1e-14


def test_composite_row_splits():
    # the composite value is the sum of its parts' values, bit for bit
    tau = mpc(-0.21, 0.88)
    for f in (vmn_eval_mu, vmn_completed, fmn_theta_quotient, fmn_product_form):
        for n in range(1, 9):
            assert f("4", n, tau) == f("4p", n, tau) + f("4pp", n, tau), (f.__name__, n)


def test_composite_shift_data_agrees_with_each_part():
    # the parts shift (u, v) by different integers, but agree on the parity
    # and epsilon of the multiplier, which the composite takes from them
    for n in range(1, 9):
        for gamma in group_sample("4", n, count=4):
            whole = shift_data("4", n, gamma)
            assert whole == shift_data("4p", n, gamma)
            for part in ("4p", "4pp"):
                data = shift_data(part, n, gamma)
                assert (data.parity, data.epsilon) == (whole.parity, whole.epsilon)
                assert transformation_root(part, n, gamma) == transformation_root("4", n, gamma)


def test_adjacent_fifth_family_rows_coincide():
    # rows (5,7) and (5,8) are the same function written two ways
    tau = mpc(0.31, 0.77)
    assert abs(vmn_eval_mu("5", 7, tau) - vmn_eval_mu("5", 8, tau)) < 1e-18


@pytest.mark.parametrize("label", ["1", "2", "3", "5", "6", "4p", "4pp", "4"])
def test_column_difference_three_routes(label):
    """V_mn - V_m1 as theta quotient and as product, against the direct gap."""
    tau = mpc(0.11, 0.93)
    cols = [n for lbl, n in ROWS if lbl == label and n > 1]
    for n in cols[:3]:
        gap = vmn_eval_mu(label, n, tau) - vmn_eval_mu(label, 1, tau)
        quot = fmn_theta_quotient(label, n, tau)
        prod = fmn_product_form(label, n, tau)
        assert abs(gap - quot) < 1e-15
        assert abs(quot - prod) < 1e-15


def test_named_group_membership_predicate():
    spec = vmn_spec("1", 1)
    N = spec.group_N
    good = SL2Matrix(1, N, 2, 2 * N + 1)
    assert in_A_group("1", 1, good)
    assert not in_A_group("1", 1, SL2Matrix(1, 1, 0, 1))
    for gamma in group_sample("1", 1, count=4):
        assert in_A_group("1", 1, gamma)


def test_shift_data_rejects_outside_matrices():
    with pytest.raises(ValueError):
        shift_data("1", 1, SL2Matrix(1, 1, 0, 1))


def test_transformation_root_is_exact_root_of_unity():
    for label, n in [("1", 1), ("2", 2), ("5", 5), ("4", 4)]:
        for gamma in group_sample(label, n, count=3):
            root = transformation_root(label, n, gamma)
            assert (root ** root.den).exponent == 0
            assert abs(abs(root.value()) - 1) < 1e-18


@pytest.mark.parametrize("label, n", random.Random(5).sample(ROWS, 12))
def test_weight_half_transformation(label, n):
    tau = mpc(0.17, 0.81)
    for gamma in group_sample(label, n, count=3):
        assert verify_thm11(label, n, gamma, tau) < 1e-10


def _direct_completion(label, n, tau):
    """vmn_completed by the series summed at tau itself, with no fold, and
    the size |w q^t| (|mu| + |R|/2) of the terms the completion adds."""
    spec = vmn_spec(label, n)
    if spec.parts:
        parts = [_direct_completion(lbl, n, tau) for lbl in spec.parts]
        return sum(p[0] for p in parts), sum(p[1] for p in parts)
    u, v = spec.u.at(tau), spec.v.at(tau)
    series, correction = _mu_series(u, v, tau), R_correction(u - v, tau)
    weight = spec.w.value() * e2pi(spec.t * tau)
    return weight * (series + 0.5j * correction), abs(weight) * (abs(series) + abs(correction) / 2)


# Re tau near the cusps 0, 1/3 and 1/2, far enough from them that the
# unfolded series at 30 more digits is still a reference; the rows take
# them in turn
NEAR_CUSPS = ("0.02", "0.34", "0.49")


@pytest.mark.parametrize("height", ["1e-1", "1e-2", "1e-3"])
def test_folded_completion_equals_direct_series(height):
    # mu-hat near a row's zero is a difference of far larger mu and R/2,
    # so the error of either route is relative to their size
    for i, (label, n) in enumerate(ROWS):
        tau = mpc(mpf(NEAR_CUSPS[i % 3]), mpf(height))
        folded = vmn_completed(label, n, tau)
        with mp.workdps(DPS + 30):
            direct, size = _direct_completion(label, n, tau)
        assert abs(folded - direct) <= mpf(10) ** (3 - DPS) * size, (label, n)


def test_transformation_fails_off_group():
    # (1, 1; 1, 2) moves row (1, 1)'s u and v off their lattice
    with pytest.raises(ValueError, match="does not preserve"):
        transformation_root("1", 1, SL2Matrix(1, 1, 1, 2))


@pytest.mark.parametrize("label, n, gamma", [
    ("1", 1, SL2Matrix(-5, -4, -1, -1)),
    ("3", 2, SL2Matrix(-2, -3, -5, -8)),
    ("3", 3, SL2Matrix(-2, -3, -5, -8)),
])
def test_transformation_law_beyond_the_named_group(label, n, gamma):
    # each matrix shifts (u, v) by integers but lies outside the named group
    assert not in_A_group(label, n, gamma)
    with mp.workdps(30):
        assert verify_thm11(label, n, gamma, mpc(0.17, 0.81)) < 1e-25


# ---------------------------------------------------------------------------
# the multiplier derived from Zwegers' laws against the typed formulas


def _typed_epsilon(spec, gamma):
    """The root epsilon as typed out per label before it was derived."""
    a, b, c, d = gamma.a, gamma.b, gamma.c, gamma.d
    label = spec.label
    if label in ("2", "4p", "4pp", "6"):
        return RootOfUnity.from_fraction(Fraction(a * b) * spec.t)
    if label == "1":
        return RootOfUnity.from_fraction(Fraction(4 - 4 * a - a * b + 4 * c, 32))
    if label == "3":
        return RootOfUnity.from_fraction(
            Fraction(6 - 6 * a - a * b + 18 * c - 9 * c * d, 72))
    if label == "5":
        return RootOfUnity.from_fraction(
            Fraction(12 - 12 * a - 4 * a * b + 18 * c - 9 * c * d, 72))
    raise ValueError("no multiplier data for label %r" % (label,))


def _group_words(label, n, rng):
    """Up to 12 sample words of the row's group, and 40 random products of
    up to 4 of them and their inverses."""
    words = group_sample(label, n, count=12)
    letters = words + [g.inv() for g in words]
    products = []
    for _ in range(40):
        g = SL2Matrix(1, 0, 0, 1)
        for _ in range(rng.randint(1, 4)):
            g = g * rng.choice(letters)
        products.append(g)
    return words + products


ATOMIC_ROWS = [(label, n) for label, n in ROWS if label in ATOMIC_LABELS]


def test_derived_epsilon_equals_the_typed_formulas():
    rng = random.Random(16)
    count = 0
    for label, n in ATOMIC_ROWS:
        spec = vmn_spec(label, n)
        for gamma in _group_words(label, n, rng):
            assert _shift_data(spec, gamma).epsilon == _typed_epsilon(spec, gamma), \
                (label, n, gamma)
            count += 1
    assert count > 2400


@pytest.mark.parametrize("label, n", [("1", 1), ("2", 3), ("3", 5), ("4p", 2), ("5", 5)])
def test_row_with_a_wrong_point_has_no_multiplier(label, n):
    # v's tau coefficient moved by 1/4: every shift of the row's group stays
    # integral (N is a multiple of 4), but t no longer matches u - v, so
    # c tau + d does not divide P
    spec = vmn_spec(label, n)
    assert spec.group_N % 4 == 0
    bad = dataclasses.replace(spec, v=AffineTauForm(spec.v.alpha + Fraction(1, 4),
                                                    spec.v.beta))
    for gamma in group_sample(label, n, count=12):
        with pytest.raises(ValueError) as err:
            _shift_data(bad, gamma)
        message = str(err.value)
        assert "does not divide" in message
        assert "row (%s, %d)" % (label, n) in message and repr(gamma) in message


def test_catalogue_json_complete_and_stable():
    rows = json.loads(catalogue_json())
    assert len(rows) == 59
    seen = {(r["label"], r["n"]) for r in rows}
    assert seen == set((lbl, n) for lbl, n in ROWS)
    again = json.loads(catalogue_json())
    assert rows == again


def test_group_sample_covers_negative_c():
    mats = group_sample("2", 1, count=6)
    assert any(g.c < 0 for g in mats)
    assert all(g.a * g.d - g.b * g.c == 1 for g in mats)


@pytest.mark.parametrize("call", [
    lambda: jacobi_theta(mpc(0.1, 0.2), mpc(0.1, 0.01)),
    lambda: verify_thm11("1", 1, group_sample("1", 1, count=1)[0], mpc(0.1, 0.9)),
    lambda: mu_hat(mpc(0.3, 0.004), mpc(0.1, 0.001), mpc(0.1, 0.01)),
], ids=["jacobi_theta", "verify_thm11", "mu_hat"])
def test_guard_digits_keep_a_precision_between_digits(call):
    # 54 bits is not a whole number of digits: restoring mp.dps would
    # come back at 53
    with mp.workprec(54):
        call()
        assert mp.prec == 54

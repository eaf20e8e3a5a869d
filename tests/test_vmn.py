"""The 59-row catalogue, its completions, and the transformation law."""

import json
import random
from fractions import Fraction

import pytest
from mpmath import mp, mpc

from etamock.qseries import SL2Matrix
from etamock.theta import jacobi_theta
from etamock.vmn import (all_rows, catalogue_json, fmn_product_form,
                         fmn_theta_quotient, group_sample, in_A_group,
                         is_admissible, normalize_label, shift_data,
                         transformation_root, verify_thm11, vmn_completed,
                         vmn_eval_mu, vmn_eval_series, vmn_spec)

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
    with pytest.raises(ValueError):
        normalize_label("9")


@pytest.mark.parametrize("label, n", ROWS)
def test_mu_form_equals_series_form(label, n):
    tau = mpc(0.13, 1.02)
    diff = abs(vmn_eval_mu(label, n, tau) - vmn_eval_series(label, n, tau))
    assert diff < 1e-14


def test_composite_row_splits():
    tau = mpc(-0.21, 0.88)
    for n in range(1, 9):
        whole = vmn_eval_mu("4", n, tau)
        parts = vmn_eval_mu("4p", n, tau) + vmn_eval_mu("4pp", n, tau)
        assert abs(whole - parts) < 1e-18
        hat = vmn_completed("4", n, tau)
        hat_parts = vmn_completed("4p", n, tau) + vmn_completed("4pp", n, tau)
        assert abs(hat - hat_parts) < 1e-18


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


def test_transformation_fails_off_group():
    """A generic matrix outside the named group must not satisfy the law."""
    tau = mpc(0.1, 0.9)
    gamma = SL2Matrix(1, 1, 1, 2)
    try:
        root = transformation_root("1", 1, gamma)
    except ValueError:
        return
    lhs = vmn_completed("1", 1, gamma.act(tau))
    rhs = root.value() * mp.sqrt(gamma.c * tau + gamma.d) \
        * vmn_completed("1", 1, tau)
    assert abs(lhs - rhs) > 1e-4


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
], ids=["jacobi_theta", "verify_thm11"])
def test_guard_digits_keep_a_precision_between_digits(call):
    # 54 bits is not a whole number of digits: restoring mp.dps would
    # come back at 53
    with mp.workprec(54):
        call()
        assert mp.prec == 54

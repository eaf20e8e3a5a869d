"""The memos of the package's kernels.

`eta` and the product route of `jacobi_theta` keep their folded values,
keyed by the exact arguments and `mp.prec`, for the KERNEL_MEMO most
recently used keys; so does `e2pi`, keyed by a rational exponent mod 1 or
any other exponent as given, and so does each atomic part of a row of
`vmn` on each route, keyed by (route, label, n, tau).  The finite sums
F_hk, companion_sum and vm1_at_rational read their steps and numerators
from one table of 4k-th roots of unity per k, kept for the KERNEL_MEMO most
recently used (k, precision) keys, and run their integer pass at one
precision, so every finite sum at one h/k reads one table; the ray
integrals keep one table of
g_{a,b} per ray, keyed by (a, b), the rational start and `mp.prec`, for
the KERNEL_MEMO most recently used keys (their reuse and their precision
are pinned in test_eichler.py).  The exact multiplier transformation_root
is memoized on (m, n, gamma), with no precision in the key.  These tests
pin that contract: each cap holds, a value never crosses precisions, the
sum route stays outside the memo, and a warm memo returns the bits a cold
one computes.  They also pin how much the 59 rows share at one tau (each
atomic part once a route), and how much the finite sums share at one h/k,
so a change that perturbs the bits of s*tau or v_n, or the precision of a
finite sum, fails here rather than silently losing the sharing.
"""

import importlib
from contextlib import contextmanager
from fractions import Fraction as Fr

import pytest
from mpmath import mp, mpc

from etamock import core, eichler, qseries, quantum, theta, vmn
from etamock.core import e2pi
from etamock.qseries import KERNEL_MEMO, RootOfUnity, eta
from etamock.quantum import (F_hk, companion_sum, group_generators, in_quantum_set,
                             integral_identity_rhs, rational_z_args, vm1_at_rational)
from etamock.theta import E_from_g, eta_theta_eval, jacobi_theta
from etamock.verify import verify_thm12_iii
from etamock.vmn import (FAMILIES, all_rows, family, transformation_root, vmn_eval_mu,
                         vmn_eval_series)

mu_module = importlib.import_module("etamock.mu")

DPS = 30

KERNELS = (qseries._eta_folded, theta._theta_folded)
MEMOS = KERNELS + (core._e2pi, vmn._part_memo, quantum._roots, eichler._ray_table)

# exact in binary at every precision, so only mp.prec tells the keys apart;
# Im tau < sqrt(3)/2, so both kernels fold
TAU = mpc(0.125, 0.75)
V = mpc(0.25, 0.125)


@pytest.fixture(autouse=True)
def cold_memos():
    for memo in MEMOS:
        memo.cache_clear()
    yield
    for memo in MEMOS:
        memo.cache_clear()


@contextmanager
def no_memo():
    """Run the kernels without their memo: every call computes afresh."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qseries, "_eta_folded", qseries._eta_folded.__wrapped__)
        patch.setattr(theta, "_theta_folded", theta._theta_folded.__wrapped__)
        patch.setattr(core, "_e2pi", core._e2pi.__wrapped__)
        patch.setattr(vmn, "_part_memo", vmn._part_memo.__wrapped__)
        patch.setattr(quantum, "_roots", quantum._roots.__wrapped__)
        yield


def same_bits(a, b):
    return a.real._mpf_ == b.real._mpf_ and a.imag._mpf_ == b.imag._mpf_


def test_neither_memo_outgrows_its_cap(monkeypatch):
    for k in range(KERNEL_MEMO + 44):
        tau = mpc(k / 1000, 1.2)
        eta(tau)
        jacobi_theta(V, tau)
    for memo in KERNELS:
        info = memo.cache_info()
        assert info.maxsize == KERNEL_MEMO
        assert info.currsize == KERNEL_MEMO and info.misses == KERNEL_MEMO + 44
    # e2pi at complex exponents, and the part memo of the rows, filled
    # through a stand-in for a part's value that costs nothing
    monkeypatch.setattr(vmn, "_mu_form", lambda spec, f, tau: tau)
    core._e2pi.cache_clear()
    for k in range(KERNEL_MEMO + 44):
        e2pi(mpc(k / 1000, 1.2))
        vmn_eval_mu("1", 1, mpc(k / 1000, 1.2))
    # the ray memo of g_{a,b} tables, filled here through stand-ins for the
    # fold and the sides that cost nothing
    monkeypatch.setattr(eichler, "_cusp_pair", lambda spec, x: (spec, x, Fr(0)))
    monkeypatch.setattr(eichler, "_gauss_side", lambda *args: args)
    for k in range(KERNEL_MEMO + 44):
        eichler._ray_table(Fr(1, 4), Fr(1, 2), Fr(1, k + 1), mp.prec)
    for memo in (core._e2pi, vmn._part_memo, eichler._ray_table):
        info = memo.cache_info()
        assert info.maxsize == KERNEL_MEMO
        assert info.currsize == KERNEL_MEMO and info.misses == KERNEL_MEMO + 44


def assert_cold_bits_at_each_precision(kernels, order):
    """Each kernel, a function returning a list of values, gives through
    its memo the bits it computes cold at each precision of `order`, on a
    first call and on a second, and different bits at the two precisions."""
    cold = {}
    for dps in order:
        with mp.workdps(dps):
            for name, kernel in kernels.items():
                with no_memo():
                    cold[name, dps] = kernel()
    for dps in order:
        with mp.workdps(dps):
            for name, kernel in kernels.items():
                for _ in range(2):  # a second call hits and returns the same bits
                    assert all(same_bits(a, b) for a, b in
                               zip(kernel(), cold[name, dps], strict=True)), (name, dps)
    for name in kernels:
        assert not same_bits(cold[name, order[0]][0], cold[name, order[1]][0])


@pytest.mark.parametrize("order", [(16, 30), (30, 16)], ids=["16-then-30", "30-then-16"])
def test_a_value_is_never_returned_at_another_precision(order):
    assert_cold_bits_at_each_precision(
        {"eta": lambda: [eta(TAU)], "theta": lambda: [jacobi_theta(V, TAU)],
         "e2pi": lambda: [e2pi(TAU)]}, order)
    for memo in KERNELS:
        assert memo.cache_info().misses == 2
    # a row's part, on each route; the rows of family 4 read the same parts
    assert_cold_bits_at_each_precision(
        {"mu": lambda: [vmn_eval_mu("4p", 2, TAU), vmn_eval_mu("4", 2, TAU)],
         "series": lambda: [vmn_eval_series("4p", 2, TAU), vmn_eval_series("4", 2, TAU)]},
        order)
    assert vmn._part_memo.cache_info().misses == 2 * 2 * 2


def test_the_sum_route_bypasses_the_memo():
    jacobi_theta(V, TAU)
    before = theta._theta_folded.cache_info()
    jacobi_theta(V, TAU, representation="sum")
    jacobi_theta(V, TAU / 2, representation="sum")
    assert theta._theta_folded.cache_info() == before


@pytest.mark.parametrize("tau", [mpc(0.3, 0), mpc(0.3, -0.1), 2], ids=["real", "lower", "int"])
def test_the_lower_half_plane_still_raises(tau):
    with pytest.raises(ValueError):
        eta(tau)
    for representation in ("product", "sum"):
        with pytest.raises(ValueError):
            jacobi_theta(V, tau, representation=representation)
    for memo in MEMOS:
        assert memo.cache_info()[:2] == (0, 0)


def _routes(tau):
    """Both routes of every row, every e_n and every E_m at tau."""
    values = []
    for label, n in all_rows():
        values += [vmn_eval_mu(label, n, tau), vmn_eval_series(label, n, tau)]
    for i in range(1, 14):
        values += [eta_theta_eval("e%d" % i, tau),
                   eta_theta_eval("e%d" % i, tau, representation="character-sum")]
    for m in range(1, 7):
        values += [eta_theta_eval("E%d" % m, tau), E_from_g(m, tau)]
    return values


def test_the_catalogue_at_one_tau_shares_its_kernels():
    tau = mpc(0.17, 0.93)
    with no_memo():
        cold = _routes(tau)
    warm = _routes(tau)
    assert len(warm) == 2 * (59 + 13 + 6)
    assert all(same_bits(a, b) for a, b in zip(warm, cold, strict=True))
    # 218 eta calls on 23 distinct s*tau, and no theta call: mu's series
    # reads theta(v_n) off its own walk, and a row of family 4 reads its
    # parts' values, so it calls neither
    eta_info, theta_info = (memo.cache_info() for memo in KERNELS)
    assert (eta_info.misses, eta_info.hits) == (23, 195)
    assert (theta_info.misses, theta_info.hits) == (0, 0)
    # 51 parts a route (next test), and 762 exponentials on 136 distinct
    # keys: q, e(tau/8), the steps and the phases of the walks at one tau,
    # e(u/2) and e(v/2) of each mu series, and those of the eta folds, which
    # take their guard digits
    part_info = vmn._part_memo.cache_info()
    assert (part_info.misses, part_info.hits) == (2 * 51, 2 * 16)
    assert core._e2pi.cache_info().misses == 136


def test_one_row_reads_two_new_exponentials():
    # at a tau whose q and e(tau/8) are memoized, mu's series at a fresh
    # (u, v) computes e(u/2) and e(v/2) and nothing else, and it calls no
    # theta: theta(v) is read off the series' own walk
    tau = mpc(0.17, 1.03)
    mu_module._mu_series(mpc(0.31, 0.4), mpc(-0.2, 0.1), tau)
    u, v = mpc(0.23, 0.35), mpc(0.15, -0.2)
    before = core._e2pi.cache_info().misses
    theta._theta_folded.cache_clear()
    mu_module._mu_series(u, v, tau)
    assert core._e2pi.cache_info().misses == before + 2
    with mp.workprec(core.fixed_prec()):
        e2pi(u / 2)
        e2pi(v / 2)
    assert core._e2pi.cache_info().misses == before + 2
    assert theta._theta_folded.cache_info()[:2] == (0, 0)


@pytest.mark.parametrize("route", [vmn_eval_mu, vmn_eval_series], ids=["mu", "series"])
def test_each_route_computes_each_atomic_part_once(route):
    # 51 atomic and primed rows compute their part; the 8 rows of family 4
    # read the values of 4p and 4pp
    tau = mpc(0.17, 0.93)
    values = {row: route(*row, tau) for row in all_rows()}
    info = vmn._part_memo.cache_info()
    assert (info.misses, info.hits) == (51, 16)
    for n in range(1, 9):
        if ("4", n) in values:
            assert same_bits(values["4", n], values["4p", n] + values["4pp", n])


# ---------------------------------------------------------------------------
# e2pi at rationals and the table of roots of the finite sums

# a root of unity of an order prime to every 2k used here: never a pole
SAFE = RootOfUnity(1, 97)


def test_neither_rational_memo_outgrows_its_cap():
    for n in range(KERNEL_MEMO + 44):
        e2pi(Fr(n, 1009))
    info = core._e2pi.cache_info()
    assert info.maxsize == KERNEL_MEMO
    assert info.currsize == KERNEL_MEMO and info.misses == KERNEL_MEMO + 44


def test_e2pi_keys_on_the_exponent_mod_one():
    for x in (Fr(1, 3), Fr(4, 3), Fr(-2, 3), Fr(3 * 10 ** 30 + 1, 3)):
        assert same_bits(e2pi(x), e2pi(Fr(1, 3)))
    info = core._e2pi.cache_info()
    assert (info.misses, info.hits) == (1, 7)


def test_e2pi_keys_on_the_value_of_an_mpmath_number():
    # equal values held by distinct objects hit; an mpf and the mpc of the
    # same value stay apart, and so does each precision
    z, x = mpc(0.125, 0.75), mp.mpf(0.375)
    first = e2pi(z), e2pi(x)
    again = e2pi(mpc(z.real, z.imag)), e2pi(x + 0)
    assert all(same_bits(a, b) for a, b in zip(first, again))
    assert core._e2pi.cache_info()[:2] == (2, 2)
    e2pi(mpc(x))
    assert core._e2pi.cache_info()[:2] == (2, 3)
    with mp.workdps(mp.dps + 10):
        e2pi(mpc(z.real, z.imag))
        e2pi(x + 0)
    assert core._e2pi.cache_info()[:2] == (2, 5)


@pytest.mark.parametrize("order", [(16, 40), (40, 16)], ids=["16-then-40", "40-then-16"])
def test_a_rational_value_is_never_returned_at_another_precision(order):
    x = Fr(5, 7)
    assert_cold_bits_at_each_precision(
        {"e2pi": lambda: [e2pi(Fr(3, 7))], "F_hk": lambda: [F_hk(x, SAFE, SAFE * SAFE)]},
        order)
    assert quantum._roots.cache_info().misses == 2


def _finite_side(x):
    """Every finite-sum value at x: the companion sums, the first-column
    values, the corollary's finite side and the shift law of each base row."""
    values = []
    for m in FAMILIES:
        if in_quantum_set(m, 1, x):
            values.append(companion_sum(m, x))
        if quantum.rational_formula_defined(m, x):
            values += [vm1_at_rational(m, x), integral_identity_rhs(m, x)]
    for m, n in sorted({(family(label), n) for label, n in all_rows()}):
        if in_quantum_set(m, n, x):
            values.append(mpc(verify_thm12_iii(m, n, x)))
    return values


def test_a_warm_numerator_memo_returns_the_cold_bits():
    with mp.workdps(40):
        for x in (Fr(1, 3), Fr(-5, 7), Fr(7, 12)):
            with no_memo():
                cold = _finite_side(x)
            warm = _finite_side(x)
            assert len(warm) > 10
            assert all(same_bits(a, b) for a, b in zip(warm, cold, strict=True)), x


def _roots_calls(f, *args):
    quantum._roots.cache_clear()
    f(*args)
    info = quantum._roots.cache_info()
    return info.misses, info.hits


def test_every_finite_sum_at_one_x_reads_one_table():
    # F_hk, companion_sum and vm1_at_rational run their integer pass at one
    # precision, so at one x and dps they read one table of roots
    x = Fr(1, 5)
    for dps in (16, 40):
        with mp.workdps(dps):
            quantum._roots.cache_clear()
            companion_sum("1", x)
            vm1_at_rational("1", x)
            F_hk(x, *rational_z_args("1", x))
            info = quantum._roots.cache_info()
            assert (info.misses, info.hits) == (1, 2)


@pytest.mark.parametrize("m", ["1", "2", "3", "5", "6"])
def test_both_sign_companions_share_one_numerator(m):
    assert _roots_calls(companion_sum, m, Fr(1, 5)) == (1, 0)


def test_the_parts_of_family_4_share_one_numerator():
    x = Fr(1, 5)
    assert _roots_calls(companion_sum, "4", x) == (1, 0)
    assert _roots_calls(vm1_at_rational, "4", x) == (1, 0)


@pytest.mark.parametrize("m, n", [("1", 1), ("3", 2), ("4", 1), ("6", 4)])
def test_the_shift_law_reads_one_numerator_at_x_and_its_image(m, n):
    # x and x + lcm(N, 2) have one denominator, so they read one table
    x = Fr(1, 4)
    assert in_quantum_set(m, n, x) and group_generators(m, n)[1].b % 2 == 0
    assert _roots_calls(verify_thm12_iii, m, n, x) == (1, 1)


def test_the_multiplier_is_derived_once_per_row_and_gamma():
    # the law at one generator reads one exact root, at any tau and precision
    transformation_root.cache_clear()
    verify_thm12_iii("3", 2, mpc(0.1, 0.9))
    misses = transformation_root.cache_info().misses
    assert misses >= 1
    verify_thm12_iii("3", 2, mpc(-0.2, 1.1))
    with mp.workdps(50):
        verify_thm12_iii("3", 2, mpc(0.1, 0.9))
    assert transformation_root.cache_info().misses == misses

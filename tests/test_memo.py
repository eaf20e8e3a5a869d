"""The memo of the folded eta and theta kernels.

`eta` and the product route of `jacobi_theta` keep their folded values,
keyed by the exact arguments and `mp.prec`, for the KERNEL_MEMO most
recently used keys.  These tests pin that contract: the cap holds, a value
never crosses precisions, the sum route stays outside the memo, and a
warm memo returns the bits a cold one computes.  They also pin how much
the 59 rows share at one tau, so a change that perturbs the bits of s*tau
or v_n fails here rather than silently losing the sharing.
"""

from contextlib import contextmanager

import pytest
from mpmath import mp, mpc

from etamock import qseries, theta
from etamock.qseries import KERNEL_MEMO, eta
from etamock.theta import E_from_g, eta_theta_eval, jacobi_theta
from etamock.vmn import all_rows, vmn_eval_mu, vmn_eval_series

DPS = 30

MEMOS = (qseries._eta_folded, theta._theta_folded)

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
        yield


def same_bits(a, b):
    return a.real._mpf_ == b.real._mpf_ and a.imag._mpf_ == b.imag._mpf_


def test_neither_memo_outgrows_its_cap():
    for k in range(KERNEL_MEMO + 44):
        tau = mpc(k / 1000, 1.2)
        eta(tau)
        jacobi_theta(V, tau)
    for memo in MEMOS:
        info = memo.cache_info()
        assert info.maxsize == KERNEL_MEMO
        assert info.currsize == KERNEL_MEMO and info.misses == KERNEL_MEMO + 44


@pytest.mark.parametrize("order", [(16, 30), (30, 16)], ids=["16-then-30", "30-then-16"])
def test_a_value_is_never_returned_at_another_precision(order):
    kernels = {"eta": lambda: eta(TAU), "theta": lambda: jacobi_theta(V, TAU)}
    cold = {}
    for dps in order:
        with mp.workdps(dps):
            for name, kernel in kernels.items():
                with no_memo():
                    cold[name, dps] = kernel()
    for dps in order:
        with mp.workdps(dps):
            for name, kernel in kernels.items():
                assert same_bits(kernel(), cold[name, dps]), (name, dps)
                # a second call is a hit and returns the same bits
                assert same_bits(kernel(), cold[name, dps]), (name, dps)
    for name in kernels:
        assert not same_bits(cold[name, 16], cold[name, 30])
    for memo in MEMOS:
        assert memo.cache_info().misses == 2


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
    # 268 eta calls on 23 distinct s*tau, 67 theta calls on 8 distinct v_n
    eta_info, theta_info = (memo.cache_info() for memo in MEMOS)
    assert (eta_info.misses, eta_info.hits) == (23, 245)
    assert (theta_info.misses, theta_info.hits) == (8, 59)

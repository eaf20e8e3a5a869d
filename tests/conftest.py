"""Per-module working precision.

mpmath's precision is global, so a module that assigned ``mp.dps`` at import
would set it for every test collected after it.  A module instead declares
``DPS``, and each of its tests runs under ``mp.workdps(DPS)``; the caller's
precision is restored after every test, whatever the order the tests run in.
A test that returns with mp.dps changed fails at teardown: no call may leak
mpmath precision state.
"""

import pytest
from mpmath import mp


@pytest.fixture(autouse=True)
def module_precision(request):
    dps = getattr(request.module, "DPS", mp.dps)
    with mp.workdps(dps):
        yield
        assert mp.dps == dps, "the test left mp.dps at %d, not %d" % (mp.dps, dps)

"""Seeded inputs and checks of the four benchmark workloads.

`make_inputs(workload, seed)` returns plain data only (strings, ints,
floats, Fractions and tuples of them), so the same seed gives equal
inputs in any process.  `build_checks` binds that data to calls of the
public `etamock` functions.  Every call goes through the package
namespace at call time, so a tracer that rebinds those names sees it.

Each check returns a list of (residual, tolerance) pairs.  Tolerance 0
marks an exact check, which passes only with residual 0.  The
tolerances are the ones the CLI suites and the tests already use.

Why each workload exists is written down in README.md next to this file.
"""

import random
from collections import namedtuple
from fractions import Fraction as Fr
from functools import lru_cache
from math import gcd

from mpmath import mpc

import etamock as E
import etamock.quantum as quantum

DPS = {"cusp": 16, "bulk": 30, "period": 16, "rational": 40}

Check = namedtuple("Check", "name kind args")

# rows checked per cusp round, one transformation each
CUSP_CHECKS = 36
BULK_TAUS = 3
PERIOD_TAUS = 6
COMPANION_HEIGHT = 20
COMPOSITE_HEIGHT = 12
SHIFT_HEIGHT = 12
ORBIT_HEIGHT = 20
ORBIT_POINTS = 25
OUTSIDE_POINTS = 10


def _tau(rng, lo, hi):
    return (rng.uniform(-0.5, 0.5), rng.uniform(lo, hi))


def _base_pairs():
    return [(m, n) for m in "123456" for n in range(1, 9)
            if E.is_admissible(m, n)]


@lru_cache(maxsize=None)
def _rationals(height, k=None):
    dens = [k] if k else range(1, height + 1)
    return tuple(Fr(h, d) for d in dens for h in range(-height, height + 1)
                 if h and gcd(abs(h), d) == 1)


def _in_set(m, n, height, k=None, exclude=()):
    return [x for x in _rationals(height, k)
            if x not in exclude and E.in_quantum_set(m, n, x)]


def _im_image(g, tau):
    x, y = tau
    return y / ((g.c * x + g.d) ** 2 + (g.c * y) ** 2)


def _cusp(rng):
    # systematic sample: rows in an order that tracks the cost of a check
    # (composite last, then group level), one row from each of CUSP_CHECKS
    # equal blocks, so every seed gets a round of nearly the same cost
    rows = sorted(E.all_rows(), key=lambda row: (
        row[0] == "4", E.vmn_spec(*row).group_N, row))
    step = len(rows) / CUSP_CHECKS
    offset = rng.uniform(0, step)
    picked = [rows[int(offset + i * step)] for i in range(CUSP_CHECKS)]
    heights = [0.95 + 0.1 * (i + rng.random()) / CUSP_CHECKS
               for i in range(CUSP_CHECKS)]
    rng.shuffle(heights)
    out = []
    for (label, n), y in zip(picked, heights):
        tau = (rng.uniform(-0.5, 0.5), y)
        # the sample element that takes tau closest to the cusp
        g = min(E.group_sample(label, n, count=4),
                key=lambda g: _im_image(g, tau))
        out.append(("thm11", label, n, (g.a, g.b, g.c, g.d), tau))
    return out


def _bulk(rng):
    out = []
    width = 0.8 / BULK_TAUS
    for stratum in range(BULK_TAUS):
        tau = _tau(rng, 0.6 + stratum * width, 0.6 + (stratum + 1) * width)
        out += [("vmn_routes", label, n, tau) for label, n in E.all_rows()]
        out += [("eta_theta_routes", "e%d" % i, tau) for i in range(1, 14)]
        out += [("E_from_g", m, tau) for m in range(1, 7)]
    return out


def _period(rng):
    def point(m):
        return rng.choice(_in_set(m, 1, 6, exclude=(Fr(-1), Fr(-1, 2))))

    x5, x6, x2 = point("5"), point("6"), point("2")
    # the second check at the same (family, endpoint, x) reuses the cached
    # ray integral, as a user running several identities would
    heavy = [("table2", "2", _tau(rng, 0.8, 1.2)),
             ("table2", "6", _tau(rng, 0.8, 1.2)),
             ("thm12_i", "3", 1, _tau(rng, 0.8, 1.2)),
             ("thm12_i", "5", 1, x5), ("corollary", "5", x5),
             ("corollary", "6", x6), ("thm12_ii", "6", x6),
             ("corollary", "2", x2), ("thm12_ii", "2", x2)]
    # light checks: the shift law on every column of a family at one tau,
    # long enough that a short stall of the machine averages out inside one
    light = [("shift_family", m, _tau(rng, 0.95, 1.05))
             for _ in range(PERIOD_TAUS) for m in "123456"]
    # spread over the round, so their latencies sample the whole run
    out = []
    for i, check in enumerate(heavy):
        out.append(check)
        out += light[i * len(light) // len(heavy):
                     (i + 1) * len(light) // len(heavy)]
    return out


def _rational(rng):
    out = []
    for m in ("1", "2", "3", "5", "6"):
        excluded = (Fr(-1, quantum.ELL[m]),)
        for k in range(1, COMPANION_HEIGHT + 1):
            points = _in_set(m, 1, COMPANION_HEIGHT, k, excluded)
            out += [("companion", m, x)
                    for x in rng.sample(points, min(2, len(points)))]
    for k in range(1, COMPOSITE_HEIGHT + 1):
        points = _in_set("4", 1, COMPOSITE_HEIGHT, k)
        out += [("companion4", x)
                for x in rng.sample(points, min(2, len(points)))]
    pairs = _base_pairs()
    for m, n in pairs:
        out += [("thm12_iii", m, n, x)
                for x in rng.sample(_in_set(m, n, SHIFT_HEIGHT), 2)]
    for m, n in rng.sample(pairs, OUTSIDE_POINTS):
        outside = [x for x in _rationals(SHIFT_HEIGHT)
                   if not E.in_quantum_set(m, n, x)]
        out.append(("outside", m, n, rng.choice(outside)))
    for m, n in pairs:
        window = rng.sample(_in_set(m, n, ORBIT_HEIGHT), ORBIT_POINTS)
        out.append(("orbit", m, n, tuple(window)))
    labels = ["e%d" % i for i in range(1, 14)] + ["E%d" % i for i in range(1, 7)]
    out += [("qexp", label, rng.randint(90, 110)) for label in labels]
    return out


_GENERATORS = {"cusp": _cusp, "bulk": _bulk, "period": _period,
               "rational": _rational}
WORKLOADS = tuple(_GENERATORS)


def make_inputs(workload, seed):
    """The plain-data inputs of one round of `workload` for `seed`."""
    # a string seed is hashed with SHA-512, independent of PYTHONHASHSEED
    return _GENERATORS[workload](random.Random("%s:%d" % (workload, seed)))


# ---------------------------------------------------------------------------
# checks


def _point(x):
    return mpc(*x) if isinstance(x, tuple) else x


def _thm11(label, n, g, tau):
    return [(E.verify_thm11(label, n, E.SL2Matrix(*g), mpc(*tau)), 1e-8)]


def _vmn_routes(label, n, tau):
    tau = mpc(*tau)
    return [(abs(E.vmn_eval_mu(label, n, tau) - E.vmn_eval_series(label, n, tau)),
             1e-11)]


def _eta_theta_routes(label, tau):
    tau = mpc(*tau)
    return [(abs(E.eta_theta_eval(label, tau)
                 - E.eta_theta_eval(label, tau, representation="character-sum")),
             1e-11)]


def _e_from_g(m, tau):
    tau = mpc(*tau)
    return [(abs(E.eta_theta_eval("E%d" % m, tau) - E.E_from_g(m, tau)), 1e-11)]


def _table2(m, tau):
    res = E.verify_table2(m, mpc(*tau))
    return [(res[key], 1e-7) for key in ("I", "J", "functional_equation")]


def _thm12_i(m, n, x):
    return [(E.verify_thm12_i(m, n, _point(x)), 1e-6)]


def _thm12_ii(m, x):
    return [(E.verify_thm12_ii(m, _point(x)), 1e-6)]


def _thm12_iii(m, n, x):
    return [(E.verify_thm12_iii(m, n, _point(x)), 1e-10)]


def _shift_family(m, tau):
    tau = mpc(*tau)
    return [(E.verify_thm12_iii(m, n, tau), 1e-10)
            for n in range(1, 9) if E.is_admissible(m, n)]


def _corollary(m, x):
    return [(E.corollary_check(m, x)[2], 1e-9)]


def _companion(m, x):
    return [(abs(E.companion_sum(m, x)), 1e-12)]


def _companion4(x):
    return [(abs(E.companion_sum_composite(x)), 1e-12)]


def _outside(m, n, x):
    # outside its quantum set a row has no rational value: the documented
    # outcome is a ValueError, and anything else counts as a failure
    try:
        E.vmn_at_rational(m, n, x)
    except ValueError:
        return [(0, 0)]
    return [(1, 0)]


def _orbit(m, n, window):
    mats = E.group_generators(m, n)
    mats += tuple(g.inv() for g in mats)
    escaped = 0
    for x in window:
        for g in mats:
            y = quantum.mobius_rational(g, x)
            if y is not None and not E.in_quantum_set(m, n, y):
                escaped += 1
    return [(escaped, 0)]


def _qexp(label, order):
    quotient = E.eta_theta_qexp(label, order)
    charsum = E.eta_theta_qexp(label, order, representation="character-sum")
    return [(0 if quotient == charsum else 1, 0)]


KINDS = {
    "thm11": _thm11, "vmn_routes": _vmn_routes,
    "eta_theta_routes": _eta_theta_routes, "E_from_g": _e_from_g,
    "table2": _table2, "thm12_i": _thm12_i, "thm12_ii": _thm12_ii,
    "thm12_iii": _thm12_iii, "shift_family": _shift_family,
    "corollary": _corollary,
    "companion": _companion, "companion4": _companion4,
    "outside": _outside, "orbit": _orbit, "qexp": _qexp,
}


def build_checks(workload, seed):
    """Named checks of one round; run one with `run_check`."""
    return [Check("%s%r" % (spec[0], spec[1:]), spec[0], spec[1:])
            for spec in make_inputs(workload, seed)]


def run_check(check):
    return KINDS[check.kind](*check.args)

"""Command line surface: evaluation, expansions, verification suites.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 usage or
domain error.  JSON output is deterministic for a fixed command line
(wall time is reported only in plain format).
"""

import argparse
import json
import random
import re
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

from mpmath import mp, mpc, mpf

from .core import DEFAULT_DPS, MIN_DPS
from .qseries import (RootOfUnity, e2pi, eta, eta_quotient_qexp,
                      _eta_product_raw, _eta_sum_raw)
from .theta import (E_from_g, e_from_theta, eta_theta_eval, eta_theta_qexp,
                    g_ab, jacobi_theta, partial_theta,
                    theta_specialization_point)
from .mu import MabSpec, g_complement, kang_pair, mordell_h, mu, xi_shadow
from .vmn import (ATOMIC_LABELS, all_rows, base_label, catalogue_json, group_sample,
                  normalize_label, verify_thm11, vmn_eval_mu, vmn_eval_series, vmn_spec)
from .quantum import (as_fraction, companion_sum, group_generators, in_quantum_set,
                      mobius_rational, quantum_set_label, rational_z_args, F_hk,
                      vmn_any)
from .eichler import (corollary_check, unary_ray_integral, verify_table2,
                      verify_thm12_i, verify_thm12_ii, verify_thm12_iii)


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# argument parsing helpers


def parse_rational(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError("not a rational number: %r" % text)


_DECIMAL = r"(?:(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
_COMPLEX = re.compile(
    r"(?P<re>[+-]?{0})(?P<im>[+-]{0}?)[ij]"  # a+bi, a-i
    r"|(?P<im_only>[+-]?{0}?)[ij]"  # bi, i, -i
    r"|(?P<re_only>[+-]?{0})".format(_DECIMAL))  # a


def _signed_mpf(text):
    # "", "+" and "-" stand for the unit of an imaginary part: i, +i, -i
    return mpf(text + "1" if text in ("", "+", "-") else text)


def parse_complex(text):
    """Accept 1.3i, 0.5+2i, 1e-3i, i, -i, 1/3 and plain reals.

    Each part is read from its decimal string at the working precision,
    not through a 53-bit float.
    """
    s = text.strip().replace(" ", "")
    if "/" in s and "i" not in s and "j" not in s:
        fr = parse_rational(s)
        return mpc(mpf(fr.numerator) / fr.denominator)
    match = _COMPLEX.fullmatch(s)
    if match is None:
        raise UsageError("not a complex number: %r" % text)
    if match["re_only"] is not None:
        return mpc(mpf(match["re_only"]))
    if match["im_only"] is not None:
        return mpc(0, _signed_mpf(match["im_only"]))
    return mpc(mpf(match["re"]), _signed_mpf(match["im"]))


_FACTOR = re.compile(r"([+-]?\d+):([+-]?\d+)")


def parse_factors(text):
    """Read an eta quotient given as scale:power,... (e.g. 1:2,2:-1)."""
    parts = [_FACTOR.fullmatch(part.strip()) for part in text.split(",")]
    if not all(parts):
        raise UsageError("--factors takes scale:power,... (e.g. 1:2,2:-1), not %r" % text)
    return [(int(m[1]), int(m[2])) for m in parts]


# ---------------------------------------------------------------------------
# values and reports


def format_value(v):
    if isinstance(v, Fraction):
        return {"num": v.numerator, "den": v.denominator}
    if isinstance(v, (mpc, complex)):
        return {"re": float(v.real), "im": float(v.imag)}
    if isinstance(v, mpf):
        return float(v)
    if isinstance(v, (list, tuple)):
        return [format_value(x) for x in v]
    if isinstance(v, dict):
        return {k: format_value(x) for k, x in v.items()}
    return v


@dataclass
class Check:
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self):
        return self.residual <= self.tolerance


@dataclass
class RunReport:
    command: str
    inputs: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    wall_time: float = 0.0

    def add_check(self, name, residual, tolerance):
        self.checks.append(Check(name, float(residual), float(tolerance)))

    @property
    def ok(self):
        return all(c.passed for c in self.checks)

    def as_dict(self):
        return {
            "command": self.command,
            "inputs": {k: format_value(v) for k, v in self.inputs.items()},
            "outputs": {k: format_value(v) for k, v in self.outputs.items()},
            "checks": [{"name": c.name, "residual": c.residual,
                        "tolerance": c.tolerance, "passed": c.passed}
                       for c in self.checks],
            "passed": self.ok,
        }

    def to_json(self):
        return json.dumps(self.as_dict(), indent=2)

    def to_csv(self):
        lines = ["kind,name,value,tolerance,passed"]

        def flat(prefix, value):
            if isinstance(value, dict):
                for k, v in value.items():
                    flat("%s.%s" % (prefix, k), v)
            elif isinstance(value, list):
                for i, v in enumerate(value):
                    flat("%s.%d" % (prefix, i), v)
            else:
                lines.append("output,%s,%r,," % (prefix, value))

        for k, v in self.outputs.items():
            flat(k, format_value(v))
        for c in self.checks:
            lines.append("check,%s,%r,%r,%s"
                         % (c.name, c.residual, c.tolerance, c.passed))
        return "\n".join(lines)

    def to_plain(self):
        lines = ["%s" % self.command]
        for k, v in self.inputs.items():
            lines.append("  %s = %s" % (k, v))
        for k, v in self.outputs.items():
            fv = format_value(v)
            if isinstance(fv, dict) and set(fv) == {"re", "im"}:
                lines.append("%s = %.15g %+.15gi" % (k, fv["re"], fv["im"]))
            else:
                lines.append("%s = %s" % (k, fv))
        for c in self.checks:
            lines.append("[%s] %s  residual=%.3e  tol=%.1e"
                         % ("PASS" if c.passed else "FAIL", c.name,
                            c.residual, c.tolerance))
        lines.append("wall time %.2f s" % self.wall_time)
        return "\n".join(lines)

    def render(self, fmt):
        if fmt == "json":
            return self.to_json()
        if fmt == "csv":
            return self.to_csv()
        return self.to_plain()


# ---------------------------------------------------------------------------
# eval command


def _tol(tol, default):
    """The --tol override when given, 0 included; else the check's default."""
    return default if tol is None else tol


def _require(args, names):
    for name in names:
        if getattr(args, name, None) is None:
            raise UsageError("--%s is required for this function" % name)


def cmd_eval(args):
    report = RunReport("eval %s" % args.function)
    fn = args.function
    if fn == "eta":
        _require(args, ["tau"])
        tau = parse_complex(args.tau)
        report.inputs["tau"] = args.tau
        report.outputs["eta"] = eta(tau)
        if args.crosscheck:
            diff = abs(_eta_product_raw(tau) - _eta_sum_raw(tau))
            report.add_check("eta product route matches pentagonal sum route",
                             diff, _tol(args.tol, 1e-12))
    elif fn == "theta":
        _require(args, ["v", "tau"])
        v = parse_complex(args.v)
        tau = parse_complex(args.tau)
        report.inputs.update(v=args.v, tau=args.tau)
        report.outputs["theta"] = jacobi_theta(v, tau)
        if args.crosscheck:
            diff = abs(jacobi_theta(v, tau, representation="sum")
                       - jacobi_theta(v, tau, representation="product"))
            report.add_check("theta series matches triple product",
                             diff, _tol(args.tol, 1e-12))
    elif fn == "mu":
        _require(args, ["u", "v", "tau"])
        u, v, tau = parse_complex(args.u), parse_complex(args.v), parse_complex(args.tau)
        report.inputs.update(u=args.u, v=args.v, tau=args.tau)
        report.outputs["mu"] = mu(u, v, tau)
    elif fn == "g":
        _require(args, ["a", "b", "tau"])
        spec = (parse_rational(args.a), parse_rational(args.b))
        tau = parse_complex(args.tau)
        report.inputs.update(a=args.a, b=args.b, tau=args.tau)
        report.outputs["g_ab"] = g_ab(spec, tau)
    elif fn == "e":
        if len(args.indices) != 1:
            raise UsageError("eval e takes one index, 1..13")
        _require(args, ["tau"])
        n = int(args.indices[0])
        tau = parse_complex(args.tau)
        report.inputs.update(n=n, tau=args.tau)
        report.outputs["e_n"] = eta_theta_eval("e%d" % n, tau)
        if args.crosscheck:
            diff = abs(eta_theta_eval("e%d" % n, tau)
                       - eta_theta_eval("e%d" % n, tau,
                                        representation="character-sum"))
            report.add_check("eta-quotient route matches character sum",
                             diff, _tol(args.tol, 1e-12))
    elif fn == "E":
        if len(args.indices) != 1:
            raise UsageError("eval E takes one index, 1..6")
        _require(args, ["tau"])
        m = int(args.indices[0])
        tau = parse_complex(args.tau)
        report.inputs.update(m=m, tau=args.tau)
        report.outputs["E_m"] = eta_theta_eval("E%d" % m, tau)
        if args.crosscheck:
            diff = abs(eta_theta_eval("E%d" % m, tau) - E_from_g(m, tau))
            report.add_check("eta-quotient route matches unary combination",
                             diff, _tol(args.tol, 1e-12))
    elif fn == "Etilde":
        if len(args.indices) != 1:
            raise UsageError("eval Etilde takes one index, 1..6")
        _require(args, ["z"])
        m = int(args.indices[0])
        z = parse_complex(args.z)
        report.inputs.update(m=m, z=args.z)
        report.outputs["E_tilde"] = partial_theta(m, z)
    elif fn == "V":
        if len(args.indices) != 2:
            raise UsageError("eval V takes a label and a column, e.g. V 1 2")
        label, n = args.indices[0], int(args.indices[1])
        if args.tau is not None:
            point = parse_complex(args.tau)
            report.inputs.update(m=label, n=n, tau=args.tau)
        elif args.x is not None:
            point = parse_rational(args.x)
            report.inputs.update(m=label, n=n, x=args.x)
        else:
            raise UsageError("eval V needs --tau or --x")
        report.outputs["V"] = vmn_any(label, n, point)
        if args.crosscheck and args.tau is not None:
            diff = abs(vmn_eval_mu(label, n, point)
                       - vmn_eval_series(label, n, point))
            report.add_check("mu representation matches series representation",
                             diff, _tol(args.tol, 1e-11))
    elif fn == "Fhk":
        _require(args, ["x"])
        x = parse_rational(args.x)
        report.inputs["x"] = args.x
        if args.z1 is not None and args.z2 is not None:
            z1 = RootOfUnity.from_fraction(parse_rational(args.z1))
            z2 = RootOfUnity.from_fraction(parse_rational(args.z2))
            report.inputs.update(z1=args.z1, z2=args.z2)
        elif args.m is not None:
            z1, z2 = rational_z_args(args.m, x)
            report.inputs["m"] = args.m
            report.outputs["z1_exponent"] = z1.exponent
            report.outputs["z2_exponent"] = z2.exponent
        else:
            raise UsageError("eval Fhk needs --z1/--z2 exponents or --m")
        report.outputs["F_hk"] = F_hk(x, z1, z2)
    else:
        raise UsageError("unknown function %r" % fn)
    return report


# ---------------------------------------------------------------------------
# qexp command


def cmd_qexp(args):
    report = RunReport("qexp")
    order = Fraction(args.order)
    if args.factors:
        if args.label or args.both_routes:
            raise UsageError("qexp --factors takes no label and no --both-routes")
        series = eta_quotient_qexp(parse_factors(args.factors), order)
        report.inputs.update(factors=args.factors, order=args.order)
    elif args.label:
        series = eta_theta_qexp(args.label, order)
        report.inputs.update(label=args.label, order=args.order)
        if args.both_routes:
            other = eta_theta_qexp(args.label, order,
                                   representation="character-sum")
            bad = (series - other).items()
            report.outputs["route_difference_terms"] = [
                {"exponent": e, "coefficient": c} for e, c in bad]
            report.add_check("both expansion routes agree exactly",
                             float(len(bad)), 0.0)
    else:
        raise UsageError("qexp needs a label or --factors")
    report.outputs["terms"] = [{"exponent": e, "coefficient": c}
                               for e, c in series.items()]
    return report


# ---------------------------------------------------------------------------
# verify suites


def _sample_tau(rng):
    return mpc(rng.uniform(-0.5, 0.5), rng.uniform(0.6, 1.4))


def _sample_uv(rng, tau):
    def pt():
        return (rng.uniform(-0.4, 0.4) + rng.uniform(0.1, 0.9) * tau
                + mpc(0.013, 0.007))
    return pt(), pt()


def _suite_mu(report, rng, samples, tol):
    for i in range(samples):
        tau = _sample_tau(rng)
        u, v = _sample_uv(rng, tau)
        report.add_check("mu symmetric in u and v (sample %d)" % i,
                         abs(mu(u, v, tau) - mu(v, u, tau)), _tol(tol, 1e-11))
        report.add_check("mu elliptic shift u+1 (sample %d)" % i,
                         abs(mu(u + 1, v, tau) + mu(u, v, tau)), _tol(tol, 1e-11))
        a = rng.uniform(0.05, 0.45) + 1j * rng.uniform(0.0, 0.2)
        lhs, rhs = kang_pair(a, tau)
        report.add_check("mu factors through g2 at alpha (sample %d)" % i,
                         abs(lhs - rhs), _tol(tol, 1e-9))
    tau0 = mpc(0, 1)
    quad = unary_ray_integral((Fraction(3, 4), Fraction(3, 4)), mpf(0), tau0)
    closed = -e2pi(Fraction(3, 16)) * e2pi(tau0 * Fraction(-1, 32)) \
        * mordell_h(tau0 / 4 - Fraction(1, 4), tau0)
    report.add_check("ray integral of unary theta matches Mordell integral",
                     abs(quad - closed), _tol(tol, 1e-7))


def _suite_theta(report, rng, samples, tol):
    for i in range(samples):
        tau = _sample_tau(rng)
        for n in (1, 3, 7, 11):
            diff = abs(eta_theta_eval("e%d" % n, tau)
                       - eta_theta_eval("e%d" % n, tau,
                                        representation="character-sum"))
            report.add_check(
                "e_%d eta-quotient equals character sum (sample %d)" % (n, i),
                diff, _tol(tol, 1e-11))
        for m_idx in (1, 4, 6):
            diff = abs(eta_theta_eval("E%d" % m_idx, tau)
                       - E_from_g(m_idx, tau))
            report.add_check(
                "E_%d eta-quotient equals unary combination (sample %d)"
                % (m_idx, i), diff, _tol(tol, 1e-11))
        v, t = theta_specialization_point(3, tau)
        diff = abs(jacobi_theta(v, t) - e_from_theta(3, tau))
        report.add_check("theta at the row 3 specialization point (sample %d)" % i,
                         diff, _tol(tol, 1e-11))


def _suite_vmn(report, rng, samples, tol):
    rows = all_rows()
    for i in range(samples):
        tau = _sample_tau(rng)
        for label, n in rng.sample(rows, min(6, len(rows))):
            diff = abs(vmn_eval_mu(label, n, tau)
                       - vmn_eval_series(label, n, tau))
            report.add_check(
                "row (%s,%d) mu form equals series form (sample %d)"
                % (label, n, i), diff, _tol(tol, 1e-11))


def _suite_thm11(report, rng, samples, tol):
    rows = all_rows()
    picked = rng.sample(rows, min(max(samples, 3), len(rows)))
    for label, n in picked:
        tau = _sample_tau(rng)
        for gamma in group_sample(label, n, count=2):
            res = verify_thm11(label, n, gamma, tau)
            report.add_check(
                "completed row (%s,%d) transforms under (%d,%d;%d,%d)"
                % (label, n, gamma.a, gamma.b, gamma.c, gamma.d),
                res, _tol(tol, 1e-8))


def _suite_thm12(report, rng, samples, tol):
    points = {"1": Fraction(1, 3), "2": Fraction(1, 3), "3": Fraction(1, 1),
              "4": Fraction(1, 3), "5": Fraction(1, 2), "6": Fraction(1, 1)}
    for base in ("1", "2", "3", "4", "5", "6"):
        x = points[base]
        tau = _sample_tau(rng)
        report.add_check("family %s two-step shift identity at %s" % (base, x),
                         verify_thm12_iii(base, 1, x), _tol(tol, 1e-10))
        report.add_check("family %s ray identity at tau sample" % base,
                         verify_thm12_i(base, 1, tau), _tol(tol, 1e-6))
        if base in ("2", "4", "6"):
            report.add_check("family %s one-step ray identity at %s" % (base, x),
                             verify_thm12_ii(base, x), _tol(tol, 1e-6))


def _suite_table2(report, rng, samples, tol):
    for base in ("1", "2", "3", "4", "5", "6"):
        tau = _sample_tau(rng)
        res = verify_table2(base, tau)
        report.add_check("I_%s closed form equals quadrature" % base,
                         res["I"], _tol(tol, 1e-7))
        report.add_check("J_%s closed form equals quadrature" % base,
                         res["J"], _tol(tol, 1e-7))
        report.add_check("family %s completed transformation" % base,
                         res["functional_equation"], _tol(tol, 1e-7))


def _suite_corollary(report, rng, samples, tol, m=None, x=None):
    m = m or "1"
    x = as_fraction(x) if x is not None else Fraction(1, 3)
    lhs, rhs, res = corollary_check(m, x)
    report.outputs["lhs"] = lhs
    report.outputs["rhs"] = rhs
    report.add_check("quadrature matches finite hypergeometric sum",
                     res, _tol(tol, 1e-9))
    base = normalize_label(m)
    if base in ("1", "2", "3", "4", "5", "6"):
        kind = "four-term companion" if base == "4" else "sign-companion"
        report.add_check("%s sums cancel at %s" % (kind, x),
                         abs(companion_sum(base, x)), _tol(tol, 1e-12))


def _orbit(label, n, gens, x):
    """The images of x under the generators and their inverses, infinity
    left out, and how many of them fall outside the quantum set of row
    (label, n)."""
    mats = gens + tuple(g.inv() for g in gens)
    images = [y for y in (mobius_rational(g, x) for g in mats) if y is not None]
    return images, sum(not in_quantum_set(label, n, y) for y in images)


def _suite_quantum_closure(report, rng, samples, tol):
    bound = min(12 + samples, 30)
    rows = sorted({(base_label(lbl), n) for lbl, n in all_rows()})
    failures = 0
    images = 0
    for label, n in rows:
        gens = group_generators(label, n)
        for h in range(-bound, bound + 1):
            for k in range(1, bound + 1):
                x = Fraction(h, k)
                if x.denominator != k or not in_quantum_set(label, n, x):
                    continue
                orbit, bad = _orbit(label, n, gens, x)
                images += len(orbit)
                failures += bad
    report.outputs["rows"] = len(rows)
    report.outputs["images_checked"] = images
    report.add_check("generator orbits stay inside each quantum set",
                     float(failures), 0.0)


def _suite_shadow(report, rng, samples, tol):
    pairs = [p for label in ATOMIC_LABELS for p in vmn_spec(label, 1).shadow_pairs()]
    tau = mpc(0.12, 0.9)
    half = Fraction(1, 2)
    for a, b in pairs:
        diff = abs(xi_shadow(MabSpec(a, b), tau)
                   - g_complement((a + half, b + half), tau))
        report.add_check("xi image matches complement theta at (%s,%s)" % (a, b),
                         diff, _tol(tol, 1e-5))


_SUITES = {
    "mu": _suite_mu,
    "theta": _suite_theta,
    "vmn": _suite_vmn,
    "thm11": _suite_thm11,
    "thm12": _suite_thm12,
    "table2": _suite_table2,
    "corollary": _suite_corollary,
    "quantum-closure": _suite_quantum_closure,
    "shadow": _suite_shadow,
}


def cmd_verify(args):
    report = RunReport("verify %s" % args.suite)
    if args.samples < 1:
        raise UsageError("--samples must be at least 1")
    rng = random.Random(args.seed)
    report.inputs.update(seed=args.seed, samples=args.samples)
    suite = _SUITES[args.suite]
    if args.suite == "corollary":
        suite(report, rng, args.samples, args.tol, m=args.m,
              x=parse_rational(args.x) if args.x else None)
    else:
        suite(report, rng, args.samples, args.tol)
    return report


# ---------------------------------------------------------------------------
# quantum command


def cmd_quantum(args):
    report = RunReport("quantum %s %d %s" % (args.m, args.n, args.x))
    x = parse_rational(args.x)
    label = normalize_label(args.m)
    member = in_quantum_set(label, args.n, x)
    report.inputs.update(m=args.m, n=args.n, x=x)
    report.outputs["set"] = quantum_set_label(label, args.n)
    report.outputs["member"] = member
    gens = group_generators(label, args.n)
    report.outputs["generators"] = [[g.a, g.b, g.c, g.d] for g in gens]
    if member:
        orbit, bad = _orbit(label, args.n, gens, x)
        report.outputs["orbit_sample"] = orbit
        report.add_check("orbit of x stays inside the set", float(bad), 0.0)
        report.outputs["value"] = vmn_any(label, args.n, x)
    return report


def cmd_catalogue(args):
    report = RunReport("catalogue")
    report.outputs["rows"] = json.loads(catalogue_json())
    return report


# ---------------------------------------------------------------------------
# entry point


def build_parser():
    def add_global_flags(p, suppress):
        d = (lambda v: argparse.SUPPRESS) if suppress else (lambda v: v)
        p.add_argument("--precision", type=int, default=d(DEFAULT_DPS),
                       help="working precision in decimal digits "
                            "(at least %d)" % MIN_DPS)
        p.add_argument("--tol", type=float, default=d(None),
                       help="override the per-check tolerance")
        p.add_argument("--seed", type=int, default=d(0),
                       help="seed for the deterministic sampler")
        p.add_argument("--format", choices=("json", "csv", "plain"),
                       default=d("json"))

    # accepted both before and after the subcommand: the subparser copies
    # use SUPPRESS so they do not clobber values parsed at the top level
    common = argparse.ArgumentParser(add_help=False)
    add_global_flags(common, suppress=True)
    parser = argparse.ArgumentParser(
        prog="etamock",
        description="Evaluate and verify a catalogue of mock theta functions "
                    "built from eta-theta Appell-Lerch specializations.")
    add_global_flags(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", parents=[common],
                       help="evaluate a catalogued function")
    p.add_argument("function",
                   choices=("eta", "theta", "mu", "g", "e", "E", "Etilde",
                            "V", "Fhk"))
    p.add_argument("indices", nargs="*")
    p.add_argument("--tau")
    p.add_argument("--x")
    p.add_argument("--u")
    p.add_argument("--v")
    p.add_argument("--z")
    p.add_argument("--a")
    p.add_argument("--b")
    p.add_argument("--z1")
    p.add_argument("--z2")
    p.add_argument("--m")
    p.add_argument("--crosscheck", action="store_true",
                   help="also run the dual-representation check")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("qexp", parents=[common], help="exact q-expansions")
    p.add_argument("label", nargs="?")
    p.add_argument("--factors", help="eta quotient as scale:exponent,...")
    p.add_argument("--order", default="20")
    p.add_argument("--both-routes", action="store_true")
    p.set_defaults(func=cmd_qexp)

    p = sub.add_parser("verify", parents=[common], help="run a verification suite")
    p.add_argument("suite", choices=sorted(_SUITES))
    p.add_argument("--samples", type=int, default=2)
    p.add_argument("--m")
    p.add_argument("--x")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("quantum", parents=[common], help="quantum set membership and orbit")
    p.add_argument("m")
    p.add_argument("n", type=int)
    p.add_argument("x")
    p.set_defaults(func=cmd_quantum)

    p = sub.add_parser("catalogue", parents=[common], help="dump the 59 catalogue rows")
    p.set_defaults(func=cmd_catalogue)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code
    start = time.time()
    try:
        if args.precision < MIN_DPS:
            raise UsageError("--precision must be at least %d digits" % MIN_DPS)
        with mp.workdps(args.precision):
            report = args.func(args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (ValueError, KeyError, ZeroDivisionError) as exc:
        print("domain error: %s" % exc, file=sys.stderr)
        return 2
    report.wall_time = time.time() - start
    try:
        print(report.render(args.format))
    except BrokenPipeError:
        sys.stderr.close()
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())

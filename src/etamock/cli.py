"""Command line: argument parsing, reports, and commands over verify's checks.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 usage or
domain error, such as a series that does not converge at the input.  JSON
output is deterministic for a fixed command line (wall time is reported
only in plain format).
"""

import argparse
import csv
import inspect
import io
import json
import random
import re
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

from mpmath import mp, mpc, mpf

from .core import DEFAULT_DPS, MIN_DPS, ConvergenceError
from .qseries import RootOfUnity, eta, eta_quotient_qexp
from .theta import eta_theta_eval, eta_theta_qexp, g_ab, jacobi_theta, partial_theta
from .mu import mu
from .vmn import all_rows, catalogue_json, normalize_label
from .quantum import (F_hk, group_generators, in_quantum_set, quantum_set_label,
                      rational_z_args, vmn_any)
from .verify import SUITES, E_route_residual, e_route_residual, orbit, vmn_route_residual


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
    """A value as JSON writes it: a Fraction as num/den, a complex number as
    re/im, and an mpf as a float, or as mp.nstr text where a nonzero value is
    below the float range, so that it cannot read as 0."""
    if isinstance(v, Fraction):
        return {"num": v.numerator, "den": v.denominator}
    if isinstance(v, (mpc, complex)):
        return {"re": format_value(v.real), "im": format_value(v.imag)}
    if isinstance(v, mpf):
        f = float(v)
        return f if f or not v else mp.nstr(v, 15)
    if isinstance(v, (list, tuple)):
        return [format_value(x) for x in v]
    if isinstance(v, dict):
        return {k: format_value(x) for k, x in v.items()}
    return v


@dataclass
class Check:
    name: str
    residual: mpf
    tolerance: mpf

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
    tol: float = None  # --tol, the override of every nonzero default tolerance

    def add_check(self, name, residual, tolerance):
        """Record a check; --tol replaces its tolerance unless that is 0 (exact)."""
        if tolerance and self.tol is not None:
            tolerance = self.tol
        self.checks.append(Check(name, mp.mpmathify(residual), mp.mpmathify(tolerance)))

    @property
    def ok(self):
        return all(c.passed for c in self.checks)

    def as_dict(self):
        return {
            "command": self.command,
            "inputs": {k: format_value(v) for k, v in self.inputs.items()},
            "outputs": {k: format_value(v) for k, v in self.outputs.items()},
            "checks": [{"name": c.name, "residual": format_value(c.residual),
                        "tolerance": format_value(c.tolerance), "passed": c.passed}
                       for c in self.checks],
            "passed": self.ok,
        }

    def to_json(self):
        return json.dumps(self.as_dict(), indent=2)

    def to_csv(self):
        rows = [("kind", "name", "value", "tolerance", "passed")]

        def flat(prefix, value):
            if isinstance(value, dict):
                for k, v in value.items():
                    flat("%s.%s" % (prefix, k), v)
            elif isinstance(value, list):
                for i, v in enumerate(value):
                    flat("%s.%d" % (prefix, i), v)
            else:
                rows.append(("output", prefix, str(value), "", ""))

        for k, v in self.outputs.items():
            flat(k, format_value(v))
        for c in self.checks:
            rows.append(("check", c.name, str(format_value(c.residual)),
                         str(format_value(c.tolerance)), c.passed))
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(rows)
        return out.getvalue().rstrip("\n")

    def to_plain(self):
        lines = ["%s" % self.command]
        for k, v in self.inputs.items():
            lines.append("  %s = %s" % (k, v))
        for k, v in self.outputs.items():
            fv = format_value(v)
            if isinstance(fv, dict) and set(fv) == {"re", "im"}:
                re, im = (x if isinstance(x, str) else "%.15g" % x for x in (fv["re"], fv["im"]))
                lines.append("%s = %s %si" % (k, re, im if im.startswith("-") else "+" + im))
            else:
                lines.append("%s = %s" % (k, fv))

        def sci(v, digits):
            v = format_value(v)
            return v if isinstance(v, str) else "%.*e" % (digits, v)

        for c in self.checks:
            lines.append("[%s] %s  residual=%s  tol=%s"
                         % ("PASS" if c.passed else "FAIL", c.name,
                            sci(c.residual, 3), sci(c.tolerance, 1)))
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


def _options(report, args, parse, *names):
    """Parse the options --name... this function needs, recorded as inputs."""
    values = []
    for name in names:
        text = getattr(args, name)
        if text is None:
            raise UsageError("--%s is required for this function" % name)
        report.inputs[name] = text
        values.append(parse(text))
    return values


def _indices(report, args, usage, **parsers):
    """Parse the positional indices, one per keyword, recorded as inputs."""
    if len(args.indices) != len(parsers):
        raise UsageError(usage)
    try:
        values = [parse(text) for parse, text in zip(parsers.values(), args.indices)]
    except ValueError:
        raise UsageError(usage)
    report.inputs.update(zip(parsers, values))
    return values


# the options each eval function reads, and the functions that read positional
# indices (_indices checks how many); any other input is a usage error
_EVAL_OPTIONS = {
    "eta": ("tau",), "theta": ("v", "tau"), "mu": ("u", "v", "tau"),
    "g": ("a", "b", "tau"), "e": ("tau",), "E": ("tau",), "Etilde": ("z",),
    "V": ("tau", "x"), "Fhk": ("x", "z1", "z2", "m"),
}
_EVAL_INDEXED = ("e", "E", "Etilde", "V")
# every option some function reads, in order of first use
_EVAL_OPTION_NAMES = tuple(dict.fromkeys(name for names in _EVAL_OPTIONS.values()
                                         for name in names))


def _no_ignored_inputs(args):
    """UsageError for any index or option the chosen function would not read."""
    fn = args.function
    if args.indices and fn not in _EVAL_INDEXED:
        raise UsageError("eval %s takes no positional indices, got %s"
                         % (fn, " ".join(args.indices)))
    extra = [name for name in _EVAL_OPTION_NAMES
             if getattr(args, name) is not None and name not in _EVAL_OPTIONS[fn]]
    if extra:
        raise UsageError("eval %s takes no --%s" % (fn, extra[0]))
    if fn == "V" and args.tau is not None and args.x is not None:
        raise UsageError("eval V takes --tau or --x, not both")
    if args.all and fn != "V":
        raise UsageError("eval %s takes no --all" % fn)
    if args.all and (args.indices or args.x is not None):
        raise UsageError("eval V --all takes --tau, and no indices or --x")
    if fn == "Fhk" and args.m is not None and (args.z1 is not None or args.z2 is not None):
        raise UsageError("eval Fhk takes --z1/--z2 or --m, not both")


def cmd_eval(args):
    report = RunReport("eval %s" % args.function, tol=args.tol)
    fn = args.function
    _no_ignored_inputs(args)
    routes = []  # the second routes: (check name, residual thunk, default tolerance)
    if fn == "eta":
        tau, = _options(report, args, parse_complex, "tau")
        value = report.outputs["eta"] = eta(tau)
        # the printed, folded product against the lacunary sum e_3(tau/24), relative to |eta|
        routes.append(("eta product route matches pentagonal sum route",
                       lambda: abs(value - eta_theta_eval("e3", tau / 24, "character-sum")),
                       1e-12 * abs(value)))
    elif fn == "theta":
        v, tau = _options(report, args, parse_complex, "v", "tau")
        report.outputs["theta"] = jacobi_theta(v, tau)
        routes.append(("theta series matches triple product",
                       lambda: abs(jacobi_theta(v, tau, representation="sum")
                                   - jacobi_theta(v, tau, representation="product")), 1e-12))
    elif fn == "mu":
        u, v, tau = _options(report, args, parse_complex, "u", "v", "tau")
        report.outputs["mu"] = mu(u, v, tau)
    elif fn == "g":
        a, b = _options(report, args, parse_rational, "a", "b")
        tau, = _options(report, args, parse_complex, "tau")
        report.outputs["g_ab"] = g_ab((a, b), tau)
    elif fn == "e":
        n, = _indices(report, args, "eval e takes one index, 1..13", n=int)
        tau, = _options(report, args, parse_complex, "tau")
        report.outputs["e_n"] = eta_theta_eval("e%d" % n, tau)
        routes.append(("eta-quotient route matches character sum",
                       lambda: e_route_residual(n, tau), 1e-12))
    elif fn == "E":
        m, = _indices(report, args, "eval E takes one index, 1..6", m=int)
        tau, = _options(report, args, parse_complex, "tau")
        report.outputs["E_m"] = eta_theta_eval("E%d" % m, tau)
        routes.append(("eta-quotient route matches unary combination",
                       lambda: E_route_residual(m, tau), 1e-12))
    elif fn == "Etilde":
        m, = _indices(report, args, "eval Etilde takes one index, 1..6", m=int)
        z, = _options(report, args, parse_complex, "z")
        report.outputs["E_tilde"] = partial_theta(m, z)
    elif fn == "V" and args.all:
        # every row at one tau: the rows share their eta and theta values
        tau, = _options(report, args, parse_complex, "tau")
        for label, n in all_rows():
            report.outputs["V(%s,%d)" % (label, n)] = vmn_any(label, n, tau)
            routes.append(("row (%s,%d) mu representation matches series representation"
                           % (label, n), partial(vmn_route_residual, label, n, tau), 1e-11))
    elif fn == "V":
        label, n = _indices(report, args, "eval V takes a label and a column, e.g. V 1 2",
                            m=str, n=int)
        if args.tau is not None:
            tau, = _options(report, args, parse_complex, "tau")
            report.outputs["V"] = vmn_any(label, n, tau)
            routes.append(("mu representation matches series representation",
                           lambda: vmn_route_residual(label, n, tau), 1e-11))
        elif args.x is not None:
            x, = _options(report, args, parse_rational, "x")
            report.outputs["V"] = vmn_any(label, n, x)
        else:
            raise UsageError("eval V needs --tau or --x")
    elif fn == "Fhk":
        x, = _options(report, args, parse_rational, "x")
        if args.z1 is not None and args.z2 is not None:
            z1, z2 = map(RootOfUnity.from_fraction,
                         _options(report, args, parse_rational, "z1", "z2"))
        elif args.m is not None:
            m, = _options(report, args, str, "m")
            z1, z2 = rational_z_args(m, x)
            report.outputs["z1_exponent"] = z1.exponent
            report.outputs["z2_exponent"] = z2.exponent
        else:
            raise UsageError("eval Fhk needs --z1/--z2 exponents or --m")
        report.outputs["F_hk"] = F_hk(x, z1, z2)
    if args.crosscheck:
        if not routes:
            raise UsageError("eval %s has no second route here to --crosscheck" % fn)
        for name, residual, tolerance in routes:
            report.add_check(name, residual(), tolerance)
    return report


# ---------------------------------------------------------------------------
# qexp command


def cmd_qexp(args):
    report = RunReport("qexp", tol=args.tol)
    order = parse_rational(args.order)
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
# verify command


# the options a suite may take, each with its parser
_SUITE_OPTIONS = {"m": str, "x": parse_rational}


def cmd_verify(args):
    report = RunReport("verify %s" % args.suite, tol=args.tol)
    if args.samples < 1:
        raise UsageError("--samples must be at least 1")
    suite = SUITES[args.suite]
    given = {name: parse(getattr(args, name)) for name, parse in _SUITE_OPTIONS.items()
             if getattr(args, name) is not None}
    extra = sorted(set(given) - set(inspect.signature(suite).parameters))
    if extra:
        raise UsageError("verify %s takes no --%s" % (args.suite, extra[0]))
    rng = random.Random(args.seed)
    report.inputs.update(seed=args.seed, samples=args.samples)
    suite(report, rng, args.samples, **given)
    return report


# ---------------------------------------------------------------------------
# quantum command


def cmd_quantum(args):
    report = RunReport("quantum %s %d %s" % (args.m, args.n, args.x), tol=args.tol)
    x = parse_rational(args.x)
    label = normalize_label(args.m)
    member = in_quantum_set(label, args.n, x)
    report.inputs.update(m=args.m, n=args.n, x=x)
    report.outputs["set"] = quantum_set_label(label, args.n)
    report.outputs["member"] = member
    gens = group_generators(label, args.n)
    report.outputs["generators"] = [[g.a, g.b, g.c, g.d] for g in gens]
    if member:
        images, bad = orbit(label, args.n, gens, x)
        report.outputs["orbit_sample"] = images
        report.add_check("orbit of x stays inside the set", float(bad), 0.0)
        report.outputs["value"] = vmn_any(label, args.n, x)
    return report


def cmd_catalogue(args):
    report = RunReport("catalogue")
    report.outputs["rows"] = json.loads(catalogue_json())
    return report


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    """Reads -1/3, -.5, -0.4+0.5i and -i as values, not options (no option
    here looks like a number); subcommand parsers share the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-[\d.]|-[ij]$")


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
    common = _Parser(add_help=False)
    add_global_flags(common, suppress=True)
    parser = _Parser(
        prog="etamock",
        description="Evaluate and verify a catalogue of mock theta functions "
                    "built from eta-theta Appell-Lerch specializations.")
    add_global_flags(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", parents=[common],
                       help="evaluate a catalogued function")
    p.add_argument("function", choices=tuple(_EVAL_OPTIONS))
    p.add_argument("indices", nargs="*")
    for name in _EVAL_OPTION_NAMES:
        p.add_argument("--" + name)
    p.add_argument("--all", action="store_true",
                   help="eval V: every row of the catalogue at --tau")
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
    p.add_argument("suite", choices=sorted(SUITES))
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
    except (ValueError, KeyError, ZeroDivisionError, ConvergenceError) as exc:
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

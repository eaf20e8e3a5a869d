"""One benchmark round in a fresh interpreter.

    python3 perfbench/worker.py <workload> <seed> <mode>

mode is "setup" (import and generate the inputs, then stop), "plain" (run
the round) or "trace" (run it with the span tracer installed).  The last
line of standard output is one JSON object.  `ready` is the
`time.monotonic()` reading once `etamock` is imported and the inputs are
generated; on Linux that clock is shared by all processes, so the parent
can subtract its own reading taken before it started this one.

A fresh process per round means `_gl_cache` and `_lhs_cache` start cold,
as they do for a user of the CLI.
"""

import json
import math
import os
import resource
import signal
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROBE_TERMS = 60
PROBE_EVERY_S = 0.1
# typical probe time on a 2-core x86-64 machine with the pure-Python mpmath
# backend; times are reported in seconds at that probe speed
PROBE_REF_S = 0.007
SETUP_PROBES = 5
# probes used for one check: those within this many seconds of it, or the
# nearest ones when fewer than LOCAL_PROBES fall in that window
LOCAL_WINDOW_S = 0.15
LOCAL_PROBES = 3


def margin_digits(residual, tol, dps):
    """log10(tol / residual), with the residual clamped at 10^(-2 dps)."""
    return math.log10(tol / max(float(residual), 10.0 ** (-2 * dps)))


def probe(mp, dps):
    """Seconds for fixed mpmath arithmetic at `dps` that calls no etamock
    code: the inner loop of a q-product with an exponential per step, the
    mix of the package's series kernels.  The machine's speed drifts by up
    to a factor of two over seconds; this time drifts with it, while no
    change to the program can move it."""
    with mp.workdps(dps):
        q = mp.exp(mp.mpc(-0.9, 0.2))
        zeta = mp.exp(mp.mpc(0.1, 0.3))
        start = time.perf_counter()
        prod, qn = mp.mpc(1), q
        for k in range(PROBE_TERMS):
            prod *= (1 - qn) * (1 - zeta * qn) * (1 - qn / zeta)
            prod += mp.exp(mp.mpc(0, k)) * abs(qn)
            qn *= q
        return time.perf_counter() - start


class SpeedSampler:
    """Times `probe` every PROBE_EVERY_S from a SIGALRM handler, so the
    samples cover the inside of long checks as evenly as their gaps.
    `spent` is the time taken by the probes, to subtract from latencies;
    a tracer, when given, is told of each probe so that no layer is
    charged for it."""

    def __init__(self, mp, dps, tracer=None):
        self.mp, self.dps, self.tracer = mp, dps, tracer
        self.samples, self.times = [], []
        self.spent, self._busy = 0.0, False

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        try:
            self.samples.append(probe(self.mp, self.dps))
            self.times.append(start)
        finally:
            took = time.perf_counter() - start
            self.spent += took
            if self.tracer:
                self.tracer.exclude(took)
            self._busy = False

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def local_speed(self, start, end):
        """PROBE_REF_S over the median probe time around [start, end]."""
        near = [p for t, p in zip(self.times, self.samples)
                if start - LOCAL_WINDOW_S <= t <= end + LOCAL_WINDOW_S]
        if len(near) < LOCAL_PROBES:
            mid = (start + end) / 2
            order = sorted(range(len(self.times)),
                           key=lambda i: abs(self.times[i] - mid))
            near = [self.samples[i] for i in order[:LOCAL_PROBES]]
        return PROBE_REF_S / statistics.median(near)


def run_round(checks, dps, mp, run_check, sampler):
    """Run every check under mp.workdps(dps).

    Returns the latencies (probe time removed), the same scaled to the
    reference probe speed by the probes around each check, the time spent
    inside checks with the probes, the failures and the smallest margin in
    digits.
    """
    latencies, intervals, failures, margins = [], [], [], []
    with mp.workdps(dps):
        for check in checks:
            spent = sampler.spent
            start = time.perf_counter()
            try:
                results, error = run_check(check), None
            except Exception as exc:  # a raised exception is a failed check
                results, error = [], "%s: %s" % (type(exc).__name__, exc)
            end = time.perf_counter()
            latencies.append(end - start - (sampler.spent - spent))
            intervals.append((start, end))
            if mp.dps != dps:
                error = error or "mp.dps left at %d" % mp.dps
                mp.dps = dps
            for residual, tol in results:
                if not (residual <= tol):
                    error = error or "residual %s above %s" % (
                        mp.nstr(residual, 3), tol)
                elif tol:
                    margins.append(margin_digits(residual, tol, dps))
            if error:
                failures.append("%s: %s" % (check.name, error))
    scaled = [t * sampler.local_speed(*interval)
              for t, interval in zip(latencies, intervals)]
    elapsed = sum(end - start for start, end in intervals)
    return latencies, scaled, elapsed, failures, min(margins) if margins else None


def main(argv):
    workload, seed, mode = argv[1], int(argv[2]), argv[3]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import inputs
    from mpmath import mp

    checks = inputs.build_checks(workload, seed)
    ready = time.monotonic()
    dps = inputs.DPS[workload]
    probe(mp, dps)  # the first call fills mpmath's caches; not a sample
    out = {"ready": ready, "setup_speed": PROBE_REF_S / statistics.median(
        probe(mp, dps) for _ in range(SETUP_PROBES))}
    if mode != "setup":
        tracer = None
        if mode == "trace":
            import spans
            tracer = spans.Tracer()
            tracer.install()
        with SpeedSampler(mp, dps, tracer) as sampler:
            raw, scaled, elapsed, failures, margin = run_round(
                checks, dps, mp, inputs.run_check, sampler)
        out.update(raw_wall_s=sum(raw), wall_s=sum(scaled), latencies=scaled,
                   failures=failures, margin=margin,
                   speed=PROBE_REF_S / statistics.median(sampler.samples),
                   maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        if tracer:
            tracer.uninstall()
            out["layers"] = tracer.layer_stats()
            # time inside the checks but in no span and in no probe
            out["outside_s"] = (elapsed - tracer.root_time()
                                - tracer.excluded.get(-1, 0.0))
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv)

"""The etamock benchmark: one workload, one seed, every metric by name.

    python3 perfbench/run.py --workload <cusp|bulk|period|rational>
        --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a source checkout; it imports the package from
`src/` and exits with code 2 when there is none.

The load is a closed loop with one client: one process, one thread,
checks back to back.  A run is a number of rounds; each round runs the
workload's fixed set of checks, generated from the seed, in a fresh
interpreter (`worker.py`), so every round starts with cold caches.  The
number of rounds is `--seconds` divided by the workload's nominal round
time, a constant, so a given `--seconds` always gives the same sample
counts.  Extra interpreters that only import and generate the inputs
bring the set-up samples to SETUP_SAMPLES.

Times are scaled to a reference machine speed by a probe that the worker
times every 0.1 s (see README.md), because the speed of a shared host
drifts by up to a factor of two.

With `--trace 0` the last line reports the end-to-end metrics; with
`--trace 1` it reports the per-layer metrics of traced rounds, which
alternate with untraced ones to give the tracing overhead.  Any residual
above its tolerance, raised exception or leaked `mp.dps` makes the result
incorrect and the exit code 1.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spans  # noqa: E402

# seconds per round on a 2-core x86-64 machine with the pure-Python mpmath
# backend, process start included
NOMINAL_ROUND_S = {"cusp": 18.0, "bulk": 3.0, "period": 21.0, "rational": 1.8}
SETUP_SAMPLES = 9
# a run must end within 180 s; stop waiting for workers well before that
TIME_LIMIT_S = 170

UNITS = {"setup_s": "s", "wall_s": "s", "check_p50_ms": "ms",
         "check_tail_ms": "ms", "pass_frac": "ratio",
         "min_margin_digits": "digits", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def spawn(workload, seed, mode, deadline):
    """Run one worker to completion; return its result and set-up time."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed),
         mode], stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("a %s round of %s ran past the time limit"
                         % (mode, workload))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError("worker exited with code %d" % proc.returncode)
    result = json.loads(out.strip().splitlines()[-1])
    return result, result["ready"] - start


def tail(values):
    """Value at the highest percentile with at least ten values above it."""
    ordered = sorted(values)
    if len(ordered) < 11:
        raise BenchError("the tail needs at least 11 checks, got %d"
                         % len(ordered))
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def end_to_end(rounds, setups):
    latencies = [r["latencies"] for r in rounds]
    pooled = [t for lat in latencies for t in lat]
    attempted = len(pooled)
    failed = sum(len(r["failures"]) for r in rounds)
    # the tail of each round, then the median over rounds: pooling would
    # push the percentile into the rare stalls of the machine
    tails = [tail(lat) for lat in latencies]
    tail_s = statistics.median(t for t, _ in tails)
    margins = [r["margin"] for r in rounds if r["margin"] is not None]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "check_p50_ms": 1e3 * statistics.median(pooled),
        "check_tail_ms": 1e3 * tail_s,
        "pass_frac": 1.0 - failed / attempted,
        "min_margin_digits": min(margins),
        "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in rounds) / 1024,
    }
    notes = {"tail_percentile": tails[0][1], "round_checks": len(latencies[0]),
             "checks": attempted, "rounds": len(rounds),
             "setup_samples": len(setups)}
    return metrics, notes


def per_layer(plain, traced):
    metrics = {}
    for name in spans.metric_names():
        timed = name.endswith("_s")
        metrics[name] = statistics.median(
            r["layers"][name] * (r["speed"] if timed else 1) for r in traced)
    wall = statistics.median(r["wall_s"] for r in traced)
    metrics["trace.wall_s"] = wall
    metrics["trace.overhead_s"] = wall - statistics.median(
        r["wall_s"] for r in plain)
    metrics["trace.outside_s"] = statistics.median(
        r["outside_s"] * r["speed"] for r in traced)
    return metrics


def layer_unit(name):
    return "s" if name.endswith("_s") else "count"


def environment(dps):
    import mpmath
    return {"python": platform.python_version(),
            "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
            "nproc": os.cpu_count(), "machine": platform.machine(),
            "dps": dps}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "etamock", "__init__.py")):
        print("no etamock sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import inputs
    if args.workload not in inputs.WORKLOADS:
        print("unknown workload %r; choose from %s"
              % (args.workload, ", ".join(inputs.WORKLOADS)), file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    count = max(1, int(args.seconds / NOMINAL_ROUND_S[args.workload]))
    modes = ["plain"] * count
    if args.trace:
        pairs = max(1, count // 2)
        modes = ["plain", "trace"] * pairs
    # set-up-only starts fill the gaps before, between and after the rounds,
    # so the set-up samples span the whole run as the rounds do
    extra = max(0, SETUP_SAMPLES - len(modes))
    gaps = len(modes) + 1
    plan = []
    for gap in range(gaps):
        plan += ["setup"] * ((gap + 1) * extra // gaps - gap * extra // gaps)
        plan += modes[gap:gap + 1]
    rounds, setups, raw_setups = [], [], []
    try:
        for mode in plan:
            result, setup = spawn(args.workload, args.seed, mode, deadline)
            raw_setups.append(setup)
            setups.append(setup * result["setup_speed"])
            if mode != "setup":
                result["mode"] = mode
                rounds.append(result)
        plain = [r for r in rounds if r["mode"] == "plain"]
        traced = [r for r in rounds if r["mode"] == "trace"]
        e2e, notes = end_to_end(plain, setups)
    except BenchError as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        return 2
    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in per_layer(plain, traced).items()}
    else:
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in e2e.items()}
    failures = [f for r in rounds for f in r["failures"]]
    attempted = sum(len(r["latencies"]) for r in rounds)

    print("env %s" % json.dumps(environment(inputs.DPS), sort_keys=True))
    print("workload %s seed %d: %d rounds, %d checks, %d set-up samples; "
          "check_tail_ms is the median over rounds of the p%.1f of the %d "
          "checks of a round"
          % (args.workload, args.seed, notes["rounds"], notes["checks"],
             notes["setup_samples"], notes["tail_percentile"],
             notes["round_checks"]))
    print("measured on this machine: median round %.4g s, median set-up "
          "%.4g s, median speed factor %.3f"
          % (statistics.median(r["raw_wall_s"] for r in plain),
             statistics.median(raw_setups),
             statistics.median(r["speed"] for r in rounds)))
    for name, m in metrics.items():
        print("  %-48s %14.6g %s" % (name, m["value"], m["unit"]))
    for failure in failures[:20]:
        print("FAILED %s" % failure, file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())

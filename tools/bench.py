"""Run the benchmark on seeds 1-5 of every workload and write BENCH_<n>.json.

    python3 tools/bench.py --out BENCH_<n>.json [--parent DIR]
        [--seeds 1,2,3,4,5] [--workloads cusp,bulk,period,rational]

Each run is `python3 perfbench/run.py --workload W --seed N --seconds S
--trace 0` in the root of a source checkout, with the workloads and S (the
`run_seconds`) that BENCHMARK.json declares.  With `--parent DIR`, a second
checkout (the parent commit) runs the same command, alternating with this
one run by run, so both see the same drift of a shared machine; its numbers
are stored beside this checkout's.  Both trees are byte-compiled first, since
compiling on first import moves `setup_s` and `peak_rss_mb`.

For each tree, workload and metric the file stores the values of the seeds,
their median and their interquartile range (inclusive quartiles), with the
`env` line of the first run and the commit of the tree.  A run that exits
nonzero, or reports a failed check, stops the script with exit code 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SECONDS = BENCHMARK["run_seconds"]


def commit(tree):
    """HEAD of the checkout and whether its program files differ from it."""
    def git(*args):
        out = subprocess.run(["git", "-C", tree, *args], capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else None
    return {"commit": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain", "--", "src", "perfbench"))}


def run(tree, workload, seed):
    """The env stamp and end-to-end metrics of one run in `tree`."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("%s in %s exited with code %d:\n%s"
                 % (" ".join(cmd[1:]), tree, proc.returncode, proc.stderr))
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit("%s in %s failed %d checks" % (" ".join(cmd[1:]), tree, result["failed"]))
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return env, result["metrics"]


def summary(runs):
    """Per metric: the values in seed order, their median and IQR."""
    out = {}
    for name in runs[0]:
        values = [r[name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out[name] = {"unit": runs[0][name]["unit"], "median": statistics.median(values),
                     "iqr": q3 - q1, "values": values}
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--out", required=True)
    p.add_argument("--parent")
    p.add_argument("--seeds", default="1,2,3,4,5")
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    args = p.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    if len(seeds) < 2:
        p.error("--seeds needs two seeds or more for an interquartile range")
    workloads = args.workloads.split(",")
    trees = {"change": ROOT}
    if args.parent:
        trees["parent"] = os.path.abspath(args.parent)
    for tree in trees.values():
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=tree, check=True)
    runs = {name: {w: [] for w in workloads} for name in trees}
    envs = {}
    for w in workloads:
        for i, seed in enumerate(seeds):
            # alternate which tree goes first, pair by pair
            order = list(trees) if i % 2 == 0 else list(trees)[::-1]
            for name in order:
                env, metrics = run(trees[name], w, seed)
                envs.setdefault(name, env)
                runs[name][w].append(metrics)
                print("%s %s seed %d: wall_s %.4g" % (name, w, seed, metrics["wall_s"]["value"]),
                      file=sys.stderr)
    report = {"command": "python3 perfbench/run.py --workload W --seed N --seconds %g --trace 0"
                         % SECONDS,
              "seeds": seeds}
    for name, tree in trees.items():
        report[name] = dict(commit(tree), env=envs[name],
                            workloads={w: summary(runs[name][w]) for w in workloads})
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

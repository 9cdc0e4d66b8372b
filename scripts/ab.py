#!/usr/bin/env python3
"""A/B two revisions on the end-to-end benchmark and the micro benches.

    scripts/ab.py PARENT CHANGE [--workloads chaos,fleet_observed] [--pairs 10]
                  [--seconds 15] [--micro 'BM_BatchStep/256'] [--cpus 0-3]

Extracts both revisions with `git archive` into --dir (default
$TMPDIR/ltsc-ab), builds each in its own tree, then runs the chosen
perfbench workloads (untraced, seed = pair number) and `micro_perf`
filters in alternating pairs: pair i runs PARENT first when i is even and
CHANGE first when it is odd, so a slow drift of the host loads both sides
alike.  Every run is pinned with `taskset`: perfbench to --cpus, the
micro benches to the last CPU of that set.

Prints one table: per metric the median and IQR of each side, the change
of the medians, how many pairs CHANGE won, and the verdict of the spread
rule a gain claim is held to:
  gain     CHANGE better in >= 90 % of pairs and its median better than
           PARENT's by more than PARENT's IQR;
  worse    CHANGE's median worse than PARENT's by more than the metric's
           bound (BENCHMARK.json; 0.25 for the micro benches);
  wide     PARENT's own IQR exceeds that bound of its median, so a change
           that size cannot be told from noise;
  flat     none of these.
Every run's value is also written to --dir/samples.json.  Neither
perfbench/ nor BENCHMARK.json is modified; both are read from the
CHANGE checkout.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MICRO_BOUND = 0.25


def run(cmd, **kw):
    proc = subprocess.run(cmd, **kw)
    if proc.returncode != 0:
        sys.exit("ab: %s exited with %d" % (" ".join(cmd), proc.returncode))
    return proc


def checkout(rev, dest):
    """Extracts `rev` into `dest` (replacing it) and returns its short SHA."""
    sha = run(["git", "-C", ROOT, "rev-parse", "--short=12", rev + "^{commit}"],
              capture_output=True, text=True).stdout.strip()
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", sha], stdout=subprocess.PIPE)
    run(["tar", "-x", "-C", dest], stdin=archive.stdout)
    if archive.wait() != 0:
        sys.exit("ab: git archive %s failed" % sha)
    return sha


def build_micro(tree):
    out = os.path.join(tree, "build-ab")
    cmd = ["cmake", "-S", tree, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    run(cmd, stdout=subprocess.DEVNULL)
    run(["cmake", "--build", out, "-j", str(os.cpu_count() or 1), "--target", "micro_perf"],
        stdout=subprocess.DEVNULL)
    return os.path.join(out, "bench", "micro_perf")


def perfbench(tree, cpus, workload, seed, seconds):
    """One untraced perfbench run: ({metric: value}, correct)."""
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tree, ".bench_build"))
    proc = run(["taskset", "-c", cpus, sys.executable, "perfbench/run.py", "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
               cwd=tree, env=env, capture_output=True, text=True)
    result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}, bool(result["correct"])


def micro(binary, cpu, pattern, min_time):
    """One micro_perf run: {benchmark name: real time per iteration [ns]}."""
    proc = run(["taskset", "-c", cpu, binary, "--benchmark_filter=" + pattern,
                "--benchmark_min_time=" + str(min_time), "--benchmark_format=json"],
               capture_output=True, text=True)
    out = {}
    for b in json.loads(proc.stdout)["benchmarks"]:
        scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}[b.get("time_unit", "ns")]
        out[b["name"]] = b["real_time"] * scale
    return out


def quantile(xs, q):
    s = sorted(xs)
    pos = q * (len(s) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def verdict(a, b, higher_better, bound):
    """Applies the spread rule to paired samples a (PARENT) and b (CHANGE)."""
    sign = 1.0 if higher_better else -1.0
    wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
    med_a, med_b = quantile(a, 0.5), quantile(b, 0.5)
    iqr_a = quantile(a, 0.75) - quantile(a, 0.25)
    gain = sign * (med_b - med_a)
    if wins >= math.ceil(0.9 * len(a)) and gain > iqr_a:
        word = "gain"
    elif -gain > bound * abs(med_a):
        word = "worse"
    elif iqr_a > bound * abs(med_a):
        word = "wide"
    else:
        word = "flat"
    return wins, word


def parse_cpus(spec):
    cpus = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        cpus += range(int(lo), int(hi or lo) + 1)
    return cpus


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workloads", default="chaos",
                        help="comma-separated perfbench workloads ('' for none)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--micro", default="", help="micro_perf filter regex ('' for none)")
    parser.add_argument("--micro-min-time", type=float, default=0.2)
    default_cpus = sorted(os.sched_getaffinity(0))
    parser.add_argument("--cpus", default="%d-%d" % (default_cpus[0], default_cpus[-1]))
    parser.add_argument("--dir", default=os.path.join(tempfile.gettempdir(), "ltsc-ab"))
    args = parser.parse_args()
    workloads = [w for w in args.workloads.split(",") if w]
    if args.pairs < 2 or (not workloads and not args.micro):
        parser.error("need --pairs >= 2 and at least one workload or micro filter")
    micro_cpu = str(parse_cpus(args.cpus)[-1])

    sides = []
    for label, rev in (("parent", args.parent), ("change", args.change)):
        tree = os.path.join(args.dir, label)
        sha = checkout(rev, tree)
        binary = build_micro(tree) if args.micro else None
        sides.append({"label": label, "sha": sha, "tree": tree, "micro": binary})
        print("ab: %s = %s in %s" % (label, sha, tree), file=sys.stderr)
    with open(os.path.join(sides[1]["tree"], "BENCHMARK.json")) as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}

    # samples[(group, metric)] = ([parent values], [change values])
    samples = {}
    correct = {w: [0, 0] for w in workloads}
    for i in range(args.pairs):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        for side in order:
            s = sides[side]
            for w in workloads:
                metrics, ok = perfbench(s["tree"], args.cpus, w, i + 1, args.seconds)
                correct[w][side] += ok
                for name, value in metrics.items():
                    samples.setdefault((w, name), ([], []))[side].append(value)
            if args.micro:
                for name, ns in micro(s["micro"], micro_cpu, args.micro,
                                      args.micro_min_time).items():
                    samples.setdefault(("micro", name), ([], []))[side].append(ns)
        print("ab: pair %d/%d done" % (i + 1, args.pairs), file=sys.stderr)

    with open(os.path.join(args.dir, "samples.json"), "w") as f:
        json.dump({"%s %s" % key: {"parent": a, "change": b}
                   for key, (a, b) in samples.items()}, f, indent=1)
    print("parent %s, change %s, %d pairs, perfbench on CPUs %s, micro on CPU %s"
          % (sides[0]["sha"], sides[1]["sha"], args.pairs, args.cpus, micro_cpu))
    for w, (a, b) in correct.items():
        print("%s correct: parent %d/%d, change %d/%d" % (w, a, args.pairs, b, args.pairs))
    header = ("group", "metric", "parent med", "IQR", "change med", "IQR", "change", "wins",
              "verdict")
    rows = [header]
    for (group, name), (a, b) in samples.items():
        if len(a) != len(b):
            continue  # a metric one side does not report
        if group == "micro":
            higher_better, bound = False, MICRO_BOUND
        else:
            higher_better = spec[name]["better"] == "higher"
            bound = spec[name]["bound"]
        wins, word = verdict(a, b, higher_better, bound)
        med_a, med_b = quantile(a, 0.5), quantile(b, 0.5)
        delta = (med_b - med_a) / med_a * 100.0 if med_a else float("nan")
        rows.append((group, name, "%.4g" % med_a, "%.3g" % (quantile(a, .75) - quantile(a, .25)),
                     "%.4g" % med_b, "%.3g" % (quantile(b, .75) - quantile(b, .25)),
                     "%+.1f%%" % delta, "%d/%d" % (wins, len(a)), word))
    widths = [max(len(r[c]) for r in rows) for c in range(len(header))]
    for r in rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(r, widths)).rstrip())


if __name__ == "__main__":
    main()

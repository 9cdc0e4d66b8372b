#!/usr/bin/env python3
"""Fail when hot-path micro-benchmarks regress against the committed baseline.

Usage:
    perf_gate.py [--calibrate BENCH] CURRENT.json BASELINE.json BENCH [BENCH...]
    perf_gate.py --ratio NUM DEN MAX CURRENT.json
    perf_gate.py --self-test

CURRENT.json and BASELINE.json are Google Benchmark JSON files (e.g. a
fresh CI run vs. the checked-in BENCH_micro.json).  For every named
benchmark, throughput (items_per_second, falling back to 1/real_time) in
CURRENT must be at least (1 - PERF_GATE_TOLERANCE) of BASELINE.  The
default tolerance is 0.20 (fail on a >20% regression); override with the
PERF_GATE_TOLERANCE environment variable.

Files recorded with --benchmark_repetitions carry a `median` aggregate
per benchmark; the gate compares those, so one slow repetition cannot
fail it.  A file without aggregates falls back to its plain entries.

A gated name missing from EITHER file is a hard error (exit 2), never a
silent pass: a benchmark that got renamed, filtered out of the CI run,
or never recorded into the baseline must fail the gate loudly instead of
shrinking it.  Every missing name is reported before exiting so one run
shows the full damage.

--calibrate BENCH divides each side's throughput by that benchmark's
throughput *from the same file* before comparing.  With a calibration
benchmark whose cost is unaffected by the change under test (e.g.
BM_LeakageFit, pure compute that runs no plant code), absolute machine
speed cancels and the gate compares code, not hardware — required when the baseline was
recorded on a different machine than the CI runner.

--ratio NUM DEN MAX is an in-run gate: the cost per item (1 /
throughput) of NUM's median over that of DEN's median, both from the
*same* CURRENT.json, must not exceed MAX.  Both benchmarks ran on the
same host in the same process, so no baseline and no calibration are
involved: e.g. BM_SimulatorSecondMonitored over BM_SimulatorSecond is
what the residual monitor costs on top of the plant.

--self-test exercises both gates against synthetic in-memory results and
verifies the exit-code contract (pass=0, regression=1, missing name=2)
and that medians, not means or single runs, decide; CI runs it before
trusting the real gate.

Exit codes: 0 pass, 1 regression, 2 usage/missing-benchmark error.
"""
import json
import os
import sys
import tempfile


def throughput(entry):
    if "items_per_second" in entry:
        return float(entry["items_per_second"])
    real = float(entry["real_time"])
    if real <= 0.0:
        raise ValueError(f"non-positive real_time in {entry['name']}")
    return 1.0 / real


def load(path):
    """Benchmark name -> the entry to compare: its median aggregate when
    the file has one, else its first plain entry."""
    with open(path) as f:
        doc = json.load(f)
    plain = {}
    medians = {}
    for entry in doc.get("benchmarks", []):
        name = entry.get("run_name", entry["name"])
        if entry.get("run_type") == "aggregate":
            if entry.get("aggregate_name") == "median":
                medians[name] = entry
        else:
            plain.setdefault(name, entry)
    plain.update(medians)
    return plain


def missing_names(current, baseline, current_path, baseline_path, names):
    """Every (name, path) pair a gated benchmark is absent from."""
    missing = []
    for name in names:
        if name not in current:
            missing.append((name, current_path))
        if name not in baseline:
            missing.append((name, baseline_path))
    return missing


def run_gate(current_path, baseline_path, names, calibrate, tolerance):
    current = load(current_path)
    baseline = load(baseline_path)

    checked = list(names) + ([calibrate] if calibrate else [])
    missing = missing_names(current, baseline, current_path, baseline_path, checked)
    if missing:
        for name, path in missing:
            print(f"perf_gate: {name} missing from {path}", file=sys.stderr)
        print(
            f"perf_gate: {len(missing)} missing gated benchmark(s) — a gated name "
            "absent from the run or the baseline is an error, not a pass",
            file=sys.stderr,
        )
        return 2

    cur_scale = throughput(current[calibrate]) if calibrate else 1.0
    base_scale = throughput(baseline[calibrate]) if calibrate else 1.0
    unit = f"x {calibrate}" if calibrate else "items/s"

    failed = False
    for name in names:
        cur = throughput(current[name]) / cur_scale
        base = throughput(baseline[name]) / base_scale
        ratio = cur / base
        status = "OK" if ratio >= 1.0 - tolerance else "REGRESSION"
        print(f"{name}: {cur:.3e} vs baseline {base:.3e} {unit} ({ratio:6.1%}) {status}")
        failed = failed or status != "OK"
    if failed:
        print(f"perf_gate: regression beyond {tolerance:.0%} tolerance", file=sys.stderr)
        return 1
    return 0


def run_ratio_gate(current_path, num, den, max_ratio):
    current = load(current_path)
    missing = [name for name in (num, den) if name not in current]
    if missing:
        for name in missing:
            print(f"perf_gate: {name} missing from {current_path}", file=sys.stderr)
        return 2
    ratio = throughput(current[den]) / throughput(current[num])
    status = "OK" if ratio <= max_ratio else "REGRESSION"
    print(f"{num} / {den}: cost ratio {ratio:.3f} (max {max_ratio:.3f}) {status}")
    if status != "OK":
        print(f"perf_gate: {num} costs more than {max_ratio:.3f}x {den}", file=sys.stderr)
        return 1
    return 0


def self_test():
    """Verifies the exit-code contract on synthetic benchmark files."""

    def bench_doc(**items_per_second):
        return {
            "benchmarks": [
                {"name": name, "items_per_second": value}
                for name, value in items_per_second.items()
            ]
        }

    def repeated_doc(name, reps, mean, median):
        """One benchmark recorded with repetitions: plain runs + aggregates."""
        entries = [
            {"name": name, "run_name": name, "run_type": "iteration", "items_per_second": r}
            for r in reps
        ]
        for agg, value in (("mean", mean), ("median", median)):
            entries.append(
                {
                    "name": f"{name}_{agg}",
                    "run_name": name,
                    "run_type": "aggregate",
                    "aggregate_name": agg,
                    "items_per_second": value,
                }
            )
        cal = {"name": "BM_Cal", "run_name": "BM_Cal", "run_type": "iteration"}
        return {"benchmarks": [dict(cal, items_per_second=100.0)] + entries}

    def write(tmpdir, filename, doc):
        path = os.path.join(tmpdir, filename)
        with open(path, "w") as f:
            json.dump(doc, f)
        return path

    failures = []

    def check(label, got, want):
        status = "OK" if got == want else f"FAIL (got {got}, want {want})"
        print(f"self-test: {label}: exit {want} {status}")
        if got != want:
            failures.append(label)

    with tempfile.TemporaryDirectory() as tmpdir:
        base = write(tmpdir, "base.json", bench_doc(BM_Cal=100.0, BM_Hot=1000.0))
        same = write(tmpdir, "same.json", bench_doc(BM_Cal=100.0, BM_Hot=990.0))
        slow = write(tmpdir, "slow.json", bench_doc(BM_Cal=100.0, BM_Hot=500.0))
        sparse = write(tmpdir, "sparse.json", bench_doc(BM_Cal=100.0))

        check("matching run passes", run_gate(same, base, ["BM_Hot"], "BM_Cal", 0.20), 0)
        check("50% regression fails", run_gate(slow, base, ["BM_Hot"], "BM_Cal", 0.20), 1)
        check(
            "name missing from current is a hard error",
            run_gate(sparse, base, ["BM_Hot"], "BM_Cal", 0.20),
            2,
        )
        check(
            "name missing from baseline is a hard error",
            run_gate(same, sparse, ["BM_Hot"], "BM_Cal", 0.20),
            2,
        )
        check(
            "missing calibration benchmark is a hard error",
            run_gate(same, base, ["BM_Hot"], "BM_Missing", 0.20),
            2,
        )
        # A regression must not mask a missing name elsewhere in the list.
        check(
            "missing name outranks a simultaneous regression",
            run_gate(slow, base, ["BM_Hot", "BM_Ghost"], "BM_Cal", 0.20),
            2,
        )
        # With repetitions, the median decides: two stalled repetitions
        # drag the mean (and the first plain run) >20% down, not the gate.
        rep_base = write(
            tmpdir, "rep_base.json", repeated_doc("BM_Hot", [1000.0] * 5, 1000.0, 1000.0)
        )
        rep_mean_slow = write(
            tmpdir,
            "rep_mean_slow.json",
            repeated_doc("BM_Hot", [10.0, 10.0, 990.0, 995.0, 1000.0], 601.0, 990.0),
        )
        rep_median_slow = write(
            tmpdir,
            "rep_median_slow.json",
            repeated_doc("BM_Hot", [1000.0, 500.0, 500.0, 500.0, 1000.0], 700.0, 500.0),
        )
        check(
            "only the mean regresses: the median passes",
            run_gate(rep_mean_slow, rep_base, ["BM_Hot"], "BM_Cal", 0.20),
            0,
        )
        check(
            "median regression fails",
            run_gate(rep_median_slow, rep_base, ["BM_Hot"], "BM_Cal", 0.20),
            1,
        )
        check(
            "median run gated against a plain baseline",
            run_gate(rep_mean_slow, base, ["BM_Hot"], "BM_Cal", 0.20),
            0,
        )

        # The ratio gate: cost per item of NUM over DEN, from one file.
        pair = write(tmpdir, "pair.json", bench_doc(BM_Plain=1000.0, BM_Extra=800.0))
        check("ratio under the max passes", run_ratio_gate(pair, "BM_Extra", "BM_Plain", 1.30), 0)
        check("ratio over the max fails", run_ratio_gate(pair, "BM_Extra", "BM_Plain", 1.20), 1)
        check(
            "ratio name missing is a hard error",
            run_ratio_gate(pair, "BM_Ghost", "BM_Plain", 1.30),
            2,
        )
        # With repetitions, medians decide: BM_Hot's mean (601) against
        # BM_Cal (100) would read a 0.17x cost, its median (990) 0.10x.
        check(
            "ratio of medians, not means",
            run_ratio_gate(rep_mean_slow, "BM_Hot", "BM_Cal", 0.12),
            0,
        )
        check(
            "ratio of medians fails on the median",
            run_ratio_gate(rep_median_slow, "BM_Hot", "BM_Cal", 0.15),
            1,
        )

    if failures:
        print(f"perf_gate --self-test: {len(failures)} check(s) failed", file=sys.stderr)
        return 1
    print("perf_gate --self-test: all checks passed")
    return 0


def main(argv):
    args = argv[1:]
    if args and args[0] == "--self-test":
        return self_test()
    if args and args[0] == "--ratio":
        if len(args) != 5:
            print(__doc__, file=sys.stderr)
            return 2
        return run_ratio_gate(args[4], args[1], args[2], float(args[3]))
    calibrate = None
    if args and args[0] == "--calibrate":
        if len(args) < 2:
            print(__doc__, file=sys.stderr)
            return 2
        calibrate = args[1]
        args = args[2:]
    if len(args) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    tolerance = float(os.environ.get("PERF_GATE_TOLERANCE", "0.20"))
    return run_gate(args[0], args[1], args[2:], calibrate, tolerance)


if __name__ == "__main__":
    sys.exit(main(sys.argv))

#!/usr/bin/env python3
"""Compare two rap_e2e builds in alternated pairs of runs.

Usage:
  tools/perf_pairs.py BASE_BIN CHANGE_BIN --workload NAME --seed N
                      --pairs K --seconds S [--trace 0|1] [--metric NAME ...]

BASE_BIN and CHANGE_BIN are two rap_e2e binaries (perfbench/run.py builds
one into $CARGO_TARGET_DIR or .bench_build). The script runs K pairs, one
build after the other, and swaps the order in every other pair so neither
build always runs first. The binary pins itself to one CPU, so the runs are
sequential, never concurrent.

For every pair it prints the change/base ratio of each metric; at the end,
each build's median, the spread of the base runs (the distance between
their quartiles) and the median of the per-pair ratios. The metrics are
the seven end-to-end metrics of --trace 0, or the names given with
--metric (say, verify.replay_us and cfa.app_run_us with --trace 1); a
metric given as A/B is the ratio of two metrics within one run.

The exit status is non-zero if any run fails, prints a malformed result
line, reports "correct": false, or reports failed > 0 rounds.
"""

import argparse
import json
import statistics
import subprocess
import sys

END_TO_END = (
    "rounds_per_s",
    "round_p50_us",
    "round_p95_us",
    "setup_s",
    "peak_rss_mb",
    "device_cycles_per_round",
    "evidence_bytes_per_round",
)


def run_once(binary, args):
    """Run one binary; returns its metrics dict, or None on any failure."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--commit", "perf-pairs"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
    except (ValueError, KeyError, TypeError, IndexError):
        print(f"perf_pairs: malformed result from {binary}", file=sys.stderr)
        return None
    if proc.returncode != 0 or result.get("correct") is not True or \
            result.get("failed") != 0:
        print(f"perf_pairs: {binary} exit {proc.returncode}, correct "
              f"{result.get('correct')}, failed {result.get('failed')}",
              file=sys.stderr)
        return None
    return metrics


def value(metrics, name):
    if "/" in name:
        num, den = name.split("/", 1)
        return metrics[num] / metrics[den] if metrics[den] else float("nan")
    return metrics[name]


def ratio(change, base):
    return change / base if base else float("nan")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--metric", action="append", dest="metrics")
    args = parser.parse_args(argv)
    names = args.metrics or list(END_TO_END)

    runs = {"base": [], "change": []}
    print("pair  " + "  ".join(f"{name:>24}" for name in names))
    ok = True
    for pair in range(args.pairs):
        order = ("base", "change") if pair % 2 == 0 else ("change", "base")
        got = {}
        for side in order:
            metrics = run_once(getattr(args, side), args)
            if metrics is None:
                ok = False
                break
            got[side] = metrics
        if len(got) != 2:
            break
        try:
            base = [value(got["base"], n) for n in names]
            change = [value(got["change"], n) for n in names]
        except KeyError as error:
            print(f"perf_pairs: no metric {error} in the result "
                  "(per-layer metrics need --trace 1)", file=sys.stderr)
            return 1
        runs["base"].append(base)
        runs["change"].append(change)
        print(f"{pair:>4}  " + "  ".join(
            f"{ratio(c, b):>24.3f}" for b, c in zip(base, change)), flush=True)

    if runs["base"]:
        print(f"\nmedians over {len(runs['base'])} pairs "
              f"({args.workload}, seed {args.seed}, {args.seconds} s runs)")
        print(f"{'metric':<34}{'base':>14}{'base IQR':>14}{'change':>14}"
              f"{'ratio':>10}")
        for i, name in enumerate(names):
            base = [r[i] for r in runs["base"]]
            change = [r[i] for r in runs["change"]]
            ratios = [ratio(c, b) for b, c in zip(base, change)]
            quartiles = statistics.quantiles(base, n=4) if len(base) > 1 \
                else [base[0]] * 3
            print(f"{name:<34}{statistics.median(base):>14.4g}"
                  f"{quartiles[2] - quartiles[0]:>14.4g}"
                  f"{statistics.median(change):>14.4g}"
                  f"{statistics.median(ratios):>10.3f}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Deterministic tripwire for the end-to-end benchmark.

    python3 perfbench/test_determinism.py [--workload NAME ...]

Run from the repository root (it builds the benchmark like run.py does).
For each workload, runs the benchmark twice with one seed and a short timed
phase, in both modes, and requires:

  * exit status 0 and "correct": true on every run;
  * every count the benchmark derives from a fixed round set to repeat
    exactly: device cycles and evidence bytes per round (--trace 0), CF_Log
    bytes, world switches, the seeded link's submission / datagram /
    retransmit / repair counts, replay steps and backtracks (--trace 1);
  * another seed to change the inputs: stimulus-driven workloads must show
    different device cycles;
  * a malformed command line to exit non-zero without a result line.

Exits non-zero on the first violation.
"""

import json
import subprocess
import sys

import run

EXACT_E2E = ("device_cycles_per_round", "evidence_bytes_per_round")
EXACT_LAYER = (
    "trace.cflog_bytes_per_round",
    "tz.world_switches_per_round",
    "net.submissions_per_round",
    "net.datagrams_per_round",
    "net.retransmits_per_round",
    "net.repair_rounds_per_round",
    "verify.backtracks_per_round",
    "verify.replay_steps_per_round",
)
# Generated checkpoint-dense programs take no stimulus, and corpus_repeat's
# census proves its fixed stimulus pool: their counts are the same for
# every seed.
SEED_FREE = {"leafamb_search", "corpus_repeat"}
SEED, OTHER_SEED, SECONDS = 7, 8, 1


def bench(binary, workload, seed, trace):
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)
    result = run.check_result(proc.stdout.rstrip("\n").split("\n")[-1])
    if proc.returncode != 0 or result["correct"] is not True:
        raise AssertionError(f"{workload} seed {seed} trace {trace}: exit "
                             f"{proc.returncode}, correct {result['correct']}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def check_workload(binary, workload):
    for trace, names in ((0, EXACT_E2E), (1, EXACT_LAYER)):
        first = bench(binary, workload, SEED, trace)
        second = bench(binary, workload, SEED, trace)
        for name in names:
            if first[name] != second[name]:
                raise AssertionError(f"{workload}: {name} changed between "
                                     f"runs: {first[name]!r} != {second[name]!r}")
        if trace == 0 and workload not in SEED_FREE:
            other = bench(binary, workload, OTHER_SEED, trace)
            if other["device_cycles_per_round"] == first["device_cycles_per_round"]:
                raise AssertionError(f"{workload}: seed {OTHER_SEED} drew the "
                                     f"same inputs as seed {SEED}")
    print(f"ok  {workload}")


def check_bad_arguments(binary):
    proc = subprocess.run([binary, "--workload", "no_such_workload", "--seed",
                           "1", "--seconds", "1", "--trace", "0"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    if proc.returncode == 0 or proc.stdout.strip():
        raise AssertionError("unknown workload was not refused")
    print("ok  bad arguments refused")


def main(argv):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=run.WORKLOADS)
    args = parser.parse_args(argv)
    binary = run.build()
    check_bad_arguments(binary)
    for workload in args.workload or run.WORKLOADS:
        check_workload(binary, workload)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (AssertionError, ValueError, json.JSONDecodeError) as error:
        print(f"FAIL: {error}", file=sys.stderr)
        sys.exit(1)

#!/usr/bin/env python3
"""Compare two sets of end-to-end runs, metric by metric.

    python3 benchmarks/harness/compare.py --measure A.json   # this checkout
    python3 benchmarks/harness/compare.py A.json B.json      # base, change
    python3 benchmarks/harness/compare.py --agree            # two fresh sets

A *set* is every workload run once per seed (``--seeds``, default
7 8 9) with ``--trace 0``. A comparison prints one row per (workload,
end-to-end metric): both medians, the ratio with its base, the bound
from ``BENCHMARK.json`` and a verdict —

* ``identical``    modeled metric, equal on every seed;
* ``within bound`` B's median is no worse than A's by more than the bound
                   (a gain is claimed from paired runs, not from here);
* ``regressed``    it is worse by more than the bound;
* ``unresolved``   the run-to-run spread is wider than the bound, so
                   the runs cannot tell —
* ``better``       unless every run of B beats every run of A.

The exit code is non-zero when any row regressed. ``--agree`` measures
two sets of the current checkout and also fails on ``unresolved`` rows
and on modeled metrics that are not identical: two sets of the same
code must agree within the benchmark's own bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, List

import contract
from contract import HARNESS_DIR
from method import quartiles, spread

RUNNER = os.path.join(HARNESS_DIR, "run.py")


def is_modeled(metric: dict) -> bool:
    """Modeled metrics are pure functions of the seed: they carry a
    simulated-time unit or count device bytes."""
    return metric["unit"].startswith("sim_") or metric["unit"] == "B/op"


def measure(spec: dict, seeds: List[int], path: str) -> dict:
    """Run every workload once per seed; write and return the set."""
    runs = []
    for workload in spec["workloads"]:
        for seed in seeds:
            command = [sys.executable, RUNNER, "--workload",
                       workload["name"], "--seed", str(seed),
                       "--seconds", str(spec["run_seconds"]),
                       "--trace", "0"]
            done = subprocess.run(command, capture_output=True, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
                raise SystemExit(
                    f"{workload['name']} seed {seed} exited "
                    f"{done.returncode}")
            line = json.loads(done.stdout.strip().splitlines()[-1])
            runs.append({"workload": workload["name"], "seed": seed,
                         "result": line})
            print(f"measured {workload['name']} seed {seed}", flush=True)
    result = {"runs": runs}
    with open(path, "w") as handle:
        json.dump(result, handle, indent=1)
    return result


def by_seed(runs: dict, workload: str, metric: str) -> Dict[int, float]:
    return {
        run["seed"]: run["result"]["metrics"][metric]["value"]
        for run in runs["runs"] if run["workload"] == workload
    }


def verdict(metric: dict, a: Dict[int, float], b: Dict[int, float]) -> str:
    """How B's runs of one metric stand against A's (seed -> value)."""
    lower = metric["better"] == "lower"
    va, vb = list(a.values()), list(b.values())
    base = quartiles(va)["median"]
    change = quartiles(vb)["median"]
    worse = (change - base) / base if lower else (base - change) / base
    if is_modeled(metric) and a == b:
        return "identical"
    if max(spread(va), spread(vb)) > metric["bound"]:
        clear = (max(vb) < min(va)) if lower else (min(vb) > max(va))
        return "better" if clear else "unresolved"
    if worse > metric["bound"]:
        return "regressed"
    return "within bound"


def compare(spec: dict, a: dict, b: dict, strict: bool) -> int:
    print(f"{'workload':<18}{'metric':<18}{'A median':>14}{'B median':>14}"
          f"{'B/A (base A)':>14}{'bound':>8}  verdict")
    failures = 0
    for workload in spec["workloads"]:
        for metric in spec["end_to_end"]:
            va = by_seed(a, workload["name"], metric["name"])
            vb = by_seed(b, workload["name"], metric["name"])
            if not va or not vb:
                continue
            word = verdict(metric, va, vb)
            base = quartiles(list(va.values()))["median"]
            change = quartiles(list(vb.values()))["median"]
            bad = word == "regressed" or (strict and (
                word == "unresolved"
                or (is_modeled(metric) and word != "identical")))
            failures += bad
            print(f"{workload['name']:<18}{metric['name']:<18}"
                  f"{base:>14.6g}{change:>14.6g}{change / base:>14.4f}"
                  f"{metric['bound']:>8.2f}  {word}"
                  f"{'  <-- FAIL' if bad else ''}")
    print(f"{failures} failing row(s)")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("sets", nargs="*", help="A.json B.json")
    parser.add_argument("--measure", metavar="OUT.json",
                        help="measure this checkout into a set file")
    parser.add_argument("--agree", action="store_true",
                        help="measure two sets here; fail if they differ")
    parser.add_argument("--seeds", type=int, nargs="+", default=[7, 8, 9])
    args = parser.parse_args(argv)
    spec = contract.load()
    if args.measure:
        measure(spec, args.seeds, args.measure)
        return 0
    if args.agree:
        out = os.path.join(HARNESS_DIR, "out")
        os.makedirs(out, exist_ok=True)
        first = measure(spec, args.seeds, os.path.join(out, "agree_A.json"))
        second = measure(spec, args.seeds,
                         os.path.join(out, "agree_B.json"))
        return compare(spec, first, second, strict=True)
    if len(args.sets) != 2:
        parser.error("give two set files, or --measure, or --agree")
    with open(args.sets[0]) as one, open(args.sets[1]) as two:
        return compare(spec, json.load(one), json.load(two), strict=False)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""One harness, six workloads: host time and modeled SCM performance.

    python3 benchmarks/harness/run.py                   # all six
    python3 benchmarks/harness/run.py --workload NAME   # one, in-process
    python3 benchmarks/harness/run.py --trace 1         # per-layer run

Without ``--workload`` each workload runs in its own sequential
subprocess, so ``setup_s`` and ``peak_rss_mb`` are per workload and no
heap leaks from one into the next. A single-workload run prints every
metric by name with its unit and, as the last line of standard output,
the result object ``BENCHMARK.json``'s contract describes. The exit
code is non-zero when any operation failed or any oracle or
conservation check did not hold.

The harness touches no file under ``src/``: every layer is measured
from outside, by timing calls into public functions. See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import subprocess
import sys
import tempfile
from typing import Dict, Optional

import contract
import method
from contract import HARNESS_DIR, REPO_ROOT
from tracing import Tracer

SOURCE_DIR = os.path.join(REPO_ROOT, "src")
OUT_DIR = os.path.join(HARNESS_DIR, "out")

#: Set-ups timed per end-to-end run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Host passes of a traced run (for ``harness.host_qps_raw`` only).
TRACED_PASSES = 5
SMOKE_PASSES = 3


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run this one, in-process")
    parser.add_argument("--seed", type=int, default=7,
                        help="draws the operation streams (default 7)")
    parser.add_argument("--seconds", type=float,
                        help="host-phase length (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run, per-layer metrics")
    parser.add_argument("--traced", action="store_const", const=1,
                        dest="trace", help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="self-test sizes; numbers mean nothing")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashing is randomised per process, and with it every
        # dict's collision pattern: worth +-7 % of host_qps from one
        # process to the next. Pin it (by replacing this process, not
        # by starting another).
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    if not os.path.isdir(os.path.join(SOURCE_DIR, "repro")):
        print(f"run.py: no program to measure: {SOURCE_DIR}/repro is "
              f"missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SOURCE_DIR)
    spec = contract.load()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is None:
        return run_all(args, names)
    if args.workload not in names:
        print(f"run.py: unknown workload {args.workload!r}; known: "
              f"{', '.join(names)}", file=sys.stderr)
        return 2
    line = run_one(spec, args.workload, args.seed, args.seconds,
                   args.trace, args.smoke)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def run_all(args: argparse.Namespace, names) -> int:
    """Every workload in its own subprocess, one after the other."""
    status = 0
    for name in names:
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if args.smoke:
            command.append("--smoke")
        print(f"== {name} ==", flush=True)
        status |= subprocess.run(command).returncode
    print("ok" if status == 0 else "FAILED: see the workloads above")
    return status


def run_one(spec: dict, name: str, seed: int, seconds: float, trace: int,
            smoke: bool, borrowed: Optional[Dict] = None) -> dict:
    """Measure one workload; returns the contract's result object.

    ``borrowed`` memoises the smoke-size per-layer numbers of other
    workloads across calls in one process (the self-test's only).
    """
    from cases import CASES

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR)
    try:
        if trace:
            values, record = _traced(spec, CASES, name, seed, smoke,
                                     workdir,
                                     {} if borrowed is None else borrowed)
        else:
            values, record = _end_to_end(CASES[name], seed, seconds,
                                         smoke, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    line = contract.result_line(spec, trace, values,
                                record["attempted"], record["failed"])
    record.update(
        workload=name, trace=trace, smoke=smoke, result=line,
        fingerprint=method.fingerprint(REPO_ROOT, seed),
    )
    path = os.path.join(
        OUT_DIR, f"{name}.seed{seed}.trace{trace}"
                 f"{'.smoke' if smoke else ''}.json")
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1)
    for metric, entry in line["metrics"].items():
        print(f"{name:<18}{metric:<46}{entry['value']:>16.6g} "
              f"{entry['unit']}")
    print(f"{name:<18}attempted {line['attempted']}, failed "
          f"{line['failed']}; details in {os.path.relpath(path)}")
    return line


def _checked(case, modeled) -> int:
    """Failed operations: refused by the system or wrong per the oracle;
    also holds the traffic ledger to its conservation identity."""
    layer = modeled.scm_layer()
    per_op = modeled.end_to_end()["scm_bytes_per_op"]
    by_class = sum(v for k, v in layer.items()
                   if k.startswith("scm.bytes."))
    if abs(by_class - per_op) > 1e-9 * per_op:
        raise AssertionError(
            f"{case.name}: traffic classes sum to {by_class} B/op, "
            f"total is {per_op} B/op")
    return modeled.failed + case.check(modeled)


def _end_to_end(case_class, seed, seconds, smoke, workdir):
    setups = []
    case = None
    for _ in range(1 if smoke else SETUP_REPEATS):
        if case is not None:
            case.close()
            case = None
            gc.collect()
        case = case_class(smoke=smoke, workdir=workdir)
        _, sample = method.timed(lambda: case.setup(seed))
        setups.append(sample)
    modeled = case.modeled()
    passes = method.host_phase(
        case.run_pass, 0.0 if smoke else seconds, case.prepare_pass,
        min_passes=SMOKE_PASSES if smoke else method.MIN_PASSES)
    rss = method.peak_rss_mb()  # before the oracle builds its indexes
    failed = _checked(case, modeled)
    case.close()

    host = method.host_summary(passes, case.pass_ops)
    setup = method.quartiles([s.normalised_s for s in setups])
    values = dict(modeled.end_to_end(),
                  setup_s=setup["median"],
                  host_qps=host["qps_normalised"]["median"],
                  peak_rss_mb=rss)
    record = {
        "attempted": modeled.attempted, "failed": failed,
        "host_phase": host,
        "setup": {
            "normalised_s": setup,
            "per_setup": [s._asdict() for s in setups],
        },
    }
    return values, record


def _trace_case(case, seed):
    """Set up, run and trace ``case``: (tracer, set-up sample, modeled
    phase, the per-layer values the case itself produces)."""
    tracer = Tracer()
    _, setup = method.timed(lambda: case.setup(seed, tracer))
    modeled = case.modeled()
    values = case.trace(tracer, modeled)
    values.update(modeled.scm_layer())
    return tracer, setup, modeled, values


def _traced(spec, cases, name, seed, smoke, workdir, borrowed):
    import probes

    case = cases[name](smoke=smoke, workdir=workdir)
    tracer, setup, modeled, values = _trace_case(case, seed)
    passes = method.host_phase(
        case.run_pass, 0.0, case.prepare_pass,
        min_passes=SMOKE_PASSES if smoke else TRACED_PASSES)
    failed = _checked(case, modeled)
    case.close()
    host = method.host_summary(passes, case.pass_ops)
    kernels = [k for s in passes
               for k in (s.kernel_before_s, s.kernel_after_s)]
    values.update(probes.run(seed, smoke))
    values["harness.calib_kernel_ms"] = (
        method.quartiles(kernels)["median"] * 1e3)
    values["harness.host_qps_raw"] = host["qps_raw"]["median"]
    values["harness.failed_fraction"] = failed / modeled.attempted
    if smoke:
        borrowed[(name, seed)] = dict(values)

    # A layer this workload never enters is reported from the smoke-size
    # traced run of a workload that does, so that every traced run
    # carries every layer; the result file says which were borrowed.
    wanted = [m["name"] for m in contract.declared(spec, 1)]
    sources = {}
    for other in cases:
        missing = [m for m in wanted if m not in values]
        if not missing:
            break
        if other == name:
            continue
        if (other, seed) not in borrowed:
            smoke_case = cases[other](smoke=True, workdir=workdir)
            borrowed[(other, seed)] = _trace_case(smoke_case, seed)[3]
            smoke_case.close()
        for metric in missing:
            if metric in borrowed[(other, seed)]:
                values[metric] = borrowed[(other, seed)][metric]
                sources[metric] = other

    spans_path = os.path.join(
        OUT_DIR, f"{name}.seed{seed}{'.smoke' if smoke else ''}"
                 f".spans.json")
    with open(spans_path, "w") as handle:
        json.dump({"traceEvents": tracer.chrome_events(),
                   "displayTimeUnit": "ms"}, handle)
    record = {
        "attempted": modeled.attempted, "failed": failed,
        "host_phase": host,
        "setup": {"per_setup": [setup._asdict()]},
        "borrowed_from_smoke": sources,
        "spans_file": os.path.relpath(spans_path, REPO_ROOT),
        "span_self_s": tracer.self_times_s(),
        "span_root_s": tracer.root_s(),
    }
    return values, record


if __name__ == "__main__":
    sys.exit(main())

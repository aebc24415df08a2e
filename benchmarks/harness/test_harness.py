"""Self-test of the harness, at ``--smoke`` sizes.

    PYTHONPATH=src python -m pytest benchmarks/harness -q

(``PYTHONPATH`` is for ``benchmarks/conftest.py``, which pytest loads
on the way down; the harness finds ``src/`` by itself.) Tier-1's
``testpaths = ["tests"]`` does not collect this file.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HARNESS_DIR = os.path.dirname(os.path.abspath(__file__))
for path in (os.path.join(HARNESS_DIR, "..", "..", "src"), HARNESS_DIR):
    if path not in sys.path:
        sys.path.insert(0, os.path.abspath(path))

import compare  # noqa: E402
import contract  # noqa: E402
import run  # noqa: E402

SPEC = contract.load()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED, OTHER_SEED = 7, 8


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Every workload: seed 7 twice and seed 8 untraced, seed 7 traced.

    Maps ``(workload, seed, trace, repeat)`` to ``(result, printed)``.
    """
    out = {}
    borrowed = {}
    capture = tmp_path_factory.mktemp("stdout")
    for name in WORKLOADS:
        for seed, trace, repeat in ((SEED, 0, 0), (SEED, 0, 1),
                                    (OTHER_SEED, 0, 0), (SEED, 1, 0)):
            log = capture / f"{name}.{seed}.{trace}.{repeat}.txt"
            with open(log, "w") as handle:
                stdout, sys.stdout = sys.stdout, handle
                try:
                    line = run.run_one(SPEC, name, seed, 0.0, trace,
                                       smoke=True, borrowed=borrowed)
                finally:
                    sys.stdout = stdout
            out[(name, seed, trace, repeat)] = (line, log.read_text())
    return out


def test_benchmark_json_names_are_valid():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += WORKLOADS
    assert len(names) == len(set(names))
    for name in names:
        assert contract.NAME.match(name), name
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in SPEC["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_output_meets_the_contract(runs, name, trace):
    line, printed = runs[(name, SEED, trace, 0)]
    assert contract.violations(SPEC, trace, line) == []
    assert line["correct"] and line["failed"] == 0
    # The result survives the trip through its printed form.
    assert json.loads(json.dumps(line)) == line
    # Every declared (workload, metric) pair is printed exactly once.
    rows = [row.split() for row in printed.splitlines()]
    for metric in contract.declared(SPEC, trace):
        assert sum(
            row[:2] == [name, metric["name"]] for row in rows) == 1


@pytest.mark.parametrize("name", WORKLOADS)
def test_modeled_metrics_are_a_function_of_the_seed(runs, name):
    modeled = [m["name"] for m in SPEC["end_to_end"]
               if compare.is_modeled(m)]
    assert modeled

    def values(seed, repeat):
        metrics = runs[(name, seed, 0, repeat)][0]["metrics"]
        return [metrics[m]["value"] for m in modeled]

    assert values(SEED, 0) == values(SEED, 1)
    assert values(SEED, 0) != values(OTHER_SEED, 0)


@pytest.mark.parametrize("name", WORKLOADS)
def test_span_self_times_add_up_to_their_roots(name, runs):
    path = os.path.join(run.OUT_DIR, f"{name}.seed{SEED}.trace1.smoke.json")
    with open(path) as handle:
        record = json.load(handle)
    total = sum(record["span_self_s"].values())
    assert total == pytest.approx(record["span_root_s"], rel=0.02)
    with open(os.path.join(contract.REPO_ROOT,
                           record["spans_file"])) as handle:
        events = json.load(handle)["traceEvents"]
    assert events and all(e["ph"] == "X" for e in events)


def test_verdicts():
    metric = {"unit": "1/s", "better": "higher", "bound": 0.10}
    same = {7: 100.0, 8: 101.0, 9: 99.0}
    assert compare.verdict(metric, same, same) == "within bound"
    slower = {seed: value * 0.8 for seed, value in same.items()}
    assert compare.verdict(metric, same, slower) == "regressed"
    faster = {seed: value * 1.3 for seed, value in same.items()}
    assert compare.verdict(metric, same, faster) == "within bound"
    noisy = {7: 60.0, 8: 100.0, 9: 140.0}
    assert compare.verdict(metric, noisy, same) == "unresolved"
    assert compare.verdict(
        metric, noisy, {7: 150.0, 8: 160.0, 9: 170.0}) == "better"
    exact = {"unit": "sim_us", "better": "lower", "bound": 0.10}
    assert compare.verdict(exact, same, dict(same)) == "identical"

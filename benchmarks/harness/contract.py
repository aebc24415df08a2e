"""``BENCHMARK.json``: the one place metric names, units and bounds live.

The runner emits exactly the metrics the file declares, ``compare.py``
judges with its bounds and the self-test validates output against it,
so the three cannot drift apart.
"""

from __future__ import annotations

import json
import os
import re
from typing import Dict, List

HARNESS_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HARNESS_DIR))

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def load() -> dict:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def declared(spec: dict, trace: int) -> List[dict]:
    """The metrics a run with ``--trace <trace>`` must emit."""
    return spec["per_layer" if trace else "end_to_end"]


def result_line(spec: dict, trace: int, values: Dict[str, float],
                attempted: int, failed: int) -> dict:
    """The object a run prints as its last line of standard output."""
    missing = [m["name"] for m in declared(spec, trace)
               if m["name"] not in values]
    if missing:
        raise KeyError(f"run produced no value for {missing}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared(spec, trace)
        },
    }


def violations(spec: dict, trace: int, line: dict) -> List[str]:
    """Everything wrong with a result line, as readable sentences."""
    problems = []
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys are {sorted(line)}")
        return problems
    if not isinstance(line["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(line[key], int) or isinstance(line[key], bool):
            problems.append(f"{key} is not a whole number")
    if isinstance(line["attempted"], int) and line["attempted"] < 1:
        problems.append("attempted is below 1")
    want = {m["name"]: m for m in declared(spec, trace)}
    got = line["metrics"]
    for name in sorted(set(want) - set(got)):
        problems.append(f"{name} is declared but not emitted")
    for name in sorted(set(got) - set(want)):
        problems.append(f"{name} is emitted but not declared")
    for name, metric in got.items():
        if not NAME.match(name):
            problems.append(f"{name!r} is not a valid metric name")
        if set(metric) != {"value", "unit"}:
            problems.append(f"{name} has keys {sorted(metric)}")
            continue
        value = metric["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            problems.append(f"{name} is not a number")
        elif value != value or value in (float("inf"), float("-inf")):
            problems.append(f"{name} is not finite")
        if name in want and metric["unit"] != want[name]["unit"]:
            problems.append(
                f"{name} has unit {metric['unit']!r}, declared "
                f"{want[name]['unit']!r}")
    return problems

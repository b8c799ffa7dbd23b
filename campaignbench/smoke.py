"""Smoke test of the benchmark at tiny size.

Usage, from the root of a checkout::

    python3 campaignbench/smoke.py

Runs every workload with ``--tiny``, untraced and traced, and checks:

- each run exits 0 and its last line is the result object with exactly
  ``correct``, ``attempted``, ``failed`` and ``metrics``;
- an untraced run reports every end-to-end metric of ``BENCHMARK.json``
  and a traced run every per-layer metric, each with its declared unit,
  and the lines above the result name every metric with that unit;
- traced and untraced runs of one seed give identical outputs: the
  traced run compares its two passes itself (``correct``), and its
  accuracy figures equal the untraced run's;
- on the traced run the layer self times plus the unattributed
  remainder add up to the traced wall time;
- ``BENCHMARK.json`` has the contract's keys, a unit and a direction
  for every metric, a ``why`` for every workload, and every per-layer
  metric has an entry in ``layers.MOVES``.

Takes about a minute and a half; exits 1 listing what failed.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 3

sys.path.insert(0, HERE)


def check_spec(spec: dict, problems: list) -> None:
    from layers import MOVES

    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        problems.append(f"BENCHMARK.json keys {sorted(spec)} != {sorted(keys)}")
    for wl in spec["workloads"]:
        if set(wl) != {"name", "why"} or not wl["why"].strip():
            problems.append(f"workload entry {wl} needs a name and a why")
    for section, fields in (("end_to_end", {"name", "unit", "better", "bound"}),
                            ("per_layer", {"name", "unit", "better"})):
        for metric in spec[section]:
            if set(metric) != fields or metric["better"] not in ("lower", "higher"):
                problems.append(f"{section} entry {metric} is malformed")
    missing = {m["name"] for m in spec["per_layer"]} - set(MOVES)
    if missing:
        problems.append(f"per-layer metrics without a mapping: {sorted(missing)}")


def run(workload: str, trace: int, problems: list):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    label = f"{workload} --trace {trace}"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        return None, ""
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} "
                        f"failed={result['failed']} attempted={result['attempted']}")
    return result, "\n".join(lines[:-1])


def check_metrics(label, result, text, declared, problems) -> None:
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        problems.append(f"{label}: metrics/units differ from BENCHMARK.json: "
                        f"{sorted(set(got.items()) ^ set(want.items()))}")
    for name, unit in want.items():
        if not re.search(rf"^\s+{re.escape(name)}\s+\S+\s+{re.escape(unit)}(?=\s|$)",
                         text, re.MULTILINE):
            problems.append(f"{label}: no printed line for {name} [{unit}]")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems: list = []
    check_spec(spec, problems)
    for wl in spec["workloads"]:
        name = wl["name"]
        plain, plain_text = run(name, 0, problems)
        traced, traced_text = run(name, 1, problems)
        if plain is None or traced is None:
            continue
        check_metrics(f"{name} untraced", plain, plain_text, spec["end_to_end"], problems)
        check_metrics(f"{name} traced", traced, traced_text, spec["per_layer"], problems)
        m = {k: v["value"] for k, v in traced["metrics"].items()}
        for acc in ("tuned_error_pct", "heldout_error_pct"):
            printed = re.search(rf"^\s+{acc}\s+(\S+)", plain_text, re.MULTILINE)
            if printed is None or abs(float(printed.group(1)) - m[acc]) > 1e-4:
                problems.append(f"{name}: {acc} differs between traced and untraced runs")
        parts = [v for k, v in m.items() if k.endswith(".self_s")]
        parts += [m["engine.executor_wait_s"], m["bench.unattributed_s"]]
        if abs(sum(parts) - m["bench.traced_wall_s"]) > 1e-6 * max(1.0, m["bench.traced_wall_s"]):
            problems.append(f"{name}: self times + unattributed != traced wall")
        print(f"smoke: {name} ok" if not problems else f"smoke: {name} done")
    for problem in problems:
        print(f"FAIL: {problem}")
    print("smoke: passed" if not problems else f"smoke: {len(problems)} problem(s)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at the smallest size of each workload.

    python3 bench/smoke.py

Checks that:
  * every metric BENCHMARK.json names is emitted with its unit, untraced
    (end-to-end) and traced (per-layer), and the workload-specific end-to-end
    metrics of each workload are there too;
  * a clean run has no failed job, and a deliberately corrupted job output is
    counted in fail_ratio, so the checks catch wrong outputs;
  * every layer has a prediction in predictions.json;
  * the N-compartment transport formulas agree with the golden file at N = 4;
  * without the program's sources the benchmark exits non-zero, printing no
    result.
Exits 0 when all hold; raises AssertionError otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
COMMON_METRICS = {"fail_ratio", "wall_measured_s", "host_speed"}
WORKLOAD_METRICS = {
    "transport-scaling": COMMON_METRICS | {"reduce_s.N2", "reduce_s.N3"},
    "ladder": COMMON_METRICS | {"verdict_s.mm2d", "verdict_s.mm3d"},
    "survey": COMMON_METRICS | {"job_s.p50", "job_s.p90"},
}


def _rewrite(stdout: str, edit) -> str:
    out = json.loads(stdout)
    edit(out)
    return json.dumps(out)


def corruptor(workload: str):
    """A hook that spoils one job's output per round, as a wrong program would."""

    def transport(i, job, code, stdout):
        if i == 0:
            stdout = _rewrite(stdout, lambda o: o["eliminated"]["rows"].__setitem__(0, o["eliminated"]["rows"][0] + " + p1"))
        return code, stdout

    def ladder(i, job, code, stdout):
        if i == 0:
            stdout = _rewrite(stdout, lambda o: o.__setitem__("fitted_order", 2.0))
        return code, stdout

    chosen = []

    def survey(i, job, code, stdout):
        if not chosen and job.name.startswith("reduce/raw") and code == 0:
            chosen.append(i)
        if chosen and i == chosen[0]:
            stdout = _rewrite(stdout, lambda o: o["reduced"].__setitem__(0, o["reduced"][0] + " + 1"))
        return code, stdout

    return {"transport-scaling": transport, "ladder": ladder, "survey": survey}[workload]


def check_units(metrics: dict, spec_list: list[dict], what: str):
    names = [m["name"] for m in spec_list]
    assert list(metrics) == names, f"{what}: emitted {sorted(set(metrics) ^ set(names))} differ from BENCHMARK.json"
    for m in spec_list:
        assert metrics[m["name"]]["unit"] == m["unit"], f"{what}: unit of {m['name']}"
        assert isinstance(metrics[m["name"]]["value"], (int, float)), f"{what}: value of {m['name']}"


def check_workload(workload: str):
    clean = run.measure(run.parse_args(["--workload", workload, "--seed", "1", "--seconds", "0", "--size", "smoke"]))
    line = run.result_line(clean)
    assert line["correct"] and line["failed"] == 0, clean["failures"]
    check_units(line["metrics"], SPEC["end_to_end"], f"{workload} end-to-end")
    assert all(m["value"] > 0 for m in line["metrics"].values()), f"{workload}: zero end-to-end metric"
    missing = WORKLOAD_METRICS[workload] - set(clean["workload_metrics"])
    assert not missing, f"{workload}: missing {missing}"
    assert clean["workload_metrics"]["fail_ratio"]["value"] == 0

    args = run.parse_args(["--workload", workload, "--seed", "1", "--seconds", "0", "--size", "smoke", "--trace", "1"])
    traced = run.measure(args, corrupt=corruptor(workload))
    line = run.result_line(traced)
    check_units(line["metrics"], SPEC["per_layer"], f"{workload} per-layer")
    checked_rounds = traced["attempted"] // traced["jobs"]
    assert line["failed"] == checked_rounds and not line["correct"], traced["failures"]
    assert traced["workload_metrics"]["fail_ratio"]["value"] == checked_rounds / traced["attempted"]
    print(f"ok {workload}: {clean['jobs']} jobs, corrupted output caught in {line['failed']} round(s)")


def check_predictions():
    """Every layer with per-layer metrics has a written-down prediction."""
    table = json.loads((run.BENCH_DIR / "predictions.json").read_text())
    covered = {entry["layer"].split()[0] for entry in table["layers"]}
    layers = {m["name"].split(".")[0] for m in SPEC["per_layer"]}
    assert layers <= covered, f"no prediction for {sorted(layers - covered)}"
    print(f"ok predictions: {len(layers)} layers covered")


def check_golden():
    golden = run.ROOT / "tests" / "golden" / "transport_binding.json"
    if not golden.is_file():
        print("skip golden: no tests/golden in this checkout")
        return
    run.import_program()
    g = json.loads(golden.read_text())
    ctx = workloads.transport_context(4)
    rows, iv = workloads.transport_expected(4)
    for name, text in g["eliminated"]["rows"].items():
        assert ctx.parse(rows[name]) == ctx.parse(text), name
    for name, text in g["reduced_initial_value"].items():
        assert ctx.parse(iv[name]) == ctx.parse(text), name
    print("ok golden: N-compartment formulas match at N = 4")


def check_without_sources():
    run.OUT_DIR.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.OUT_DIR))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        cmd = [sys.executable] + SPEC["command"][1:] + ["--workload", "survey", "--seed", "1", "--seconds", "1", "--trace", "0"]
        done = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0, "benchmark succeeded without the program"
    assert '"metrics"' not in done.stdout, "benchmark printed a result without the program"
    print(f"ok bare checkout: exit {done.returncode}, no result")


def main():
    check_predictions()
    check_golden()
    check_without_sources()
    for workload in workloads.WORKLOADS:
        check_workload(workload)
    print("smoke ok")


if __name__ == "__main__":
    main()

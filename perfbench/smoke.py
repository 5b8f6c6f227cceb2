"""Smoke check for the benchmark: shrunken workloads, no timing asserted.

    python3 perfbench/smoke.py

For every workload, runs perfbench/run.py with --smoke (small inputs, one
cycle) untraced and traced, and checks that the last line carries every
metric BENCHMARK.json names, with its unit, and that no job failed.  Then
checks that the benchmark refuses to run without the program's source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "0", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check(workload: str, trace: int, declared: dict) -> None:
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        raise SystemExit(f"{where}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result, report = json.loads(lines[-1]), json.loads(lines[-2])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"{where}: result keys {sorted(result)}")
    want = declared["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    for m in want:
        if m["name"] not in got:
            raise SystemExit(f"{where}: metric {m['name']} missing")
        if got[m["name"]]["unit"] != m["unit"]:
            raise SystemExit(f"{where}: {m['name']} has unit {got[m['name']]['unit']}, "
                             f"BENCHMARK.json says {m['unit']}")
        if not isinstance(got[m["name"]]["value"], (int, float)):
            raise SystemExit(f"{where}: {m['name']} is not a number")
    extra = set(got) - {m["name"] for m in want}
    if extra:
        raise SystemExit(f"{where}: undeclared metrics {sorted(extra)}")
    if report["failed_share"] != 0 or result["failed"] != 0 or not result["correct"]:
        raise SystemExit(f"{where}: failed jobs {report['failures']}")
    if result["attempted"] < 1:
        raise SystemExit(f"{where}: no jobs attempted")
    print(f"ok  {where}: {len(got)} metrics, {result['attempted']} jobs")


def check_refuses_without_source() -> None:
    """In a tree holding only BENCHMARK.json and perfbench/, no result is printed."""
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    try:
        proc = run(bare, "fault-repair", 0)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        raise SystemExit("benchmark ran without the program's source")
    print("ok  refuses to run without src/")


def main() -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in declared["workloads"]:
        for trace in (0, 1):
            check(w["name"], trace, declared)
    check_refuses_without_source()


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Tiny-scale self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json through perfbench/run.py at --tiny
scale, untraced and traced, and checks that:
  * the last stdout line has exactly the contract keys and reports a
    correct run with no failed operation;
  * every metric named in BENCHMARK.json is printed, with its unit, and no
    other metric is; end-to-end metrics are never zero;
  * each counter predicted zero is zero: tier-read runs no swap, balloon,
    overcommit or cluster code, overcommit-write no cluster code, and the
    two-tier fleet-ha no swap or overcommit code.
Exits 0 when every check holds, 1 otherwise.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SWAP = ["swap.stores", "swap.loads", "swap.retries", "swap.writeback_stalls",
        "mem.swap_accesses"]
BALLOON = ["balloon.requests", "balloon.pages_inflated", "balloon.pages_deflated"]
OVERCOMMIT = ["overcommit.ticks", "overcommit.spill_requests", "overcommit.pages_requested",
              "overcommit.pages_refilled"]
CLUSTER = ["cluster.run_s", "cluster.migrations_started", "cluster.migrations_completed",
           "cluster.migrations_aborted", "cluster.migrations_fenced", "cluster.pages_copied",
           "cluster.precopy_rounds", "cluster.vms_killed", "cluster.vms_restarted",
           "cluster.vms_lost", "cluster.extract_adopt_ms"]
PREDICTED_ZERO = {
    "tier-read": SWAP + BALLOON + OVERCOMMIT + CLUSTER,
    "overcommit-write": CLUSTER,
    "fleet-ha": SWAP + OVERCOMMIT,
}


def run(workload, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "0", "--trace", str(trace), "--tiny"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        return None, f"exit {done.returncode}: {done.stderr[-1500:]}"
    return json.loads(done.stdout.strip().splitlines()[-1]), None


def check(workload, trace, contract):
    result, error = run(workload, trace)
    if error:
        return [error]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys are {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} attempted={result['attempted']} "
                        f"failed={result['failed']}")
    wanted = contract["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    extra = set(metrics) - {m["name"] for m in wanted}
    if extra:
        problems.append(f"unexpected metrics {sorted(extra)}")
    for metric in wanted:
        got = metrics.get(metric["name"])
        if got is None:
            problems.append(f"{metric['name']} not printed")
        elif got["unit"] != metric["unit"]:
            problems.append(f"{metric['name']} in {got['unit']}, expected {metric['unit']}")
        elif not trace and got["value"] == 0:
            problems.append(f"{metric['name']} is zero")
    if trace:
        for name in PREDICTED_ZERO[workload]:
            if name in metrics and metrics[name]["value"] != 0:
                problems.append(f"{name} = {metrics[name]['value']}, predicted zero")
    return problems


def main():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in [w["name"] for w in contract["workloads"]]:
        for trace in (0, 1):
            problems = check(workload, trace, contract)
            status = "ok" if not problems else "FAIL"
            print(f"{status} {workload} trace={trace}")
            for problem in problems:
                print(f"    {problem}")
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

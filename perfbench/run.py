#!/usr/bin/env python3
"""Builds and runs the host-time benchmark of the Demeter simulator.

Usage (from the repository root):

    python3 perfbench/run.py --workload tier-read --seed 1 --seconds 20 --trace 0

Builds perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench, then runs the workload in its own process.
--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 runs
one untraced repetition and one traced repetition and reports the
per-layer metrics, including trace.overhead_frac. The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics.
The binary's full result lines (with the run's stamp: source digest,
compiler, build type, nproc and core budget) are written next to the build
as out/<workload>-<seed>-trace<0|1>.json and the stamp is echoed to stdout.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def source_digest():
    """sha256 over the simulator and benchmark sources (the checkout is not
    necessarily a git repository, so this stands in for the commit)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".h", ".cc", ".txt", ".py"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def build(build_dir):
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench", "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return build_dir / "perfbench"


def run_binary(binary, args, trace, seconds, out_dir, commit):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out-dir", str(out_dir),
           "--commit", commit]
    if args.tiny:
        cmd.append("--tiny")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
                          check=False)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{' '.join(cmd)} exited with {done.returncode}")
    result = json.loads(lines[-1])
    name = f"{args.workload}-{args.seed}-trace{trace}.json"
    (out_dir / name).write_text(lines[-1] + "\n")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["tier-read", "overcommit-write", "fleet-ha"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the simulated work (self-test only)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 0:
        fail("--seed and --seconds must not be negative")

    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (target if target.is_absolute() else ROOT / target) / "perfbench"
    binary = build(build_dir)
    out_dir = build_dir / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    commit = source_digest()

    if args.trace == 0:
        result = run_binary(binary, args, 0, args.seconds, out_dir, commit)
        attempted, failed = result["attempted"], result["failed"]
        correct = result["correct"]
        wanted = contract["end_to_end"]
    else:
        # One untraced repetition prices the trace and anchors the digest.
        base = run_binary(binary, args, 0, 0, out_dir, commit)
        result = run_binary(binary, args, 1, 0, out_dir, commit)
        attempted = base["attempted"] + result["attempted"]
        failed = base["failed"] + result["failed"]
        correct = base["correct"] and result["correct"]
        if base["digest"] != result["digest"]:
            print(f"perfbench: traced and untraced counter digests differ "
                  f"({result['digest']} vs {base['digest']})", file=sys.stderr)
            correct = False
            failed += result["attempted"]
        result["metrics"]["trace.overhead_frac"] = {
            "value": result["metrics"]["wall_s"]["value"] / base["metrics"]["wall_s"]["value"] - 1,
            "unit": "ratio"}
        wanted = contract["per_layer"]

    for error in result.get("errors", []):
        print(f"perfbench: {error}", file=sys.stderr)
    metrics = {}
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        if got is None or got["unit"] != metric["unit"]:
            fail(f"metric {metric['name']} missing or not in {metric['unit']}: {got}")
        metrics[metric["name"]] = {"value": got["value"], "unit": got["unit"]}
    print("stamp " + json.dumps(result["stamp"], sort_keys=True) +
          f" digest {result['digest']} reps {result['reps']}")
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py

Run from the repository root. Runs every workload untraced and traced
through run.py --smoke and checks that each run ends with a correct result,
no failed operations, and exactly the metrics BENCHMARK.json names for its
mode (end_to_end untraced, per_layer traced), each with its unit.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(HERE, "..", "BENCHMARK.json")


def main():
    with open(SPEC) as f:
        spec = json.load(f)
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in ("0", "1"):
            run = f"{workload} --trace {trace}"
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", "7", "--seconds", "1", "--trace", trace,
                 "--smoke"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            if proc.returncode != 0:
                problems.append(f"{run}: exit code {proc.returncode}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            if result["correct"] is not True or result["failed"] != 0:
                problems.append(f"{run}: correct={result['correct']} "
                                f"failed={result['failed']}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                units = sorted(k for k in set(got) & set(expected[trace])
                               if got[k] != expected[trace][k])
                problems.append(f"{run}: missing {missing} extra {extra} "
                                f"wrong units {units}")
            print(f"{run}: {len(got)} metrics", flush=True)
    for p in problems:
        print("FAIL", p)
    print("smoke:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""The benchmark's own smoke test.

    python3 perfbench/smoke_test.py

Runs every workload at a tiny size, untraced and traced, and checks
that each prints every metric BENCHMARK.json names, with its unit, and
reports zero failures. A traced run names on its "absent:" line the
per-layer metrics its workload does not produce (and fails when the
workload produces any other set than it declares); every per-layer
metric must be produced by some workload. Then makes one expected
datapath verdict wrong and checks that the run counts it as a failure.
Exits 0 when all hold.
"""

import json
import subprocess
import sys


def run(workload, trace, corrupt=False):
    cmd = ["python3", "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"]
    if corrupt:
        cmd.append("--corrupt")
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if out.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    absent = set()
    for line in lines:
        if line.startswith("absent: "):
            names = line[len("absent: "):].split(" (not exercised by")[0]
            absent = {n for n in names.split(", ") if n}
    return json.loads(lines[-1]), absent


def check_metrics(result, expected, label):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        raise AssertionError(
            f"{label}: missing {missing}, unexpected {extra}, wrong units {wrong}")


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    failures = []
    produced = set()
    for w in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{w['name']} --trace {trace}"
            try:
                r, absent = run(w["name"], trace)
                check_metrics(r, bench[key], label)
                if trace == 1:
                    produced |= set(r["metrics"]) - absent
                if not (r["correct"] and r["failed"] == 0 and r["attempted"] >= 1):
                    raise AssertionError(f"{label}: correct={r['correct']} "
                                         f"failed={r['failed']} attempted={r['attempted']}")
                print(f"ok   {label}: {len(r['metrics'])} metrics, "
                      f"{r['attempted']} attempted, 0 failed")
            except AssertionError as e:
                failures.append(str(e))
                print(f"FAIL {e}")
    never = sorted({m["name"] for m in bench["per_layer"]} - produced)
    if never:
        failures.append(f"no workload produces {never}")
        print(f"FAIL no workload produces {never}")
    try:
        r, _ = run("datapath", 0, corrupt=True)
        if r["failed"] == 0 or r["correct"]:
            raise AssertionError("a wrong expected verdict was not counted as a failure")
        print(f"ok   datapath --corrupt: {r['failed']} of {r['attempted']} failed")
    except AssertionError as e:
        failures.append(str(e))
        print(f"FAIL {e}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

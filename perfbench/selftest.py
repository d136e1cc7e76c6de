#!/usr/bin/env python3
"""Self-test of the benchmark: result format and determinism.

Run from the root of a checkout:

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs a short end-to-end run twice
with one seed and once with another, and a short traced run, and checks:

  * the last stdout line is the result object with exactly the keys
    correct/attempted/failed/metrics, and correct is true;
  * the end-to-end run reports exactly BENCHMARK.json's end_to_end metrics
    and the traced run exactly its per_layer metrics, with their units;
  * mean_cct_s and traffic_gb are bit-identical across the two runs of the
    same seed (a batch that fires on a timer, or any other timing-dependent
    input, fails here) and differ for the other seed.

Exits 0 when every check passes, 1 otherwise.
"""
import json
import subprocess
import sys

SECONDS = "2"
DETERMINISTIC = ("mean_cct_s", "traffic_gb")


def run(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for workload in (w["name"] for w in spec["workloads"]):
        first = run(workload, 7, 0)
        second = run(workload, 7, 0)
        other = run(workload, 8, 0)
        traced = run(workload, 7, 1)
        for label, result, trace in (("run", first, 0), ("repeat", second, 0),
                                     ("other seed", other, 0),
                                     ("traced", traced, 1)):
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{workload} {label}: result keys")
            check(result["correct"] is True and result["failed"] == 0,
                  f"{workload} {label}: outputs correct")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            check(units == expected[trace],
                  f"{workload} {label}: metric names and units")
        for name in DETERMINISTIC:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            c = other["metrics"][name]["value"]
            check(a == b, f"{workload}: {name} bit-identical for one seed "
                          f"({a!r} vs {b!r})")
            check(a != c, f"{workload}: {name} depends on the seed")
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Self-test of the numaprof benchmark: one op per workload at a fixed seed.

    python3 numabench/selftest.py

For every workload it runs the timed and the traced mode twice each with
`--ops 1` and checks that every metric BENCHMARK.json names is printed
with its unit, that the exact counts repeat between the two runs, and
that every op passed its correctness check. Exits 1 on the first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7

# Counts that are pure functions of the seed and the program: they must
# repeat exactly from run to run.
EXACT = {
    0: ["output_bytes"],
    1: ["core.profile_bytes", "simrt.accesses", "simrt.instructions",
        "simrt.sim_cycles", "pmu.samples", "pmu.samples_per_kaccess",
        "core.cct_nodes", "monitor.frames", "telemetry.snapshots",
        "telemetry.trace_bytes", "telemetry.bytes_per_snapshot",
        "core.input_bytes.text", "core.input_bytes.binary", "core.shards",
        "core.samples", "core.export_bytes", "lint.files", "lint.lines",
        "lint.tokens", "lint.findings"],
}


def run(workload, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(SEED), "--seconds", "1", "--trace",
               str(trace), "--ops", "1"]
    out = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                         text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: spec["end_to_end"], 1: spec["per_layer"]}
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            first, second = run(workload, trace), run(workload, trace)
            where = f"{workload} --trace {trace}"
            for result in (first, second):
                if not result["correct"] or result["failed"] != 0:
                    failures.append(f"{where}: an op failed its check")
                metrics = result["metrics"]
                for metric in expected[trace]:
                    got = metrics.get(metric["name"])
                    if got is None or got["unit"] != metric["unit"]:
                        failures.append(f"{where}: {metric['name']} missing")
                if set(metrics) != {m["name"] for m in expected[trace]}:
                    failures.append(f"{where}: unexpected metric names")
            if trace == 0 and first["metrics"]["success_frac"]["value"] != 1.0:
                failures.append(f"{where}: success_frac below 1")
            for name in EXACT[trace]:
                a = first["metrics"].get(name, {}).get("value")
                b = second["metrics"].get(name, {}).get("value")
                if a != b:
                    failures.append(f"{where}: {name} {a} != {b}")
            print(f"selftest: {where} ok" if not failures else
                  f"selftest: {where}: {failures[-1]}", flush=True)
    for failure in failures:
        print(f"selftest: FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark at tiny sizes; finishes in well under a minute.

    python3 perfbench/selftest.py

It checks that

* every workload runs, with ``--trace 0`` and ``--trace 1``, and emits every
  end-to-end and per-layer metric named in BENCHMARK.json with its unit;
* ``failed`` is 0 on the code as it is, and a deliberately wrong reference
  value is counted as a failure, also at a seed above the four recorded;
* two traced runs at the same seed give identical ``.calls`` counts;
* the trace confirms the workload design: each workload exercises only the
  layers it was chosen for.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SCRATCH = os.path.join(ROOT, ".perfbench")

EXACT = ("exact-classical", "mc-classical", "exact-quantum")
CLASSICAL = ("exact-classical", "mc-classical")
PROTOCOL = ("protocol-exact", "protocol-short")


def bench(workload: str, trace: int, seed: int = 0, reference: str | None = None) -> dict:
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"]
    if reference is not None:
        cmd += ["--reference", reference]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def check_metrics(result: dict, declared: list, label: str) -> None:
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys {sorted(result)}")
    got = result["metrics"]
    expect(set(got) == {m["name"] for m in declared}, f"{label}: metrics {sorted(got)}")
    for m in declared:
        expect(got[m["name"]]["unit"] == m["unit"], f"{label}: {m['name']} unit {got[m['name']]['unit']}")
        expect(isinstance(got[m["name"]]["value"], (int, float)), f"{label}: {m['name']} is not a number")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    traced = {}
    for workload in workloads:
        plain = bench(workload, 0)
        check_metrics(plain, spec["end_to_end"], f"{workload} trace=0")
        expect(plain["correct"] and plain["failed"] == 0, f"{workload}: {plain['failed']} failed jobs")
        for metric in spec["end_to_end"]:
            expect(plain["metrics"][metric["name"]]["value"] > 0, f"{workload}: {metric['name']} is 0")
        first, second = bench(workload, 1), bench(workload, 1)
        check_metrics(first, spec["per_layer"], f"{workload} trace=1")
        expect(first["correct"] and second["correct"], f"{workload}: traced run failed jobs")
        calls = {k: v["value"] for k, v in first["metrics"].items() if k.endswith(".calls")}
        again = {k: v["value"] for k, v in second["metrics"].items() if k.endswith(".calls")}
        expect(calls == again, f"{workload}: .calls differ between traced runs: {calls} vs {again}")
        traced[workload] = {k: v["value"] for k, v in first["metrics"].items()}
        print(f"ok {workload}: {plain['attempted']} jobs, metrics and calls repeat")

    for workload in PROTOCOL:
        expect(traced[workload]["sampling.deviation.calls"] == 0, f"{workload}: deviation was called")
        expect(traced[workload]["qsampling.self_s"] == 0, f"{workload}: qsampling did work")
    for workload in CLASSICAL:
        expect(traced[workload]["qsampling.self_s"] == 0, f"{workload}: qsampling did work")
    for workload in EXACT:
        expect(traced[workload]["protocols.self_s"] == 0, f"{workload}: protocols did work")
        expect(traced[workload]["entropy.self_s"] == 0, f"{workload}: entropy did work")
    layers = {k: v for k, v in traced["exact-classical"].items() if k.count(".") == 1 and k.endswith(".self_s")}
    expect(max(layers, key=layers.get) == "sampling.self_s", f"exact-classical: largest layer {layers}")
    print("ok trace confirms which layers each workload exercises")

    # a wrong reference value must be counted as a failed job, at any seed:
    # every eps-class float is off by 1e-6 relative
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    wrong = dict(reference["tiny"])
    for key, (digest, floats) in wrong.items():
        if key.startswith("eps-class "):
            wrong[key] = [digest, [floats[0] * (1 + 1e-6)] + floats[1:]]
    os.makedirs(SCRATCH, exist_ok=True)
    path = os.path.join(SCRATCH, "wrong-reference.json")
    with open(path, "w") as fh:
        json.dump({"tiny": wrong}, fh)
    try:
        for workload, seed in (("exact-classical", 0), ("mc-classical", 805)):
            bad = bench(workload, 0, seed=seed, reference=path)
            expect(not bad["correct"] and bad["failed"] == bad["attempted"], f"wrong reference not detected: {bad}")
            print(f"ok {workload} seed {seed}: a wrong reference value fails {bad['failed']} of {bad['attempted']} jobs")
    finally:
        os.remove(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())

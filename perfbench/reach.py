"""Reach report: the largest n each exact computation finishes within 10 s.

    python3 perfbench/reach.py

For each exact strategy kind (``eps-class --exact``) and for exact
``qkd-sim`` with the entangling probe, n grows by one until an attempt runs
past LIMIT_S, is refused by the enumeration budget (exit 2), or fails.
Every attempt is a fresh ``python3 -m qsample.cli`` subprocess, killed at
the limit, so the time includes start-up as a user would see it.

This is an on-demand diagnostic, not a gated metric: each step in n is a
several-fold jump in time, so the reach moves only when a change is large.
The report is printed and written to ``.perfbench/reach.json``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
LIMIT_S = 10.0  # the wall-clock limit of the reach headline

# name -> (first n, CLI arguments for a given n)
TARGETS = {
    "eps-class:example1": (2, lambda n: ["eps-class", "--kind", "example1", "--n", n, "--k", n // 2]),
    "eps-class:example3": (2, lambda n: ["eps-class", "--kind", "example3", "--n", n]),
    "eps-class:example4": (2, lambda n: ["eps-class", "--kind", "example4", "--n", n, "--k", n // 2]),
    "eps-class:example5": (1, lambda n: ["eps-class", "--kind", "example5", "--n", n, "--k", max(1, n // 2)]),
    "eps-class:example6": (1, lambda n: ["eps-class", "--kind", "example6", "--n", n, "--k", 2, "--p", 0.3]),
    "qkd-sim:entangling-probe": (
        2,
        lambda n: ["qkd-sim", "--n", n, "--k", 1, "--adversary", "entangling-probe", "--exact"],
    ),
}


def attempt(args: list) -> tuple[str, float]:
    """Run one CLI invocation; returns (outcome, seconds)."""
    cmd = [sys.executable, "-m", "qsample.cli"] + [str(a) for a in args]
    if args[0] == "eps-class":
        cmd += ["--delta", "0.3", "--exact"]
    env = dict(os.environ, PYTHONPATH=SRC)
    start = time.perf_counter()
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=LIMIT_S, env=env)
    except subprocess.TimeoutExpired:
        return "timeout", time.perf_counter() - start
    seconds = time.perf_counter() - start
    if done.returncode == 2:
        return "refused", seconds
    return ("ok" if done.returncode == 0 else f"exit {done.returncode}"), seconds


def reach(name: str) -> dict:
    first, build = TARGETS[name]
    best, steps, n = None, [], first
    while True:
        outcome, seconds = attempt(build(n))
        steps.append({"n": n, "outcome": outcome, "seconds": round(seconds, 3)})
        if outcome != "ok":
            break
        best, n = n, n + 1
    return {"largest_n": best, "stopped_by": outcome, "steps": steps}


def main() -> int:
    if not os.path.isdir(os.path.join(SRC, "qsample")):
        print(f"error: no qsample sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from run import provenance

    report = {"limit_s": LIMIT_S, "provenance": provenance("reach", None, "full"), "reach": {}}
    for name in TARGETS:
        result = reach(name)
        report["reach"][name] = result
        print(f"{name}: largest n = {result['largest_n']} (then {result['stopped_by']})", flush=True)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "reach.json"), "w") as fh:
        json.dump(report, fh, indent=2)
    print(json.dumps(report["reach"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

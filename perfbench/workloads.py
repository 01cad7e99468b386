"""Seeded job lists for the benchmark's workloads.

A workload is one pass: a fixed list of CLI jobs, each a ``RunConfig``
for ``qsample.cli.run``.  The benchmark repeats the pass until its time is
up, so every pass of a run has the same inputs; the inputs come only from
the workload seed and the size ("full" for measuring, "tiny" for the
self-test).  Every job builds its own strategy and state objects inside
``run``, as a CLI invocation does, so a repeated pass never turns the
per-strategy caches into cache hits.

Each job carries a ``group`` label.  Timings are summarized per group
(median over the run), and the pass time is the sum over the pass's jobs of
their group median.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

import numpy as np

# The seed picks one of len(DELTAS) input pools: pool i has delta DELTAS[i]
# and draws its strings, states and run seeds from a generator seeded with i.
# reference.json holds every job of every pool, so every output is checked
# against a recorded result at any seed.  Each value's
# binary float is at or below its decimal, so a deviation exactly equal to
# the decimal is rejected whether delta is read as a float or as the exact
# decimal; the references stay valid if the tie rule is made exact.
DELTAS = (0.15, 0.25, 0.3, 0.35)

WORKLOADS = (
    "exact-classical",
    "mc-classical",
    "exact-quantum",
    "protocol-exact",
    "protocol-short",
)

QOT_BOBS = ("none", "commit-flip", "open-flip", "no-measure", "delay-measure")
QKD_ADVERSARIES = ("none", "intercept-resend", "entangling-probe")

# Sizes per workload.  A single job's time varies by about 10% on a shared
# host even after calibration, so "full" keeps every job under ~0.3 s: one
# pass takes about a second, and each group gets 20 or more samples in a
# run.  The reach report (reach.py) covers the large sizes.
SIZES = {
    "full": {
        "exact-classical": [
            ("example1", {"n": 11, "k": 5}),
            ("example3", {"n": 9}),
            ("example4", {"n": 8, "k": 3}),
            ("example5", {"n": 3, "k": 2}),
            ("example6", {"n": 3, "k": 2, "p": 0.3}),
        ],
        "mc-classical": {
            "strings": 3,
            "trials": 700,
            "strategies": [
                ("example2", {"n": 100, "k": 20}),
                ("example5", {"n": 40, "k": 10}),
                ("example6", {"n": 40, "k": 10, "p": 0.3}),
            ],
        },
        "exact-quantum": {
            "random": [
                ("example1", {"n": 7, "k": 3}),
                ("example4", {"n": 5, "k": 2}),
                ("example5", {"n": 3, "k": 1}),
            ],
            "symmetric": [
                ("example1", {"n": 5, "k": 2}),
                ("example5", {"n": 2, "k": 1}),
            ],
            "tightness": {"n": 5, "k": 2},
        },
        "protocol-exact": {
            "qkd": [
                ("entangling-probe", 4, 1),
                ("entangling-probe", 3, 1),
                ("none", 4, 2),
            ],
            "pa": {"n": 5, "l": 2, "trials": 4},
        },
        "protocol-short": {
            "qot": {"n": 10, "k": 3, "l": 2, "runs": 100},
            "qkd": {"n": 24, "k": 6, "runs": 100},
        },
    },
    "tiny": {
        "exact-classical": [
            ("example1", {"n": 6, "k": 3}),
            ("example3", {"n": 5}),
            ("example4", {"n": 5, "k": 2}),
            ("example5", {"n": 2, "k": 1}),
            ("example6", {"n": 2, "k": 2, "p": 0.3}),
        ],
        "mc-classical": {
            "strings": 2,
            "trials": 50,
            "strategies": [
                ("example2", {"n": 20, "k": 5}),
                ("example5", {"n": 8, "k": 3}),
                ("example6", {"n": 8, "k": 4, "p": 0.3}),
            ],
        },
        "exact-quantum": {
            "random": [
                ("example1", {"n": 4, "k": 2}),
                ("example4", {"n": 4, "k": 2}),
                ("example5", {"n": 2, "k": 1}),
            ],
            "symmetric": [
                ("example1", {"n": 4, "k": 2}),
                ("example5", {"n": 2, "k": 1}),
            ],
            "tightness": {"n": 4, "k": 2},
        },
        "protocol-exact": {
            "qkd": [
                ("entangling-probe", 3, 1),
                ("none", 3, 1),
            ],
            "pa": {"n": 3, "l": 1, "trials": 2},
        },
        "protocol-short": {
            "qot": {"n": 8, "k": 2, "l": 1, "runs": 10},
            "qkd": {"n": 12, "k": 3, "runs": 6},
        },
    },
}


@dataclass(frozen=True)
class Job:
    """One CLI invocation: ``run(RunConfig(command, params, rng_seed))``.

    ``key`` identifies the job's inputs independent of where its files
    live, so references recorded in one checkout apply in another.
    """

    group: str
    command: str
    params: dict
    rng_seed: int
    key: str


def _job(group: str, command: str, params: dict, rng_seed: int = 0, input_digest: str = "") -> Job:
    shown = {k: v for k, v in sorted(params.items()) if k != "state"}
    key = f"{command} {shown} seed={rng_seed}"
    if input_digest:
        key += f" state={input_digest}"
    return Job(group, command, dict(params), int(rng_seed), key)


def _bits(rng: np.random.Generator, length: int) -> str:
    return "".join(str(int(b)) for b in rng.integers(0, 2, size=length))


def _run_seeds(rng: np.random.Generator, count: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def make_jobs(workload: str, seed: int, size: str, workdir: str) -> list[Job]:
    """The job list of one pass; state files are written under ``workdir``."""
    from qsample.quantum import random_pure_state, state_to_json

    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    spec = SIZES[size][workload]
    pool = int(seed) % len(DELTAS)
    rng = np.random.default_rng([pool, WORKLOADS.index(workload)])
    delta = DELTAS[pool]
    jobs = []

    if workload == "exact-classical":
        for kind, params in spec:
            jobs.append(_job(f"eps-class:{kind}", "eps-class", {"kind": kind, **params, "delta": delta}))

    elif workload == "mc-classical":
        for _ in range(spec["strings"]):
            for kind, params in spec["strategies"]:
                length = 2 * params["n"] if kind in ("example5", "example6") else params["n"]
                jobs.append(
                    _job(
                        f"eps-class-mc:{kind}",
                        "eps-class",
                        {
                            "kind": kind,
                            **params,
                            "delta": DELTAS[0],
                            "mode": "mc",
                            "q": _bits(rng, length),
                            "trials": spec["trials"],
                        },
                        rng_seed=_run_seeds(rng, 1)[0],
                    )
                )

    elif workload == "exact-quantum":
        os.makedirs(workdir, exist_ok=True)
        for i, (kind, params) in enumerate(spec["random"]):
            length = 2 * params["n"] if kind == "example5" else params["n"]
            text = state_to_json(random_pure_state((2,) * length + (1,), rng))
            path = os.path.join(workdir, f"state-{seed}-{i}.json")
            with open(path, "w") as fh:
                fh.write(text)
            digest = hashlib.sha256(text.encode()).hexdigest()[:16]
            jobs.append(
                _job(
                    f"eps-quant:{kind}:random",
                    "eps-quant",
                    {"kind": kind, **params, "delta": delta, "state": path},
                    input_digest=digest,
                )
            )
        for kind, params in spec["symmetric"]:
            jobs.append(_job(f"eps-quant:{kind}:symmetric", "eps-quant", {"kind": kind, **params, "delta": delta}))
        jobs.append(_job("tightness", "tightness", {**spec["tightness"], "delta": delta}))

    elif workload == "protocol-exact":
        for adversary, n, k in spec["qkd"]:
            jobs.append(
                _job(
                    f"qkd-exact:{adversary}:n{n}",
                    "qkd-sim",
                    {"n": n, "k": k, "adversary": adversary, "mode": "exact"},
                    rng_seed=_run_seeds(rng, 1)[0],
                )
            )
        jobs.append(_job("pa-check", "pa-check", dict(spec["pa"]), rng_seed=_run_seeds(rng, 1)[0]))

    else:  # protocol-short
        qot, qkd = spec["qot"], spec["qkd"]
        for i, run_seed in enumerate(_run_seeds(rng, qot["runs"])):
            bob = QOT_BOBS[i % len(QOT_BOBS)]
            params = {"n": qot["n"], "k": qot["k"], "l": qot["l"], "adversary": bob}
            if bob in ("commit-flip", "open-flip"):
                params["flips"] = str(int(rng.integers(1, qot["n"] + 1)))
            params["choice"] = int(rng.integers(0, 2))
            jobs.append(_job(f"qot-sim:{bob}", "qot-sim", params, rng_seed=run_seed))
        for i, run_seed in enumerate(_run_seeds(rng, qkd["runs"])):
            adversary = QKD_ADVERSARIES[i % len(QKD_ADVERSARIES)]
            params = {"n": qkd["n"], "k": qkd["k"], "adversary": adversary, "mode": "mc"}
            jobs.append(_job(f"qkd-sim:{adversary}", "qkd-sim", params, rng_seed=run_seed))
    return jobs

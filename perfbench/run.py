"""qsample benchmark: one seeded workload, measured in a closed loop.

Usage::

    python3 perfbench/run.py --workload exact-classical --seed 0 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one process each

One client runs one job at a time, in this process, through the public entry
point ``qsample.cli.run(RunConfig(...))``.  A pass runs the workload's job
list once (see ``workloads.py``); passes repeat until ``--seconds`` have
elapsed.  Every job's output is checked: it must succeed, pass its own
checks, match the result recorded in ``reference.json`` and leave nothing
running.  Times are host-normalised by a calibration loop (``calibrate.py``),
not raw wall time.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports per-layer metrics from the traced
ones.  The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it name
every metric with its unit, the per-command figures behind each workload,
and the machine.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402

from workloads import WORKLOADS, make_jobs  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
OUT = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 8  # setups in fresh interpreters, on top of this process's own
FRESH_CALIBRATIONS = 7  # calibration loops compared with each of those interpreters
# The largest in-process / fresh-interpreter calibration ratio a run accepts.
# Above it something in this process slows the loop, which would pass for a
# speed-up of every scaled time, so the run reports no result.
CALIBRATION_RATIO_MAX = 1.2


PER_LAYER = {
    "cli.run.self_s": "s",
    "sampling.self_s": "s",
    "sampling.eps_class_exact.self_s": "s",
    "sampling.eps_class_mc.self_s": "s",
    "sampling.ts_support.self_s": "s",
    "sampling.deviation.calls": "count",
    "sampling.deviation.self_s": "s",
    "sampling.deviation.calls_per_budget": "ratio",
    "qsampling.self_s": "s",
    "qsampling.symmetric_group.self_s": "s",
    "qsampling.pair_symmetry_group.self_s": "s",
    "qsampling.is_g_symmetric.self_s": "s",
    "qsampling.symmetric_worst_state.self_s": "s",
    "qsampling.ideal_distance.self_s": "s",
    "quantum.self_s": "s",
    "quantum.apply_unitary.calls": "count",
    "quantum.apply_unitary.self_s": "s",
    "quantum.sample_measurement.self_s": "s",
    "entropy.self_s": "s",
    "entropy.hash_eval.calls": "count",
    "entropy.hash_eval.self_s": "s",
    "entropy.pa_exact_check.self_s": "s",
    "linalg.eigvalsh.calls": "count",
    "linalg.eigvalsh.self_s": "s",
    "protocols.self_s": "s",
    "protocols.simulate_qkd.self_s": "s",
    "protocols.simulate_qot.self_s": "s",
    "protocols.qot_bound_optimize.calls": "count",
    "protocols.qot_bound_optimize.self_s": "s",
    "protocols.qkd_bound.calls": "count",
    "protocols.make_linear_code.self_s": "s",
    "trace.overhead_s": "s",
}

GATED = ("sampling.eps_class_exact", "qsampling.ideal_distance", "qsampling.is_g_symmetric")


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def fingerprint(result) -> list:
    """[digest of every non-float value, list of floats], in document order.

    Floats are compared to 1e-9 relative instead of byte for byte, because
    the program may change a value in its last digits.
    """
    floats = []

    def exact(value):
        if isinstance(value, float):
            floats.append(value)
            return "<float>"
        if isinstance(value, dict):
            return {k: exact(value[k]) for k in sorted(value)}
        if isinstance(value, list):
            return [exact(v) for v in value]
        return value

    text = json.dumps(exact(result), sort_keys=True)
    return [hashlib.sha256(text.encode()).hexdigest()[:16], floats]


def _close(a: float, b: float) -> bool:
    if a == b:
        return True
    return abs(a - b) <= max(1e-9 * max(abs(a), abs(b)), 1e-12)


def _own_check(job, result) -> str | None:
    """The job's own verdicts, valid at any seed."""
    params = job.params
    if job.command == "eps-quant" and result["holds"] is not True:
        return "holds is false"
    if job.command == "tightness" and result["tight"] is not True:
        return "tight is false"
    if job.command == "pa-check" and result["holds"] is not True:
        return "holds is false"
    if job.command == "qkd-sim" and params.get("adversary") == "none":
        if result["keys_match"] is not True:
            return "honest run: keys differ"
        distance = result["report"]["exact_distance"]
        if params.get("mode") == "exact" and not (distance is not None and abs(distance) <= 1e-9):
            return f"honest run: exact_distance {distance} is not 0"
    if job.command == "qot-sim" and params.get("adversary") == "none":
        choice = result["choice"]
        if not result["accepted"] or result["bob_output"]["key"] != result[f"k{choice}"]:
            return "honest run: Bob's key differs from Alice's"
    return None


def check(job, status: int, text: str, reference: dict) -> str | None:
    """None when the job's output is correct, else the reason it is not."""
    if status != 0:
        return f"exit status {status}"
    result = json.loads(text)["result"]
    reason = _own_check(job, result)
    if reason is not None:
        return reason
    want = reference.get(job.key)
    if want is None:
        return "no reference result recorded for these inputs"
    got = fingerprint(result)
    if got[0] != want[0]:
        return "differs from the reference in a non-float value"
    if len(got[1]) != len(want[1]) or not all(map(_close, got[1], want[1])):
        return "differs from the reference in a float beyond 1e-9 relative"
    return None


# ---------------------------------------------------------------------------
# provenance and set-up
# ---------------------------------------------------------------------------


def _git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown (not a git checkout)"
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = os.path.join(ROOT, ".git", name)
    if os.path.isfile(loose):
        with open(loose) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(workload: str, seed: int, size: str) -> dict:
    import numpy

    blas_vars = (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
    return {
        "workload": workload,
        "seed": seed,
        "size": size,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in blas_vars},
        "git_commit": _git_commit(),
    }


def leftovers() -> tuple:
    """(Python threads, OS threads, child processes) of this process now.

    A job must leave nothing running: work left behind would run during the
    next calibration loop and slow it, which scaling turns into a speed-up.
    """
    tasks = os.listdir("/proc/self/task") if os.path.isdir("/proc/self/task") else ()
    try:
        os.waitpid(-1, os.WNOHANG)
        children = 1
    except ChildProcessError:
        children = 0
    return threading.active_count(), len(tasks), children


def setup(workload: str, seed: int, size: str, workdir: str):
    """Import the package and generate the inputs: the only set-up a run has."""
    import qsample.cli  # noqa: F401

    return make_jobs(workload, seed, size, workdir)


def setup_sample(args, index: int) -> tuple[float, float]:
    """Set-up seconds of one fresh interpreter, timed from its own start, and
    how much slower the calibration loop runs here than there.

    The second value is the median over FRESH_CALIBRATIONS pairs of loops,
    one here and then one in the fresh interpreter, of their time ratio.
    The two loops of a pair run a few milliseconds apart and, where the
    platform allows, on the same CPU (the child inherits this process's
    pinning), so a change of host or CPU speed between pairs cancels.
    """
    from calibrate import calibrate

    cmd = [
        sys.executable,
        os.path.abspath(__file__),
        "--setup-only",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--size", args.size,
        "--workdir", os.path.join(args.workdir, f"setup{index}"),
    ]
    pinned = hasattr(os, "sched_setaffinity")
    if pinned:
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})
    try:
        with subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True) as child:
            setup_s = float(child.stdout.readline())
            ratios = []
            for _ in range(FRESH_CALIBRATIONS):
                here = calibrate()
                child.stdin.write("\n")
                child.stdin.flush()
                ratios.append(here / float(child.stdout.readline()))
            child.stdin.close()
            child.wait(timeout=120)
    finally:
        if pinned:
            os.sched_setaffinity(0, cpus)
    if child.returncode != 0:
        raise subprocess.CalledProcessError(child.returncode, cmd)
    return setup_s, statistics.median(ratios)


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def run_pass(jobs, reference, record, cals, job_base: int, baseline: tuple, tracer=None) -> None:
    """Run every job once; append (group, seconds, i, failure) to ``record``.

    A calibration loop runs before and after every job; ``cals[i]`` and
    ``cals[i + 1]`` are the ones around the job.  ``baseline`` is what
    ``leftovers()`` read before the first job.
    """
    from calibrate import calibrate
    from qsample.cli import RunConfig, run

    cals.append(calibrate())
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = job_base + i
        config = RunConfig(job.command, job.params, rng_seed=job.rng_seed)
        t0 = time.perf_counter()
        try:
            status, text = run(config)
            seconds = time.perf_counter() - t0
            try:
                reason = check(job, status, text, reference)
            except (KeyError, TypeError, ValueError) as exc:
                reason = f"malformed output: {exc!r}"
        except Exception:  # a failing job is counted, and the run goes on
            seconds = time.perf_counter() - t0
            reason = "raised: " + traceback.format_exc(limit=3)
        left = leftovers()
        if reason is None and left != baseline:
            reason = f"left running (threads, OS threads, children): {left}, before the run {baseline}"
        cals.append(calibrate())
        record.append((job.group, seconds, len(cals) - 2, reason))


def scaled(record, cals) -> list:
    """(group, seconds, scale, failure): ``seconds * scale`` is the job's time
    on a host running the calibration loop at its nominal speed.  The scale
    uses the median of the six calibrations nearest the job, which smooths
    the loop's own noise while following the host's drift."""
    from calibrate import CALIBRATION_NOMINAL_S

    return [
        (group, seconds, CALIBRATION_NOMINAL_S / statistics.median(cals[max(0, i - 2) : i + 4]), reason)
        for group, seconds, i, reason in record
    ]


def _group_medians(record) -> dict:
    by_group: dict = {}
    for group, seconds, scale, _ in record:
        by_group.setdefault(group, []).append(seconds * scale)
    return {g: (statistics.median(v), len(v)) for g, v in by_group.items()}


def pass_seconds(jobs, record) -> float:
    """Sum over one pass's jobs of the median scaled time of the job's group."""
    medians = _group_medians(record)
    return sum(medians[job.group][0] for job in jobs)


def _p(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def command_figures(workload: str, jobs, record) -> list[tuple]:
    """The per-command figures behind a workload's pass time, for the report."""
    medians = _group_medians(record)

    def summed(name, prefix):
        chosen = [job for job in jobs if job.group.startswith(prefix)]
        samples = min(medians[job.group][1] for job in chosen)
        return name, sum(medians[job.group][0] for job in chosen), "s", samples

    def percentiles(label, prefix):
        values = [seconds * scale * 1000 for g, seconds, scale, _ in record if g.startswith(prefix)]
        return [
            (f"{label}_p50_ms", _p(values, 50), "ms", len(values)),
            (f"{label}_p90_ms", _p(values, 90), "ms", len(values)),
        ]

    raw = sum(seconds for _, seconds, _, _ in record) * len(jobs) / len(record)
    rows = [("unscaled_wall_s", raw, "s", len(record) // len(jobs))]
    if workload == "exact-classical":
        rows.append(summed("eps_class_exact_s", "eps-class:"))
    elif workload == "mc-classical":
        rows.append(summed("eps_class_mc_s", "eps-class-mc:"))
    elif workload == "exact-quantum":
        rows += [summed("eps_quant_s", "eps-quant:"), summed("tightness_s", "tightness")]
    elif workload == "protocol-exact":
        rows += [summed("qkd_exact_s", "qkd-exact:"), summed("pa_check_s", "pa-check")]
    else:
        rows += percentiles("qot_sim", "qot-sim:") + percentiles("qkd_sim", "qkd-sim:")
    return rows


def layer_metrics(tracer, passes: int, scale: float) -> dict:
    per_name, layers = tracer.totals()
    out = {}
    for metric in PER_LAYER:
        if metric == "trace.overhead_s" or metric.endswith("calls_per_budget"):
            continue
        base, stat = metric.rsplit(".", 1)
        if stat == "calls":
            value = per_name.get(base, (0, 0.0))[0]
        else:
            value = scale * (layers[base] if base in layers else per_name.get(base, (0, 0.0))[1])
        out[metric] = value / passes
    under_gates = tracer.calls_under("sampling.deviation", GATED)
    out["sampling.deviation.calls_per_budget"] = under_gates / tracer.charged if tracer.charged else 0.0
    return out


def measure(args, jobs, reference, first_setup: float) -> dict:
    """Repeat passes until ``--seconds`` have elapsed; with tracing, every
    second pass is traced.

    Untraced runs also time SETUP_REPEATS set-ups in fresh interpreters,
    spread evenly between passes so that one slow phase of the host does not
    hold all of them; ``first_setup`` is this process's own.
    ``calibration_ratio`` is the median over those interpreters of how much
    slower the calibration loop runs in this process than in them.
    """
    from calibrate import calibrate

    passes, cals, ratios = [], [], []
    setups = [("setup", first_setup, 0, None)]  # scaled like jobs, by the calibrations around them
    baseline = (1, *leftovers()[1:])  # no Python thread but the main one, even one started at import
    start = time.perf_counter()
    spacing = args.seconds / (SETUP_REPEATS + 1)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    while len(passes) < 1 + args.trace or time.perf_counter() < start + args.seconds:
        traced = bool(args.trace) and len(passes) % 2 == 1
        one: list = []
        if traced:
            tracer.install()
        try:
            run_pass(jobs, reference, one, cals, len(passes) * len(jobs), baseline, tracer)
        finally:
            if traced:
                tracer.uninstall()
        passes.append((traced, one))
        while not args.trace and len(setups) <= SETUP_REPEATS and (
            time.perf_counter() >= start + len(setups) * spacing or time.perf_counter() >= start + args.seconds
        ):
            seconds, ratio = setup_sample(args, len(setups))
            setups.append(("setup", seconds, len(cals) - 1, None))
            cals.append(calibrate())
            ratios.append(ratio)
    passes = [(traced, scaled(one, cals)) for traced, one in passes]
    record = [row for _, one in passes for row in one]
    if not args.trace:
        setup_s = statistics.median(seconds * scale for _, seconds, scale, _ in scaled(setups, cals))
        raw_setup_s = statistics.median(seconds for _, seconds, _, _ in setups)
        return {
            "record": record,
            "passes": len(passes),
            "setup_s": setup_s,
            "raw_setup_s": raw_setup_s,
            "calibration_s": statistics.median(cals),
            "calibration_ratio": statistics.median(ratios),
        }

    walls = {
        flag: [sum(seconds * scale for _, seconds, scale, _ in one) for traced, one in passes if traced == flag]
        for flag in (False, True)
    }
    traced_scale = statistics.median(scale for traced, one in passes if traced for _, _, scale, _ in one)
    metrics = layer_metrics(tracer, len(walls[True]), traced_scale)
    metrics["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
    os.makedirs(OUT, exist_ok=True)
    tracer.dump(
        os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json"),
        {
            "provenance": provenance(args.workload, args.seed, args.size),
            "traced_passes": len(walls[True]),
            "scale": traced_scale,
        },
    )
    return {"record": record, "passes": len(passes), "layer": metrics}


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def _load_reference(path: str, size: str) -> dict:
    with open(path) as fh:
        return json.load(fh).get(size, {})


def _emit(name: str, value, unit: str, samples=None) -> None:
    suffix = "" if samples is None else f" (n={samples})"
    print(f"metric {name} = {value:.6g} {unit}{suffix}")


def run_workload(args) -> int:
    os.makedirs(args.workdir, exist_ok=True)
    jobs = setup(args.workload, args.seed, args.size, args.workdir)
    first_setup = time.perf_counter() - _PROCESS_START
    reference = _load_reference(args.reference, args.size)

    result = measure(args, jobs, reference, first_setup)
    if result.get("calibration_ratio", 1.0) > CALIBRATION_RATIO_MAX:
        print(
            f"error: the calibration loop ran {result['calibration_ratio']:.3f}x slower in this process "
            "than in fresh interpreters; scaled times would not be comparable, so no result",
            file=sys.stderr,
        )
        return 3
    record = result["record"]
    failures = [(g, why) for g, _, _, why in record if why is not None]
    for group, why in failures[:10]:
        print(f"FAILED {group}: {why.strip()}", file=sys.stderr)

    print("provenance " + json.dumps(provenance(args.workload, args.seed, args.size), sort_keys=True))
    print(f"workload {args.workload}: {len(jobs)} jobs per pass, {result['passes']} passes, trace={args.trace}")
    attempted, failed = len(record), len(failures)
    _emit("failed_frac", failed / attempted, "ratio", attempted)
    if args.trace:
        metrics = {name: {"value": value, "unit": PER_LAYER[name]} for name, value in result["layer"].items()}
    else:
        metrics = {
            "setup_s": {"value": result["setup_s"], "unit": "s"},
            "wall_s": {"value": pass_seconds(jobs, record), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
        _emit("unscaled_setup_s", result["raw_setup_s"], "s", SETUP_REPEATS + 1)
        _emit("calibration_ms", result["calibration_s"] * 1000, "ms")
        _emit("calibration_ratio", result["calibration_ratio"], "ratio", SETUP_REPEATS)
        for name, value, unit, samples in command_figures(args.workload, jobs, record):
            _emit(name, value, unit, samples)
    for name, entry in metrics.items():
        _emit(name, entry["value"], entry["unit"])
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so peak RSS belongs to one workload."""
    summary = {}
    for workload in WORKLOADS:
        cmd = [
            sys.executable, os.path.abspath(__file__),
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--size", args.size,
            "--reference", args.reference,
        ]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"workload {workload} exited with {done.returncode}", file=sys.stderr)
            return 1
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        summary[workload] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(s["correct"] for s in summary.values()),
        "attempted": sum(s["attempted"] for s in summary.values()),
        "failed": sum(s["failed"] for s in summary.values()),
        "metrics": {f"{w}/{m}": v for w, s in summary.items() for m, v in s["metrics"].items()},
    }))
    return 0


def record_reference(args) -> int:
    """Record every job's fingerprint at seeds 0..3 (one per input pool) from this code."""
    from qsample.cli import RunConfig, run

    table = {}
    for size in ("full", "tiny"):
        table[size] = {}
        for workload in WORKLOADS:
            for seed in range(4):
                for job in setup(workload, seed, size, args.workdir):
                    status, text = run(RunConfig(job.command, job.params, rng_seed=job.rng_seed))
                    if status != 0:
                        raise SystemExit(f"{job.key}: exit status {status}")
                    table[size][job.key] = fingerprint(json.loads(text)["result"])
    with open(args.reference, "w") as fh:  # one job per line, for readable diffs
        fh.write("{\n")
        for i, size in enumerate(table):
            fh.write(f"{json.dumps(size)}: {{\n")
            rows = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(table[size].items())]
            fh.write(",\n".join(rows))
            fh.write("\n}" + (",\n" if i + 1 < len(table) else "\n"))
        fh.write("}\n")
    print(f"recorded {sum(len(t) for t in table.values())} references to {args.reference}")
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs every workload in seconds, for the self-test")
    parser.add_argument("--reference", default=REFERENCE, help="reference results to compare against")
    parser.add_argument("--record-reference", action="store_true",
                        help="record reference.json from the code as it is")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "qsample")):
        print(f"error: no qsample sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    own_workdir = args.workdir is None
    if own_workdir:
        args.workdir = os.path.join(OUT, f"work-{os.getpid()}")
    try:
        if args.setup_only:
            setup(args.workload, args.seed, args.size, args.workdir)
            seconds = time.perf_counter() - _PROCESS_START
            from calibrate import calibrate

            calibrate(), calibrate()  # warm-up, as the measuring process is warm
            print(seconds, flush=True)
            for _ in sys.stdin:  # one loop per request from the measuring process
                print(calibrate(), flush=True)
            return 0
        if args.record_reference:
            return record_reference(args)
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    finally:
        if own_workdir:
            shutil.rmtree(args.workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

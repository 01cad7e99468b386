"""Batch property suite behind the command-line ``verify`` subcommand.

Five check groups, each a reduced randomized sweep of one headline property:
the sqrt error bound, its tightness on symmetric worst cases, the counting
operator inequality, privacy amplification, and protocol completeness.  Every
draw comes from one seeded generator, so a given seed always produces the
same report.  The two randomized batches are exposed on their own so the
``lemma2`` and ``pa-check`` commands can run them standalone.
"""

from __future__ import annotations

import math

import numpy as np

from .entropy import HashFamily, _check_exact_input_bits, lemma2_operator_check, pa_exact_check
from .protocols import (
    AdversaryModel,
    QkdParams,
    QotParams,
    qkd_key_length,
    simulate_qkd,
    simulate_qot,
)
from .qsampling import check_sqrt_bound, symmetric_group, symmetric_worst_state
from .quantum import BasisSpec, CqState, DensityMatrix, PureState, random_pure_state
from .sampling import make_strategy

__all__ = ["lemma2_batch", "pa_batch", "run_verify"]


def lemma2_batch(trials: int, n_max: int, rng: np.random.Generator) -> dict:
    """Check |J| rho_mix - rho >= 0 on random J-supported states.

    Each trial draws a population size up to n_max, an environment dimension
    up to 3, a nonempty index set J, a basis choice, and a Haar-like state
    supported on J.  Returns {"trials", "min_eig", "holds"}.
    """
    trials = int(trials)
    n_max = int(n_max)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 1 <= n_max <= 6:
        raise ValueError(f"population size must lie in [1, 6], got {n_max}")
    min_eig = math.inf
    holds = True
    for _ in range(trials):
        n = int(rng.integers(1, n_max + 1))
        dim_e = int(rng.integers(1, 4))
        size = int(rng.integers(1, 2 ** n + 1))
        J = set(int(i) for i in rng.choice(2 ** n, size=size, replace=False))
        theta = tuple(int(b) for b in rng.integers(0, 2, size=n))
        amps = np.zeros((2 ** n, dim_e), dtype=complex)
        for i in J:
            amps[i] = rng.normal(size=dim_e) + 1j * rng.normal(size=dim_e)
        amps /= np.linalg.norm(amps)
        phi = PureState(amps.reshape(-1), (2,) * n + (dim_e,))
        report = lemma2_operator_check(phi, J, BasisSpec(theta))
        min_eig = min(min_eig, report["min_eig"])
        holds = holds and report["holds"]
    return {"trials": trials, "min_eig": min_eig, "holds": holds}


def pa_batch(trials: int, n_bits: int, l: int | None, rng: np.random.Generator) -> dict:
    """Exact extraction distance versus the min-entropy bound on random
    classical-environment states.

    l = None draws a fresh output length in {1, ..., min(2, n_bits)} per
    trial.  Each trial's conditionals come from one (2^n_bits, env) draw, the
    same doubles as one draw per input, and reach CqState as one stack.
    Returns {"trials", "max_distance", "min_margin", "holds"} where the
    margin is bound - distance.
    """
    trials = int(trials)
    n_bits = int(n_bits)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if n_bits < 1:
        raise ValueError(f"input_bits must be >= 1, got {n_bits}")
    _check_exact_input_bits(n_bits)  # before 2^n_bits states are built per trial
    labels = [tuple((v >> i) & 1 for i in range(n_bits)) for v in range(2 ** n_bits)]
    holds = True
    max_distance = 0.0
    min_margin = math.inf
    for _ in range(trials):
        li = int(rng.integers(1, min(2, n_bits) + 1)) if l is None else int(l)
        env = int(rng.integers(1, 4))
        probs = rng.random(2 ** n_bits)
        probs /= probs.sum()
        diags = rng.random((2 ** n_bits, env))
        diags /= diags.sum(axis=1, keepdims=True)
        conds = np.zeros((2 ** n_bits, env, env), dtype=complex)
        conds[:, np.arange(env), np.arange(env)] = diags
        rho = CqState(tuple(zip(labels, probs.tolist(), conds)), env)
        report = pa_exact_check(rho, HashFamily(n_bits, li), li)
        max_distance = max(max_distance, report["distance"])
        min_margin = min(min_margin, report["bound"] - report["distance"])
        holds = holds and report["holds"]
    return {"trials": trials, "max_distance": max_distance, "min_margin": min_margin, "holds": holds}


# ---------------------------------------------------------------------------
# check groups
# ---------------------------------------------------------------------------


def _record(name: str, passed: bool, cases: int, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "cases": int(cases), "detail": detail}


def _check_sqrt_bound(quick: bool, rng: np.random.Generator) -> dict:
    """Random states never beat sqrt(eps_class) under the optimal projection."""
    ns = (3, 4) if quick else (3, 4, 5)
    deltas = (0.25,) if quick else (0.2, 0.3, 0.4)
    states_per = 1 if quick else 3
    cases = 0
    worst = -math.inf  # most positive value of ideal - sqrt(eps)
    ok = True
    for kind in ("example1", "example3", "example4"):
        for n in ns:
            ks = (None,) if kind == "example3" else ((1,) if quick else (1, 2))
            for k in ks:
                params = {"n": n} if k is None else {"n": n, "k": k}
                strat = make_strategy(kind, params)
                for delta in deltas:
                    for _ in range(states_per):
                        dim_e = int(rng.integers(1, 4))
                        state = random_pure_state((2,) * n + (dim_e,), rng)
                        res = check_sqrt_bound(state, strat, delta)
                        worst = max(worst, res["ideal_distance"] - res["sqrt_eps_class"])
                        ok = ok and res["holds"]
                        cases += 1
    return _record("sqrt-bound-sweep", ok, cases, f"max(ideal - sqrt_eps) = {worst:.6g}")


def _check_tightness(quick: bool, rng: np.random.Generator) -> dict:
    """Uniform-over-orbit worst states meet sqrt(eps_class) exactly."""
    ns = (3, 4) if quick else (3, 4, 5)
    delta = 0.3
    worst = 0.0
    cases = 0
    for n in ns:
        for k in (1, 2):
            strat = make_strategy("example1", {"n": n, "k": k})
            state = symmetric_worst_state(strat, symmetric_group(n), delta)
            res = check_sqrt_bound(state, strat, delta)
            worst = max(worst, abs(res["sqrt_eps_class"] - res["ideal_distance"]))
            cases += 1
    return _record("tightness", worst <= 1e-9, cases, f"max |gap| = {worst:.6g}")


def _check_lemma2(quick: bool, rng: np.random.Generator) -> dict:
    batch = lemma2_batch(20 if quick else 80, 3, rng)
    detail = f"min eigenvalue = {batch['min_eig']:.6g}"
    return _record("lemma2-batch", batch["holds"], batch["trials"], detail)


def _check_pa(quick: bool, rng: np.random.Generator) -> dict:
    batch = pa_batch(10 if quick else 40, 3 if quick else 4, None, rng)
    ok = batch["holds"]
    # uniform input with trivial side information extracts perfectly
    one = DensityMatrix(np.eye(1, dtype=complex), (1,))
    labels = [tuple((v >> i) & 1 for i in range(3)) for v in range(8)]
    uniform = CqState(tuple((x, 1 / 8, one) for x in labels), 1)
    report = pa_exact_check(uniform, HashFamily(3, 2), 2)
    ok = ok and report["distance"] <= 1e-12
    detail = f"min(bound - distance) = {batch['min_margin']:.6g}"
    return _record("pa-batch", ok, batch["trials"] + 1, detail)


def _check_protocols(quick: bool, rng: np.random.Generator) -> dict:
    """Honest runs of both protocols complete with matching keys."""
    seeds = 3 if quick else 10
    ok = True
    cases = 0
    expected = qkd_key_length(12, 3, 0, 0.0)
    honest = AdversaryModel()
    for s in range(seeds):
        _, alice, bob, report = simulate_qkd(QkdParams(12, 3), honest, rng_seed=1000 + s, exact=False)
        ok = ok and alice == bob and alice is not None and len(alice) == expected
        ok = ok and report.total_bound >= 0
        cases += 1
    if not quick:
        _, alice, bob, report = simulate_qkd(QkdParams(4, 1), honest, rng_seed=7)
        ok = ok and alice == bob and abs(report.exact_distance) <= 1e-9
        cases += 1
    for s in range(seeds):
        for choice in (0, 1):
            _, k0, k1, out, _ = simulate_qot(QotParams(10, 3, 2), AdversaryModel(choice_bit=choice), rng_seed=2000 + s)
            ok = ok and k0 is not None and out["c"] == choice and out["key"] == (k0, k1)[choice]
            cases += 1
    return _record("protocol-completeness", ok, cases, "honest key agreement")


def run_verify(quick: bool = False, rng_seed: int = 0) -> dict:
    """Run every check group; the report is deterministic in the seed."""
    rng = np.random.default_rng(rng_seed)
    checks = [
        _check_sqrt_bound(quick, rng),
        _check_tightness(quick, rng),
        _check_lemma2(quick, rng),
        _check_pa(quick, rng),
        _check_protocols(quick, rng),
    ]
    return {"passed": all(c["passed"] for c in checks), "quick": bool(quick), "checks": checks}

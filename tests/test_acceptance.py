"""Acceptance gate: one test per headline criterion, at stated tolerances.

Each test prints a single pass line with the measured margin so a log scan
shows every criterion's outcome.  Oracles here are coded from the closed
formulas directly, independent of the library implementations they check.
"""

import itertools
import math
import time

import numpy as np
import pytest

from qsample.entropy import (
    HashFamily,
    binary_entropy,
    lemma2_operator_check,
    pa_exact_check,
)
from qsample.protocols import (
    AdversaryModel,
    QkdParams,
    QotParams,
    qkd_bound,
    qkd_key_length,
    qkd_max_len,
    qkd_rate_threshold,
    qkd_sampling_view,
    qot_bound,
    qot_catch_probability,
    simulate_qkd,
    simulate_qot,
)
from qsample.qsampling import ideal_distance, symmetric_group, symmetric_worst_state
from qsample.quantum import (
    BasisSpec,
    CqState,
    DensityMatrix,
    PureState,
    apply_unitary,
    make_epr_pairs,
    random_pure_state,
)
from qsample.sampling import analytic_bound, eps_class_exact, make_strategy

DELTAS = (0.2, 0.3, 0.4)


def _passed(number: int, label: str, detail: str) -> None:
    print(f"criterion {number:02d} {label}: PASS ({detail})")


def _strategies(n: int):
    out = []
    for kind in ("example1", "example4"):
        for k in (1, 2):
            out.append(make_strategy(kind, {"n": n, "k": k}))
    out.append(make_strategy("example3", {"n": n}))
    return out


def test_criterion_01_sqrt_bound_sweep():
    # ideal_distance <= sqrt(eps_class_exact) + 1e-9 for Examples 1, 3, 4 at
    # n in {3,4,5}, k in {1,2}, delta in {0.2,0.3,0.4}, over 500 seeded
    # random states per n with dim_E cycling 1..4; runtime <= 5 min
    started = time.monotonic()
    rng = np.random.default_rng(1001)
    worst = -math.inf
    checked = 0
    for n in (3, 4, 5):
        strategies = _strategies(n)
        roots = [
            [math.sqrt(eps_class_exact(s, d).value) for d in DELTAS] for s in strategies
        ]
        for i in range(500):
            dim_e = i % 4 + 1
            state = random_pure_state((2,) * n + (dim_e,), rng)
            for strategy, strategy_roots in zip(strategies, roots):
                for delta, root in zip(DELTAS, strategy_roots):
                    ideal = ideal_distance(state, strategy, delta)
                    worst = max(worst, ideal - root)
                    assert ideal <= root + 1e-9
                    checked += 1
    elapsed = time.monotonic() - started
    assert elapsed <= 300.0
    _passed(1, "sqrt-bound", f"{checked} checks, max(ideal - root) = {worst:.3g}, {elapsed:.0f}s")


def test_criterion_02_tightness_symmetric_worst_case():
    # |ideal_distance(symmetric_worst_state) - sqrt(eps_class)| <= 1e-9 for
    # Example 1 under the full symmetric group; runtime <= 2 min
    started = time.monotonic()
    worst = 0.0
    checked = 0
    for n in range(3, 11):
        group = symmetric_group(n)
        for k in (1, 2, 3):
            strategy = make_strategy("example1", {"n": n, "k": k})
            for delta in DELTAS:
                state = symmetric_worst_state(strategy, group, delta)
                ideal = ideal_distance(state, strategy, delta)
                root = math.sqrt(eps_class_exact(strategy, delta).value)
                worst = max(worst, abs(ideal - root))
                assert abs(ideal - root) <= 1e-9
                checked += 1
    elapsed = time.monotonic() - started
    assert elapsed <= 120.0
    _passed(2, "tightness", f"{checked} configs, max |gap| = {worst:.3g}, {elapsed:.0f}s")


def test_criterion_03_classical_bounds_dominate_exact():
    # exact eps_class <= every applicable closed-form bound on the grid
    # delta in {0.1,...,0.5} for all n <= 10 and at the sizes below, and
    # Serfling <= Hoeffding
    grid = (0.1, 0.2, 0.3, 0.4, 0.5)
    checked = 0
    for n in range(2, 11):
        strategy = make_strategy("example3", {"n": n})
        for delta in grid:
            eps = eps_class_exact(strategy, delta).value
            assert eps <= analytic_bound("example3", {"n": n}, delta) + 1e-12
            checked += 1
        for k in range(1, n + 1):
            strategy = make_strategy("example1", {"n": n, "k": k})
            for delta in grid:
                eps = eps_class_exact(strategy, delta).value
                assert eps <= analytic_bound("example1-general", {"n": n, "k": k}, delta) + 1e-12
                checked += 1
                if 2 * k <= n:
                    assert eps <= analytic_bound("example1-simple", {"n": n, "k": k}, delta) + 1e-12
                    assert eps <= analytic_bound("example1-serfling", {"n": n, "k": k}, delta) + 1e-12
                    checked += 2
            if 2 * k <= n:
                strategy = make_strategy("example4", {"n": n, "k": k})
                for delta in grid:
                    eps = eps_class_exact(strategy, delta).value
                    assert eps <= analytic_bound("example4", {"n": n, "k": k}, delta) + 1e-12
                    checked += 1
            for delta in grid:
                serfling = analytic_bound("serfling", {"n": n, "k": k}, delta)
                hoeffding = analytic_bound("hoeffding", {"k": k}, delta)
                assert serfling <= hoeffding + 1e-15
                checked += 1

    def dominates(strategy, *bounds):
        for delta in grid:
            eps = eps_class_exact(strategy, delta).value
            for kind, params in bounds:
                assert eps <= analytic_bound(kind, params, delta) + 1e-12
        return len(grid) * len(bounds)

    # at scale: example1 at n in the hundreds, example3 and example4 at n = 50, 100
    for n in (100, 200, 300):
        for k in (n // 10, n // 4, n // 2):
            params = {"n": n, "k": k}
            kinds = ("example1-general", "example1-simple", "example1-serfling")
            checked += dominates(make_strategy("example1", params), *((kind, params) for kind in kinds))
    for n in (50, 100):
        checked += dominates(make_strategy("example3", {"n": n}), ("example3", {"n": n}))
        for k in (n // 4, n // 2):
            checked += dominates(make_strategy("example4", {"n": n, "k": k}), ("example4", {"n": n, "k": k}))
    # the pair-indexed kinds at small n, and example5 (counted over pair classes) at scale
    for n in range(1, 5):
        for k in range(1, n + 1):
            checked += dominates(make_strategy("example5", {"n": n, "k": k}), ("example5", {"k": k}))
    for n in (50, 100):
        for k in (n // 4, n // 2):
            checked += dominates(make_strategy("example5", {"n": n, "k": k}), ("example5", {"k": k}))
    for n in range(1, 4):
        for k in range(2, 2 * n + 1, 2):
            params = {"n": n, "k": k, "p": 0.3}
            checked += dominates(make_strategy("example6", params), ("example6", params))
    # example6 (counted over its pair types) at scale, with its least bound / exact ratio
    ratio = math.inf
    for n in (8, 12, 16):
        for k in (2, n):
            for p in (0.3, 0.5):
                params = {"n": n, "k": k, "p": p}
                strategy = make_strategy("example6", params)
                for delta in grid:
                    eps, bound = eps_class_exact(strategy, delta).value, analytic_bound("example6", params, delta)
                    assert eps <= bound + 1e-12
                    ratio = min(ratio, bound / eps) if eps > 0 else ratio
                    checked += 1
    _passed(3, "classical-bounds", f"{checked} comparisons, all dominate; example6 bound / exact >= {ratio:.3g}")


def test_criterion_04_lemma2_operator_inequality():
    # 200 randomized instances at n <= 4, dim_E <= 4: |J| rho_mix - rho PSD
    rng = np.random.default_rng(1004)
    floor = math.inf
    for _ in range(200):
        n = int(rng.integers(1, 5))
        dim_e = int(rng.integers(1, 5))
        size = int(rng.integers(1, 2 ** n + 1))
        J = set(int(i) for i in rng.choice(2 ** n, size=size, replace=False))
        theta = tuple(int(b) for b in rng.integers(0, 2, size=n))
        amps = np.zeros((2 ** n, dim_e), dtype=complex)
        for i in J:
            amps[i] = rng.normal(size=dim_e) + 1j * rng.normal(size=dim_e)
        amps /= np.linalg.norm(amps)
        phi = PureState(amps.reshape(-1), (2,) * n + (dim_e,))
        report = lemma2_operator_check(phi, J, BasisSpec(theta))
        floor = min(floor, report["min_eig"])
        assert report["min_eig"] >= -1e-9
    _passed(4, "lemma2", f"200 instances, min eigenvalue = {floor:.3g}")


def test_criterion_05_privacy_amplification():
    # 100 random classical-E instances at n = 4, l in {1,2}: exact distance
    # under the bound; uniform independent input extracts to distance 0
    rng = np.random.default_rng(1005)
    margin = math.inf
    for _ in range(100):
        l = int(rng.integers(1, 3))
        env = int(rng.integers(1, 5))
        probs = rng.random(16)
        probs /= probs.sum()
        entries = []
        for v in range(16):
            x = tuple((v >> i) & 1 for i in range(4))
            diag = rng.random(env)
            diag /= diag.sum()
            entries.append((x, float(probs[v]), DensityMatrix(np.diag(diag).astype(complex), (env,))))
        report = pa_exact_check(CqState(tuple(entries), env), HashFamily(4, l), l)
        margin = min(margin, report["bound"] - report["distance"])
        assert report["distance"] <= report["bound"] + 1e-9
    one = DensityMatrix(np.eye(1, dtype=complex), (1,))
    labels = [tuple((v >> i) & 1 for i in range(4)) for v in range(16)]
    uniform = CqState(tuple((x, 1 / 16, one) for x in labels), 1)
    for l in (1, 2):
        report = pa_exact_check(uniform, HashFamily(4, l), l)
        assert report["distance"] == 0.0
    _passed(5, "privacy-amplification", f"100 instances, min margin = {margin:.3g}; uniform exact 0")


def test_criterion_06_hamming_ball_bound():
    # log2 of the exact ball size sum_{w <= (beta+delta) n} C(n, w) <=
    # h(beta+delta) n for every n <= 100 and every grid radius up to 1/2
    checked = 0
    worst = -math.inf
    for n in range(1, 101):
        ball = list(itertools.accumulate(math.comb(n, w) for w in range(n + 1)))
        for beta in np.arange(0.0, 0.5, 0.05):
            for delta in np.arange(0.025, 0.5, 0.025):
                radius = float(beta) + float(delta)
                if radius > 0.5:
                    continue
                # 1e-9 guards against float droop at integers
                exact = math.log2(ball[math.floor(radius * n + 1e-9)])
                bound = binary_entropy(radius) * n
                worst = max(worst, exact - bound)
                assert exact <= bound + 1e-12
                checked += 1
    _passed(6, "hamming-ball", f"{checked} points, max(exact - bound) = {worst:.3g}")


def test_criterion_07_rate_threshold_anchor():
    started = time.monotonic()
    root = qkd_rate_threshold()
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    assert root == pytest.approx(0.110, abs=1e-3)
    _passed(7, "rate-threshold", f"root = {root:.6f}, {elapsed*1000:.0f} ms")


def _probe_state(n: int, adversary: AdversaryModel) -> PureState:
    base = make_epr_pairs(n)
    env = np.zeros(adversary.probe_dim, dtype=complex)
    env[0] = 1.0
    state = PureState(np.kron(base.amps, env), (2,) * (2 * n) + (adversary.probe_dim,))
    U = adversary.probe_unitary()
    for i in range(1, n + 1):
        state = apply_unitary(state, U, (n + i, 2 * n + 1))
    return state


def test_criterion_08_qkd_completeness_and_equivalence():
    # noiseless honest runs: beta = 0 and identical keys over 100 seeds
    honest = AdversaryModel()
    for seed in range(100):
        transcript, alice, bob, _ = simulate_qkd(QkdParams(16, 4), honest, rng_seed=seed, exact=False)
        beta = next(e["payload"] for e in transcript if e["type"] == "beta")
        assert beta == 0.0
        assert alice is not None and alice == bob

    # the two measurement orderings agree on probe-entangled states at n <= 3
    probe = AdversaryModel(kind="entangling-probe")
    worst_tv = 0.0
    for n in (2, 3):
        view = qkd_sampling_view(_probe_state(n, probe), QkdParams(n, 1), rng_seed=5)
        assert view["agrees"]
        assert view["max_total_variation"] <= 1e-9
        assert view["max_conditional_distance"] <= 1e-9
        worst_tv = max(worst_tv, view["max_total_variation"])

    # intercept-resend shows the 25% error rate (exact branch enumeration
    # gives 1/4 mismatch probability per tested pair)
    n, k, seeds = 24, 8, 100
    eve = AdversaryModel(kind="intercept-resend")
    rates = []
    for seed in range(seeds):
        transcript, _, _, _ = simulate_qkd(QkdParams(n, k), eve, rng_seed=seed, exact=False)
        rates.append(next(e["payload"] for e in transcript if e["type"] == "beta"))
    mean = float(np.mean(rates))
    sigma = math.sqrt(0.25 * 0.75 / (k * seeds))
    assert abs(mean - 0.25) <= 3 * sigma
    _passed(8, "qkd-completeness", f"beta=0 x100, view TV = {worst_tv:.2g}, intercept mean = {mean:.4f}")


def test_criterion_09_qkd_exact_distance():
    # honest n=5, k=2: exact distance 0; adversarial runs stay below
    # min(1, bound) with the bound vacuous at desk scale
    _, alice, bob, report = simulate_qkd(QkdParams(5, 2), AdversaryModel(), rng_seed=3)
    assert alice == bob
    assert report.exact_distance == pytest.approx(0.0, abs=1e-9)

    alpha = 0.7
    rotation = np.array(
        [
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, math.cos(alpha), -math.sin(alpha)],
            [0, 0, math.sin(alpha), math.cos(alpha)],
        ],
        dtype=complex,
    )
    adversaries = [
        (3, 1, AdversaryModel(kind="entangling-probe")),
        (4, 2, AdversaryModel(kind="entangling-probe")),
        (3, 1, AdversaryModel(kind="custom-unitary", unitary=rotation)),
    ]
    distances = []
    for n, k, adversary in adversaries:
        _, _, _, report = simulate_qkd(QkdParams(n, k), adversary, rng_seed=6)
        assert report.exact_distance is not None
        assert -1e-9 <= report.exact_distance <= min(1.0, report.total_bound) + 1e-9
        assert report.total_bound > 1.0  # vacuous here; the distance is the content
        distances.append(report.exact_distance)
    detail = ", ".join(f"{d:.4f}" for d in distances)
    _passed(9, "qkd-exact-distance", f"honest 0, adversarial distances {detail}")


def _catch_oracle(n: int, k: int, kind: str, flips) -> float:
    # enumerate every test subset; for commit-flip also every basis-agreement
    # pattern, each equally likely
    flips = set(flips)
    hits = 0.0
    count = 0
    for t in itertools.combinations(range(1, n + 1), k):
        if kind == "open-flip":
            hits += 1.0 if flips & set(t) else 0.0
            count += 1
        else:
            for mask in range(2 ** n):
                if any(i in flips and (mask >> (i - 1)) & 1 for i in t):
                    hits += 1.0
                count += 1
    return hits / count


def test_criterion_10_qot_completeness_and_catch():
    # honest runs give the chosen key over 100 seeds
    params = QotParams(8, 2, 3)
    for seed in range(100):
        choice = seed % 2
        _, k0, k1, out, _ = simulate_qot(params, AdversaryModel(choice_bit=choice), rng_seed=seed)
        assert k0 is not None and k1 is not None
        assert out["c"] == choice and out["key"] == (k0, k1)[choice]

    # lying Bobs are caught with exactly the subset-enumeration probability
    worst = 0.0
    cases = 0
    for n, k in ((4, 1), (5, 2), (6, 2), (6, 3)):
        for flip_count in (1, 2, n):
            flips = tuple(range(1, flip_count + 1))
            for kind in ("open-flip", "commit-flip"):
                bob = AdversaryModel(kind=kind, flips=flips)
                got = qot_catch_probability(QotParams(n, k, 1), bob)
                want = _catch_oracle(n, k, kind, flips)
                worst = max(worst, abs(got - want))
                assert got == pytest.approx(want, abs=1e-9)
                cases += 1
    # one simulated run records the same probability in its transcript
    bob = AdversaryModel(kind="commit-flip", flips=(1, 2))
    for seed in range(50):
        transcript, k0, _, _, _ = simulate_qot(QotParams(6, 2, 1), bob, rng_seed=seed)
        if k0 is None:
            recorded = next(e["payload"] for e in transcript if e["type"] == "abort-probability")
            assert recorded == pytest.approx(_catch_oracle(6, 2, "commit-flip", (1, 2)), abs=1e-9)
            break
    else:
        pytest.fail("no aborted run found to inspect")
    _passed(10, "qot", f"honest x100; {cases} catch probabilities, max dev = {worst:.2g}")


def _entropy(p: float) -> float:
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def _qkd_total_oracle(n, k, m, l, beta, delta):
    pa = 0.5 * 2.0 ** (-0.5 * ((1 - _entropy(beta + delta)) * n - k - m - l))
    return pa + 2.0 * math.exp(-delta * delta * k / 6.0)


def _qot_terms_oracle(n, k, l, eps, delta):
    pa = 0.5 * 2.0 ** (-0.5 * ((0.25 - eps / 2 - _entropy(delta)) * (n - k) - l))
    samp = math.sqrt(6.0) * math.exp(-delta * delta * k / 100.0)
    hoef = 2.0 * math.exp(-2.0 * eps * eps * (n - k))
    return pa, samp, hoef


def _max_len_scan(n, k, m, beta, eps_target):
    cap = qkd_key_length(n, k, m, beta)
    span = 0.5 - beta
    grid = [span * i / 1000 for i in range(1, 1001)]
    best_l, best_delta = -1, grid[0]
    for delta in grid:
        lmax = -1
        for l in range(cap + 1):
            if _qkd_total_oracle(n, k, m, l, beta, delta) <= eps_target:
                lmax = l
            else:
                break  # the total grows with l
        if lmax > best_l:
            best_l, best_delta = lmax, delta
    if best_l < 0:
        return 0, grid[0]
    return best_l, best_delta


def test_criterion_11_bound_evaluators_vs_oracle():
    rng = np.random.default_rng(1011)
    for _ in range(50):
        n = int(rng.integers(8, 600))
        k = int(rng.integers(1, n))
        m = int(rng.integers(0, 20))
        l = int(rng.integers(0, n // 2 + 1))
        beta = float(rng.uniform(0, 0.3))
        delta = float(rng.uniform(0.001, 0.5 - beta))
        report = qkd_bound(n, k, m, l, beta, delta)
        assert report.total_bound == pytest.approx(_qkd_total_oracle(n, k, m, l, beta, delta), rel=1e-12)
    for _ in range(50):
        n = int(rng.integers(20, 1200))
        k = int(rng.integers(1, n // 2 + 1))
        l = int(rng.integers(1, n // 2 + 1))
        eps = float(rng.uniform(0.001, 0.5))
        delta = float(rng.uniform(0.001, 0.499))
        report = qot_bound(n, k, l, eps, delta)
        terms = dict(report.bound_terms)
        pa, samp, hoef = _qot_terms_oracle(n, k, l, eps, delta)
        assert terms["privacy-amplification"] == pytest.approx(pa, rel=1e-12)
        assert terms["sampling"] == pytest.approx(samp, rel=1e-12)
        assert terms["hoeffding"] == pytest.approx(hoef, rel=1e-12)

    tuples = [
        (60, 15, 0, 0.0, 1.95),
        (40, 8, 2, 0.05, 2.5),
    ]
    while len(tuples) < 10:
        n = int(rng.integers(20, 61))
        k = int(rng.integers(5, n - 2))
        m = int(rng.integers(0, 4))
        beta = float(rng.uniform(0.0, 0.15))
        eps = float(rng.choice([0.5, 1.0, 1.85, 1.95]))
        tuples.append((n, k, m, beta, eps))
    agreed = 0
    for n, k, m, beta, eps in tuples:
        assert qkd_max_len(n, k, m, beta, eps) == _max_len_scan(n, k, m, beta, eps)
        agreed += 1
    _passed(11, "bound-evaluators", f"100 bound tuples at 1e-12, max-len scan agrees on {agreed}")

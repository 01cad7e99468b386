"""Protocol simulators, security bounds, and their supporting machinery."""

import json
import math
import time
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsample import (
    AdversaryModel,
    BasisSpec,
    CqState,
    EccModel,
    HashFamily,
    LinearCode,
    PureState,
    QkdParams,
    QotParams,
    SecurityReport,
    asymptotic_qkd_rate,
    cq_distance,
    hash_eval,
    make_epr_pairs,
    make_linear_code,
    measure,
    qkd_bound,
    qkd_key_length,
    qkd_max_len,
    qkd_rate_threshold,
    qkd_sampling_view,
    qot_bound,
    qot_bound_optimize,
    qot_catch_probability,
    random_pure_state,
    rate_curve_csv,
    rel_weight,
    restrict,
    complement,
    security_report_to_json,
    simulate_qkd,
    simulate_qot,
    trace_distance,
    transcript_to_json,
)
from qsample import protocols, sampling
from qsample.entropy import _bit_rows, _extraction_distance, _hash_keys
from qsample.protocols import _best_qkd_terms, apply_unitary
from qsample.quantum import HADAMARD
from qsample.sampling import BudgetExceededError


# ---------------------------------------------------------------------------
# independent bound arithmetic
# ---------------------------------------------------------------------------


def _h(p):
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def _qkd_total(n, k, m, l, beta, delta):
    pa = 0.5 * 2.0 ** (-0.5 * ((1 - _h(beta + delta)) * n - k - m - l))
    return pa + 2.0 * math.exp(-delta * delta * k / 6.0)


def _qot_terms(n, k, l, eps, delta):
    pa = 0.5 * 2.0 ** (-0.5 * ((0.25 - eps / 2 - _h(delta)) * (n - k) - l))
    samp = math.sqrt(6.0) * math.exp(-delta * delta * k / 100.0)
    hoef = 2.0 * math.exp(-2.0 * eps * eps * (n - k))
    return pa, samp, hoef


def test_qkd_bound_matches_arithmetic():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(8, 600))
        k = int(rng.integers(1, n))
        m = int(rng.integers(0, 20))
        l = int(rng.integers(0, n // 2 + 1))
        beta = float(rng.uniform(0, 0.3))
        delta = float(rng.uniform(0.001, 0.5 - beta))
        report = qkd_bound(n, k, m, l, beta, delta)
        want = _qkd_total(n, k, m, l, beta, delta)
        assert report.total_bound == pytest.approx(want, rel=1e-12)
        assert [lab for lab, _ in report.bound_terms] == ["privacy-amplification", "sampling"]
        assert report.delta_used == delta


def test_qot_bound_matches_arithmetic():
    rng = np.random.default_rng(43)
    for _ in range(50):
        n = int(rng.integers(20, 1200))
        k = int(rng.integers(1, n // 2 + 1))
        l = int(rng.integers(1, n // 2 + 1))
        eps = float(rng.uniform(0.001, 0.5))
        delta = float(rng.uniform(0.001, 0.499))
        report = qot_bound(n, k, l, eps, delta)
        pa, samp, hoef = _qot_terms(n, k, l, eps, delta)
        assert report.total_bound == pytest.approx(pa + samp + hoef, rel=1e-12)
        labels = [lab for lab, _ in report.bound_terms]
        assert labels == ["privacy-amplification", "sampling", "hoeffding"]


def test_qkd_bound_degenerate_point():
    # delta = beta = l = m = k = 0 collapses to 1/2 * 2^(-n/2) + 2
    report = qkd_bound(10, 0, 0, 0, 0.0, 0.0)
    assert report.total_bound == pytest.approx(0.5 * 2 ** -5 + 2.0, rel=1e-12)


def test_qkd_bound_rejects_bad_radius():
    with pytest.raises(ValueError, match="beta \\+ delta"):
        qkd_bound(100, 10, 0, 5, 0.3, 0.3)
    with pytest.raises(ValueError, match="non-negative"):
        qkd_bound(100, 10, 0, 5, -0.1, 0.2)


def test_qot_bound_rejects_bad_parameters():
    with pytest.raises(ValueError, match="delta"):
        qot_bound(100, 10, 5, 0.1, 0.5)
    with pytest.raises(ValueError, match="delta"):
        qot_bound(100, 10, 5, 0.1, 0.0)
    with pytest.raises(ValueError, match="eps"):
        qot_bound(100, 10, 5, 0.0, 0.25)


def test_qot_bound_optimize_no_worse_than_grid_corners():
    best = qot_bound_optimize(4000, 1500, 10)
    for eps in (0.01, 0.05, 0.1, 0.2):
        for delta in (0.05, 0.1, 0.2, 0.4):
            assert best["report"].total_bound <= qot_bound(4000, 1500, 10, eps, delta).total_bound + 1e-12
    assert 0 < best["eps"] < 0.25
    assert 0 < best["delta"] < 0.5


# The grid searches as they were before they summed the terms themselves:
# one full SecurityReport per grid point, compared by total_bound.  They are
# the oracles for the optimizers, which must pick the same point.


def _per_point_qot_bound_optimize(n, k, l, grid):
    best = None
    for i in range(1, grid + 1):
        eps = 0.25 * i / (grid + 1)
        for j in range(1, grid + 1):
            delta = 0.5 * j / (grid + 1)
            report = qot_bound(n, k, l, eps, delta)
            if best is None or report.total_bound < best[2].total_bound:
                best = (eps, delta, report)
    return {"eps": best[0], "delta": best[1], "report": best[2]}


def _per_point_best_qkd_terms(n, k, m, l, beta):
    if beta >= 0.5:
        return 0.0, (("privacy-amplification", math.inf), ("sampling", 2.0))
    best = None
    for i in range(1, 201):
        delta = (0.5 - beta) * i / 200
        rep = qkd_bound(n, k, m, l, beta, delta)
        if best is None or rep.total_bound < best[1].total_bound:
            best = (delta, rep)
    return best[0], best[1].bound_terms


# n = 1003, k = 3, l = 2000 overflows 2^x on 844 of the 900 OT grid points;
# n = 100, k = 5, l = 2100 on 165 of the 200 key-distribution points.
_QOT_OVERFLOW = (1003, 3, 2000, 30)
_QKD_OVERFLOW = (100, 5, 0, 2100, 0.0)


@st.composite
def _qot_cases(draw):
    n = draw(st.integers(2, 5000))
    k = draw(st.integers(0, n // 2))
    l = draw(st.one_of(st.integers(1, n), st.integers(1000, 6000)))
    return n, k, l, draw(st.integers(1, 30))


@st.composite
def _qkd_cases(draw):
    n = draw(st.integers(2, 3000))
    k = draw(st.integers(0, n // 2))
    m = draw(st.integers(0, n // 4))
    l = draw(st.one_of(st.integers(0, n), st.integers(1800, 6000)))
    beta = draw(
        st.one_of(
            st.just(0.0),
            st.floats(0.0, 0.5),
            st.sampled_from([0.5, 0.75, 1.0]),
            st.integers(0, max(k, 1)).map(lambda e: e / max(k, 1)),
        )
    )
    return n, k, m, l, beta


_QOT_EXAMPLES = [(10, 3, 2, 30), (10, 3, 2, 1), (2, 0, 1, 1), (400, 0, 7, 30), _QOT_OVERFLOW]
_QKD_EXAMPLES = [
    (24, 6, 0, 10, 0.0),
    (24, 0, 0, 10, 0.0),
    (24, 6, 0, 0, 0.5),
    (24, 6, 0, 0, 2 / 3),
    (24, 6, 0, 3, 1 / 6),
    _QKD_OVERFLOW,
]


def _examples(cases):
    """One hypothesis @example per case."""

    def apply(test):
        for case in reversed(cases):
            test = example(case=case)(test)
        return test

    return apply


@settings(max_examples=120, deadline=None)
@given(case=_qot_cases())
@_examples(_QOT_EXAMPLES)
def test_qot_bound_optimize_matches_per_point_reports(case):
    got, want = qot_bound_optimize(*case), _per_point_qot_bound_optimize(*case)
    assert (got["eps"], got["delta"]) == (want["eps"], want["delta"])
    assert got["report"].bound_terms == want["report"].bound_terms
    assert got["report"].total_bound == want["report"].total_bound


@settings(max_examples=300, deadline=None)
@given(case=_qkd_cases())
@_examples(_QKD_EXAMPLES)
def test_best_qkd_terms_matches_per_point_reports(case):
    assert _best_qkd_terms(*case) == _per_point_best_qkd_terms(*case)


def test_overflow_cases_overflow_on_part_of_the_grid():
    n, k, l, grid = _QOT_OVERFLOW
    qot = [
        qot_bound(n, k, l, 0.25 * i / (grid + 1), 0.5 * j / (grid + 1)).total_bound
        for i in range(1, grid + 1)
        for j in range(1, grid + 1)
    ]
    n, k, m, l, beta = _QKD_OVERFLOW
    qkd = [qkd_bound(n, k, m, l, beta, 0.5 * i / 200).total_bound for i in range(1, 201)]
    for totals in (qot, qkd):
        assert 0 < sum(map(math.isinf, totals)) < len(totals)


# Each optimizer memoises its optimum per argument tuple in a bounded
# functools.lru_cache.  A warm call must give what a cold search and the
# per-point oracle give, and no caller may reach another through the memo.


@pytest.mark.parametrize("case", _QOT_EXAMPLES)
def test_qot_optimum_from_the_memo_equals_a_cold_search(case):
    protocols._qot_best.cache_clear()
    cold, warm = qot_bound_optimize(*case), qot_bound_optimize(*case)
    assert protocols._qot_best.cache_info().hits == 1
    assert cold == warm == _per_point_qot_bound_optimize(*case)


@pytest.mark.parametrize("case", _QKD_EXAMPLES)
def test_qkd_optimum_from_the_memo_equals_a_cold_search(case):
    _best_qkd_terms.cache_clear()
    cold, warm = _best_qkd_terms(*case), _best_qkd_terms(*case)
    assert _best_qkd_terms.cache_info().hits == 1
    assert cold == warm == _per_point_best_qkd_terms(*case)


def test_mutating_a_returned_optimum_does_not_reach_the_next_call():
    first = qot_bound_optimize(10, 3, 2, grid=30)
    want = dict(first)
    first.update(eps=-1.0, delta=-1.0, report=None)
    assert qot_bound_optimize(10, 3, 2, grid=30) == want


@pytest.mark.parametrize(
    "memo, call",
    [
        (protocols._qot_best, lambda i: qot_bound_optimize(10 + i, 3, 2, grid=1)),
        (_best_qkd_terms, lambda i: _best_qkd_terms(24 + i, 6, 0, 0, 0.0)),
    ],
    ids=["qot", "qkd"],
)
def test_memo_keeps_at_most_maxsize_parameter_sets(memo, call):
    maxsize = memo.cache_info().maxsize
    memo.cache_clear()
    for i in range(maxsize + 10):
        call(i)
    info = memo.cache_info()
    assert info.misses == maxsize + 10
    assert info.currsize <= maxsize


# ---------------------------------------------------------------------------
# key-length planning
# ---------------------------------------------------------------------------


def _max_len_oracle(n, k, m, beta, eps_target):
    """Brute-force scan over the same (l, delta) grid."""
    cap = qkd_key_length(n, k, m, beta)
    span = 0.5 - beta
    grid = [span * i / 1000 for i in range(1, 1001)]
    best_l, best_delta = -1, grid[0]
    for delta in grid:
        lmax = -1
        for l in range(cap + 1):
            if _qkd_total(n, k, m, l, beta, delta) <= eps_target:
                lmax = l
            else:
                break  # total is increasing in l
        if lmax > best_l:
            best_l, best_delta = lmax, delta
    if best_l < 0:
        return 0, grid[0]
    return best_l, best_delta


def test_qkd_max_len_matches_brute_force_scan():
    rng = np.random.default_rng(44)
    cases = []
    for _ in range(6):
        n = int(rng.integers(20, 61))
        k = int(rng.integers(5, n - 2))
        m = int(rng.integers(0, 4))
        beta = float(rng.uniform(0.0, 0.15))
        eps = float(rng.choice([1.85, 1.9, 1.95, 1.98]))
        cases.append((n, k, m, beta, eps))
    for _ in range(4):
        n = int(rng.integers(20, 61))
        k = int(rng.integers(5, n - 2))
        m = int(rng.integers(0, 4))
        beta = float(rng.uniform(0.0, 0.15))
        eps = float(rng.choice([0.05, 0.2, 0.5]))
        cases.append((n, k, m, beta, eps))
    # a small test fraction keeps the sampling term low enough for a positive
    # key length; the last case saturates the protocol cap
    cases.append((60, 15, 0, 0.0, 1.95))
    cases.append((40, 8, 2, 0.05, 2.5))
    exercised = 0
    for n, k, m, beta, eps in cases:
        got = qkd_max_len(n, k, m, beta, eps)
        want = _max_len_oracle(n, k, m, beta, eps)
        assert got == want, (n, k, m, beta, eps)
        exercised += want[0] > 0
    assert exercised >= 2
    assert qkd_max_len(40, 8, 2, 0.05, 2.5)[0] == qkd_key_length(40, 8, 2, 0.05)


def test_qkd_max_len_validation():
    with pytest.raises(ValueError, match="beta"):
        qkd_max_len(100, 20, 0, 0.5, 0.1)
    with pytest.raises(ValueError, match="eps_target"):
        qkd_max_len(100, 20, 0, 0.1, 0.0)
    with pytest.raises(ValueError, match="n must be >= 2"):
        qkd_max_len(1, 1, 0, 0.1, 0.5)
    for k in (0, 100):
        with pytest.raises(ValueError, match="1 <= k < n"):
            qkd_max_len(100, k, 0, 0.1, 0.5)
    with pytest.raises(ValueError, match="m must be >= 0"):
        qkd_max_len(100, 20, -1, 0.1, 0.5)
    assert qkd_max_len(10, 9, 0, 0.0, 0.5) == (0, 0.0005)  # k up to n - 1


def test_qkd_key_length_rule():
    # largest integer strictly below (1 - h(beta)) n - k - m, floored at 0
    assert qkd_key_length(5, 2, 0, 0.0) == 2
    assert qkd_key_length(5, 2, 0, 1.0) == 2
    assert qkd_key_length(10, 5, 5, 0.0) == 0
    assert qkd_key_length(100, 10, 5, 0.1) == math.ceil((1 - _h(0.1)) * 100 - 15 - 1 - 1e-12)


def test_asymptotic_rate_and_threshold():
    start = time.monotonic()
    assert asymptotic_qkd_rate(0.0) == 1.0
    assert asymptotic_qkd_rate(0.25) < 0
    root = qkd_rate_threshold()
    assert abs(root - 0.110) <= 1e-3
    assert abs(asymptotic_qkd_rate(root)) < 1e-9
    assert time.monotonic() - start < 1.0
    with pytest.raises(ValueError, match="phi"):
        asymptotic_qkd_rate(0.5)
    with pytest.raises(ValueError, match="phi"):
        asymptotic_qkd_rate(-0.01)


def test_rate_curve_csv_shape():
    text = rate_curve_csv([0.0, 0.05, 0.11])
    lines = text.strip().split("\n")
    assert lines[0] == "phi,rate"
    assert len(lines) == 4
    assert float(lines[1].split(",")[1]) == 1.0


# ---------------------------------------------------------------------------
# report and parameter types
# ---------------------------------------------------------------------------


def test_security_report_totals_terms():
    rep = SecurityReport(bound_terms=(("a", 0.25), ("b", 0.5)), delta_used=0.1)
    assert rep.total_bound == 0.75
    assert SecurityReport(bound_terms=(("a", 0.25), ("b", math.inf)), delta_used=0.1).total_bound == math.inf
    with pytest.raises(TypeError, match="total_bound"):  # derived from the terms, never given
        SecurityReport(bound_terms=(("a", 0.25),), delta_used=0.1, total_bound=0.25)
    with pytest.raises(ValueError, match="exact_distance"):
        SecurityReport(bound_terms=(("a", 0.25),), delta_used=0.1, exact_distance=1.5)


def test_security_report_json_is_sorted():
    rep = SecurityReport(bound_terms=(("a", 0.25),), delta_used=0.1, transcript_digest="ff")
    data = json.loads(security_report_to_json(rep))
    assert list(data) == sorted(data)
    assert data["bound_terms"] == [["a", 0.25]]
    assert data["exact_distance"] is None


def test_params_validation():
    with pytest.raises(ValueError, match="test size"):
        QkdParams(10, 6)
    with pytest.raises(ValueError, match="test size"):
        QotParams(10, 0, 3)
    with pytest.raises(ValueError, match="key length"):
        QotParams(10, 3, 11)
    with pytest.raises(ValueError, match="radius"):
        EccModel(2, 0.5)
    with pytest.raises(ValueError, match="m must"):
        EccModel(-1, 0.1)


def test_adversary_validation():
    with pytest.raises(ValueError, match="kind"):
        AdversaryModel(kind="teleport")
    with pytest.raises(ValueError, match="noise"):
        AdversaryModel(noise=0.5)
    with pytest.raises(ValueError, match="choice_bit"):
        AdversaryModel(choice_bit=2)
    with pytest.raises(ValueError, match="unitary"):
        AdversaryModel(kind="custom-unitary")
    with pytest.raises(ValueError, match="not unitary"):
        AdversaryModel(kind="custom-unitary", unitary=np.ones((4, 4)))
    with pytest.raises(ValueError, match="shape"):
        AdversaryModel(kind="custom-unitary", unitary=np.eye(3))
    # a valid probe unitary round-trips
    adv = AdversaryModel(kind="entangling-probe", probe_dim=3)
    U = adv.probe_unitary()
    assert np.allclose(U.conj().T @ U, np.eye(6))


@pytest.mark.parametrize("kind", ["commit-flip", "open-flip", "no-measure", "delay-measure"])
def test_qkd_refuses_an_oblivious_transfer_adversary(kind, monkeypatch):
    # each once ran as an honest run with matching keys; the code search is the first draw
    monkeypatch.setattr(protocols, "make_linear_code", lambda *a: pytest.fail("a draw was made"))
    with pytest.raises(ValueError, match=f"^adversary kind '{kind}' is not a key-distribution model$"):
        simulate_qkd(QkdParams(8, 2), AdversaryModel(kind=kind, flips=(1,)), rng_seed=0)


@pytest.mark.parametrize("kind", ["intercept-resend", "entangling-probe"])
def test_qot_refuses_a_key_distribution_adversary(kind):
    with pytest.raises(ValueError, match=f"^adversary kind '{kind}' is not an oblivious-transfer model$"):
        simulate_qot(QotParams(8, 2, 2), AdversaryModel(kind=kind), rng_seed=0)


# ---------------------------------------------------------------------------
# linear code
# ---------------------------------------------------------------------------


def test_code_corrects_every_pattern_in_radius():
    rng = np.random.default_rng(45)
    for length, m, radius in ((8, 4, 0.125), (10, 5, 0.1), (12, 8, 0.17)):
        code = make_linear_code(length, m, radius, rng)
        max_w = math.floor(radius * length + 1e-9)
        assert max_w >= 1
        for _ in range(3):
            x = tuple(int(b) for b in rng.integers(0, 2, size=length))
            syn = code.syndrome(x)
            for w in range(max_w + 1):
                for pos in itertools.combinations(range(length), w):
                    y = list(x)
                    for p in pos:
                        y[p] ^= 1
                    assert code.correct(tuple(y), syn) == x


def test_code_minimum_distance_exceeds_twice_radius():
    rng = np.random.default_rng(46)
    code = make_linear_code(10, 5, 0.1, rng)
    need = 2 * math.floor(0.1 * 10 + 1e-9)
    best = None
    for value in range(1, 2 ** 10):
        bits = np.array([(value >> i) & 1 for i in range(10)], dtype=np.int64)
        if not any((code.parity @ bits) % 2):
            weight = int(bits.sum())
            best = weight if best is None else min(best, weight)
    assert best is not None and best > need


def test_code_trivial_and_validation():
    rng = np.random.default_rng(47)
    code = make_linear_code(6, 0, 0.0, rng)
    assert code.syndrome((1, 0, 1, 1, 0, 0)) == ()
    assert code.correct((1, 0, 1, 1, 0, 0), ()) == (1, 0, 1, 1, 0, 0)
    with pytest.raises(ValueError, match="radius"):
        make_linear_code(6, 2, 0.6, rng)
    with pytest.raises(ValueError, match="length"):
        make_linear_code(0, 0, 0.0, rng)
    with pytest.raises(ValueError, match="syndrome length"):
        make_linear_code(6, 7, 0.0, rng)


@pytest.mark.parametrize(
    "parity, radius, match",
    [
        (np.array([[2, 1, 1]]), 0.1, "0s and 1s"),  # its syndrome of (1, 0, 0) read (0,)
        (np.array([1, 0, 1]), 0.1, "2-D"),  # raised IndexError at the first length
        (np.array([[0.0, 1.0]]), 0.1, "0s and 1s"),
        (np.array([[1, 0, 1]]), -0.1, "radius"),
        (np.array([[1, 0, 1]]), 0.5, "radius"),
        (np.array([[1, 0, 1]]), math.nan, "radius"),
    ],
)
def test_code_refuses_a_parity_matrix_or_radius_it_cannot_decode_with(parity, radius, match):
    with pytest.raises(ValueError, match=match):
        LinearCode(parity, radius)


def test_code_keeps_the_empty_and_radius_0_codes():
    # m = 0 and radius 0 stay valid; a bool or nested-list matrix is read as an array
    empty = LinearCode(np.zeros((0, 6), dtype=np.int64), 0.49)
    assert empty.syndrome((1,) * 6) == () and empty.correct((1,) * 6, ()) == (1,) * 6
    for parity in (np.array([[1, 0, 1]], dtype=bool), [[1, 0, 1]]):
        assert LinearCode(parity, 0.0).syndrome((1, 1, 0)) == (1,)


def test_code_kernel_enumeration_over_the_budget_is_refused(monkeypatch):
    # up to 2000 tries, each taking the syndromes of the 1 + 8 patterns of weight <= 1
    monkeypatch.setenv("QSAMPLE_BUDGET", "17999")
    with pytest.raises(BudgetExceededError) as info:
        make_linear_code(8, 4, 0.125, np.random.default_rng(49))
    assert str(info.value) == "code search needs 18000 evaluations, budget is 17999; raise QSAMPLE_BUDGET"


def test_code_kernel_enumeration_within_a_raised_budget_is_admitted(monkeypatch):
    monkeypatch.setenv("QSAMPLE_BUDGET", "18000")
    code = make_linear_code(8, 4, 0.125, np.random.default_rng(49))
    assert code.correct((1,) + (0,) * 7, code.syndrome((0,) * 8)) == (0,) * 8


def test_code_impossible_distance_raises():
    # a [4, 3] code has minimum distance at most 2, so radius 0.3 (distance > 2)
    # can never be met
    rng = np.random.default_rng(48)
    with pytest.raises(ValueError, match="no random code"):
        make_linear_code(4, 1, 0.3, rng)


def test_code_ruled_out_by_sphere_packing_raises_before_the_search():
    # distance 3 at length 20 needs 2^18 disjoint balls of 1 + 20 strings,
    # more than 2^20 strings: the 1 + 20 error patterns of weight <= 1 cannot
    # have distinct syndromes among 2^2
    rng = np.random.default_rng(50)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="no random code of length 20 with m=2 corrects a 0.05 error fraction"):
        make_linear_code(20, 2, 0.05, rng)
    assert rng.bit_generator.state == before


def test_sphere_packing_refusal_comes_before_the_budget_gate(monkeypatch):
    monkeypatch.setenv("QSAMPLE_BUDGET", "1")
    with pytest.raises(ValueError, match="no random code of length 20 with m=2"):
        make_linear_code(20, 2, 0.05, np.random.default_rng(50))
    with pytest.raises(BudgetExceededError, match="code search needs 42000 evaluations"):
        make_linear_code(20, 5, 0.05, np.random.default_rng(50))


def test_a_perfect_code_meets_the_sphere_packing_bound():
    # the [7, 4] Hamming code fills 2^7 with 2^4 balls of 1 + 7 strings; one
    # check bit fewer is ruled out
    code = make_linear_code(7, 3, 1 / 7, np.random.default_rng(0))
    words = [v for v in itertools.product((0, 1), repeat=7) if any(v) and not (code.parity @ v % 2).any()]
    assert len(words) == 15 and min(sum(v) for v in words) == 3
    with pytest.raises(ValueError, match="no random code"):
        make_linear_code(7, 2, 1 / 7, np.random.default_rng(0))


def test_decode_failure_returns_none():
    rng = np.random.default_rng(49)
    code = make_linear_code(8, 4, 0.125, rng)
    x = (0,) * 8
    syn = code.syndrome(x)
    # an error of weight 3 is outside the radius, so decoding cannot recover x
    y = (1, 1, 1, 0, 0, 0, 0, 0)
    assert code.correct(y, syn) != x
    # a syndrome unreachable within the radius gives None
    unreachable = None
    for syn_bits in itertools.product((0, 1), repeat=4):
        leaders = set()
        for w in range(2):
            for pos in itertools.combinations(range(8), w):
                e = np.zeros(8, dtype=np.int64)
                e[list(pos)] = 1
                leaders.add(tuple((code.parity @ e) % 2))
        if tuple(syn_bits) not in leaders:
            unreachable = syn_bits
            break
    if unreachable is not None:
        assert code.correct(x, unreachable) is None


def test_code_refuses_words_and_syndromes_it_cannot_read():
    code = make_linear_code(8, 4, 0.125, np.random.default_rng(49))
    zero = code.syndrome((0,) * 8)
    with pytest.raises(ValueError, match="string must be bits, got 2"):
        code.syndrome((2,) + (0,) * 7)
    with pytest.raises(ValueError, match="received word must be bits, got 3"):
        code.correct((3,) + (0,) * 7, zero)
    with pytest.raises(ValueError, match="received word length 7 != expected 8"):
        code.correct((0,) * 7, zero)
    with pytest.raises(ValueError, match="syndrome length 5 != expected 4"):
        code.correct((0,) * 8, (0, 0, 0, 0, 1))
    with pytest.raises(ValueError, match="syndrome length 3 != expected 4"):
        code.correct((0,) * 8, (0, 0, 0))
    with pytest.raises(ValueError, match="syndrome must be bits, got 2"):
        code.correct((0,) * 8, (2, 0, 0, 0))


def _loop_correct(code, received, syn):
    """The decoder before the syndrome table, kept as its oracle: one matmul
    per error pattern of weight <= t, by weight and then in combinations
    order, until one has the syndrome difference."""
    y = tuple(int(b) for b in received)
    target = tuple(a ^ b for a, b in zip(code.syndrome(y), syn))
    for w in range(math.floor(code.radius * code.length + 1e-9) + 1):
        for pos in itertools.combinations(range(code.length), w):
            e = np.zeros(code.length, dtype=np.int64)
            e[list(pos)] = 1
            if tuple(int(v) for v in code.parity @ e % 2) == target:
                return tuple(y[i] ^ int(e[i]) for i in range(code.length))
    return None


def _min_distance(parity):
    """The least weight of a nonzero codeword by brute force (length + 1 when
    the code has none)."""
    words = np.array(list(itertools.product((0, 1), repeat=parity.shape[1]))[1:])
    return int(words[(words @ parity.T % 2 == 0).all(axis=1)].sum(axis=1).min(initial=parity.shape[1] + 1))


_SHAPES = st.integers(1, 10).flatmap(lambda length: st.tuples(st.just(length), st.integers(0, length)))


@settings(max_examples=150, deadline=None)
@given(shape=_SHAPES, radius=st.floats(0.0, 0.49), seed=st.integers(0, 2 ** 32 - 1))
@example(shape=(6, 0), radius=0.0, seed=0)
@example(shape=(6, 0), radius=0.4, seed=1)
@example(shape=(8, 3), radius=0.0, seed=2)
@example(shape=(8, 3), radius=0.3, seed=3)  # 37 patterns of weight <= 2 share 8 syndromes
def test_correct_matches_the_per_pattern_loop(shape, radius, seed):
    # codes built directly, so syndromes of correctable patterns may collide
    rng = np.random.default_rng(seed)
    code = LinearCode(rng.integers(0, 2, size=(shape[1], shape[0])).astype(np.int64), radius)
    for _ in range(6):
        y = tuple(rng.integers(0, 2, size=code.length).tolist())
        near = list(y)
        for i in rng.choice(code.length, size=rng.integers(0, code.length // 2 + 1), replace=False):
            near[i] ^= 1
        for syn in (tuple(rng.integers(0, 2, size=code.m).tolist()), code.syndrome(near)):
            assert code.correct(y, syn) == _loop_correct(code, y, syn)


@settings(max_examples=60, deadline=None)
@given(shape=_SHAPES, radius=st.floats(0.0, 0.49), seed=st.integers(0, 2 ** 32 - 1))
@example(shape=(7, 3), radius=1 / 7, seed=0)
@example(shape=(7, 2), radius=1 / 7, seed=0)
@example(shape=(5, 4), radius=0.4, seed=5)
@example(shape=(10, 0), radius=0.0, seed=6)
def test_code_search_accepts_exactly_the_draws_of_distance_past_2t(shape, radius, seed):
    # replay the search's draws: it must return the first whose brute-force
    # minimum distance exceeds 2t, and leave the generator where that draw did
    length, m = shape
    need = 2 * math.floor(radius * length + 1e-9)
    rng, replay = np.random.default_rng(seed), np.random.default_rng(seed)
    try:
        code = make_linear_code(length, m, radius, rng)
    except ValueError as err:
        assert "no random code" in str(err)
        code = None
    if code is not None and need == 0:
        assert np.array_equal(code.parity, replay.integers(0, 2, size=(m, length)))
    elif sum(math.comb(length, w) for w in range(need // 2 + 1)) <= 2 ** m:
        for _ in range(2000):
            H = replay.integers(0, 2, size=(m, length)).astype(np.int64)
            if _min_distance(H) > need:
                assert code is not None and np.array_equal(code.parity, H)
                break
        else:
            assert code is None
    else:
        assert code is None  # refused by sphere packing before any draw
    assert rng.bit_generator.state == replay.bit_generator.state


def test_code_search_past_the_budget_is_refused_before_it_draws():
    # the 1 + 360 + ... + C(360, 18) patterns are counted, never built
    rng = np.random.default_rng(51)
    before = rng.bit_generator.state
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match="^code search needs at least 10\\^"):
        make_linear_code(360, 300, 0.05, rng)
    assert time.perf_counter() - start < 1
    assert rng.bit_generator.state == before


def test_code_past_length_20_corrects_every_pattern_in_radius():
    rng = np.random.default_rng(52)
    code = make_linear_code(40, 16, 0.05, rng)
    x = tuple(rng.integers(0, 2, size=40).tolist())
    syn = code.syndrome(x)
    for w in range(3):
        for pos in itertools.combinations(range(40), w):
            y = list(x)
            for p in pos:
                y[p] ^= 1
            assert code.correct(y, syn) == x


# ---------------------------------------------------------------------------
# key distribution, honest and adversarial
# ---------------------------------------------------------------------------


def test_qkd_honest_completeness_100_seeds():
    params = QkdParams(16, 4)
    adv = AdversaryModel()
    for seed in range(100):
        transcript, alice, bob, _ = simulate_qkd(params, adv, rng_seed=seed, exact=False)
        beta = next(e["payload"] for e in transcript if e["type"] == "beta")
        assert beta == 0.0
        assert alice == bob
        assert len(alice) == qkd_key_length(16, 4, 0, 0.0)


def test_qkd_honest_exact_small():
    transcript, alice, bob, report = simulate_qkd(QkdParams(4, 2), AdversaryModel(), rng_seed=3)
    assert alice == bob
    assert report.exact_distance is not None
    assert report.exact_distance <= 1e-9


def test_qkd_exact_distance_zero_at_n5():
    _, alice, bob, report = simulate_qkd(QkdParams(5, 2), AdversaryModel(), rng_seed=12)
    assert alice == bob
    assert abs(report.exact_distance) <= 1e-9


def test_qkd_probe_distance_within_bound():
    for n, k, seed in ((3, 1, 5), (4, 1, 6), (4, 2, 7)):
        adv = AdversaryModel(kind="entangling-probe")
        _, _, _, report = simulate_qkd(QkdParams(n, k), adv, rng_seed=seed)
        assert report.exact_distance is not None
        assert 0 <= report.exact_distance <= min(1.0, report.total_bound) + 1e-9


def test_qkd_custom_unitary_distance_within_bound():
    # a partial probe rotation, weaker than the full copy
    c, s = math.cos(0.4), math.sin(0.4)
    U = np.eye(4, dtype=complex)
    U[2:, 2:] = np.array([[c, -s], [s, c]])
    adv = AdversaryModel(kind="custom-unitary", unitary=U)
    _, _, _, report = simulate_qkd(QkdParams(3, 1), adv, rng_seed=9)
    assert 0 <= report.exact_distance <= min(1.0, report.total_bound) + 1e-9


def _probe_state(n, adv):
    base = make_epr_pairs(n)
    env = np.zeros(adv.probe_dim, dtype=complex)
    env[0] = 1.0
    state = PureState(np.kron(base.amps, env), (2,) * (2 * n) + (adv.probe_dim,))
    U = adv.probe_unitary()
    for i in range(1, n + 1):
        state = apply_unitary(state, U, (n + i, 2 * n + 1))
    return state


def _exact_state(n, adv):
    return make_epr_pairs(n) if adv.kind == "none" else _probe_state(n, adv)


def _custom_probe():
    c, s = math.cos(0.4), math.sin(0.4)
    U = np.eye(4, dtype=complex)
    U[2:, 2:] = np.array([[c, -s], [s, c]])
    return AdversaryModel(kind="custom-unitary", unitary=U)


@pytest.mark.parametrize(
    "n,k,m,adv",
    [
        (3, 1, 0, AdversaryModel(kind="entangling-probe")),
        (4, 2, 0, AdversaryModel()),
        (4, 2, 0, AdversaryModel(kind="entangling-probe", probe_dim=3)),  # l = 1, 0, 1 at 0, 1, 2 errors
        (4, 1, 1, AdversaryModel(kind="entangling-probe")),
        (3, 1, 0, _custom_probe()),
    ],
    ids=["n3-probe", "n4-k2-none", "n4-k2-probe3", "n4-m1-probe", "n3-custom"],
)
def test_qkd_exact_distance_against_hybrid_assembly(n, k, m, adv):
    """Cross-check the branch assembly against the hybrid-state machinery."""
    seed = 11
    transcript, _, _, report = simulate_qkd(QkdParams(n, k, ecc=EccModel(m=m)), adv, rng_seed=seed)
    parity = np.array(next(e["payload"] for e in transcript if e["type"] == "parity-check"))

    state = _exact_state(n, adv)
    env_dim = state.dim_E
    subsets = list(itertools.combinations(range(1, n + 1), k))
    real = {}
    marginal = {}
    for tidx in range(2 ** n):
        theta = tuple((tidx >> (n - 1 - j)) & 1 for j in range(n))
        for br in measure(state, range(1, 2 * n + 1), BasisSpec(theta + theta)):
            x, y = br.outcome[:n], br.outcome[n:]
            amps = br.post_state.amps.reshape(2 ** (2 * n), env_dim)
            env = amps.T @ amps.conj()  # the population traced out
            for s in subsets:
                xs, ys = restrict(x, s), restrict(y, s)
                xbar = restrict(x, complement(s, n))
                syn = tuple(int(v) for v in parity @ np.array(xbar) % 2) if m else ()
                beta = rel_weight(tuple(a ^ b for a, b in zip(xs, ys)))
                l = qkd_key_length(n, k, m, beta)
                fam = HashFamily(n - k, l)
                for ridx in range(2 ** fam.seed_bits):
                    r = tuple((ridx >> i) & 1 for i in range(fam.seed_bits))
                    key = hash_eval(fam, r, xbar)
                    view = (tidx, s, xs, ys, syn, r, l)
                    w = br.probability / (2 ** n * len(subsets) * 2 ** fam.seed_bits)
                    real[(key, view)] = real.get((key, view), 0) + w * env
                    marginal[view] = marginal.get(view, 0) + w * env
    ideal = {
        (tuple((kidx >> i) & 1 for i in range(view[-1])), view): mat / 2 ** view[-1]
        for view, mat in marginal.items()
        for kidx in range(2 ** view[-1])
    }

    def hybrid(table):
        entries = []
        for label, mat in table.items():
            p = float(np.trace(mat).real)
            if p > 1e-14:
                entries.append((label, p, mat / p))
        return CqState(tuple(entries), env_dim=env_dim)
    expected = cq_distance(hybrid(real), hybrid(ideal))
    assert report.exact_distance == pytest.approx(expected, abs=1e-12)


def _per_basis_distance(state, n, k, code, rotate):
    """The exact distance one basis at a time, as _qkd_exact_distance took
    it before it took blocks of bases, each basis rotated by ``rotate`` (the
    tensordot oracle, not the block path's own kernel): its oracle."""
    subsets = np.array(list(itertools.combinations(range(n), k)))
    rests = np.array([[i for i in range(n) if i not in s] for s in subsets])
    key_len = np.array([qkd_key_length(n, k, code.m, e / k) for e in range(k + 1)])
    seeds = {l: _bit_rows(HashFamily(n - k, l).seed_bits) for l in set(key_len.tolist())}
    weight = 1.0 / (2 ** n * len(subsets))
    distance = 0.0
    for tidx in range(2 ** n):
        theta = tuple((tidx >> (n - 1 - j)) & 1 for j in range(n))
        axes = [i for i, bit in enumerate(theta + theta) if bit]
        rows = rotate(state.tensor(), axes).reshape(4 ** n, state.dim_E)
        live = np.nonzero(np.einsum("ij,ij->i", rows, rows.conj()).real >= 1e-15)[0]
        cond = weight * rows[live, :, None] * rows[live, None, :].conj()
        bits = (live[:, None] >> np.arange(2 * n - 1, -1, -1)) & 1
        xs, ys, raw = bits[:, subsets], bits[:, n + subsets], bits[:, rests]
        syn = raw @ code.parity.T & 1
        announced = np.concatenate([xs, ys, syn], axis=2)
        width = announced.shape[2]
        views = announced @ (1 << np.arange(width)) + (np.arange(len(subsets)) << width)
        lengths = key_len[(xs != ys).sum(axis=2)]
        for l in np.unique(lengths).tolist():
            branch, subset = np.nonzero(lengths == l)
            r = seeds[l]
            keys = _hash_keys(raw[branch, subset], r, l)
            seen = views[branch, subset] * len(r) + np.arange(len(r))[:, None]
            distance += _extraction_distance(seen, keys, cond[branch] / len(r), l)
    return distance


EXACT_ADVERSARIES = [
    AdversaryModel(),
    AdversaryModel(kind="entangling-probe"),
    AdversaryModel(kind="entangling-probe", probe_dim=3),
    _custom_probe(),
]


@pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 6) for k in range(1, n)])
def test_qkd_exact_distance_in_blocks_matches_the_per_basis_loop(n, k, tensordot_hadamard):
    for adv in EXACT_ADVERSARIES:
        state = _exact_state(n, adv)
        for m in (0, 1):
            code = make_linear_code(n - k, m, 0.0, np.random.default_rng(10 * n + k))
            got = protocols._qkd_exact_distance(state, n, k, code)
            assert got == pytest.approx(_per_basis_distance(state, n, k, code, tensordot_hadamard), abs=1e-12), (adv.kind, m)


@pytest.mark.parametrize("k", [1, 2])
def test_qkd_exact_distance_is_the_same_in_any_number_of_blocks(monkeypatch, k):
    # 16 bases of 4^4 outcomes and C(4, k) subsets: one block at the
    # default cell limit; 2, 4 and 16 blocks at 8, 4 and 1 bases' cells
    n, adv = 4, AdversaryModel(kind="entangling-probe")
    state, code = _probe_state(n, adv), make_linear_code(n - k, 1, 0.0, np.random.default_rng(k))
    per_basis = 4 ** n * math.comb(n, k)
    block_rows, runs = protocols._qkd_block_rows, []
    monkeypatch.setattr(
        protocols, "_qkd_block_rows", lambda *args: runs.append(args[-1]) or block_rows(*args)
    )
    whole = protocols._qkd_exact_distance(state, n, k, code)
    assert runs == [16]
    for bases, blocks in ((8, 2), (4, 4), (1, 16)):
        runs.clear()
        monkeypatch.setattr(sampling, "_BLOCK_CELLS", bases * per_basis)
        assert protocols._qkd_exact_distance(state, n, k, code) == pytest.approx(whole, abs=1e-12)
        assert runs == [bases] * blocks
    monkeypatch.setattr(sampling, "_BLOCK_CELLS", per_basis - 1)  # a basis is never split
    assert protocols._qkd_exact_distance(state, n, k, code) == pytest.approx(whole, abs=1e-12)


def test_qkd_exact_distance_memory_is_bounded_by_the_cell_limit():
    # The largest arrays of a block are its buckets, one dE x dE complex
    # matrix per (view, key): per basis, C(n, k) subsets x 2^(2k + m)
    # announced bits x 2^(n-k-1) seeds x 2^l keys, with l < n - k - m, at
    # most C(n, k) 4^n / 4 against the basis's C(n, k) 4^n cells.  At dE = 2
    # that is 16 bytes a cell; the mean subtraction and eigvalsh copy them,
    # so the bound allows four times as much.  The per-basis loop peaked at
    # 2.4 MB here, and one block of all 64 bases at about 73 MB.
    n, k, adv = 6, 1, AdversaryModel(kind="entangling-probe")
    state, code = _probe_state(n, adv), make_linear_code(n - k, 0, 0.0, np.random.default_rng(0))
    bound = 4 * 16 * sampling._BLOCK_CELLS
    tracemalloc.start()
    try:
        protocols._qkd_exact_distance(state, n, k, code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, f"peak {peak / 1e6:.1f} MB over {bound / 1e6:.1f} MB"


def test_qkd_exact_mode_refusals():
    with pytest.raises(ValueError, match="exact"):
        simulate_qkd(QkdParams(4, 1), AdversaryModel(kind="intercept-resend"), 0, exact=True)
    with pytest.raises(ValueError, match="n <= 7"):
        simulate_qkd(QkdParams(8, 2), AdversaryModel(), 0, exact=True)
    with pytest.raises(ValueError, match="exact"):
        simulate_qkd(QkdParams(4, 1), AdversaryModel(noise=0.1), 0, exact=True)


def test_qkd_replay_is_byte_identical():
    params = QkdParams(12, 3, ecc=EccModel(m=3, radius=0.1))
    adv = AdversaryModel(kind="intercept-resend")
    runs = [simulate_qkd(params, adv, rng_seed=77, exact=False) for _ in range(2)]
    assert transcript_to_json(runs[0][0]) == transcript_to_json(runs[1][0])
    assert runs[0][3].transcript_digest == runs[1][3].transcript_digest
    assert runs[0][1] == runs[1][1] and runs[0][2] == runs[1][2]
    other = simulate_qkd(params, adv, rng_seed=78, exact=False)
    assert transcript_to_json(other[0]) != transcript_to_json(runs[0][0])


@pytest.mark.parametrize(
    "protocol, kind",
    [("qkd", kind) for kind in ("none", "intercept-resend", "entangling-probe")]
    + [("qot", kind) for kind in ("none", "commit-flip", "open-flip", "no-measure", "delay-measure")],
)
def test_transcripts_are_json_data(protocol, kind):
    # lists, not tuples: a tuple would read back from JSON unequal
    if protocol == "qkd":
        run = simulate_qkd(QkdParams(12, 3, EccModel(3, 0.1)), AdversaryModel(kind=kind), 5, exact=False)
    else:
        run = simulate_qot(QotParams(10, 3, 2), AdversaryModel(kind=kind, flips=(2,)), 5)
    assert json.loads(transcript_to_json(run[0])) == run[0]


def _mean_beta(params, adv, seeds):
    total = 0.0
    for seed in seeds:
        transcript, _, _, _ = simulate_qkd(params, adv, rng_seed=seed, exact=False)
        total += next(e["payload"] for e in transcript if e["type"] == "beta")
    return total / len(seeds)


def test_intercept_resend_error_rate():
    params = QkdParams(24, 8)
    mean = _mean_beta(params, AdversaryModel(kind="intercept-resend"), range(100))
    sigma = math.sqrt(0.25 * 0.75 / (100 * params.k))
    assert abs(mean - 0.25) <= 3 * sigma


def test_intercept_resend_fixed_basis_policies():
    params = QkdParams(24, 8)
    for policy in ("computational", "hadamard"):
        mean = _mean_beta(params, AdversaryModel(kind="intercept-resend", basis_policy=policy), range(60))
        sigma = math.sqrt(0.25 * 0.75 / (60 * params.k))
        assert abs(mean - 0.25) <= 3.5 * sigma


def test_channel_noise_error_rate():
    params = QkdParams(24, 8)
    phi = 0.1
    mean = _mean_beta(params, AdversaryModel(noise=phi), range(100))
    sigma = math.sqrt(phi * (1 - phi) / (100 * params.k))
    assert abs(mean - phi) <= 3 * sigma


def test_qkd_ecc_recovers_noisy_key_when_in_radius():
    # radius 1/4 on 8 remaining bits corrects up to 2 flips; noise well below
    # that mostly lands inside the radius
    params = QkdParams(12, 4, ecc=EccModel(m=6, radius=0.25))
    agree = 0
    for seed in range(40):
        _, alice, bob, _ = simulate_qkd(params, AdversaryModel(noise=0.05), rng_seed=seed, exact=False)
        agree += alice == bob
    assert agree >= 30


# ---------------------------------------------------------------------------
# the two error-estimation experiments
# ---------------------------------------------------------------------------


def test_experiment_equivalence_on_epr_pairs():
    for n in (2, 3):
        view = qkd_sampling_view(make_epr_pairs(n), QkdParams(n, 1), rng_seed=4)
        assert view["agrees"] is True
        assert view["max_total_variation"] <= 1e-9
        assert view["max_conditional_distance"] <= 1e-9
        assert view["z_basis"] == {"A": "hadamard", "B": "computational"}
        assert view["w_basis"] == {"A": "computational", "B": "hadamard"}
        assert len(view["sample"]["z"]) == n


def test_experiment_equivalence_with_probe():
    adv = AdversaryModel(kind="entangling-probe")
    state = _probe_state(3, adv)
    view = qkd_sampling_view(state, QkdParams(3, 1), rng_seed=8)
    assert view["agrees"] is True
    assert view["max_total_variation"] <= 1e-9
    assert view["max_conditional_distance"] <= 1e-9


def test_experiment_equivalence_on_random_states():
    from qsample import random_pure_state

    rng = np.random.default_rng(50)
    for _ in range(3):
        state = random_pure_state((2, 2, 2, 2, 3), rng)
        view = qkd_sampling_view(state, QkdParams(2, 1), rng_seed=int(rng.integers(1000)))
        assert view["agrees"] is True


def _branch_view_gaps(state, n, partial_trace):
    """The per-branch oracle for :func:`qkd_sampling_view`: (max total
    variation, max conditional distance) between the two experiments, with
    every measurement branch its own state, its environment a partial trace,
    and the branches merged by (basis, w, z) in dicts."""
    transformed = protocols.apply_cnot_pairs(state, [(i, n + i) for i in range(1, n + 1)])

    def env(branch):
        return partial_trace(branch.post_state, (2 * n + 1,)).matrix

    max_tv = max_cond = 0.0
    for row in range(2 ** n):
        theta = tuple((row >> (n - 1 - j)) & 1 for j in range(n))
        basis = BasisSpec(theta + theta)
        original = {}
        for br in measure(state, range(1, 2 * n + 1), basis):
            x, y = br.outcome[:n], br.outcome[n:]
            wz = (tuple(y[i] if theta[i] else x[i] for i in range(n)), tuple(a ^ b for a, b in zip(x, y)))
            prob, rho = original.get(wz, (0.0, 0.0))
            original[wz] = (prob + br.probability, rho + br.probability * env(br))
        # z sits on A_i when theta_i = 1, on B_i when theta_i = 0
        z_pos = [i if theta[i - 1] else n + i for i in range(1, n + 1)]
        w_pos = [n + i if theta[i - 1] else i for i in range(1, n + 1)]
        modified = {}
        for zbr in measure(transformed, z_pos, basis):
            for wbr in measure(zbr.post_state, w_pos, basis):
                prob = zbr.probability * wbr.probability
                wz = (wbr.outcome, zbr.outcome)
                old_p, old_rho = modified.get(wz, (0.0, 0.0))
                modified[wz] = (old_p + prob, old_rho + prob * env(wbr))
        tv = 0.0
        for wz in set(original) | set(modified):
            p = original.get(wz, (0.0, None))[0]
            q = modified.get(wz, (0.0, None))[0]
            tv += abs(p - q)
            if wz in original and wz in modified and min(p, q) > 1e-12:
                max_cond = max(max_cond, trace_distance(original[wz][1] / p, modified[wz][1] / q))
        max_tv = max(max_tv, tv / 2)
    return max_tv, max_cond


def _view_cases():
    """(state, n, rng_seed, sample block): EPR pairs and the entangling probe
    at n = 2, 3, and random states with dim_E = 3, each with the sampled
    execution the view returns for its seed."""
    probe = AdversaryModel(kind="entangling-probe")
    cases = []
    for n in (2, 3):
        cases.append((make_epr_pairs(n), n, 4))
        cases.append((_probe_state(n, probe), n, 5))
    rng = np.random.default_rng(50)
    for _ in range(3):
        state = random_pure_state((2, 2, 2, 2, 3), rng)
        cases.append((state, 2, int(rng.integers(1000))))
    samples = [
        {"theta": [1, 1], "z": [0, 0], "test_subset": [2], "beta": 0.0, "w": [0, 0]},
        {"theta": [1, 1], "z": [1, 1], "test_subset": [1], "beta": 1.0, "w": [0, 1]},
        {"theta": [1, 1, 1], "z": [0, 0, 0], "test_subset": [2], "beta": 0.0, "w": [0, 0, 0]},
        {"theta": [1, 1, 0], "z": [1, 1, 0], "test_subset": [3], "beta": 0.0, "w": [0, 1, 0]},
        {"theta": [1, 0], "z": [1, 0], "test_subset": [2], "beta": 0.0, "w": [1, 1]},
        {"theta": [1, 0], "z": [1, 1], "test_subset": [1], "beta": 1.0, "w": [1, 1]},
        {"theta": [1, 0], "z": [0, 1], "test_subset": [1], "beta": 0.0, "w": [1, 1]},
    ]
    return [case + (sample,) for case, sample in zip(cases, samples)]


def test_experiment_view_matches_the_branch_oracle(partial_trace):
    for state, n, seed, sample in _view_cases():
        view = qkd_sampling_view(state, QkdParams(n, 1), rng_seed=seed)
        assert view["agrees"] is True
        assert max(view["max_total_variation"], view["max_conditional_distance"]) <= 1e-9
        assert max(_branch_view_gaps(state, n, partial_trace)) <= 1e-9
        assert json.dumps(protocols._jsonable(view["sample"])) == json.dumps(sample)


def test_experiment_view_disagreement_reports_the_oracle_gaps(monkeypatch, partial_trace):
    # without the CNOTs the modified experiment reads x and y in place of w
    # and z, so the view must refuse, naming the per-branch gaps
    monkeypatch.setattr(protocols, "apply_cnot_pairs", lambda state, pairs: state)
    for state, n, seed, _ in _view_cases():
        tv, cond = _branch_view_gaps(state, n, partial_trace)
        assert tv > 1e-3
        with pytest.raises(ValueError, match="experiments disagree") as info:
            qkd_sampling_view(state, QkdParams(n, 1), rng_seed=seed)
        reported = [float(part.rsplit(" ", 1)[1]) for part in str(info.value).split(", ")]
        assert reported == pytest.approx([tv, cond], rel=0, abs=1e-12)


def test_experiment_view_replay_and_validation(monkeypatch):
    state = make_epr_pairs(2)
    a = qkd_sampling_view(state, QkdParams(2, 1), rng_seed=5)
    b = qkd_sampling_view(state, QkdParams(2, 1), rng_seed=5)
    assert a == b
    with pytest.raises(ValueError, match="population"):
        qkd_sampling_view(make_epr_pairs(3), QkdParams(2, 1), rng_seed=5)
    monkeypatch.setenv("QSAMPLE_BUDGET", "10")
    with pytest.raises(BudgetExceededError):
        qkd_sampling_view(make_epr_pairs(3), QkdParams(3, 1), rng_seed=5)


# ---------------------------------------------------------------------------
# oblivious transfer
# ---------------------------------------------------------------------------


def test_qot_honest_completeness_100_seeds():
    params = QotParams(8, 2, 3)
    for seed in range(100):
        choice = seed % 2
        transcript, k0, k1, bob, _ = simulate_qot(params, AdversaryModel(choice_bit=choice), rng_seed=seed)
        assert k0 is not None and k1 is not None
        assert len(k0) == len(k1) == 3
        assert bob["c"] == choice
        assert bob["key"] == (k0, k1)[choice]


def test_qot_honest_realized_choice_labels():
    # the realized choice points at the set with fewer basis disagreements,
    # which for an honest Bob is the set he populated with agreements
    params = QotParams(10, 3, 2)
    seen = set()
    for seed in range(40):
        for choice in (0, 1):
            transcript, k0, _, bob, _ = simulate_qot(params, AdversaryModel(choice_bit=choice), rng_seed=seed)
            if k0 is None:
                continue
            realized = next(e["payload"] for e in transcript if e["type"] == "realized-choice")
            sets = next(e["payload"] for e in transcript if e["type"] == "index-sets")
            if len(sets[0]) and len(sets[1]):
                seen.add((choice, realized))
    # an honest Bob with choice 0 is always realized as 0; with choice 1 as 1
    # whenever the other set is nonempty
    assert (0, 0) in seen and (1, 1) in seen
    assert (0, 1) not in seen


def test_qot_open_flip_always_caught_when_tested():
    params = QotParams(6, 2, 2)
    adv = AdversaryModel(kind="open-flip", flips=(1, 2, 3, 4, 5, 6))
    for seed in range(10):
        transcript, k0, k1, bob, _ = simulate_qot(params, adv, rng_seed=seed)
        assert k0 is None and k1 is None and bob is None
        kinds = [e["type"] for e in transcript]
        assert "abort" in kinds
        prob = next(e["payload"] for e in transcript if e["type"] == "abort-probability")
        assert prob == 1.0


def _enumeration_catch_oracle(n, k, kind, flips):
    """Exhaustive catch probability over test subsets, basis agreements, and
    guess errors."""
    flips = set(flips)
    total = 0.0
    count = 0
    for t in itertools.combinations(range(1, n + 1), k):
        if kind == "open-flip":
            count += 1
            total += 1.0 if flips & set(t) else 0.0
        elif kind == "commit-flip":
            # enumerate which positions have agreeing bases
            for agree_mask in range(2 ** n):
                count += 1
                caught = any(
                    i in flips and (agree_mask >> (i - 1)) & 1 for i in t
                )
                total += 1.0 if caught else 0.0
        else:  # blind guesses: agreement and wrong-guess masks
            for agree_mask in range(2 ** n):
                for wrong_mask in range(2 ** n):
                    count += 1
                    caught = any(
                        (agree_mask >> (i - 1)) & 1 and (wrong_mask >> (i - 1)) & 1
                        for i in t
                    )
                    total += 1.0 if caught else 0.0
    return total / count


def test_qot_catch_probability_matches_enumeration():
    for n, k, kind, flips in (
        (6, 2, "open-flip", (2, 5)),
        (6, 3, "open-flip", (1,)),
        (5, 2, "commit-flip", (1, 3)),
        (6, 2, "commit-flip", (2, 4, 6)),
        (5, 2, "no-measure", ()),
        (6, 3, "delay-measure", ()),
    ):
        params = QotParams(n, k, 1)
        adv = AdversaryModel(kind=kind, flips=flips)
        got = qot_catch_probability(params, adv)
        want = _enumeration_catch_oracle(n, k, kind, flips)
        assert got == pytest.approx(want, abs=1e-9), (n, k, kind, flips)
    assert qot_catch_probability(QotParams(6, 2, 1), AdversaryModel()) == 0.0


def test_qot_catch_rate_matches_simulation():
    params = QotParams(8, 3, 2)
    for kind, flips in (("open-flip", (2, 6)), ("commit-flip", (1, 4, 7)), ("no-measure", ())):
        adv = AdversaryModel(kind=kind, flips=flips)
        p = qot_catch_probability(params, adv)
        caught = sum(simulate_qot(params, adv, rng_seed=s)[1] is None for s in range(400))
        sigma = math.sqrt(p * (1 - p) / 400)
        assert abs(caught / 400 - p) <= 4 * sigma, kind


def test_qot_delay_measure_learns_both_keys():
    params = QotParams(6, 2, 2)
    adv = AdversaryModel(kind="delay-measure")
    accepted = 0
    for seed in range(60):
        transcript, k0, k1, bob, _ = simulate_qot(params, adv, rng_seed=seed)
        if k0 is None:
            continue
        accepted += 1
        assert bob["key"] == (k0, k1)[bob["c"]]
        assert bob["other_key"] == (k0, k1)[1 - bob["c"]]
    assert accepted >= 10
    with pytest.raises(ValueError, match="n <= 10"):
        simulate_qot(QotParams(12, 2, 2), adv, rng_seed=0)


def test_delay_measure_product_state_equals_the_kron_chain():
    # the stored state of the delay-measure Bob, once built qubit by qubit
    for n in range(1, 7):
        for x in itertools.product((0, 1), repeat=n):
            for theta in itertools.product((0, 1), repeat=n):
                chain = np.ones(1, dtype=complex)
                for i in range(n):
                    qubit = np.zeros(2, dtype=complex)
                    qubit[x[i]] = 1.0
                    chain = np.kron(chain, HADAMARD @ qubit if theta[i] else qubit)
                assert np.array_equal(protocols._product_amps(x, theta), chain), (x, theta)


def test_qot_replay_and_report():
    params = QotParams(8, 2, 3)
    adv = AdversaryModel(kind="commit-flip", flips=(3,))
    a = simulate_qot(params, adv, rng_seed=13)
    b = simulate_qot(params, adv, rng_seed=13)
    assert transcript_to_json(a[0]) == transcript_to_json(b[0])
    assert a[4].transcript_digest == b[4].transcript_digest
    labels = [lab for lab, _ in a[4].bound_terms]
    assert labels == ["privacy-amplification", "sampling", "hoeffding"]
    assert len(a[4].transcript_digest) == 16


def test_qot_commitment_is_digested():
    transcript, _, _, _, _ = simulate_qot(QotParams(8, 2, 3), AdversaryModel(), rng_seed=1)
    commit = next(e for e in transcript if e["type"] == "commit")
    assert isinstance(commit["payload"], str) and len(commit["payload"]) == 16

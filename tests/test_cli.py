"""Command-line behavior: exit codes, report shape, replay determinism."""

import json
import time
from pathlib import Path

import numpy as np
import pytest

import qsample.qsampling
from qsample.cli import RunConfig, main, run
from qsample.quantum import random_density_matrix, random_pure_state, state_to_json


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _result(stdout):
    return json.loads(stdout)["result"]


# ---------------------------------------------------------------------------
# report shape and replay
# ---------------------------------------------------------------------------


def test_eps_class_worked_example(capsys):
    # at delta 0.6 with n = 2, k = 1 no string is within delta of its
    # complement bit, so the error probability is 1
    code, out, _ = _run(capsys, "eps-class", "--kind", "example1", "--n", "2", "--k", "1", "--delta", "0.6")
    assert code == 0
    assert _result(out)["value"] == 1.0


def test_report_embeds_config_and_seed(capsys):
    code, out, _ = _run(capsys, "eps-class", "--kind", "example5", "--n", "4", "--k", "2", "--delta", "0.3", "--seed", "17")
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "eps-class"
    config = report["config"]
    assert config["rng_seed"] == 17
    assert config["params"]["kind"] == "example5"
    assert config["params"]["n"] == 4
    assert config["output_path"] is None


def test_replay_is_byte_identical(capsys):
    argv = ("qkd-sim", "--n", "10", "--k", "3", "--seed", "9")
    code_a, out_a, _ = _run(capsys, *argv)
    code_b, out_b, _ = _run(capsys, *argv)
    assert code_a == code_b == 0
    assert out_a == out_b


def test_different_seed_changes_report(capsys):
    _, out_a, _ = _run(capsys, "qkd-sim", "--n", "10", "--k", "3", "--seed", "9")
    _, out_b, _ = _run(capsys, "qkd-sim", "--n", "10", "--k", "3", "--seed", "10")
    assert out_a != out_b


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = _run(capsys, "tightness", "--n", "3", "--k", "1", "--out", str(target))
    assert code == 0
    assert out == ""
    report = json.loads(target.read_text())
    assert report["config"]["output_path"] == str(target)
    assert report["result"]["tight"]


def test_json_keys_are_sorted(capsys):
    _, out, _ = _run(capsys, "tightness", "--n", "3", "--k", "1")
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_malformed_params_exit_2(capsys):
    # example3 has no sample-size parameter
    code, out, err = _run(capsys, "eps-class", "--kind", "example3", "--n", "4", "--k", "2", "--delta", "0.3")
    assert code == 2
    assert out == ""
    assert "k" in err


def test_qkd_plan_beta_out_of_range_exits_2(capsys):
    code, _, err = _run(capsys, "qkd-plan", "--n", "60", "--k", "15", "--beta", "0.6")
    assert code == 2
    assert "beta" in err


def test_budget_env_exceeded_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("QSAMPLE_BUDGET", "10")
    code, _, err = _run(capsys, "eps-class", "--kind", "example1", "--n", "12", "--k", "3", "--delta", "0.2")
    assert code == 2
    assert "budget" in err


def test_budget_env_gates_the_symmetry_check(capsys, monkeypatch):
    # the symmetric worst case of S_8 is refused by the symmetry check's gate
    monkeypatch.setenv("QSAMPLE_BUDGET", "1000")
    code, _, err = _run(capsys, "eps-quant", "--kind", "example1", "--n", "8", "--k", "2", "--delta", "0.3")
    assert code == 2
    assert "budget" in err


@pytest.mark.parametrize(
    "argv",
    [
        "eps-quant --kind example4 --n 8000 --k 4000 --delta 0.3",
        "eps-class --kind example5 --n 5000 --k 1 --delta 0.3",
    ],
)
def test_cost_past_the_int_string_limit_is_refused_at_once(capsys, monkeypatch, argv):
    # 2^8000 and 2^10000 strings: the cost has thousands of digits
    monkeypatch.delenv("QSAMPLE_BUDGET", raising=False)
    started = time.monotonic()
    code, out, err = _run(capsys, *argv.split())
    assert time.monotonic() - started < 1.0
    assert code == 2 and out == ""
    assert "budget" in err and err.count("\n") == 1


@pytest.mark.parametrize("prefix", [["--d", "0.2"], ["--d", "3"]])
def test_option_prefixes_are_not_abbreviations(capsys, prefix):
    # with prefix matching, --d 0.2 would silently replace the delta written before it
    argv = ["eps-class", "--kind", "example1", "--n", "12", "--k", "6", "--delta", "0.5", *prefix]
    with pytest.raises(SystemExit) as info:
        main(argv)
    captured = capsys.readouterr()
    assert info.value.code == 2
    assert "unrecognized arguments" in captured.err and captured.out == ""


def test_mc_mode_requires_target_string(capsys):
    code, _, err = _run(capsys, "eps-class", "--kind", "example1", "--n", "4", "--k", "1", "--delta", "0.3", "--mc", "--trials", "100")
    assert code == 2
    assert "--q" in err


def test_property_failure_exits_1(capsys, monkeypatch):
    monkeypatch.setattr("qsample.cli.run_verify", lambda quick, rng_seed: {"passed": False, "quick": quick, "checks": []})
    code, out, _ = _run(capsys, "verify", "--quick")
    assert code == 1
    assert json.loads(out)["result"]["passed"] is False


def test_verify_clean_build_exits_0(capsys):
    started = time.monotonic()
    code, out, _ = _run(capsys, "verify", "--quick")
    assert code == 0
    assert time.monotonic() - started < 60
    result = _result(out)
    assert result["passed"] and len(result["checks"]) == 5
    assert all(c["passed"] for c in result["checks"])


# ---------------------------------------------------------------------------
# command results
# ---------------------------------------------------------------------------


def test_eps_class_mc_mode(capsys):
    code, out, _ = _run(
        capsys, "eps-class", "--kind", "example1", "--n", "6", "--k", "2",
        "--delta", "0.25", "--mc", "--q", "010110", "--trials", "500", "--seed", "3",
    )
    assert code == 0
    result = _result(out)
    assert result["mode"] == "monte-carlo"
    assert result["trials"] == 500
    assert 0 <= result["value"] <= 1


def test_eps_quant_default_worst_state_is_tight(capsys):
    code, out, _ = _run(capsys, "eps-quant", "--kind", "example1", "--n", "4", "--k", "2", "--delta", "0.3")
    assert code == 0
    result = _result(out)
    assert result["state_source"] == "symmetric-worst-case"
    assert result["holds"]
    assert abs(result["gap"]) <= 1e-9


def test_eps_quant_reads_state_file(capsys, tmp_path):
    rng = np.random.default_rng(3)
    path = tmp_path / "state.json"
    path.write_text(state_to_json(random_pure_state((2, 2, 2, 2), rng)))
    code, out, _ = _run(capsys, "eps-quant", "--kind", "example1", "--n", "3", "--k", "1", "--delta", "0.3", "--state", str(path))
    assert code == 0
    result = _result(out)
    assert result["state_source"] == "file"
    assert result["holds"]


def test_eps_quant_without_canonical_worst_case_exits_2(capsys):
    # example4 is not symmetric under the full permutation group, so there
    # is no default state to fall back on
    code, _, err = _run(capsys, "eps-quant", "--kind", "example4", "--n", "4", "--k", "2", "--delta", "0.3")
    assert code == 2
    assert "--state" in err


def test_eps_quant_checks_symmetry_once(capsys, monkeypatch):
    # is_g_symmetric and symmetric_worst_state both decide symmetry in
    # _symmetric_orbits, so its calls count every symmetry check
    calls = []
    real = qsample.qsampling._symmetric_orbits

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr("qsample.qsampling._symmetric_orbits", counted)
    code, _, _ = _run(capsys, "eps-quant", "--kind", "example1", "--n", "4", "--k", "2", "--delta", "0.3")
    assert code == 0
    assert len(calls) == 1

    calls.clear()
    code, out, err = _run(capsys, "eps-quant", "--kind", "example4", "--n", "4", "--k", "2", "--delta", "0.3")
    assert (code, out) == (2, "")
    assert err == "error: example4 has no canonical symmetric worst case; provide --state\n"
    assert len(calls) == 1


def test_eps_quant_rejects_density_matrix_file(capsys, tmp_path):
    rng = np.random.default_rng(5)
    path = tmp_path / "rho.json"
    path.write_text(state_to_json(random_density_matrix(4, rng)))
    code, _, err = _run(capsys, "eps-quant", "--kind", "example1", "--n", "2", "--k", "1", "--delta", "0.3", "--state", str(path))
    assert code == 2
    assert "pure state" in err


def test_bounds_grid_and_single_point(capsys):
    code, out, _ = _run(capsys, "bounds", "--kind", "serfling", "--n", "10", "--k", "4")
    assert code == 0
    curve = _result(out)["curve"]
    assert len(curve) == 50
    assert curve[0][0] == 0.01 and curve[-1][0] == 0.5
    assert all(b >= a for (_, a), (_, b) in zip(curve[1:], curve))  # decreasing in delta

    code, out, _ = _run(capsys, "bounds", "--kind", "serfling", "--n", "10", "--k", "4", "--delta", "0.3")
    curve = _result(out)["curve"]
    assert len(curve) == 1 and curve[0][0] == 0.3


def test_bounds_csv_mode(capsys):
    code, out, _ = _run(capsys, "bounds", "--kind", "hoeffding", "--k", "8", "--csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "delta,bound"
    assert len(lines) == 51
    delta, bound = lines[10].split(",")
    assert float(bound) == pytest.approx(2 * np.exp(-2 * float(delta) ** 2 * 8), rel=1e-9)


def test_bounds_side_condition_exits_2(capsys):
    code, _, err = _run(capsys, "bounds", "--kind", "example1-simple", "--n", "4", "--k", "3", "--delta", "0.2")
    assert code == 2
    assert "k <= n/2" in err


def test_lemma2_command(capsys):
    code, out, _ = _run(capsys, "lemma2", "--trials", "10", "--seed", "2")
    assert code == 0
    result = _result(out)
    assert result["holds"] and result["trials"] == 10
    assert result["min_eig"] >= -1e-9


def test_pa_check_command(capsys):
    code, out, _ = _run(capsys, "pa-check", "--n", "3", "--l", "1", "--trials", "5", "--seed", "8")
    assert code == 0
    result = _result(out)
    assert result["holds"] and result["l"] == 1
    assert result["min_margin"] > 0


def test_qkd_plan_reports_plan(capsys):
    code, out, _ = _run(capsys, "qkd-plan", "--n", "60", "--k", "15", "--eps", "1.95")
    assert code == 0
    result = _result(out)
    assert result["l"] == 4
    assert result["feasible"]
    assert result["bound"]["total_bound"] <= 1.95
    assert result["protocol_cap"] == 44
    assert result["rate_threshold"] == pytest.approx(0.11, abs=1e-3)


def test_qkd_plan_csv_rate_curve(capsys):
    code, out, _ = _run(capsys, "qkd-plan", "--csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "phi,rate"
    assert len(lines) == 101
    assert lines[1] == "0,1"


def test_qkd_sim_honest_run(capsys):
    code, out, _ = _run(capsys, "qkd-sim", "--n", "12", "--k", "3", "--seed", "5")
    assert code == 0
    result = _result(out)
    assert result["keys_match"]
    assert result["beta_observed"] == 0.0
    assert result["exact_mode"] is False
    assert len(result["alice_key"]) == 8
    assert [e["phase"] for e in result["transcript"]][0] == "setup"


def test_qkd_sim_exact_mode_flag(capsys):
    code, out, _ = _run(capsys, "qkd-sim", "--n", "3", "--k", "1", "--adversary", "entangling-probe", "--exact", "--seed", "2")
    assert code == 0
    result = _result(out)
    assert result["exact_mode"] is True
    assert 0 <= result["report"]["exact_distance"] <= 1


def test_qkd_sim_exact_too_large_exits_2(capsys):
    code, _, err = _run(capsys, "qkd-sim", "--n", "12", "--k", "3", "--exact")
    assert code == 2
    assert "exact" in err


def test_budget_env_gates_exact_qkd_sim(capsys, monkeypatch):
    monkeypatch.setenv("QSAMPLE_BUDGET", "1000")
    code, _, err = _run(capsys, "qkd-sim", "--n", "6", "--k", "1", "--exact")
    assert code == 2
    assert "budget" in err


def test_default_exact_qkd_sim_at_n7_is_refused_at_once(capsys, monkeypatch):
    # 2^7 bases x 4^7 outcomes x 7 subsets x 2^5 seeds is over the default budget
    monkeypatch.delenv("QSAMPLE_BUDGET", raising=False)
    started = time.monotonic()
    code, _, err = _run(capsys, "qkd-sim", "--n", "7", "--k", "1")
    assert code == 2
    assert "budget" in err
    assert time.monotonic() - started < 5


@pytest.mark.parametrize("command", ["eps-class", "eps-quant"])
def test_example2_exact_exits_2_with_one_line(capsys, command):
    # sampling with replacement has no enumerable (t, s) support
    code, out, err = _run(capsys, command, "--kind", "example2", "--n", "4", "--k", "2", "--delta", "0.3")
    assert code == 2
    assert out == ""
    assert "replacement" in err
    assert "Traceback" not in err and err.count("\n") == 1


def test_qot_sim_honest_run(capsys):
    code, out, _ = _run(capsys, "qot-sim", "--n", "8", "--k", "2", "--l", "3", "--choice", "1", "--seed", "4")
    assert code == 0
    result = _result(out)
    assert result["accepted"]
    assert result["bob_output"]["key"] == result["k1"]
    assert result["catch_probability"] == 0.0


def test_qot_sim_flipped_openings_always_caught(capsys):
    code, out, _ = _run(
        capsys, "qot-sim", "--n", "8", "--k", "2", "--l", "3",
        "--adversary", "open-flip", "--flips", "1,2,3,4,5,6,7,8", "--seed", "4",
    )
    assert code == 0
    result = _result(out)
    assert result["accepted"] is False
    assert result["catch_probability"] == 1.0
    assert result["k0"] is None


# Reports recorded from earlier releases, printed byte for byte: the protocol
# and qkd-plan reports from before the bound grid searches summed their terms
# without building a report per grid point, and the eps-class / eps-quant
# reports from before each strategy's (t, s) law was written once, which pin
# the Monte-Carlo draws of example2, example5 and example6 and the exact
# support of example6 and example5.
GOLDEN = Path(__file__).parent / "golden"
Q100, Q80 = "0110100111" * 10, "01101001" * 10


@pytest.mark.parametrize(
    "name, argv",
    [
        ("qot-sim-honest", "qot-sim --n 10 --k 3 --l 2 --seed 3"),
        ("qot-sim-open-flip", "qot-sim --n 10 --k 3 --l 2 --adversary open-flip --flips 2,5 --seed 7"),
        ("qkd-sim-none", "qkd-sim --n 24 --k 6 --mc --seed 1"),
        ("qkd-sim-entangling-probe", "qkd-sim --n 24 --k 6 --mc --adversary entangling-probe --seed 2"),
        ("qkd-plan-60", "qkd-plan --n 60 --k 15 --eps 1.95"),
        ("qkd-plan-100000", "qkd-plan --n 100000 --k 20000 --m 5000 --beta 0.02 --eps 1e-6"),
        ("qkd-plan-4000", "qkd-plan --n 4000 --k 1000 --m 200 --beta 0.05 --eps 0.5"),
        ("qkd-plan-50000-infeasible", "qkd-plan --n 50000 --k 20000 --beta 0.1 --eps 1e-3"),
        (
            "eps-class-mc-example2",
            f"eps-class --kind example2 --n 100 --k 20 --delta 0.1 --mc --q {Q100} --trials 2000 --seed 4",
        ),
        (
            "eps-class-mc-example5",
            f"eps-class --kind example5 --n 40 --k 10 --delta 0.15 --mc --q {Q80} --trials 2000 --seed 5",
        ),
        (
            "eps-class-mc-example6",
            f"eps-class --kind example6 --n 40 --k 10 --p 0.3 --delta 0.2 --mc --q {Q80} --trials 2000 --seed 6",
        ),
        ("eps-class-example6", "eps-class --kind example6 --n 3 --k 2 --p 0.3 --delta 0.4"),
        ("eps-quant-example5", "eps-quant --kind example5 --n 2 --k 1 --delta 0.6"),
    ],
)
def test_bound_search_reports_are_unchanged(capsys, name, argv):
    code, out, _ = _run(capsys, *argv.split())
    assert code == 0
    assert out == (GOLDEN / f"{name}.json").read_text()


# ---------------------------------------------------------------------------
# RunConfig and run() as a library entry point
# ---------------------------------------------------------------------------


def test_runconfig_rejects_unknown_command():
    with pytest.raises(ValueError, match="unknown command"):
        RunConfig("fold-laundry", {})


def test_runconfig_rejects_non_mapping_params():
    with pytest.raises(ValueError, match="mapping"):
        RunConfig("verify", params=[1, 2])


def test_run_returns_status_and_text():
    config = RunConfig("tightness", {"n": 3, "k": 1, "delta": 0.25})
    status, text = run(config)
    assert status == 0
    report = json.loads(text)
    assert report["result"]["tight"]
    assert run(config) == (status, text)

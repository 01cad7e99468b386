"""Command-line behavior: exit codes, report shape, replay determinism."""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsample.protocols
from qsample.cli import COMMANDS, RunConfig, _indented_json, main, run
from qsample.quantum import random_pure_state, state_to_json


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
    code, out, _ = _run(
        capsys, "eps-class", "--kind", "example5", "--n", "4", "--k", "2", "--delta", "0.3",
        "--mc", "--q", "01100110", "--trials", "50", "--seed", "17",
    )
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


def test_unwritable_out_exits_2_with_one_line(capsys, tmp_path):
    target = tmp_path / "missing" / "report.json"
    code, out, err = _run(capsys, "tightness", "--n", "4", "--k", "2", "--out", str(target))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_json_keys_are_sorted(capsys):
    _, out, _ = _run(capsys, "tightness", "--n", "3", "--k", "1")
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


_JSON_FLOATS = st.floats() | st.sampled_from([-0.0, 5e-324, 1e16, math.inf, -math.inf, math.nan])
_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | _JSON_FLOATS
    | st.text()
    | st.text(st.characters(max_codepoint=0x1F))
)
_JSON_KEYS = st.text() | st.integers(-(2**70), 2**70) | st.booleans() | st.none() | _JSON_FLOATS
_JSON_DATA = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(_JSON_DATA)
def test_report_writer_is_indented_sorted_json(value):
    assert _indented_json(value) == json.dumps(value, indent=2, sort_keys=True)


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(st.integers(-(2**70), 2**70) | st.booleans() | st.floats(allow_nan=False), _JSON_SCALARS, max_size=4)
    | st.dictionaries(_JSON_KEYS, _JSON_SCALARS, max_size=1)
)
def test_report_writer_writes_non_string_keys_as_json(value):
    # json sorts keys as Python compares them, so numbers share a dict and
    # other key types come one at a time
    assert _indented_json(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "value",
    [np.int64(3), np.bool_(True), {1, 2}, [1, (2, b"x")], {"a": {"b": object()}}, {(1, 2): 3}],
    ids=["int64", "bool_", "set", "bytes", "object", "tuple-key"],
)
def test_report_writer_rejects_what_json_rejects(value):
    with pytest.raises(TypeError) as ours:
        _indented_json(value)
    with pytest.raises(TypeError) as theirs:
        json.dumps(value, indent=2, sort_keys=True)
    assert str(ours.value) == str(theirs.value)


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


@pytest.mark.parametrize(
    "argv,message",
    [
        ("--n 10 --k 11 --eps 0.5", "test size must satisfy 1 <= k < n, got k=11, n=10"),
        ("--n 10 --k 0", "test size must satisfy 1 <= k < n, got k=0, n=10"),
        ("--n -5 --k 1", "n must be >= 2, got -5"),
        ("--n 10 --k 2 --m -3", "syndrome length m must be >= 0, got -3"),  # once a protocol_cap of 10
    ],
)
def test_qkd_plan_impossible_sizes_exit_2(capsys, argv, message):
    code, out, err = _run(capsys, "qkd-plan", *argv.split())
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_budget_env_exceeded_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("QSAMPLE_BUDGET", "10")
    code, _, err = _run(capsys, "eps-class", "--kind", "example1", "--n", "12", "--k", "3", "--delta", "0.2")
    assert code == 2
    assert "budget" in err


@pytest.mark.parametrize("value", ["2**30", "1e9", "0", "-5"])
def test_budget_env_that_is_not_a_positive_decimal_exits_2(capsys, monkeypatch, value):
    monkeypatch.setenv("QSAMPLE_BUDGET", value)
    code, out, err = _run(capsys, "eps-class", "--kind", "example1", "--n", "12", "--k", "3", "--delta", "0.2")
    assert code == 2 and out == ""
    assert err.startswith("error: QSAMPLE_BUDGET must be") and err.count("\n") == 1


def test_budget_env_gates_the_pair_class_worst_case(capsys, monkeypatch):
    # example5's symmetric worst case is read from its pair-class rows,
    # charged C(5, 3) + C(4, 3) Pascal steps and 4 * 6 table cells as exact
    # eps_class is, and admitted at that
    argv = ["eps-quant", "--kind", "example5", "--n", "3", "--k", "1", "--delta", "0.3"]
    monkeypatch.setenv("QSAMPLE_BUDGET", "37")
    code, out, err = _run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: exact enumeration needs 38 evaluations, budget is 37; raise QSAMPLE_BUDGET\n"
    monkeypatch.setenv("QSAMPLE_BUDGET", "38")
    assert _run(capsys, *argv)[0] == 0


@pytest.mark.parametrize("command", ["tightness", "eps-quant"])
def test_budget_env_gates_the_counted_worst_case(capsys, monkeypatch, command):
    # example1's worst case is read from its one size class, charged as exact
    # eps_class is: cells of 2 and 6 positions, 3 x 7 count vectors
    argv = [command, "--n", "8", "--k", "2", "--delta", "0.3"] + (["--kind", "example1"] if command == "eps-quant" else [])
    monkeypatch.setenv("QSAMPLE_BUDGET", "20")
    code, out, err = _run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: exact enumeration needs 21 evaluations, budget is 20; raise QSAMPLE_BUDGET\n"
    monkeypatch.setenv("QSAMPLE_BUDGET", "21")
    assert _run(capsys, *argv)[0] == 0


def test_budget_env_gates_the_code_search(capsys, monkeypatch):
    # a code of length 24 - 6 with m = 10 and radius 0.1: 2000 tries of the
    # 1 + 18 error patterns of weight <= 1
    monkeypatch.setenv("QSAMPLE_BUDGET", "1000")
    code, out, err = _run(capsys, "qkd-sim", "--n", "24", "--k", "6", "--m", "10", "--beta", "0.1", "--mc")
    assert code == 2 and out == ""
    assert err == "error: code search needs 38000 evaluations, budget is 1000; raise QSAMPLE_BUDGET\n"


def test_code_ruled_out_by_sphere_packing_exits_2_before_the_budget_gate(capsys, monkeypatch):
    # distance 3 at length 22 - 2 with m = 2 is ruled out: 1 + 20 error
    # patterns cannot have distinct syndromes among 2^2
    monkeypatch.delenv("QSAMPLE_BUDGET", raising=False)
    code, out, err = _run(capsys, "qkd-sim", "--n", "22", "--k", "2", "--m", "2", "--beta", "0.05", "--mc")
    assert code == 2 and out == ""
    assert err == "error: no random code of length 20 with m=2 corrects a 0.05 error fraction\n"


def test_mc_symbol_outside_the_alphabet_exits_2(capsys):
    argv = ["eps-class", "--kind", "example1", "--n", "3", "--k", "2", "--delta", "0.2", "--mc", "--trials", "5"]
    code, out, err = _run(capsys, *argv, "--q", "012")
    assert code == 2 and out == ""
    assert err == "error: symbol 2 outside alphabet [0, 2)\n"
    assert _run(capsys, *argv, "--q", "011")[0] == 0


@pytest.mark.parametrize(
    "argv",
    [
        "eps-quant --kind example5 --n 5000 --k 1 --delta 0.3",
        "eps-class --kind example5 --n 5000 --k 1 --delta 0.3",
        "eps-class --kind example6 --n 5000 --k 2 --p 0.3 --delta 0.3",
    ],
)
def test_cost_past_the_int_string_limit_is_refused_at_once(capsys, monkeypatch, argv):
    # 2^10000 strings: the cost has thousands of digits (example5's pair
    # classes, read by eps-quant's worst case and eps-class alike, cost
    # about n^3 / 3 steps, refused just as fast)
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


@pytest.mark.parametrize(
    "argv,message",
    [
        ("eps-quant --kind example1 --n 3 --k 1 --delta 0.3 --seed 1", "unrecognized arguments: --seed 1"),
        ("eps-class --kind example1 --n 3 --k 1", "the following arguments are required: --delta"),
        ("eps-class --kind example9 --delta 0.3", "argument --kind: invalid choice: 'example9'"),
        ("tightness --n three --k 1", "argument --n: invalid int value: 'three'"),
        ("", "the following arguments are required: command"),
    ],
)
def test_argparse_refusals_are_one_error_line(capsys, argv, message):
    # argparse's own refusals read like main's: no usage line before them
    with pytest.raises(SystemExit) as info:
        main(argv.split())
    captured = capsys.readouterr()
    assert info.value.code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1


def test_mc_mode_requires_target_string(capsys):
    code, _, err = _run(capsys, "eps-class", "--kind", "example1", "--n", "4", "--k", "1", "--delta", "0.3", "--mc", "--trials", "100")
    assert code == 2
    assert "--q" in err


@pytest.mark.parametrize(
    "extra",
    [
        ["--q", "0110011001"],
        ["--trials", "5"],
        ["--seed", "17"],
        ["--exact", "--q", "0110011001"],
        ["--exact", "--trials", "5"],
        ["--exact", "--seed", "17"],
    ],
)
def test_mc_inputs_outside_mc_mode_exit_2(capsys, extra):
    # the exact worst case runs over every string and draws nothing, so a
    # --q, --trials or --seed it would ignore (and echo in its config) is
    # refused
    code, out, err = _run(capsys, "eps-class", "--kind", "example1", "--n", "10", "--k", "3", "--delta", "0.1", *extra)
    assert code == 2 and out == ""
    assert err == f"error: {extra[-2]} applies only with --mc\n"


@pytest.mark.parametrize(
    "argv",
    [
        "eps-class --kind example1 --n 4 --k 2 --delta 0.3 --mc --q 0110 --trials 5",
        "qot-sim --n 10 --k 3 --l 2",
        "qkd-sim --n 10 --k 3",
        "lemma2 --n 2 --trials 2",
        "pa-check --n 3 --trials 2",
        "verify --quick",
    ],
)
def test_negative_seed_exits_2_naming_the_option(capsys, argv):
    code, out, err = _run(capsys, *argv.split(), "--seed", "-3")
    assert code == 2 and out == ""
    assert err == "error: --seed must be a non-negative integer, got -3\n"


# the commands that draw, and valid params for each of the others
DRAWING_COMMANDS = ("eps-class", "lemma2", "pa-check", "qkd-sim", "qot-sim", "verify")
DRAWLESS_PARAMS = {
    "eps-quant": {"kind": "example1", "n": 3, "k": 1, "delta": 0.3},
    "bounds": {"kind": "example1-simple", "n": 4, "k": 2},
    "tightness": {"n": 3, "k": 1},
    "qkd-plan": {"n": 100, "k": 10},
}


@pytest.mark.parametrize("command", COMMANDS)
def test_seed_is_offered_by_exactly_the_commands_that_draw(capsys, command):
    assert set(COMMANDS) == set(DRAWING_COMMANDS) | set(DRAWLESS_PARAMS)
    with pytest.raises(SystemExit):
        main([command, "--help"])
    assert ("--seed" in capsys.readouterr().out) == (command in DRAWING_COMMANDS)
    if command in DRAWLESS_PARAMS:
        argv = [part for name, value in DRAWLESS_PARAMS[command].items() for part in (f"--{name}", str(value))]
        with pytest.raises(SystemExit) as info:
            main([command, *argv, "--seed", "1"])
        captured = capsys.readouterr()
        assert info.value.code == 2 and captured.out == ""
        assert captured.err == "error: unrecognized arguments: --seed 1\n"


@pytest.mark.parametrize("command", DRAWLESS_PARAMS)
def test_runconfig_refuses_a_seed_where_nothing_draws(command):
    # the library entry point echoes rng_seed as the CLI does
    params = DRAWLESS_PARAMS[command]
    with pytest.raises(ValueError, match=f"^--seed does not apply to {command}, which draws nothing$"):
        RunConfig(command, params, rng_seed=5)
    assert run(RunConfig(command, params))[0] == 0


def test_property_failure_exits_1(capsys, monkeypatch):
    monkeypatch.setattr("qsample.verify.run_verify", lambda quick, rng_seed: {"passed": False, "quick": quick, "checks": []})
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


def test_eps_quant_never_runs_the_dense_symmetry_check(capsys, monkeypatch):
    # without --state, a law of one orbit is answered from its exact failure
    # rows and any other kind is refused by name; neither decides symmetry
    # over the d^L strings
    monkeypatch.setattr("qsample.qsampling._symmetric_orbits", lambda *a, **kw: pytest.fail("dense symmetry check"))
    refused = "error: {} has no canonical symmetric worst case; provide --state\n"
    for argv, code, err in [
        ("--kind example1 --n 4 --k 2", 0, ""),
        ("--kind example2 --n 4 --k 2", 2, "error: sampling with replacement has no enumerable (t, s) support; "
         "use eps_class_mc per string\n"),
        ("--kind example3 --n 4", 2, refused.format("example3")),
        ("--kind example4 --n 4 --k 2", 2, refused.format("example4")),
        ("--kind example5 --n 3 --k 2", 0, ""),
        ("--kind example6 --n 2 --k 2 --p 0.3", 2, refused.format("example6")),
        ("--kind example6 --n 1 --k 2 --p 0.5", 0, ""),
    ]:
        status, out, stderr = _run(capsys, "eps-quant", *argv.split(), "--delta", "0.3")
        assert (status, stderr) == (code, err)
        assert (out != "") == (code == 0)


def test_eps_quant_refuses_a_kind_of_several_orbits_at_once(capsys, monkeypatch):
    # the dense symmetry check was charged 2^12 x (C(12, 6) 2^6 + 2) =
    # 242229248 evaluations here, within the default budget: at about 70 B
    # per cell, some 17 GB
    monkeypatch.delenv("QSAMPLE_BUDGET", raising=False)
    started = time.monotonic()
    code, out, err = _run(capsys, "eps-quant", "--kind", "example4", "--n", "12", "--k", "6", "--delta", "0.3")
    assert time.monotonic() - started < 1.0
    assert (code, out) == (2, "")
    assert err == "error: example4 has no canonical symmetric worst case; provide --state\n"


@pytest.mark.parametrize("command", ["eps-class", "eps-quant"])
def test_selection_bias_on_a_kind_without_one_exits_2(capsys, command):
    code, out, err = _run(capsys, command, "--kind", "example1", "--n", "5", "--k", "2", "--p", "0.3", "--delta", "0.3")
    assert (code, out) == (2, "")
    assert err == "error: example1 takes no selection bias p\n"


def test_eps_quant_rejects_density_matrix_file(capsys, tmp_path, random_density_matrix):
    rng = np.random.default_rng(5)
    path = tmp_path / "rho.json"
    path.write_text(state_to_json(random_density_matrix(4, rng)))
    code, _, err = _run(capsys, "eps-quant", "--kind", "example1", "--n", "2", "--k", "1", "--delta", "0.3", "--state", str(path))
    assert code == 2
    assert "pure state" in err


@pytest.mark.parametrize("text", ['{"type": "pure"}', "[1, 2]"])
def test_eps_quant_malformed_state_file_exits_2(capsys, tmp_path, text):
    # a malformed input is a usage error (2), not a failed check (1)
    path = tmp_path / "state.json"
    path.write_text(text)
    code, out, err = _run(capsys, "eps-quant", "--kind", "example1", "--n", "2", "--k", "1", "--delta", "0.3", "--state", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


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


@pytest.mark.parametrize(
    "argv",
    [
        "bounds --kind hoeffding --k 10 --delta nan",  # once a curve of [NaN, NaN]
        "bounds --kind example1-simple --n 10 --k 3 --delta inf",  # once a bound of 0.0
    ],
)
def test_bounds_non_finite_delta_exits_2(capsys, argv):
    code, out, err = _run(capsys, *argv.split())
    assert code == 2 and out == ""
    assert err.startswith("error: delta must be finite") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        "qkd-plan --n 4000 --k 1000 --m 200 --beta 0.05 --eps inf",  # once an OverflowError traceback, exit 1
        "qkd-plan --n 4000 --k 1000 --m 200 --beta 0.05 --eps nan",  # once refused only by a failed float-to-int
    ],
)
def test_qkd_plan_non_finite_target_exits_2(capsys, argv):
    code, out, err = _run(capsys, *argv.split())
    assert code == 2 and out == ""
    assert err.startswith("error: eps_target must be positive and finite") and err.count("\n") == 1


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


@pytest.mark.parametrize("seed", range(4))
def test_pa_check_one_input_bit_draws_one_output_bit(capsys, seed):
    # the default output length is drawn from 1..min(2, n), so n = 1 never
    # asks for more output bits than input bits
    code, out, err = _run(capsys, "pa-check", "--n", "1", "--trials", "5", "--seed", str(seed))
    assert code == 0, err
    result = _result(out)
    assert result["holds"] and result["l"] is None and result["n"] == 1


def test_pa_check_refuses_zero_input_bits(capsys):
    code, _, err = _run(capsys, "pa-check", "--n", "0", "--trials", "1")
    assert code == 2
    assert "input_bits must be >= 1, got 0" in err


def test_pa_check_refuses_too_many_input_bits_before_building_states(capsys):
    # the limit of the exact check, read before 2^16 states are built
    started = time.monotonic()
    code, _, err = _run(capsys, "pa-check", "--n", "16", "--trials", "1")
    assert code == 2
    assert "exact check supports at most 6 input bits, got 16" in err
    assert time.monotonic() - started < 1.0


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


PROTOCOL_GOLDENS = {
    "qkd-sim-none": "qkd-sim --n 24 --k 6 --mc --seed 1",
    "qkd-sim-entangling-probe": "qkd-sim --n 24 --k 6 --mc --adversary entangling-probe --seed 2",
    "qot-sim-honest": "qot-sim --n 10 --k 3 --l 2 --seed 3",
    "qot-sim-open-flip": "qot-sim --n 10 --k 3 --l 2 --adversary open-flip --flips 2,5 --seed 7",
}


def test_protocol_goldens_hold_in_a_warm_process(capsys):
    # the bound optima are memoised per parameter set: a run that finds its
    # optimum in the memo, after the other three have run, must print the
    # same bytes as a cold one
    qsample.protocols._qot_best.cache_clear()
    qsample.protocols._best_qkd_terms.cache_clear()
    for _ in range(2):  # cold, then warm
        for name, argv in PROTOCOL_GOLDENS.items():
            code, out, _ = _run(capsys, *argv.split())
            assert code == 0
            assert out == (GOLDEN / f"{name}.json").read_text()
    assert qsample.protocols._qot_best.cache_info().hits >= 2
    assert qsample.protocols._best_qkd_terms.cache_info().hits >= 2


def test_keys_past_bit_64_are_hashed(capsys):
    # key bits from 64 on must be hashed too: int64 key weights leave them at zero
    code, out, _ = _run(capsys, "qkd-sim", "--n", "400", "--k", "40", "--mc", "--seed", "1")
    result = _result(out)
    assert code == 0 and result["keys_match"]
    key = result["alice_key"]
    assert len(key) == 359
    assert 100 < sum(key[64:]) < 195


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


# each command's options on the command line, and as RunConfig params
ARGV_AND_PARAMS = [
    ("eps-class --kind example1 --n 4 --k 2 --delta 0.3", {"kind": "example1", "n": 4, "k": 2, "delta": 0.3}, 0),
    (
        "eps-class --kind example5 --n 3 --k 1 --delta 0.2 --mc --q 011001 --trials 40 --seed 3",
        {"kind": "example5", "n": 3, "k": 1, "delta": 0.2, "mode": "mc", "q": "011001", "trials": 40},
        3,
    ),
    ("eps-quant --kind example1 --n 3 --k 1 --delta 0.3", {"kind": "example1", "n": 3, "k": 1, "delta": 0.3}, 0),
    ("bounds --kind serfling --n 10 --k 4", {"kind": "serfling", "n": 10, "k": 4}, 0),
    ("bounds --kind hoeffding --k 8 --csv", {"kind": "hoeffding", "k": 8, "csv": True}, 0),
    ("tightness --n 3 --k 1", {"n": 3, "k": 1}, 0),
    ("lemma2 --seed 2", {}, 2),
    ("pa-check --trials 3 --seed 8", {"trials": 3}, 8),
    ("qkd-plan --n 60 --k 15 --eps 1.95", {"n": 60, "k": 15, "eps": 1.95}, 0),
    ("qkd-plan --csv", {"csv": True}, 0),
    ("qkd-sim --n 10 --k 3 --seed 9", {"n": 10, "k": 3}, 9),
    (
        "qkd-sim --n 24 --k 6 --adversary intercept-resend --mc --seed 12",
        {"n": 24, "k": 6, "adversary": "intercept-resend", "mode": "mc"},
        12,
    ),
    ("qot-sim --n 10 --k 3 --l 2 --seed 11", {"n": 10, "k": 3, "l": 2}, 11),
    (
        "qot-sim --n 10 --k 3 --l 2 --adversary open-flip --flips 2,5 --seed 7",
        {"n": 10, "k": 3, "l": 2, "adversary": "open-flip", "flips": "2,5"},
        7,
    ),
    ("verify", {}, 0),
    ("verify --quick --seed 4", {"quick": True}, 4),
]


@pytest.mark.parametrize("argv, params, seed", ARGV_AND_PARAMS, ids=[case[0] for case in ARGV_AND_PARAMS])
def test_run_prints_what_the_command_line_prints(capsys, monkeypatch, argv, params, seed):
    # an omitted parameter takes the command line's default, in the result
    # and in the echoed config alike
    assert {case[0].split()[0] for case in ARGV_AND_PARAMS} == set(COMMANDS)
    monkeypatch.setattr("qsample.verify.run_verify", lambda quick, rng_seed: {"passed": True, "quick": quick, "checks": []})
    code, out, err = _run(capsys, *argv.split())
    assert (code, err) == (0, "")
    assert run(RunConfig(argv.split()[0], params, rng_seed=seed)) == (0, out)


@pytest.mark.parametrize(
    "command, params, name",
    [
        ("qkd-sim", {"n": 10, "k": 2, "adversry": "intercept-resend", "mode": "mc"}, "adversry"),
        ("lemma2", {"trails": 5}, "trails"),
        ("tightness", {"n": 3, "k": 1, "seed": 4}, "seed"),
    ],
)
def test_runconfig_refuses_a_parameter_its_command_does_not_declare(command, params, name):
    with pytest.raises(ValueError, match=f"^unknown parameter '{name}' for {command}$"):
        RunConfig(command, params)


def test_runconfig_refuses_a_missing_required_parameter():
    with pytest.raises(ValueError, match="^--l is required for this command$"):
        RunConfig("qot-sim", {"n": 10, "k": 3})


@pytest.mark.parametrize(
    "command, kind", [("qkd-sim", "open-flip"), ("qkd-sim", "custom-unitary"), ("qot-sim", "intercept-resend")]
)
def test_run_refuses_an_adversary_its_protocol_lacks_by_name(command, kind):
    # the command line offers neither, so RunConfig refuses them by name
    params = {"n": 10, "k": 3, "adversary": kind, **({"l": 2} if command == "qot-sim" else {"mode": "mc"})}
    with pytest.raises(ValueError, match=kind):
        run(RunConfig(command, params))


def test_run_refuses_an_unknown_bound_kind_by_name():
    with pytest.raises(ValueError, match="^unknown bound kind 'chernoff'"):
        run(RunConfig("bounds", {"kind": "chernoff", "k": 8}))


@pytest.mark.parametrize(
    "command, params, message",
    [
        (
            "qkd-sim",
            {"n": 10, "k": 3, "mode": "MC"},
            "parameter 'mode' for qkd-sim must be one of ('exact', 'mc'), got 'MC'",
        ),
        (
            "qot-sim",
            {"n": 10, "k": 3, "l": 2, "choice": 2},
            "parameter 'choice' for qot-sim must be one of (0, 1), got 2",
        ),
        (
            "qkd-sim",
            {"n": 10, "k": 3, "adversary": "intercept_resend"},
            "parameter 'adversary' for qkd-sim must be one of ('none', 'intercept-resend', 'entangling-probe'), "
            "got 'intercept_resend'",
        ),
    ],
    ids=["mode", "choice", "adversary"],
)
def test_runconfig_refuses_a_value_outside_the_declared_choices(command, params, message):
    # the parser refuses each through argparse; a transcript run echoing
    # "mode": "MC" and a choice_bit error deep in the run were what passed
    with pytest.raises(ValueError) as info:
        RunConfig(command, params)
    assert str(info.value) == message


def test_runconfig_takes_none_as_an_omitted_mode():
    assert RunConfig("qkd-sim", {"n": 10, "k": 3, "mode": None}).params["mode"] is None


def test_flips_that_are_not_integers_exit_2_naming_the_option(capsys):
    code, out, err = _run(capsys, "qot-sim", "--n", "10", "--k", "3", "--l", "2", "--flips", "1,x")
    assert (code, out) == (2, "")
    assert err == "error: expected comma-separated positions for --flips, got '1,x'\n"

"""Command-line front end exposing each analysis as a reproducible batch run.

Every command emits one JSON document that embeds its own configuration and
seed, so rerunning the same invocation reproduces the output byte for byte.
``bounds`` and ``qkd-plan`` also offer a CSV curve mode for plotting.

Each command's options are declared once, in ``_COMMANDS``, for the parser
and ``run(RunConfig(...))`` alike: an omitted parameter takes the command
line's default, and one the command does not declare is refused.

Exit status: 0 on success, 1 when a checked property fails, 2 on a
configuration error (unknown command, malformed or out-of-range parameters,
a --seed where nothing is drawn, an unwritable --out, exceeded enumeration
budget).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Callable, NamedTuple

import numpy as np

from .protocols import (
    _QKD_KINDS,
    _QOT_KINDS,
    AdversaryModel,
    EccModel,
    QkdParams,
    QotParams,
    asymptotic_qkd_rate,
    qkd_bound,
    qkd_key_length,
    qkd_max_len,
    qkd_rate_threshold,
    qot_catch_probability,
    rate_curve_csv,
    security_report_to_dict,
    simulate_qkd,
    simulate_qot,
)
from .qsampling import _symmetric_sqrt_bound, check_sqrt_bound
from .quantum import PureState, state_from_json
from .sampling import (
    BOUND_KINDS,
    STRATEGY_KINDS,
    BudgetExceededError,
    analytic_bound,
    eps_class_exact,
    eps_class_mc,
    error_estimate_to_dict,
    make_strategy,
)
from .verify import lemma2_batch, pa_batch, run_verify

__all__ = ["RunConfig", "run", "main"]

_INF = float("inf")


@dataclass(frozen=True)
class RunConfig:
    """One batch run: a command, its parameters, a seed, and a destination.

    A parameter the command does not declare is refused; an omitted one takes
    the command line's default, so ``run`` reports what the command line would.
    """

    command: str
    params: dict = field(default_factory=dict)
    rng_seed: int = 0
    output_path: str | None = None

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}; expected one of {COMMANDS}")
        if not isinstance(self.params, dict):
            raise ValueError(f"params must be a mapping, got {type(self.params).__name__}")
        object.__setattr__(self, "rng_seed", int(self.rng_seed))
        if self.rng_seed < 0:
            raise ValueError(f"--seed must be a non-negative integer, got {self.rng_seed}")
        # a seed is echoed in the report, so one that nothing draws from is refused
        if self.rng_seed and self.command == "eps-class" and self.params.get("mode") != "mc":
            raise ValueError("--seed applies only with --mc")
        command = _COMMANDS[self.command]
        if self.rng_seed and not command.draws:
            raise ValueError(f"--seed does not apply to {self.command}, which draws nothing")
        for name in self.params:
            if name not in command.options:
                raise ValueError(f"unknown parameter {name!r} for {self.command}")
        for name in _REQUIRED[self.command]:
            _require(self.params, name)
        object.__setattr__(self, "params", {**_DEFAULTS[self.command], **self.params})


# ---------------------------------------------------------------------------
# parameter plumbing
# ---------------------------------------------------------------------------


def _require(params: dict, name: str):
    value = params.get(name)
    if value is None:
        raise ValueError(f"--{name} is required for this command")
    return value


def _strategy_params(params: dict) -> dict:
    # only forward what the caller supplied; each kind rejects extras itself
    casts = (("n", int), ("k", int), ("p", float))
    return {name: cast(params[name]) for name, cast in casts if params.get(name) is not None}


def _parse_symbols(text: str) -> tuple[int, ...]:
    cleaned = text.replace(",", "").replace(" ", "")
    if not cleaned.isdigit():
        raise ValueError(f"expected a digit string for --q, got {text!r}")
    return tuple(int(c) for c in cleaned)


def _parse_flips(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in str(text).split(",") if part != "")
    except ValueError:
        raise ValueError(f"expected comma-separated positions for --flips, got {text!r}") from None


def _load_state(path: str) -> PureState:
    with open(path) as fh:
        state = state_from_json(fh.read())
    if not isinstance(state, PureState):
        raise ValueError("eps-quant requires a pure state")
    return state


def _delta_grid() -> list[float]:
    return [round(0.01 * i, 10) for i in range(1, 51)]


# ---------------------------------------------------------------------------
# command handlers: each returns (exit status, result dict or raw CSV text)
# and reads its parameters with the defaults of _COMMANDS filled in
# ---------------------------------------------------------------------------


def _cmd_eps_class(config: RunConfig):
    p = config.params
    strategy = make_strategy(p["kind"], _strategy_params(p))
    delta = float(p["delta"])
    if p.get("mode") == "mc":
        q = _parse_symbols(_require(p, "q"))
        trials = int(_require(p, "trials"))
        estimate = eps_class_mc(strategy, q, delta, trials, rng_seed=config.rng_seed)
    else:
        for name in ("q", "trials"):
            if p.get(name) is not None:
                raise ValueError(f"--{name} applies only with --mc")
        estimate = eps_class_exact(strategy, delta)
    return 0, error_estimate_to_dict(estimate)


def _cmd_eps_quant(config: RunConfig):
    p = config.params
    strategy = make_strategy(p["kind"], _strategy_params(p))
    delta = float(p["delta"])
    if p.get("state") is not None:
        result = check_sqrt_bound(_load_state(p["state"]), strategy, delta)
        source = "file"
    else:
        result = _symmetric_sqrt_bound(strategy, delta)
        source = "symmetric-worst-case"
    result = {
        "delta": delta,
        "state_source": source,
        "ideal_distance": result["ideal_distance"],
        "sqrt_eps_class": result["sqrt_eps_class"],
        "gap": result["sqrt_eps_class"] - result["ideal_distance"],
        "holds": result["holds"],
    }
    return (0 if result["holds"] else 1), result


def _cmd_bounds(config: RunConfig):
    p = config.params
    bound_params = _strategy_params(p)
    if p.get("eps") is not None:
        bound_params["eps"] = float(p["eps"])
    if p.get("beta") is not None:
        bound_params["beta"] = float(p["beta"])
    grid = [float(p["delta"])] if p.get("delta") is not None else _delta_grid()
    curve = [[d, analytic_bound(p["kind"], bound_params, d)] for d in grid]
    if p["csv"]:
        lines = ["delta,bound"] + [f"{d:.10g},{v:.10g}" for d, v in curve]
        return 0, "\n".join(lines) + "\n"
    return 0, {"kind": p["kind"], "params": bound_params, "curve": curve}


def _cmd_tightness(config: RunConfig):
    p = config.params
    n, k, delta = int(p["n"]), int(p["k"]), float(p["delta"])
    result = _symmetric_sqrt_bound(make_strategy("example1", {"n": n, "k": k}), delta)
    gap = result["sqrt_eps_class"] - result["ideal_distance"]
    tight = abs(gap) <= 1e-9
    result = {
        "n": n,
        "k": k,
        "delta": delta,
        "ideal_distance": result["ideal_distance"],
        "sqrt_eps_class": result["sqrt_eps_class"],
        "gap": gap,
        "tight": tight,
    }
    return (0 if tight else 1), result


def _cmd_lemma2(config: RunConfig):
    p = config.params
    rng = np.random.default_rng(config.rng_seed)
    batch = lemma2_batch(int(p["trials"]), int(p["n"]), rng)
    return (0 if batch["holds"] else 1), batch


def _cmd_pa_check(config: RunConfig):
    p = config.params
    n = int(p["n"])
    l = None if p.get("l") is None else int(p["l"])
    rng = np.random.default_rng(config.rng_seed)
    batch = pa_batch(int(p["trials"]), n, l, rng)
    result = {"n": n, "l": l, **batch}
    return (0 if batch["holds"] else 1), result


def _cmd_qkd_plan(config: RunConfig):
    p = config.params
    if p["csv"]:
        return 0, rate_curve_csv([i * 0.005 for i in range(100)])
    n = int(_require(p, "n"))
    k = int(_require(p, "k"))
    m, beta, eps_target = int(p["m"]), float(p["beta"]), float(p["eps"])
    l, delta = qkd_max_len(n, k, m, beta, eps_target)
    report = qkd_bound(n, k, m, l, beta, delta)
    result = {
        "n": n,
        "k": k,
        "m": m,
        "beta": beta,
        "eps_target": eps_target,
        "l": l,
        "delta": delta,
        "bound": security_report_to_dict(report),
        "feasible": report.total_bound <= eps_target,
        "protocol_cap": qkd_key_length(n, k, m, beta),
        "asymptotic_rate": asymptotic_qkd_rate(beta),
        "rate_threshold": qkd_rate_threshold(),
    }
    return 0, result


def _cmd_qkd_sim(config: RunConfig):
    p = config.params
    n, k, m = int(p["n"]), int(p["k"]), int(p["m"])
    radius, noise, kind = float(p["beta"]), float(p["p"]), p["adversary"]
    exact = None if p.get("mode") is None else p["mode"] == "exact"
    params = QkdParams(n, k, EccModel(m, radius))
    adversary = AdversaryModel(kind=kind, noise=noise)
    transcript, alice, bob, report = simulate_qkd(params, adversary, rng_seed=config.rng_seed, exact=exact)
    beta_observed = next(e["payload"] for e in transcript if e["type"] == "beta")
    result = {
        "n": n,
        "k": k,
        "m": m,
        "radius": radius,
        "adversary": kind,
        "noise": noise,
        "exact_mode": report.exact_distance is not None,
        "alice_key": alice,
        "bob_key": bob,
        "keys_match": alice is not None and alice == bob,
        "beta_observed": beta_observed,
        "report": security_report_to_dict(report),
        "transcript": transcript,
    }
    return 0, result


def _cmd_qot_sim(config: RunConfig):
    p = config.params
    n, k, l, kind = int(p["n"]), int(p["k"]), int(p["l"]), p["adversary"]
    flips = () if p.get("flips") is None else _parse_flips(p["flips"])
    params = QotParams(n, k, l)
    bob = AdversaryModel(kind=kind, flips=flips, choice_bit=int(p["choice"]))
    transcript, k0, k1, bob_output, report = simulate_qot(params, bob, rng_seed=config.rng_seed)
    result = {
        "n": n,
        "k": k,
        "l": l,
        "adversary": kind,
        "flips": list(flips),
        "choice": bob.choice_bit,
        "accepted": k0 is not None,
        "k0": k0,
        "k1": k1,
        "bob_output": bob_output,
        "catch_probability": qot_catch_probability(params, bob),
        "report": security_report_to_dict(report),
        "transcript": transcript,
    }
    return 0, result


def _cmd_verify(config: RunConfig):
    result = run_verify(quick=bool(config.params["quick"]), rng_seed=config.rng_seed)
    return (0 if result["passed"] else 1), result


# ---------------------------------------------------------------------------
# the commands: each option is declared once, here, for the parser and for
# RunConfig alike
# ---------------------------------------------------------------------------


class _Command(NamedTuple):
    help: str
    handler: Callable
    draws: bool  # offers --seed
    options: dict  # name -> add_argument keywords; "mode" -> help of --exact and --mc


def _strategy_options(kinds: tuple, **delta) -> dict:
    numbers = dict(n=dict(type=int), k=dict(type=int), p=dict(type=float))
    return dict(kind=dict(required=True, choices=kinds), **numbers, delta=dict(type=float, **delta))


_REQUIRED_INT = dict(type=int, required=True)

_COMMANDS = {
    "eps-class": _Command("classical error probability of a sampling strategy", _cmd_eps_class, True, dict(
        **_strategy_options(STRATEGY_KINDS, required=True),
        mode=dict(exact="exhaustive worst-case maximization (default)", mc="Monte-Carlo estimate for one input"),
        q=dict(help="input string for --mc, e.g. 0110"),
        trials=dict(type=int, help="Monte-Carlo trial count"),
    )),
    "eps-quant": _Command("optimal-projection distance versus sqrt(eps_class)", _cmd_eps_quant, False, dict(
        **_strategy_options(STRATEGY_KINDS, required=True),
        state=dict(help="JSON state file; default is the symmetric worst case"),
    )),
    "bounds": _Command("closed-form error-probability bounds over a delta grid", _cmd_bounds, False, dict(
        **_strategy_options(BOUND_KINDS, help="single point instead of the grid"),
        eps=dict(type=float, help="free parameter of the four-term bound"),
        beta=dict(type=float, help="free parameter of the four-term bound"),
        csv=dict(action="store_true", default=False, help="emit delta,bound rows"),
    )),
    "tightness": _Command("worst-case symmetric state meets sqrt(eps_class)", _cmd_tightness, False, dict(
        n=_REQUIRED_INT, k=_REQUIRED_INT, delta=dict(type=float, default=0.3))),
    "lemma2": _Command("randomized batch of counting-operator inequality checks", _cmd_lemma2, True, dict(
        n=dict(type=int, default=3, help="largest population size (default %(default)s)"),
        trials=dict(type=int, default=50),
    )),
    "pa-check": _Command("randomized batch of exact privacy-amplification checks", _cmd_pa_check, True, dict(
        n=dict(type=int, default=4, help="input bits (default %(default)s)"),
        l=dict(type=int, help="output bits; default draws 1 or 2 per trial"),
        trials=dict(type=int, default=20),
    )),
    "qkd-plan": _Command("largest secure key length for given parameters", _cmd_qkd_plan, False, dict(
        n=dict(type=int), k=dict(type=int),
        m=dict(type=int, default=0, help="syndrome bits leaked (default %(default)s)"),
        beta=dict(type=float, default=0.0, help="observed error rate"),
        eps=dict(type=float, default=1e-9, help="security target"),
        csv=dict(action="store_true", default=False, help="emit the phi,rate asymptotic curve"),
    )),
    "qkd-sim": _Command("one run of the entanglement-based key protocol", _cmd_qkd_sim, True, dict(
        n=_REQUIRED_INT, k=_REQUIRED_INT,
        m=dict(type=int, default=0, help="ECC syndrome bits (default %(default)s)"),
        beta=dict(type=float, default=0.0, help="ECC correction radius"),
        p=dict(type=float, default=0.0, help="channel bit-flip probability"),
        # custom-unitary takes a probe unitary, which no option can give
        adversary=dict(choices=tuple(kind for kind in _QKD_KINDS if kind != "custom-unitary"), default="none"),
        mode=dict(exact="force exact key-versus-view distance", mc="force sampled transcript mode"),
    )),
    "qot-sim": _Command("one run of the commit-and-open transfer protocol", _cmd_qot_sim, True, dict(
        n=_REQUIRED_INT, k=_REQUIRED_INT, l=_REQUIRED_INT,
        adversary=dict(choices=_QOT_KINDS, default="none"),
        flips=dict(help="positions the adversary lies about, e.g. 1,3"),
        choice=dict(type=int, choices=(0, 1), default=0),
    )),
    "verify": _Command("run the property suite", _cmd_verify, True, dict(
        quick=dict(action="store_true", default=False, help="reduced sizes, finishes in seconds"),
    )),
}

COMMANDS = tuple(_COMMANDS)
_DEFAULTS = {name: {o: s["default"] for o, s in c.options.items() if "default" in s} for name, c in _COMMANDS.items()}
_REQUIRED = {name: [o for o, s in c.options.items() if s.get("required")] for name, c in _COMMANDS.items()}


def run(config: RunConfig) -> tuple[int, str]:
    """Execute one configured command; returns (exit status, report text).

    CSV-mode commands return the raw curve; everything else returns a JSON
    document {"command", "config", "result"} with sorted keys.
    """
    status, payload = _COMMANDS[config.command].handler(config)
    if isinstance(payload, str):
        return status, payload
    report = {
        "command": config.command,
        "config": {
            "command": config.command,
            "params": config.params,
            "rng_seed": config.rng_seed,
            "output_path": config.output_path,
        },
        "result": payload,
    }
    return status, _indented_json(report) + "\n"


# ---------------------------------------------------------------------------
# report text
# ---------------------------------------------------------------------------


def _float_text(value: float) -> str:
    if value != value:
        return "NaN"
    if value == _INF:
        return "Infinity"
    if value == -_INF:
        return "-Infinity"
    return float.__repr__(value)


def _key_text(key) -> str:
    """A dict key that is not a str, as json writes it."""
    if isinstance(key, float):
        return '"' + _float_text(key) + '"'
    if key is True or key is False or key is None:
        return '"' + _indented_json(key) + '"'
    if isinstance(key, int):
        return '"' + int.__repr__(key) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _indented_json(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte.

    json's C encoder does not indent, so json.dumps with an indent runs its
    pure-Python encoder; on protocol reports this writer makes the same text
    in about 60% of that time.  As there, tuples are written as lists,
    floats by ``float.__repr__`` with NaN and infinities as NaN, Infinity and
    -Infinity, and any other type raises TypeError.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_text(value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if all(type(v) is int for v in value):  # transcript bit rows
            items = map(int.__repr__, value)
        else:
            items = [_indented_json(v, inner) for v in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            (encode_basestring_ascii(k) if isinstance(k, str) else _key_text(k)) + ": " + _indented_json(v, inner)
            for k, v in sorted(value.items())
        ]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose refusals (an unknown option, a missing one, a
    bad choice or value) print one line, ``error: ...``, and exit 2, as every
    refusal :func:`main` makes; its subcommand parsers are of this class."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qsample",
        description="Sampling-strategy error probabilities, quantum sampling bounds, "
        "and desk-scale protocol simulations with reproducible JSON output.",
        allow_abbrev=False,  # a prefix such as --d would silently stand for --delta
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, command in _COMMANDS.items():
        cmd = sub.add_parser(name, help=command.help, allow_abbrev=False)
        if command.draws:
            cmd.add_argument("--seed", type=int, default=0, help="RNG seed (default %(default)s)")
        cmd.add_argument("--out", default=None, help="write the report here instead of stdout")
        for option, spec in command.options.items():
            if option == "mode":  # one mutually exclusive pair
                group = cmd.add_mutually_exclusive_group()
                for const, help_text in spec.items():
                    group.add_argument(f"--{const}", dest="mode", action="store_const", const=const, help=help_text)
            else:
                cmd.add_argument(f"--{option}", **spec)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    params = {
        name: value
        for name, value in vars(args).items()
        if name not in ("command", "seed", "out") and value is not None
    }
    try:
        config = RunConfig(
            args.command,
            params,
            rng_seed=getattr(args, "seed", 0),
            output_path=args.out,
        )
        status, text = run(config)
        if config.output_path is not None:
            with open(config.output_path, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (BudgetExceededError, NotImplementedError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())

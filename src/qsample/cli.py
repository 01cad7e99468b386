"""Command-line front end exposing each analysis as a reproducible batch run.

Every command emits one JSON document that embeds its own configuration and
seed, so rerunning the same invocation reproduces the output byte for byte.
``bounds`` and ``qkd-plan`` also offer a CSV curve mode for plotting.

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

import numpy as np

from .protocols import (
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

COMMANDS = (
    "eps-class",
    "eps-quant",
    "bounds",
    "tightness",
    "lemma2",
    "pa-check",
    "qkd-plan",
    "qkd-sim",
    "qot-sim",
    "verify",
)

CLI_ADVERSARIES = ("none", "intercept-resend", "entangling-probe")
CLI_BOB_KINDS = ("none", "commit-flip", "open-flip", "no-measure", "delay-measure")

_INF = float("inf")


@dataclass(frozen=True)
class RunConfig:
    """One batch run: a command, its parameters, a seed, and a destination."""

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
        if self.rng_seed and self.command in ("eps-quant", "bounds", "tightness", "qkd-plan"):
            raise ValueError(f"--seed does not apply to {self.command}, which draws nothing")


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
    out = {}
    if params.get("n") is not None:
        out["n"] = int(params["n"])
    if params.get("k") is not None:
        out["k"] = int(params["k"])
    if params.get("p") is not None:
        out["p"] = float(params["p"])
    return out


def _parse_symbols(text: str) -> tuple[int, ...]:
    cleaned = text.replace(",", "").replace(" ", "")
    if not cleaned.isdigit():
        raise ValueError(f"expected a digit string for --q, got {text!r}")
    return tuple(int(c) for c in cleaned)


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
# ---------------------------------------------------------------------------


def _cmd_eps_class(config: RunConfig):
    p = config.params
    strategy = make_strategy(_require(p, "kind"), _strategy_params(p))
    delta = float(_require(p, "delta"))
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
    strategy = make_strategy(_require(p, "kind"), _strategy_params(p))
    delta = float(_require(p, "delta"))
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
    kind = _require(p, "kind")
    if kind not in BOUND_KINDS:
        raise ValueError(f"unknown bound kind {kind!r}; expected one of {BOUND_KINDS}")
    bound_params = _strategy_params(p)
    if p.get("eps") is not None:
        bound_params["eps"] = float(p["eps"])
    if p.get("beta") is not None:
        bound_params["beta"] = float(p["beta"])
    grid = [float(p["delta"])] if p.get("delta") is not None else _delta_grid()
    curve = [[d, analytic_bound(kind, bound_params, d)] for d in grid]
    if p.get("csv"):
        lines = ["delta,bound"] + [f"{d:.10g},{v:.10g}" for d, v in curve]
        return 0, "\n".join(lines) + "\n"
    return 0, {"kind": kind, "params": bound_params, "curve": curve}


def _cmd_tightness(config: RunConfig):
    p = config.params
    n = int(_require(p, "n"))
    k = int(_require(p, "k"))
    delta = float(p.get("delta", 0.3))
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
    batch = lemma2_batch(int(p.get("trials", 50)), int(p.get("n", 3)), rng)
    return (0 if batch["holds"] else 1), batch


def _cmd_pa_check(config: RunConfig):
    p = config.params
    n = int(p.get("n", 4))
    l = None if p.get("l") is None else int(p["l"])
    rng = np.random.default_rng(config.rng_seed)
    batch = pa_batch(int(p.get("trials", 20)), n, l, rng)
    result = {"n": n, "l": l, **batch}
    return (0 if batch["holds"] else 1), result


def _cmd_qkd_plan(config: RunConfig):
    p = config.params
    if p.get("csv"):
        return 0, rate_curve_csv([i * 0.005 for i in range(100)])
    n = int(_require(p, "n"))
    k = int(_require(p, "k"))
    m = int(p.get("m", 0))
    beta = float(p.get("beta", 0.0))
    eps_target = float(p.get("eps", 1e-9))
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
    n = int(_require(p, "n"))
    k = int(_require(p, "k"))
    m = int(p.get("m", 0))
    radius = float(p.get("beta", 0.0))
    noise = float(p.get("p", 0.0))
    kind = p.get("adversary", "none")
    if kind not in CLI_ADVERSARIES:
        raise ValueError(f"unknown adversary {kind!r}; expected one of {CLI_ADVERSARIES}")
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
    n = int(_require(p, "n"))
    k = int(_require(p, "k"))
    l = int(_require(p, "l"))
    kind = p.get("adversary", "none")
    if kind not in CLI_BOB_KINDS:
        raise ValueError(f"unknown adversary {kind!r}; expected one of {CLI_BOB_KINDS}")
    flips = ()
    if p.get("flips") is not None:
        flips = tuple(int(part) for part in str(p["flips"]).split(",") if part != "")
    params = QotParams(n, k, l)
    bob = AdversaryModel(kind=kind, flips=flips, choice_bit=int(p.get("choice", 0)))
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
    result = run_verify(quick=bool(config.params.get("quick")), rng_seed=config.rng_seed)
    return (0 if result["passed"] else 1), result


_HANDLERS = {
    "eps-class": _cmd_eps_class,
    "eps-quant": _cmd_eps_quant,
    "bounds": _cmd_bounds,
    "tightness": _cmd_tightness,
    "lemma2": _cmd_lemma2,
    "pa-check": _cmd_pa_check,
    "qkd-plan": _cmd_qkd_plan,
    "qkd-sim": _cmd_qkd_sim,
    "qot-sim": _cmd_qot_sim,
    "verify": _cmd_verify,
}


def run(config: RunConfig) -> tuple[int, str]:
    """Execute one configured command; returns (exit status, report text).

    CSV-mode commands return the raw curve; everything else returns a JSON
    document {"command", "config", "result"} with sorted keys.
    """
    status, payload = _HANDLERS[config.command](config)
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

    def new(name: str, help_text: str, seed: bool = True) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, help=help_text, allow_abbrev=False)
        if seed:
            cmd.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
        cmd.add_argument("--out", default=None, help="write the report here instead of stdout")
        return cmd

    def mode_group(cmd: argparse.ArgumentParser, exact_help: str, mc_help: str) -> None:
        group = cmd.add_mutually_exclusive_group()
        group.add_argument("--exact", dest="mode", action="store_const", const="exact", help=exact_help)
        group.add_argument("--mc", dest="mode", action="store_const", const="mc", help=mc_help)

    cmd = new("eps-class", "classical error probability of a sampling strategy")
    cmd.add_argument("--kind", required=True, choices=STRATEGY_KINDS)
    cmd.add_argument("--n", type=int)
    cmd.add_argument("--k", type=int)
    cmd.add_argument("--p", type=float)
    cmd.add_argument("--delta", type=float, required=True)
    mode_group(cmd, "exhaustive worst-case maximization (default)", "Monte-Carlo estimate for one input")
    cmd.add_argument("--q", help="input string for --mc, e.g. 0110")
    cmd.add_argument("--trials", type=int, help="Monte-Carlo trial count")

    cmd = new("eps-quant", "optimal-projection distance versus sqrt(eps_class)", seed=False)
    cmd.add_argument("--kind", required=True, choices=STRATEGY_KINDS)
    cmd.add_argument("--n", type=int)
    cmd.add_argument("--k", type=int)
    cmd.add_argument("--p", type=float)
    cmd.add_argument("--delta", type=float, required=True)
    cmd.add_argument("--state", help="JSON state file; default is the symmetric worst case")

    cmd = new("bounds", "closed-form error-probability bounds over a delta grid", seed=False)
    cmd.add_argument("--kind", required=True, choices=BOUND_KINDS)
    cmd.add_argument("--n", type=int)
    cmd.add_argument("--k", type=int)
    cmd.add_argument("--p", type=float)
    cmd.add_argument("--delta", type=float, help="single point instead of the grid")
    cmd.add_argument("--eps", type=float, help="free parameter of the four-term bound")
    cmd.add_argument("--beta", type=float, help="free parameter of the four-term bound")
    cmd.add_argument("--csv", action="store_true", help="emit delta,bound rows")

    cmd = new("tightness", "worst-case symmetric state meets sqrt(eps_class)", seed=False)
    cmd.add_argument("--n", type=int, required=True)
    cmd.add_argument("--k", type=int, required=True)
    cmd.add_argument("--delta", type=float, default=0.3)

    cmd = new("lemma2", "randomized batch of counting-operator inequality checks")
    cmd.add_argument("--n", type=int, default=3, help="largest population size (default 3)")
    cmd.add_argument("--trials", type=int, default=50)

    cmd = new("pa-check", "randomized batch of exact privacy-amplification checks")
    cmd.add_argument("--n", type=int, default=4, help="input bits (default 4)")
    cmd.add_argument("--l", type=int, help="output bits; default draws 1 or 2 per trial")
    cmd.add_argument("--trials", type=int, default=20)

    cmd = new("qkd-plan", "largest secure key length for given parameters", seed=False)
    cmd.add_argument("--n", type=int)
    cmd.add_argument("--k", type=int)
    cmd.add_argument("--m", type=int, default=0, help="syndrome bits leaked (default 0)")
    cmd.add_argument("--beta", type=float, default=0.0, help="observed error rate")
    cmd.add_argument("--eps", type=float, default=1e-9, help="security target")
    cmd.add_argument("--csv", action="store_true", help="emit the phi,rate asymptotic curve")

    cmd = new("qkd-sim", "one run of the entanglement-based key protocol")
    cmd.add_argument("--n", type=int, required=True)
    cmd.add_argument("--k", type=int, required=True)
    cmd.add_argument("--m", type=int, default=0, help="ECC syndrome bits (default 0)")
    cmd.add_argument("--beta", type=float, default=0.0, help="ECC correction radius")
    cmd.add_argument("--p", type=float, default=0.0, help="channel bit-flip probability")
    cmd.add_argument("--adversary", choices=CLI_ADVERSARIES, default="none")
    mode_group(cmd, "force exact key-versus-view distance", "force sampled transcript mode")

    cmd = new("qot-sim", "one run of the commit-and-open transfer protocol")
    cmd.add_argument("--n", type=int, required=True)
    cmd.add_argument("--k", type=int, required=True)
    cmd.add_argument("--l", type=int, required=True)
    cmd.add_argument("--adversary", choices=CLI_BOB_KINDS, default="none")
    cmd.add_argument("--flips", help="positions the adversary lies about, e.g. 1,3")
    cmd.add_argument("--choice", type=int, choices=(0, 1), default=0)

    cmd = new("verify", "run the property suite")
    cmd.add_argument("--quick", action="store_true", help="reduced sizes, finishes in seconds")

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

"""Span tracing of qsample's layers, installed from outside the package.

``Tracer.install`` replaces each traced function with a wrapper in every
``qsample.*`` namespace that binds it, wraps ``SamplingStrategy.ts_support``
on its class and ``numpy.linalg.eigvalsh`` as a module attribute.
``uninstall`` puts the originals back, so traced and untraced passes can
alternate in one process.

Two kinds of boundary are recorded:

* spans: name, start, end, parent span and job id, one record per call;
* hot boundaries, called up to ~1e5 times per run: a call count and summed
  time per (parent span, name), with no record per call.

A span's self time is its duration minus the time of its child spans and
of the hot calls made directly under it.  A layer is the part of a name
before the first dot; ``linalg`` stands for the ``numpy.linalg.eigvalsh``
boundary that every trace-norm computation crosses.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# (metric name, module, attribute); the class method is "Class.method".
SPANS = (
    ("cli.run", "qsample.cli", "run"),
    ("verify.pa_batch", "qsample.verify", "pa_batch"),
    ("sampling.make_strategy", "qsample.sampling", "make_strategy"),
    ("sampling.eps_class_exact", "qsample.sampling", "eps_class_exact"),
    ("sampling.eps_class_mc", "qsample.sampling", "eps_class_mc"),
    ("sampling.error_estimate_to_json", "qsample.sampling", "error_estimate_to_json"),
    ("sampling.ts_support", "qsample.sampling", "SamplingStrategy.ts_support"),
    ("qsampling.check_sqrt_bound", "qsample.qsampling", "check_sqrt_bound"),
    ("qsampling.ideal_distance", "qsample.qsampling", "ideal_distance"),
    ("qsampling.is_g_symmetric", "qsample.qsampling", "is_g_symmetric"),
    ("qsampling.symmetric_worst_state", "qsample.qsampling", "symmetric_worst_state"),
    ("qsampling.symmetric_group", "qsample.qsampling", "symmetric_group"),
    ("qsampling.pair_symmetry_group", "qsample.qsampling", "pair_symmetry_group"),
    ("quantum.state_from_json", "qsample.quantum", "state_from_json"),
    ("quantum.make_epr_pairs", "qsample.quantum", "make_epr_pairs"),
    ("quantum.sample_measurement", "qsample.quantum", "sample_measurement"),
    ("entropy.pa_exact_check", "qsample.entropy", "pa_exact_check"),
    ("protocols.simulate_qkd", "qsample.protocols", "simulate_qkd"),
    ("protocols.simulate_qot", "qsample.protocols", "simulate_qot"),
    ("protocols.qot_bound_optimize", "qsample.protocols", "qot_bound_optimize"),
    ("protocols.qot_catch_probability", "qsample.protocols", "qot_catch_probability"),
    ("protocols.make_linear_code", "qsample.protocols", "make_linear_code"),
    ("protocols.security_report_to_json", "qsample.protocols", "security_report_to_json"),
    ("protocols.transcript_to_json", "qsample.protocols", "transcript_to_json"),
)

HOT = (
    ("sampling.deviation", "qsample.sampling", "deviation"),
    ("quantum.apply_unitary", "qsample.quantum", "apply_unitary"),
    ("entropy.hash_eval", "qsample.entropy", "hash_eval"),
    ("protocols.qkd_bound", "qsample.protocols", "qkd_bound"),
    ("linalg.eigvalsh", "numpy.linalg", "eigvalsh"),
)

LAYERS = ("cli", "verify", "sampling", "qsampling", "quantum", "entropy", "protocols", "linalg")


def _exact_gate(strategy, *args, **kwargs) -> int:
    from qsample.sampling import _candidate_count

    return _candidate_count(strategy) * strategy.support_size()


# The evaluations each budget gate charges, from the arguments of the gated
# call.  eps_class_exact's gate is the package's own function; the other two
# copy the cost expressions in qsample/qsampling.py (``cost = ...`` in
# ideal_distance and in is_g_symmetric) and must follow them.
GATES = {
    "sampling.eps_class_exact": _exact_gate,
    "qsampling.ideal_distance": lambda state, strategy, *a, **kw: strategy.d ** strategy.length
    * (strategy.support_size() + 1),
    "qsampling.is_g_symmetric": lambda strategy, G, *a, **kw: strategy.d ** strategy.length
    * (strategy.support_size() + G.order),
}


def _resolve(module: str, attr: str):
    owner = sys.modules[module]
    if "." in attr:
        cls, attr = attr.split(".")
        owner = getattr(owner, cls)
    return owner, attr


class Tracer:
    """In-memory spans and hot-boundary counters for one run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, job]
        self.hot: dict = defaultdict(lambda: [0, 0.0])  # (parent, name) -> [calls, seconds]
        self.charged = 0  # evaluations charged by budget gates
        self.job = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording --------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        gate = GATES.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1, self.job])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
                if gate is not None:
                    self.charged += gate(*args, **kwargs)

        return traced

    def _hot_wrapper(self, name: str, fn):
        hot, stack, clock = self.hot, self._stack, time.perf_counter

        def counted(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                cell = hot[(stack[-1] if stack else -1, name)]
                cell[0] += 1
                cell[1] += clock() - start

        return counted

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function wherever qsample binds it."""
        if self._patches:
            return
        namespaces = [m for n, m in list(sys.modules.items()) if n == "qsample" or n.startswith("qsample.")]
        for table, make in ((SPANS, self._span_wrapper), (HOT, self._hot_wrapper)):
            for name, module, attr in table:
                owner, short = _resolve(module, attr)
                original = getattr(owner, short)
                wrapper = make(name, original)
                targets = [(owner, short)]
                if owner is sys.modules.get(module):
                    targets += [
                        (ns, key)
                        for ns in namespaces
                        if ns is not owner
                        for key, value in vars(ns).items()
                        if value is original
                    ]
                for target, key in targets:
                    self._patches.append((target, key, original))
                    setattr(target, key, wrapper)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()

    # -- summaries --------------------------------------------------------

    def totals(self) -> tuple[dict, dict]:
        """Per-name (calls, self seconds) and per-layer self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (parent, _), (_, seconds) in self.hot.items():
            if parent >= 0:
                child[parent] += seconds
        calls: dict = defaultdict(int)
        self_s: dict = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
        for (_, name), (count, seconds) in self.hot.items():
            calls[name] += count
            self_s[name] += seconds
        layers = {layer: 0.0 for layer in LAYERS}
        for name, seconds in self_s.items():
            layers[name.split(".")[0]] += seconds
        return {n: (calls[n], self_s[n]) for n in calls}, layers

    def calls_under(self, name: str, ancestors) -> int:
        """Hot calls of ``name`` made anywhere below a span named in ``ancestors``."""
        memo: dict = {}

        def inside(index: int) -> bool:
            path = []
            found = False
            while index >= 0 and index not in memo:
                path.append(index)
                if self.spans[index][0] in ancestors:
                    found = True
                    break
                index = self.spans[index][3]
            if not found and index >= 0:
                found = memo[index]
            for i in path:
                memo[i] = found
            return found

        return sum(c for (parent, n), (c, _) in self.hot.items() if n == name and parent >= 0 and inside(parent))

    def dump(self, path: str, extra: dict) -> None:
        """Write every span and hot counter to ``path`` as JSON."""
        with open(path, "w") as fh:
            json.dump(
                {
                    **extra,
                    "spans": [
                        {"name": n, "start": s, "end": e, "parent": p, "job": j}
                        for n, s, e, p, j in self.spans
                    ],
                    "hot": [
                        {"parent": parent, "name": name, "calls": c, "seconds": t}
                        for (parent, name), (c, t) in self.hot.items()
                    ],
                },
                fh,
            )

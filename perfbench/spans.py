"""Spans around the calls one module of the package makes into another.

The tracer replaces a function where the calling module binds it (for
example ``coverage.quad`` or ``simulate.std_normal_inverse_cdf``) with a
wrapper that records a span: its name, its layer, its duration and the
span that was open when it started. Nothing inside the package changes.
Spans are aggregated in memory per round (calls, total time, time per
parent) and turned into the per-layer metrics by ``layer_metrics``.

A layer's self time is the duration of its spans minus the part covered by
their child spans. A call a module makes into numpy or scipy (``quad``,
Philox's ``random_raw``) gets a span of its own but belongs to the calling
module's layer, so it counts toward that layer's self time.
"""

from __future__ import annotations

import resource
import time
from collections import Counter, defaultdict

import numpy as np

#: Per-layer metrics that are counts; they must repeat exactly round to round.
COUNT_METRICS = (
    "coverage.evals", "coverage.search_evals", "coverage.quad_calls",
    "coverage.quad_neval", "bivariate.rect_calls", "normal.quantile_calls",
    "normal.inverse_cdf_values", "simulate.raw_words",
    "simulate.word_use_ratio", "simulate.chunks",
)

_QUANTILE_SPANS = ("coverage.std_normal_quantile", "simulate.std_normal_quantile",
                   "trial.std_normal_quantile")
_ESTIMATOR_SPANS = ("simulate.pooled_effect_estimate",
                    "simulate.robust_effect_estimate",
                    "simulate.carryover_effect_estimate")
#: Layers whose outermost spans also record getrusage deltas.
_RUSAGE_LAYERS = ("simulate",)


class _Proxy:
    """A module as one caller sees it, with some attributes replaced."""

    def __init__(self, target, **replaced):
        self._target = target
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    """Records spans from wrapped bindings; ``take`` hands over one round."""

    def __init__(self):
        self._stack: list[list] = []  # open spans: [name, layer, start, child_s]
        self._depth: Counter = Counter()
        self._rusage: dict = {}
        self._reset()

    def _reset(self):
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)  # per layer
        self.by_parent: Counter = Counter()  # (parent name, name) -> calls
        self.counts: Counter = Counter()

    def _enter(self, name, layer):
        if layer in _RUSAGE_LAYERS and self._depth[layer] == 0:
            self._rusage[layer] = resource.getrusage(resource.RUSAGE_SELF)
        self._depth[layer] += 1
        parent = self._stack[-1][0] if self._stack else None
        self.by_parent[(parent, name)] += 1
        frame = [name, layer, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame):
        duration = time.perf_counter() - frame[2]
        self._stack.pop()
        name, layer = frame[0], frame[1]
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[layer] += duration - frame[3]
        if self._stack:
            self._stack[-1][3] += duration
        self._depth[layer] -= 1
        if layer in _RUSAGE_LAYERS and self._depth[layer] == 0:
            before = self._rusage.pop(layer)
            after = resource.getrusage(resource.RUSAGE_SELF)
            self.counts[f"{layer}.sys_s"] += after.ru_stime - before.ru_stime
            self.counts[f"{layer}.minor_faults"] += after.ru_minflt - before.ru_minflt

    def wrap(self, owner, attr, layer, *, before=None, after=None):
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``before(counts, args)`` and ``after(counts, result)`` may add to the
        round's counters.
        """
        fn = getattr(owner, attr)
        name = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"

        def wrapper(*args, **kwargs):
            if before is not None:
                before(self.counts, args)
            frame = self._enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if after is not None:
                after(self.counts, result)
            return result

        setattr(owner, attr, wrapper)

    def install(self, package):
        """Wrap the cross-module bindings of the ``crossover_coverage`` package."""
        from crossover_coverage import cli, coverage, simulate, trial

        for attr in ("min_coverage_table", "coverage_curve", "coverage_probability"):
            self.wrap(package, attr, "coverage")
        self.wrap(package, "empirical_coverage", "simulate")

        self.wrap(coverage, "min_coverage", "coverage")
        self.wrap(coverage, "_coverage_value", "coverage")
        self.wrap(coverage, "quad", "coverage",
                  after=lambda c, r: c.update(quad_neval=r[2]["neval"]))
        self.wrap(coverage, "bvn_rectangle", "bivariate")
        self.wrap(coverage, "std_normal_quantile", "normal")

        self.wrap(simulate, "_batch_estimates", "simulate")
        self.wrap(simulate, "std_normal_inverse_cdf", "normal",
                  before=lambda c, a: c.update(inverse_cdf_values=np.size(a[0])))
        self.wrap(simulate, "std_normal_quantile", "normal")
        for attr in _ESTIMATOR_SPANS:
            self.wrap(simulate, attr.split(".", 1)[1], "trial")
        self.wrap(trial, "std_normal_quantile", "normal")
        self._wrap_philox(simulate)

        self.wrap(cli, "reject_cover_routes", "coverage")
        self.wrap(cli, "coverage_probability", "coverage")
        self.wrap(cli, "empirical_coverage", "simulate")
        self.wrap(cli, "estimator_moments", "simulate")

    def _wrap_philox(self, simulate):
        """Give ``simulate`` a Philox whose ``random_raw`` records a span."""
        tracer = self

        class Philox(np.random.Philox):
            def random_raw(self, size=None, output=True):
                tracer.counts["raw_words"] += int(np.prod(size or 1))
                frame = tracer._enter("simulate.random_raw", "simulate")
                try:
                    return super().random_raw(size, output)
                finally:
                    tracer._exit(frame)

        simulate.np = _Proxy(np, random=_Proxy(np.random, Philox=Philox))

    def take(self) -> dict:
        """The round's aggregates, as plain data; starts a new round."""
        if self._stack:
            raise RuntimeError("take() called with spans still open")
        snapshot = {
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "by_parent": [[p, n, k] for (p, n), k in sorted(
                self.by_parent.items(), key=lambda item: (str(item[0][0]), item[0][1]))],
            "counts": dict(self.counts),
        }
        self._reset()
        return snapshot


def layer_metrics(snapshot: dict) -> dict[str, float]:
    """Per-layer metrics of one round, from ``Tracer.take``'s aggregates."""
    calls = Counter(snapshot["calls"])
    total = defaultdict(float, snapshot["total_s"])
    self_s = defaultdict(float, snapshot["self_s"])
    counts = defaultdict(float, snapshot["counts"])
    searches = calls["coverage.min_coverage"]
    search_evals = sum(k for p, n, k in snapshot["by_parent"]
                       if p == "coverage.min_coverage" and n == "coverage._coverage_value")
    quad_calls = calls["coverage.quad"]
    values = counts["inverse_cdf_values"]
    words = counts["raw_words"]

    def ratio(num, den, scale=1.0):
        # A layer the workload never reaches reads 0, not NaN.
        return num / den * scale if den else 0.0

    return {
        "coverage.evals": calls["coverage._coverage_value"],
        "coverage.search_evals": ratio(search_evals, searches),
        "coverage.quad_calls": quad_calls,
        "coverage.quad_neval": ratio(counts["quad_neval"], quad_calls),
        "coverage.quad_s": total["coverage.quad"],
        "coverage.self_s": self_s["coverage"],
        "bivariate.rect_calls": calls["coverage.bvn_rectangle"],
        "bivariate.rect_s": total["coverage.bvn_rectangle"],
        "normal.quantile_calls": sum(calls[n] for n in _QUANTILE_SPANS),
        "normal.inverse_cdf_values": values,
        "normal.inverse_cdf_s": total["simulate.std_normal_inverse_cdf"],
        "normal.inverse_cdf_ns_per_value": ratio(
            total["simulate.std_normal_inverse_cdf"], values, 1e9),
        "trial.estimator_s": sum(total[n] for n in _ESTIMATOR_SPANS),
        "simulate.raw_words": words,
        "simulate.word_use_ratio": ratio(values, words),
        "simulate.raw_ns_per_word": ratio(total["simulate.random_raw"], words, 1e9),
        "simulate.chunks": calls["simulate._batch_estimates"],
        "simulate.self_s": self_s["simulate"],
        "simulate.sys_s": counts["simulate.sys_s"],
        "simulate.minor_faults": counts["simulate.minor_faults"],
        "cli.route_checks_s": total["cli.reject_cover_routes"],
        "cli.mc_s": total["cli.empirical_coverage"],
        "cli.moments_s": total["cli.estimator_moments"],
    }

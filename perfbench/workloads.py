"""Workload process of the benchmark: one workload, run in closed-loop rounds.

``run.py`` starts this file as a child process with the package source on
``PYTHONPATH`` and math-library threads pinned to one, writes a JSON spec
(workload, seconds, trace flag and the generated inputs) to its standard
input, and reads one JSON line back from its standard output. One caller
makes the calls back to back; every round repeats the same operations on
the same inputs, so every round must return the same outputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time

#: Fewest timed rounds a run makes, however short its time.
MIN_ROUNDS = 3


class Ops:
    """Counts the operations attempted and failed, keeping the first errors."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{fn.__name__}: {type(exc).__name__}: {exc}")
            return None


def _rounds(seconds, one_round, tracer):
    """Run rounds back to back until the next one would overrun ``seconds``."""
    rounds, layers = [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        rounds.append(one_round())
        if tracer is not None:
            layers.append(tracer.take())
        now = time.perf_counter()
        if len(rounds) >= MIN_ROUNDS and (now - start) + (now - began) > seconds:
            return rounds, layers


def analytic_table(cc, inputs, ops):
    table_levels = inputs["table"]
    curve_args = inputs["curve"]
    queries = inputs["queries"]

    def query(gamma, alpha1, alpha):
        return cc.coverage_probability(cc.CoverageQuery(gamma, alpha1, alpha)).value

    query(*queries[0])
    cc.coverage_curve(0.1, 0.05, -1.0, 1.0, 3)

    def one_round():
        t0 = time.perf_counter()
        table = ops.call(cc.min_coverage_table, *table_levels)
        t1 = time.perf_counter()
        curve = ops.call(cc.coverage_curve, *curve_args)
        t2 = time.perf_counter()
        latencies, values = [], []
        for q in queries:
            began = time.perf_counter()
            values.append(ops.call(query, *q))
            latencies.append(time.perf_counter() - began)
        t3 = time.perf_counter()
        outputs = {
            "table": None if table is None else [
                [r.alpha1, r.alpha, r.gamma_star, r.min_coverage] for r in table],
            "curve": None if curve is None else [[p.gamma, p.coverage] for p in curve],
            "queries": values,
        }
        timing = {"wall_s": t3 - t0, "table_s": t1 - t0, "curve_s": t2 - t1,
                  "query_s": latencies}
        return timing, outputs

    return one_round


def mc_subject(cc, inputs, ops):
    alpha1, alpha = inputs["alpha1"], inputs["alpha"]
    short, check_chunk = inputs["short_reps"], inputs["check_chunk"]
    cases = []
    for case in inputs["cases"]:
        design = cc.TrialDesign(case["n1"], case["n2"])
        params = cc.ModelParams.from_effects(
            case["theta"], case["psi"], between_subject_var=case["sigma_s2"],
            error_var=case["sigma_e2"])
        cases.append((design, params, case["seed"]))
        warm = cc.SimConfig.create(design, params, alpha1, alpha, 1000, case["seed"])
        cc.empirical_coverage(warm)

    def simulate(design, params, reps, seed, **kwargs):
        config = cc.SimConfig.create(design, params, alpha1, alpha, reps, seed)
        emp = cc.empirical_coverage(config, **kwargs)
        return [emp.hits, emp.total, emp.accept_rate]

    def analytic(design, params):
        gamma = cc.scaled_carryover(params.differential_carryover, design,
                                    params.error_var ** 0.5)
        return cc.coverage_probability(cc.CoverageQuery(gamma, alpha1, alpha)).value

    def one_round():
        t0 = time.perf_counter()
        main = [[ops.call(analytic, d, p), ops.call(simulate, d, p, inputs["reps"], s)]
                for d, p, s in cases]
        t1 = time.perf_counter()
        latencies, checks, check_s = [], [], 0.0
        for d, p, s in cases:
            results = []
            for _ in range(inputs["short_calls"]):
                began = time.perf_counter()
                results.append(ops.call(simulate, d, p, short, s))
                latencies.append(time.perf_counter() - began)
            began = time.perf_counter()
            results.append(ops.call(simulate, d, p, short, s, chunk_size=check_chunk))
            check_s += time.perf_counter() - began
            checks.append(results)
        t2 = time.perf_counter()
        timing = {"wall_s": t2 - t0, "main_s": t1 - t0, "short_s": latencies,
                  "check_s": check_s}
        return timing, {"main": main, "short": checks}

    return one_round


def _validate_argv(inputs):
    return ["validate", "--reps", str(inputs["reps"]), "--seed", str(inputs["seed"])]


def validate_cli(cc, inputs, ops):
    """One round is one ``python -m crossover_coverage validate`` child."""
    cmd = [sys.executable, "-u", "-m", "crossover_coverage", *_validate_argv(inputs)]

    def one_round():
        ops.attempted += 1  # the child is the operation; run.py checks its exit status
        began = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                text=True)
        lines, first = [], None
        with proc.stdout:
            for line in proc.stdout:
                if first is None:
                    first = time.perf_counter() - began
                lines.append(line)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        wall = time.perf_counter() - began
        timing = {"wall_s": wall, "first_line_s": first if first is not None else wall,
                  "child_rss_mb": usage.ru_maxrss / 1024.0,
                  "child_sys_s": usage.ru_stime, "child_minor_faults": usage.ru_minflt}
        return timing, {"exit": proc.returncode, "stdout": "".join(lines)}

    return one_round


def validate_in_process(cc, inputs, ops):
    """Traced form of validate-cli: ``cli.main`` called in this process."""
    from crossover_coverage import cli

    def one_round():
        buf = io.StringIO()
        began = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = ops.call(cli.main, _validate_argv(inputs))
        return {"wall_s": time.perf_counter() - began}, {"exit": code,
                                                         "stdout": buf.getvalue()}

    return one_round


def main() -> int:
    spec = json.load(sys.stdin)
    import crossover_coverage as cc

    tracer = None
    if spec["trace"]:
        from spans import Tracer
        tracer = Tracer()
        tracer.install(cc)
    builders = {"analytic-table": analytic_table, "mc-subject": mc_subject,
                "validate-cli": validate_in_process if tracer else validate_cli}
    ops = Ops()
    one_round = builders[spec["workload"]](cc, spec["inputs"], ops)
    if tracer is not None:
        tracer.take()  # drop the warm-up calls' spans
    rounds, layers = _rounds(spec["seconds"], one_round, tracer)
    first = rounds[0][1]
    result = {
        "timings": [timing for timing, _ in rounds],
        "outputs": first,
        "identical": all(outputs == first for _, outputs in rounds),
        "attempted": ops.attempted,
        "failed": ops.failed,
        "errors": ops.errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": layers,
    }
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

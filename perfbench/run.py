"""Benchmark of the crossover-coverage package, one workload per run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload analytic-table --seed 20110125 \
        --seconds 30 --trace 0

Workloads are ``analytic-table``, ``mc-subject`` and ``validate-cli``;
README.md in this directory describes them. A run makes the workload's
inputs from ``--seed``, times fresh interpreter start-ups (``setup_s``),
runs the workload in a process of its own for ``--seconds``, checks every
output against ``reference.py`` (which does not import the package),
writes a stamped result file to ``perfbench/out/`` and prints one JSON
object as the last line of its standard output. ``--trace 1`` runs the
workload with spans (``spans.py``) and reports the per-layer metrics
instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("analytic-table", "mc-subject", "validate-cli")
DEFAULT_SEED = 20110125
DEFAULT_SECONDS = 30
#: Fresh interpreter start-ups timed per run; setup_s is their median.
SETUP_STARTS = 7

# analytic-table: the CLI's default min-coverage grid and coverage curve,
# then single queries at random levels.
TABLE_LEVELS = ([0.01, 0.05, 0.1, 0.2], [0.01, 0.05, 0.1])
CURVE_ARGS = (0.1, 0.05, -8.0, 8.0, 801)
QUERIES = 1000
#: Coverage evaluations the table and curve take today (12 x 2,025 + 801);
#: ops_per_s divides this fixed amount of work by its time.
TABLE_CURVE_EVALS = 12 * 2025 + 801
#: Largest allowed gap between a package value and the reference.
MATCH_TOL = 1e-9
#: Slack for "a minimum is at most the reference elsewhere".
MIN_SLACK = 1e-10
MIN_CHECK_STEP = 0.0173
HEADLINE = (0.1, 0.05, 0.4711, 5e-4)

# mc-subject: default chunking, two designs, gamma = 0 and gamma near gamma*.
MC_LEVELS = (0.1, 0.05)
MC_DESIGNS = ((8, 8), (5, 10))
MC_REPS = 40_000
MC_SHORT_REPS = 2048
MC_SHORT_CALLS = 4
MC_CHECK_CHUNK = 1000
MC_Z_GATE = 5.0
MC_ACCEPT_SE = 4.0

# validate-cli: what ``validate`` runs, as the reference needs to know it.
VALIDATE_REPS = 50_000
VALIDATE_LEVELS = (0.1, 0.05)
VALIDATE_MOMENTS = {"n1": 8, "n2": 8, "theta": 0.7, "psi": 0.3, "error_var": 1.0}


def make_inputs(workload: str, seed: int, gamma_star: float):
    """The workload's inputs and the check-only draws, both from ``seed``."""
    rng = random.Random(seed)
    if workload == "analytic-table":
        queries = [[rng.uniform(-6.0, 6.0), rng.uniform(0.01, 0.3), rng.uniform(0.01, 0.2)]
                   for _ in range(QUERIES)]
        inputs = {"table": TABLE_LEVELS, "curve": CURVE_ARGS, "queries": queries}
        return inputs, {"grid_offset": rng.random() * MIN_CHECK_STEP}
    if workload == "mc-subject":
        from reference import carryover_scale
        cases = [{"n1": n1, "n2": n2, "gamma": gamma,
                  "psi": gamma / carryover_scale(n1, n2), "theta": 0.7,
                  "sigma_s2": 1.0, "sigma_e2": 1.0, "seed": rng.getrandbits(64)}
                 for n1, n2 in MC_DESIGNS for gamma in (0.0, gamma_star)]
        inputs = {"cases": cases, "alpha1": MC_LEVELS[0], "alpha": MC_LEVELS[1],
                  "reps": MC_REPS, "short_reps": MC_SHORT_REPS,
                  "short_calls": MC_SHORT_CALLS, "check_chunk": MC_CHECK_CHUNK}
        return inputs, {}
    return {"reps": VALIDATE_REPS, "seed": rng.getrandbits(32)}, {}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def setup_command(workload: str, inputs: dict) -> list[str]:
    """A fresh interpreter that imports the package and warms the first call."""
    if workload == "validate-cli":
        return [sys.executable, "-m", "crossover_coverage", "--version"]
    if workload == "analytic-table":
        g, a1, a = inputs["queries"][0]
        code = (f"import crossover_coverage as cc; "
                f"cc.coverage_probability(cc.CoverageQuery({g!r}, {a1!r}, {a!r}))")
    else:
        c = inputs["cases"][0]
        code = ("import crossover_coverage as cc; "
                f"d = cc.TrialDesign({c['n1']}, {c['n2']}); "
                f"p = cc.ModelParams.from_effects({c['theta']!r}, {c['psi']!r}); "
                f"cc.coverage_probability(cc.CoverageQuery({c['gamma']!r}, "
                f"{inputs['alpha1']!r}, {inputs['alpha']!r})); "
                f"cc.empirical_coverage(cc.SimConfig.create(d, p, {inputs['alpha1']!r}, "
                f"{inputs['alpha']!r}, 1000, {c['seed']}))")
    return [sys.executable, "-c", code]


def time_setup(workload: str, inputs: dict, env: dict) -> list[float]:
    times = []
    cmd = setup_command(workload, inputs)
    for _ in range(SETUP_STARTS):
        began = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
                       timeout=60)
        times.append(time.perf_counter() - began)
    return times


def run_worker(workload: str, inputs: dict, seconds: int, trace: int, env: dict) -> dict:
    spec = {"workload": workload, "seconds": seconds, "trace": trace, "inputs": inputs}
    proc = subprocess.run([sys.executable, str(HERE / "workloads.py")],
                          input=json.dumps(spec), capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=seconds + 120)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------- checks

def check_analytic(reference, inputs, draws, out, fails, details):
    import numpy as np

    if out["table"] is not None:
        expected = [(a1, a) for a1 in TABLE_LEVELS[0] for a in TABLE_LEVELS[1]]
        if [(r[0], r[1]) for r in out["table"]] != expected:
            fails.append("table rows are not the requested level pairs")
        grid = np.arange(draws["grid_offset"], 20.0, MIN_CHECK_STEP)
        worst_match, worst_margin = 0.0, math.inf
        for a1, a, g_star, minimum in out["table"]:
            worst_match = max(worst_match, abs(minimum - reference.coverage(g_star, a1, a)))
            around = np.concatenate([grid, [g_star - 1e-3, g_star + 1e-3]])
            margin = float(np.min(reference.coverage(around, a1, a))) - minimum
            worst_margin = min(worst_margin, margin)
            if margin < -MIN_SLACK:
                fails.append(f"minimum at ({a1}, {a}) exceeds the reference by {-margin:.3e}")
            if (a1, a) == HEADLINE[:2] and abs(minimum - HEADLINE[2]) > HEADLINE[3]:
                fails.append(f"headline minimum {minimum} is not {HEADLINE[2]} +/- {HEADLINE[3]}")
        if worst_match > MATCH_TOL:
            fails.append(f"table minimum differs from the reference by {worst_match:.3e}")
        details["table_max_abs_diff"] = worst_match
        details["table_min_margin"] = worst_margin

    if out["curve"] is not None:
        gammas = np.array([p[0] for p in out["curve"]])
        values = np.array([p[1] for p in out["curve"]])
        a1, a, lo, hi, steps = CURVE_ARGS
        if len(gammas) != steps or np.max(np.abs(gammas - np.linspace(lo, hi, steps))) > 1e-12:
            fails.append("curve grid is not the requested one")
        else:
            diff = float(np.max(np.abs(values - reference.coverage(gammas, a1, a))))
            asym = float(np.max(np.abs(values - values[::-1])))
            end = max(abs(values[0] - (1 - a)), abs(values[-1] - (1 - a)))
            details.update(curve_max_abs_diff=diff, curve_asymmetry=asym, curve_end_gap=end)
            if diff > MATCH_TOL:
                fails.append(f"curve differs from the reference by {diff:.3e}")
            if asym > 1e-10:
                fails.append(f"curve is not symmetric ({asym:.3e})")
            if end > 1e-4:
                fails.append(f"curve ends {end:.3e} from 1 - alpha")

    answered = [(q, v) for q, v in zip(inputs["queries"], out["queries"]) if v is not None]
    if answered:
        q = np.array([q for q, _ in answered])
        got = np.array([v for _, v in answered])
        diff = float(np.max(np.abs(got - reference.coverage(q[:, 0], q[:, 1], q[:, 2]))))
        details["query_max_abs_diff"] = diff
        if diff > MATCH_TOL:
            fails.append(f"a query differs from the reference by {diff:.3e}")


def check_mc(reference, inputs, draws, out, fails, details):
    alpha1, alpha = inputs["alpha1"], inputs["alpha"]
    zs = []
    for case, (analytic, main), short in zip(inputs["cases"], out["main"], out["short"]):
        label = f"n=({case['n1']},{case['n2']}) gamma={case['gamma']}"
        ref_cov = reference.coverage(case["gamma"], alpha1, alpha)
        ref_acc = float(reference.accept_prob(case["gamma"], alpha1))
        if analytic is not None and abs(analytic - ref_cov) > MATCH_TOL:
            fails.append(f"{label}: analytic coverage differs from the reference")
        if main is not None:
            hits, total, accept = main
            z = (hits / total - ref_cov) / math.sqrt(ref_cov * (1 - ref_cov) / total)
            z_acc = (accept - ref_acc) / math.sqrt(ref_acc * (1 - ref_acc) / total)
            zs.append({"case": label, "z_coverage": z, "z_accept": z_acc})
            if abs(z) > MC_Z_GATE:
                fails.append(f"{label}: empirical coverage z = {z:+.2f}")
            if abs(z_acc) > MC_ACCEPT_SE:
                fails.append(f"{label}: accept rate {accept} is {z_acc:+.2f} SE off")
        if any(r != short[-1] for r in short):
            fails.append(f"{label}: default and {MC_CHECK_CHUNK}-replication chunks "
                         f"disagree: {short}")
    details["z"] = zs


def check_validate(reference, inputs, draws, out, fails, details):
    text = out["stdout"]
    if out["exit"] != 0:
        fails.append(f"validate exited with {out['exit']}")
    if "failures: 0" not in text.splitlines():
        fails.append("validate did not report 'failures: 0'")
    if not re.search(r"^PASS  route agreement: .* over 45 triples", text, re.M):
        fails.append("route agreement line missing or failed")
    alpha1, alpha = VALIDATE_LEVELS
    coverage_lines = re.findall(r"coverage gamma=(\S+): analytic (\S+) ", text)
    for gamma, printed in coverage_lines:
        want = f"{reference.coverage(float(gamma), alpha1, alpha):.6f}"
        if printed != want:
            fails.append(f"analytic coverage at gamma={gamma}: {printed} vs reference {want}")
    m = VALIDATE_MOMENTS
    closed = reference.estimator_moments(m["n1"], m["n2"], m["theta"], m["psi"],
                                         m["error_var"])
    moment_lines = re.findall(r"moments (\w+): observed \S+ expected (\S+) ", text)
    for name, printed in moment_lines:
        want = f"{closed[name]:.6f}"
        if printed != want:
            fails.append(f"expected {name}: {printed} vs reference {want}")
    if len(coverage_lines) != 5 or len(moment_lines) != len(closed):
        fails.append("validate printed an unexpected set of checks")
    details["checked_values"] = len(coverage_lines) + len(moment_lines)


CHECKS = {"analytic-table": check_analytic, "mc-subject": check_mc,
          "validate-cli": check_validate}


# ---------------------------------------------------------------- metrics

def end_to_end_metrics(workload: str, inputs: dict, result: dict, setup: list[float]):
    """Every end-to-end metric, plus figures kept only in the result file."""
    timings = result["timings"]
    median = statistics.median
    metrics = {"setup_s": median(setup),
               "wall_s": median(t["wall_s"] for t in timings)}
    extra = {"rounds": len(timings), "setup_starts_s": setup,
             "round_wall_s": [t["wall_s"] for t in timings]}
    if workload == "analytic-table":
        rates = [TABLE_CURVE_EVALS / (t["table_s"] + t["curve_s"]) for t in timings]
        latencies = sorted(x for t in timings for x in t["query_s"])
        metrics["ops_per_s"] = median(rates)
        metrics["call_p50_us"] = median(latencies) * 1e6
        metrics["peak_rss_mb"] = result["peak_rss_mb"]
        extra.update(query_samples=len(latencies),
                     query_p99_us=latencies[int(0.99 * len(latencies))] * 1e6,
                     table_s=median(t["table_s"] for t in timings),
                     curve_s=median(t["curve_s"] for t in timings))
    elif workload == "mc-subject":
        reps = MC_REPS * len(inputs["cases"])
        latencies = [x for t in timings for x in t["short_s"]]
        metrics["ops_per_s"] = median(reps / t["main_s"] for t in timings)
        metrics["call_p50_us"] = median(latencies) * 1e6
        metrics["peak_rss_mb"] = result["peak_rss_mb"]
        extra.update(short_samples=len(latencies),
                     check_s=median(t["check_s"] for t in timings))
    else:
        reps = 5 * VALIDATE_REPS + min(VALIDATE_REPS, 100_000)
        metrics["ops_per_s"] = median(reps / (t["wall_s"] - t["first_line_s"])
                                      for t in timings)
        metrics["call_p50_us"] = median(t["first_line_s"] for t in timings) * 1e6
        metrics["peak_rss_mb"] = median(t["child_rss_mb"] for t in timings)
        extra.update(child_sys_s=median(t["child_sys_s"] for t in timings),
                     child_minor_faults=median(t["child_minor_faults"] for t in timings))
    return metrics, extra


def per_layer_metrics(result: dict, fails: list[str]):
    from spans import COUNT_METRICS, layer_metrics

    per_round = [layer_metrics(snapshot) for snapshot in result["layers"]]
    metrics = {}
    for name in per_round[0]:
        values = [r[name] for r in per_round]
        if name in COUNT_METRICS:
            if len(set(values)) != 1:
                fails.append(f"{name} differs between rounds: {sorted(set(values))}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    return metrics, {"rounds": len(per_round),
                     "wall_s": statistics.median(t["wall_s"] for t in result["timings"])}


# ---------------------------------------------------------------- output

def stamp() -> dict:
    import numpy
    import scipy

    sha = None
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "git_sha": sha,
            "machine": platform.machine(),
            "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "crossover_coverage" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    sys.path.insert(0, str(HERE))
    import reference

    inputs, draws = make_inputs(args.workload, args.seed, reference.GAMMA_STAR)
    env = child_env()
    setup = [] if args.trace else time_setup(args.workload, inputs, env)
    result = run_worker(args.workload, inputs, args.seconds, args.trace, env)

    fails = []
    if not result["identical"]:
        fails.append("rounds returned different outputs")
    details: dict = {}
    CHECKS[args.workload](reference, inputs, draws, result["outputs"], fails, details)
    if args.trace:
        values, extra = per_layer_metrics(result, fails)
    else:
        values, extra = end_to_end_metrics(args.workload, inputs, result, setup)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    correct = not fails

    summary = {"correct": correct, "attempted": result["attempted"],
               "failed": result["failed"], "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "stamp": stamp(), "result": summary,
              "extra": extra, "checks": details, "failures": fails,
              "errors": result["errors"]}
    if args.trace:
        record["spans"] = result["layers"]
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")

    for e in result["errors"]:
        print(f"operation failed: {e}", file=sys.stderr)
    for f in fails:
        print(f"FAIL {f}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {extra['rounds']} rounds, "
          f"{result['attempted']} operations, {result['failed']} failed, "
          f"correct={correct}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

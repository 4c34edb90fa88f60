"""The benchmark's tracer still finds every binding it wraps in the package.

``perfbench/spans.py`` measures the engine by rebinding module attributes
(``coverage._coverage_value``, ``coverage.quad``, ``simulate.random_raw``
through Philox, ...). A refactor that stops calling one of them leaves the
benchmark's per-layer metrics at 0 without any error, so this test runs a
small traced session in a fresh interpreter and checks that each layer
counted something. The ``cli.*`` layers are reached through ``validate``
itself, so the test fails if validate stops calling a binding.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SESSION = """
import contextlib
import io
import json

import crossover_coverage as cc
from crossover_coverage import cli
from spans import Tracer, layer_metrics

tracer = Tracer()
tracer.install(cc)
cc.coverage_probability(cc.CoverageQuery(0.5, 0.1, 0.05))
cc.coverage_curve(0.1, 0.05, -1.0, 1.0, 5)
cc.min_coverage_table([0.1], [0.05])
params = cc.ModelParams.from_effects(0.7, 0.3, between_subject_var=1.0, error_var=1.0)
config = cc.SimConfig.create(cc.TrialDesign(8, 8), params, 0.1, 0.05, 100, 1)
cc.empirical_coverage(config)
with contextlib.redirect_stdout(io.StringIO()):  # the metrics stay the last line
    cli.main(["validate", "--reps", "1000", "--seed", "1"])
print(json.dumps(layer_metrics(tracer.take())))
"""

COUNTED = ("coverage.evals", "coverage.quad_calls", "bivariate.rect_calls",
           "normal.quantile_calls", "normal.inverse_cdf_values", "trial.estimator_s",
           "simulate.raw_words", "simulate.chunks",
           "cli.route_checks_s", "cli.mc_s", "cli.moments_s")


def test_tracer_counts_every_layer():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT / "perfbench"), env.get("PYTHONPATH"))
        if p)
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # leave no cache files under perfbench/
    result = subprocess.run([sys.executable, "-c", SESSION], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    metrics = json.loads(result.stdout.splitlines()[-1])
    for name in COUNTED:
        assert metrics[name] > 0, name

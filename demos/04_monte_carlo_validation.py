"""Cross-validate the analytic coverage engine against brute-force simulation.

For a handful of carryover values, simulates 200k full trials at the
subject level and compares the hit rate of the two-stage interval against
the analytic coverage probability. Also checks the simulated estimator
moments against their closed forms.
"""

import math
from dataclasses import fields

from crossover_coverage import (
    CoverageQuery,
    EstimatorMoments,
    ModelParams,
    SimConfig,
    TrialDesign,
    coverage_probability,
    empirical_coverage,
    estimator_moments,
    scaled_carryover,
    theoretical_moments,
)

REPS = 200_000
ALPHA1, ALPHA = 0.1, 0.05
design = TrialDesign(2, 2)

print(f"{'gamma':>6} {'analytic':>9} {'simulated':>10} {'std err':>8} {'z':>6}")
for i, target in enumerate([0.0, 0.5, 1.0, 1.5, 2.0, 4.0]):
    psi = target / scaled_carryover(1.0, design, 1.0)
    params = ModelParams(0.7, psi, between_subject_var=1.0, error_var=1.0)
    config = SimConfig(design, params, ALPHA1, ALPHA, REPS, seed=600 + i)
    gamma = scaled_carryover(params.differential_carryover, design, 1.0)
    analytic = coverage_probability(CoverageQuery(gamma, ALPHA1, ALPHA)).value
    emp = empirical_coverage(config)
    print(f"{target:>6.1f} {analytic:>9.5f} {emp.estimate:>10.5f} "
          f"{emp.std_err:>8.5f} {emp.z_against(analytic):>+6.2f}")

print()
print("estimator moments, 100k replications, two groups of 8:")
design = TrialDesign(8, 8)
params = ModelParams(0.7, 0.3, between_subject_var=1.0, error_var=1.0)
config = SimConfig(design, params, ALPHA1, ALPHA, 100_000, seed=42)
sample = estimator_moments(config)
exact = theoretical_moments(design, params)
for field in fields(EstimatorMoments):
    got, want = getattr(sample, field.name), getattr(exact, field.name)
    print(f"  {field.name:<22} simulated {got:+.5f}   exact {want:+.5f}")
print()
print("the pooled and carryover estimators are uncorrelated, which is what")
print("lets the accept-branch coverage factorize; the robust and carryover")
print(f"estimators are strongly correlated (3/sqrt(11) = {3/math.sqrt(11):.4f}).")

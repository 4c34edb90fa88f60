"""Walk through one simulated trial and the two-stage analysis.

Simulates a four-period ABAB/BABA crossover trial at the subject level,
reduces it to the four between-group period differences, computes the
three estimators, and runs the pretest-then-estimate procedure.
"""

import numpy as np

from crossover_coverage import (
    ModelParams,
    TrialDesign,
    TwoStageConfig,
    estimate_effects,
    reduce_responses,
    scaled_carryover,
    simulate_trial,
    two_stage,
)

design = TrialDesign(n1=8, n2=8)
params = ModelParams(
    treatment_difference=0.7,
    differential_carryover=0.9,
    between_subject_var=1.0,
    error_var=1.0,
    grand_mean=10.0,
    period_effects=(0.0, 0.3, -0.2, 0.5),
)
config = TwoStageConfig(alpha1=0.1, alpha=0.05, sigma_e=1.0)

print("design: two groups of", design.n1, "subjects, four periods (ABAB / BABA)")
print("true treatment difference:", round(params.treatment_difference, 6))
print("true differential carryover:", round(params.differential_carryover, 6))
print("scaled carryover gamma:",
      round(scaled_carryover(params.differential_carryover, design, config.sigma_e), 4))
print()

responses = simulate_trial(design, params, seed=2024, rep_index=0)
print("group 1 responses (one row per subject):")
print(np.array_str(responses.group1, precision=2))
print()

reduced = reduce_responses(design, responses)
print("period differences (group 1 mean minus group 2 mean, per period):")
print("  ", [round(float(d), 3) for d in reduced.as_array()])
print("the grand mean and the period effects have cancelled; what remains is")
print("treatment contrast, carryover contrast, and noise.")
print()

est = estimate_effects(reduced)
print(f"pooled estimate    {est.pooled_effect:+.3f}   "
      f"(efficient, but biased by carryover; targets {params.treatment_difference - params.differential_carryover:+.3f} here)")
print(f"robust estimate    {est.robust_effect:+.3f}   (unbiased whatever the carryover)")
print(f"carryover estimate {est.carryover_effect:+.3f}   "
      f"(targets {params.differential_carryover:+.3f})")
print()

outcome = two_stage(reduced, design, config)
print(f"pretest statistic: {outcome.pretest_stat:+.3f}")
print("pretest decision:", "accept no-carryover" if outcome.h0_accepted else "reject")
print("selected branch:", "pooled" if outcome.h0_accepted else "robust")
print(f"confidence interval: [{outcome.interval_lo:+.3f}, {outcome.interval_hi:+.3f}]")
covered = outcome.interval_lo <= params.treatment_difference <= outcome.interval_hi
print("covers the true treatment difference:", covered)

"""The exact stdout and exit status of four CLI commands.

A change to any printed number, or to the wording around it, has to edit
this file, so the diff shows it.
"""

import pytest

from crossover_coverage.cli import main

MIN_COVERAGE = """\
  alpha1    alpha     gamma*   min cov   nominal   deficit
    0.01     0.01     1.8344    0.2968    0.9900    0.6932
    0.01     0.05     1.6223    0.2028    0.9500    0.7472
    0.01      0.1     1.5240    0.1471    0.9000    0.7529
    0.05     0.01     1.6759    0.4833    0.9900    0.5067
    0.05     0.05     1.4594    0.3718    0.9500    0.5782
    0.05      0.1     1.3504    0.3024    0.9000    0.5976
     0.1     0.01     1.5971    0.5840    0.9900    0.4060
     0.1     0.05     1.3784    0.4711    0.9500    0.4789
     0.1      0.1     1.2673    0.3987    0.9000    0.5013
     0.2     0.01     1.5096    0.6942    0.9900    0.2958
     0.2     0.05     1.2857    0.5863    0.9500    0.3637
     0.2      0.1     1.1713    0.5140    0.9000    0.3860
"""

EFFICIENCY = """\
var(robust crossover estimator): 0.275
var(completely randomized estimator): 0.275
variance ratio (crossover / randomized): 1.000000
sigma_s2 >= 4.5 * sigma_e2: yes (4.5 vs 4.5)
crossover preferred: yes
"""

SIMULATE = """\
gamma: 0.282842712474619
analytic coverage: 0.879316
empirical coverage: 0.879650 +/- 0.002301 (20000 replications)
accept rate: 0.886350
accept z score: -0.047
z score: 0.145
result: PASS (|z| <= 3.5)
"""

VALIDATE = """\
PASS  route agreement: max gap 4.649e-16 over 45 triples (tol 5e-09)
PASS  coverage gamma=0.0: analytic 0.914172 empirical 0.918500 z +0.69 (gate 3.5)
PASS  accept rate gamma=0.0: analytic 0.900000 empirical 0.909000 z +1.34 (gate 3.5)
PASS  coverage gamma=0.5: analytic 0.805033 empirical 0.808500 z +0.39 (gate 3.5)
PASS  accept rate gamma=0.5: analytic 0.857883 empirical 0.852500 z -0.69 (gate 3.5)
PASS  coverage gamma=1.0: analytic 0.555810 empirical 0.554000 z -0.16 (gate 3.5)
PASS  accept rate gamma=1.0: analytic 0.736403 empirical 0.738000 z +0.16 (gate 3.5)
PASS  coverage gamma=2.0: analytic 0.617811 empirical 0.626500 z +0.80 (gate 3.5)
PASS  accept rate gamma=2.0: analytic 0.361106 empirical 0.349500 z -1.08 (gate 3.5)
PASS  coverage gamma=4.0: analytic 0.948397 empirical 0.946500 z -0.38 (gate 3.5)
PASS  accept rate gamma=4.0: analytic 0.009258 empirical 0.011000 z +0.81 (gate 3.5)
PASS  moments mean_pooled: observed 0.397366 expected 0.400000 z -0.47 (gate 4)
PASS  moments mean_robust: observed 0.676551 expected 0.700000 z -1.79 (gate 4)
PASS  moments mean_carryover: observed 0.279184 expected 0.300000 z -1.76 (gate 4)
PASS  moments var_pooled: observed 0.060598 expected 0.062500 z -0.96 (gate 4)
PASS  moments var_robust: observed 0.340229 expected 0.343750 z -0.32 (gate 4)
PASS  moments var_carryover: observed 0.277581 expected 0.281250 z -0.41 (gate 4)
PASS  moments cov_pooled_carryover: observed 0.001026 expected 0.000000 z +0.35 (gate 4)
PASS  moments cov_robust_carryover: observed 0.278606 expected 0.281250 z -0.28 (gate 4)
PASS  moments corr_robust_carryover: observed 0.906589 expected 0.904534 z +0.51 (gate 4)
failures: 0
"""


@pytest.mark.parametrize("argv, expected", [
    (["min-coverage"], MIN_COVERAGE),
    (["efficiency", "--sigma-s2", "4.5", "--sigma-e2", "1.0", "--n", "10"], EFFICIENCY),
    (["simulate", "--n1", "2", "--n2", "2", "--theta", "0.7", "--psi", "0.3",
      "--reps", "20000", "--seed", "5"], SIMULATE),
    (["validate", "--reps", "2000", "--seed", "1729"], VALIDATE),
], ids=["min-coverage", "efficiency", "simulate", "validate"])
def test_stdout_pinned(capsys, argv, expected):
    assert main(argv) == 0
    assert capsys.readouterr().out == expected

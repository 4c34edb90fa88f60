"""Command-line front end.

Subcommands reproduce the central numerical results (coverage curve,
minimum-coverage table, efficiency comparison) and run the
analytic-versus-simulation validation suite. All numerical work happens in
the library modules; this layer parses flags, formats output and maps
failures to exit statuses:

    0  success
    1  validation failure (a statistical or cross-route check failed)
    2  usage or domain error
    3  I/O error

It also builds validate's and simulate's checks as ``Check`` records, which
pass when |statistic| <= gate, and prints each as it completes. They stay
in this module because the benchmark's tracer times validate's layers
through this module's bindings of the engine calls: moved elsewhere, those
calls would go untimed without any error.

CSV outputs are UTF-8 with LF line endings, a header line first, and
full-precision (round-trip exact) decimal floats. Every CSV is accompanied
by a ``<name>.manifest.json`` sidecar recording the command, resolved
parameters, seed, version and timestamp.
"""

from __future__ import annotations

import argparse
import csv
import gc
import itertools
import json
import math
import re
import sys
from dataclasses import dataclass, fields, replace
from datetime import datetime, timezone

from . import __version__
from .coverage import (
    ROUTE_AGREEMENT_TOL,
    CoverageQuery,
    _accept_prob,
    coverage_curve,
    coverage_probability,
    efficiency_comparison,
    min_coverage_table,
    reject_cover_routes,
)
from .errors import DomainError, NumericalError, RouteDisagreementError, _checked_int
from .normal import std_normal_quantile
from .simulate import (
    EstimatorMoments,
    SimConfig,
    _binomial_z,
    _moment_std_errors,
    empirical_coverage,
    estimator_moments,
    theoretical_moments,
)
from .trial import ModelParams, TrialDesign, scaled_carryover

_Z_GATE = 3.5  # |z| gate for analytic-vs-empirical checks (~0.05% false alarms)

#: Fewest replications validate runs. Its moment gates use large-sample
#: standard errors, and below this correct code fails them far more often
#: than the gates' nominal rate: at 2, 10 and 100 replications, about 20 %,
#: 3 % and 0.35 % of 4,000 seeds against 0.06 %.
_VALIDATE_MIN_REPS = 1000

#: validate's route-agreement grid: gamma, alpha1 and alpha.
_ROUTE_GRID = ([0.0, 0.5, 1.0, 2.0, 5.0], [0.05, 0.1, 0.2], [0.01, 0.05, 0.1])

#: Help texts of the two levels; argparse fills in each flag's default.
_ALPHA1_HELP = "pretest significance level, in [1e-323, 1) (default %(default)s)"
_ALPHA_HELP = "one minus the nominal coverage, in [1e-323, 1) (default %(default)s)"
_SEED_HELP = "Philox key, in [0, 2**64) (default %(default)s)"


@dataclass(frozen=True)
class Check:
    """An observed value against its expected one; it passes when |statistic| <= gate."""

    name: str
    observed: float
    expected: float
    statistic: float  # the z score, or the route gap
    gate: float

    @property
    def passed(self) -> bool:
        return abs(self.statistic) <= self.gate


def _write_csv(path: str, header: list[str], rows: list[tuple], command: str,
               parameters: dict) -> None:
    """Write the CSV, then its ``<path>.manifest.json`` sidecar."""
    # csv writes floats with repr, so they round-trip exactly.
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    manifest = {
        "command": command,
        "parameters": parameters,
        "seed": None,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    with open(path + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _dedupe(values: list[float], name: str) -> list[float]:
    seen: set[float] = set()
    out: list[float] = []
    for v in values:
        if v in seen:
            print(f"warning: duplicate {name} value {v} ignored", file=sys.stderr)
            continue
        seen.add(v)
        out.append(v)
    return out


def cmd_coverage_curve(args) -> int:
    points = coverage_curve(args.alpha1, args.alpha, args.gamma_min,
                            args.gamma_max, args.steps)
    _write_csv(args.out, ["gamma", "coverage"], points, "coverage-curve", {
        "alpha1": args.alpha1, "alpha": args.alpha,
        "gamma_min": args.gamma_min, "gamma_max": args.gamma_max,
        "steps": args.steps, "out": args.out,
    })
    low = min(points, key=lambda p: p.coverage)
    print(f"wrote {len(points)} points to {args.out}")
    print(f"grid minimum: coverage {low.coverage:.10f} at gamma {low.gamma:.6f}")
    return 0


def cmd_min_coverage(args) -> int:
    alpha1_list = _dedupe(args.alpha1, "alpha1")
    alpha_list = _dedupe(args.alpha, "alpha")
    reports = min_coverage_table(alpha1_list, alpha_list)
    print(f"{'alpha1':>8} {'alpha':>8} {'gamma*':>10} {'min cov':>9} "
          f"{'nominal':>9} {'deficit':>9}")
    rows = []
    for rep in reports:
        nominal = 1.0 - rep.alpha
        deficit = nominal - rep.min_coverage
        print(f"{rep.alpha1:>8.4g} {rep.alpha:>8.4g} {rep.gamma_star:>10.4f} "
              f"{rep.min_coverage:>9.4f} {nominal:>9.4f} {deficit:>9.4f}")
        rows.append((rep.alpha1, rep.alpha, rep.gamma_star,
                     rep.min_coverage, nominal, deficit))
    if args.out:
        _write_csv(args.out, ["alpha1", "alpha", "gamma_star", "min_coverage",
                              "nominal", "deficit"], rows, "min-coverage", {
            "alpha1": alpha1_list, "alpha": alpha_list, "out": args.out,
        })
        print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _simulation_checks(config: SimConfig):
    """gamma, the simulated tally, and its coverage and accept-rate checks."""
    gamma = scaled_carryover(config.params.differential_carryover, config.design,
                             config.two_stage.sigma_e)
    analytic = coverage_probability(CoverageQuery(gamma, config.alpha1, config.alpha)).value
    empirical = empirical_coverage(config)
    accept = _accept_prob(gamma, std_normal_quantile(config.alpha1))
    return (gamma, empirical,
            Check("coverage", empirical.estimate, analytic,
                  empirical.z_against(analytic), _Z_GATE),
            Check("accept rate", empirical.accept_rate, accept,
                  _binomial_z(empirical.accept_rate, accept, empirical.total), _Z_GATE))


def cmd_simulate(args) -> int:
    design = TrialDesign(args.n1, args.n2)
    params = ModelParams(args.theta, args.psi, args.sigma_s2, args.sigma_e2)
    config = SimConfig(design, params, args.alpha1, args.alpha, args.reps, args.seed)
    gamma, empirical, coverage, accept = _simulation_checks(config)
    print(f"gamma: {gamma!r}")
    print(f"analytic coverage: {coverage.expected:.6f}")
    print(f"empirical coverage: {empirical.estimate:.6f} "
          f"+/- {empirical.std_err:.6f} ({empirical.total} replications)")
    print(f"accept rate: {empirical.accept_rate:.6f}")
    print(f"accept z score: {accept.statistic:.3f}")
    print(f"z score: {coverage.statistic:.3f}")
    ok = coverage.passed and accept.passed
    print(f"result: {'PASS' if ok else 'FAIL'} (|z| <= {coverage.gate:g})")
    return 0 if ok else 1


def cmd_efficiency(args) -> int:
    comp = efficiency_comparison(args.sigma_s2, args.sigma_e2, args.n)
    ratio = comp.var_robust / comp.var_randomized
    print(f"var(robust crossover estimator): {comp.var_robust!r}")
    print(f"var(completely randomized estimator): {comp.var_randomized!r}")
    print(f"variance ratio (crossover / randomized): {ratio:.6f}")
    verdict = "yes" if comp.crossover_preferred else "no"
    threshold = 4.5 * args.sigma_e2
    print(f"sigma_s2 >= 4.5 * sigma_e2: {verdict} ({args.sigma_s2!r} vs {threshold!r})")
    print(f"crossover preferred: {verdict}")
    return 0


def validation_checks(reps: int, seed: int):
    """Yield validate's 20 checks (routes, five gamma, nine moments) as each completes."""
    if reps < _VALIDATE_MIN_REPS:
        raise DomainError(
            f"validate --reps must be at least {_VALIDATE_MIN_REPS}, got {reps}: "
            "the moment gates use large-sample standard errors, which fail correct "
            "code far more often than their nominal rate on fewer replications")
    # Checked before any check runs; seed + i below wraps to a Philox key.
    seed = _checked_int("validate --seed", seed, 0, 2**64)

    # (a) cross-route agreement of the reject-branch joint term.
    max_gap = 0.0
    for g, a1, a in itertools.product(*_ROUTE_GRID):
        try:
            via_bvn, via_quad, _ = reject_cover_routes(g, a1, a)
            gap = abs(via_bvn - via_quad)
        except RouteDisagreementError as exc:  # a failed check, not a crash
            gap = math.inf if math.isnan(exc.err_bound) else exc.err_bound
        max_gap = max(max_gap, gap)
    yield Check("route agreement", max_gap, 0.0, max_gap, ROUTE_AGREEMENT_TOL)

    # (b) empirical coverage and accept rate against the analytic engine.
    design = TrialDesign(2, 2)
    alpha1, alpha = 0.1, 0.05
    for i, target_gamma in enumerate([0.0, 0.5, 1.0, 2.0, 4.0]):
        psi = target_gamma / scaled_carryover(1.0, design, 1.0)
        params = ModelParams(0.7, psi, between_subject_var=1.0, error_var=1.0)
        config = SimConfig(design, params, alpha1, alpha, reps, (seed + i) % 2**64)
        for check in _simulation_checks(config)[2:]:
            yield replace(check, name=f"{check.name} gamma={target_gamma}")

    # (c) estimator moments against their closed forms.
    mom_design = TrialDesign(8, 8)
    mom_params = ModelParams(0.7, 0.3, between_subject_var=1.0, error_var=1.0)
    mom_config = SimConfig(mom_design, mom_params, alpha1, alpha, reps, seed)
    sample = estimator_moments(mom_config)
    exact = theoretical_moments(mom_design, mom_params)
    std_err = _moment_std_errors(exact, reps)
    for field in fields(EstimatorMoments):
        got, want, se = (getattr(m, field.name) for m in (sample, exact, std_err))
        yield Check(f"moments {field.name}", got, want, (got - want) / se, 4.0)


def cmd_validate(args) -> int:
    failures = 0
    # Printed as each check completes: the first line waits on no simulation.
    for check in validation_checks(args.reps, args.seed):
        if check.name == "route agreement":
            detail = (f"max gap {check.statistic:.3e} over {math.prod(map(len, _ROUTE_GRID))}"
                      f" triples (tol {check.gate:.0e})")
        elif check.name.startswith("moments "):
            detail = (f"observed {check.observed:.6f} expected {check.expected:.6f} "
                      f"z {check.statistic:+.2f} (gate {check.gate:g})")
        else:
            detail = (f"analytic {check.expected:.6f} empirical {check.observed:.6f} "
                      f"z {check.statistic:+.2f} (gate {check.gate:g})")
        print(f"{'PASS' if check.passed else 'FAIL'}  {check.name}: {detail}")
        failures += not check.passed
    print(f"failures: {failures}")
    return 0 if not failures else 1


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads -1e-3, -2.5E-1, -inf and -nan as values, not flags."""

    #: Negative numbers in every spelling float() reads. argparse's own pattern
    #: (-1 and -.5 only, in Python 3.11) is the private attribute this replaces.
    #: No flag here looks like a number, so none can be mistaken for one.
    _NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$",
                                  re.IGNORECASE)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = self._NEGATIVE_NUMBER


def build_parser() -> argparse.ArgumentParser:
    # Subparsers are built with the parser's own class, so they read numbers alike.
    parser = _Parser(
        prog="crossover-coverage",
        description="Coverage analysis of the two-stage ABAB/BABA crossover "
                    "confidence interval.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    curve = sub.add_parser(
        "coverage-curve",
        help="evaluate the coverage curve on a gamma grid and write it as CSV")
    curve.add_argument("--alpha1", type=float, default=0.1, help=_ALPHA1_HELP)
    curve.add_argument("--alpha", type=float, default=0.05, help=_ALPHA_HELP)
    curve.add_argument("--gamma-min", type=float, default=-8.0,
                       help="first gamma of the grid, finite and below --gamma-max "
                            "(default %(default)s)")
    curve.add_argument("--gamma-max", type=float, default=8.0,
                       help="last gamma of the grid, finite (default %(default)s)")
    curve.add_argument("--steps", type=int, default=801,
                       help="grid points, endpoints included, in [2, 2**60) "
                            "(default %(default)s)")
    curve.add_argument("--out", required=True, help="CSV output path")
    curve.set_defaults(func=cmd_coverage_curve)

    minc = sub.add_parser(
        "min-coverage",
        help="minimum coverage over gamma for a grid of level pairs")
    minc.add_argument("--alpha1", type=float, nargs="+",
                      default=[0.01, 0.05, 0.1, 0.2],
                      help=f"one or more; each a {_ALPHA1_HELP}")
    minc.add_argument("--alpha", type=float, nargs="+",
                      default=[0.01, 0.05, 0.1],
                      help=f"one or more; each {_ALPHA_HELP}")
    minc.add_argument("--out", default=None, help="optional CSV output path")
    minc.set_defaults(func=cmd_min_coverage)

    sim = sub.add_parser(
        "simulate",
        help="compare simulated coverage against the analytic value")
    sim.add_argument("--n1", type=int, default=8,
                     help="subjects in group 1 (ABAB), at least 1 (default %(default)s)")
    sim.add_argument("--n2", type=int, default=8,
                     help="subjects in group 2 (BABA), at least 1 (default %(default)s)")
    sim.add_argument("--theta", type=float, default=0.0,
                     help="true treatment difference, finite (default %(default)s)")
    sim.add_argument("--psi", type=float, default=0.0,
                     help="true differential carryover, finite (default %(default)s)")
    sim.add_argument("--sigma-s2", type=float, default=1.0,
                     help="between-subject variance; it cancels from every estimator, "
                          "so the run does not draw it (default 1)")
    sim.add_argument("--sigma-e2", type=float, default=1.0,
                     help="error variance; the procedure's sigma_e is its square root "
                          "(default 1)")
    sim.add_argument("--alpha1", type=float, default=0.1, help=_ALPHA1_HELP)
    sim.add_argument("--alpha", type=float, default=0.05, help=_ALPHA_HELP)
    sim.add_argument("--reps", type=int, default=1_000_000,
                     help="replications, at least 1 (default %(default)s)")
    sim.add_argument("--seed", type=int, default=0, help=_SEED_HELP)
    sim.set_defaults(func=cmd_simulate)

    eff = sub.add_parser(
        "efficiency",
        help="robust crossover estimator vs a completely randomized trial")
    eff.add_argument("--sigma-s2", type=float, required=True,
                     help="between-subject variance, at least 0 (required)")
    eff.add_argument("--sigma-e2", type=float, default=1.0,
                     help="error variance, above 0 (default %(default)s); both "
                          "variances of the comparison must come out normal floats")
    eff.add_argument("--n", type=int, default=10,
                     help="subjects per group, at least 1 (default %(default)s)")
    eff.set_defaults(func=cmd_efficiency)

    val = sub.add_parser(
        "validate",
        help="run the cross-route and analytic-vs-simulation checks")
    val.add_argument("--seed", type=int, default=1729,
                     help=f"{_SEED_HELP}; the run at the i-th gamma keys seed + i, "
                          "wrapped below 2**64")
    val.add_argument("--reps", type=int, default=1_000_000,
                     help=f"replications per simulation check, at least {_VALIDATE_MIN_REPS} "
                          "(default %(default)s)")
    val.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    """The command line as a one-shot process: ``main`` on ``sys.argv``, then exit.

    It freezes the heap before parsing. At exit, CPython's finalizer runs
    full collections, which ignore ``gc.disable()``, over every tracked
    object: about 52k of them from the imports of numpy and scipy, some
    50 ms a run. ``gc.freeze()`` moves them to the permanent generation,
    which no collection visits. Frozen objects are never collected, which
    is harmless in a process that exits after one command.
    """
    gc.freeze()
    raise SystemExit(main())

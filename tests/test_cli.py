"""Tests for the command-line interface."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from crossover_coverage import (
    CoverageQuery,
    NumericalError,
    RouteDisagreementError,
    TrialDesign,
    coverage_probability,
    estimator_moments,
    scaled_carryover,
)
from crossover_coverage.cli import main

import crossover_coverage.cli
import crossover_coverage.simulate


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, rows


class TestCoverageCurve:
    def test_default_curve(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        assert main(["coverage-curve", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["gamma", "coverage"]
        assert len(rows) == 801
        gammas = [r[0] for r in rows]
        covs = [r[1] for r in rows]
        assert gammas[0] == -8.0 and gammas[-1] == 8.0
        assert abs(covs[0] - 0.95) <= 1e-4
        assert abs(covs[-1] - 0.95) <= 1e-4
        # symmetric grid, symmetric curve
        asym = max(abs(a - b) for a, b in zip(covs, covs[::-1]))
        assert asym <= 1e-10
        assert min(covs) < 0.50
        assert abs(min(covs) - 0.4711) <= 1e-3
        stdout = capsys.readouterr().out
        assert "grid minimum" in stdout

    def test_rerun_byte_identical(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ["coverage-curve", "--steps", "41", "--gamma-min", "-4",
                "--gamma-max", "4"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_round_trip_reevaluation(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert main(["coverage-curve", "--steps", "21", "--gamma-min", "-2",
                     "--gamma-max", "2", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        for gamma, stored in rows:
            again = coverage_probability(CoverageQuery(gamma, 0.1, 0.05)).value
            assert abs(again - stored) <= 1e-12

    def test_two_step_grid(self, tmp_path):
        out = tmp_path / "two.csv"
        assert main(["coverage-curve", "--steps", "2", "--gamma-min", "0",
                     "--gamma-max", "1", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 2

    def test_manifest_written(self, tmp_path):
        out = tmp_path / "curve.csv"
        main(["coverage-curve", "--steps", "5", "--gamma-min", "0",
              "--gamma-max", "1", "--out", str(out)])
        manifest = json.loads((tmp_path / "curve.csv.manifest.json").read_text())
        assert manifest["command"] == "coverage-curve"
        assert manifest["parameters"]["steps"] == 5
        assert "version" in manifest and "timestamp" in manifest

    def test_invalid_level_is_usage_error(self, tmp_path, capsys):
        code = main(["coverage-curve", "--alpha", "1.5",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_unwritable_path_is_io_error(self, tmp_path, capsys):
        code = main(["coverage-curve", "--steps", "2", "--gamma-min", "0",
                     "--gamma-max", "1",
                     "--out", str(tmp_path / "no" / "such" / "dir.csv")])
        assert code == 3
        assert "I/O error" in capsys.readouterr().err


class TestMinCoverage:
    def test_headline_pair(self, capsys):
        assert main(["min-coverage", "--alpha1", "0.1", "--alpha", "0.05"]) == 0
        stdout = capsys.readouterr().out
        assert "0.4711" in stdout

    def test_deficits_positive(self, tmp_path):
        out = tmp_path / "table.csv"
        assert main(["min-coverage", "--alpha1", "0.05", "0.1",
                     "--alpha", "0.05", "0.1", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["alpha1", "alpha", "gamma_star", "min_coverage",
                          "nominal", "deficit"]
        assert len(rows) == 4
        for row in rows:
            assert row[5] > 0.0
            assert row[2] > 0.0

    def test_duplicates_deduped_with_warning(self, capsys):
        assert main(["min-coverage", "--alpha1", "0.1", "0.1",
                     "--alpha", "0.05"]) == 0
        captured = capsys.readouterr()
        assert "duplicate" in captured.err
        assert len([l for l in captured.out.splitlines() if l.strip()]) == 2

    def test_subnormal_level_refused_by_name(self, capsys):
        # The half of 5e-324 underflows; the refusal names the flag's level.
        assert main(["min-coverage", "--alpha1", "5e-324"]) == 2
        assert capsys.readouterr().err.startswith("error: alpha1 must")


class TestSimulate:
    ARGS = ["simulate", "--n1", "2", "--n2", "2", "--theta", "0.7",
            "--psi", "0", "--reps", "20000", "--seed", "5"]

    def test_null_configuration(self, capsys):
        assert main(self.ARGS) == 0
        stdout = capsys.readouterr().out
        accept = float(re.search(r"accept rate: ([0-9.]+)", stdout).group(1))
        assert abs(accept - 0.9) <= 4.0 * math.sqrt(0.9 * 0.1 / 20000)
        assert "result: PASS" in stdout

    def test_fixed_seed_identical_report(self, capsys):
        assert main(self.ARGS) == 0
        first = capsys.readouterr().out
        assert main(self.ARGS) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_sample_size_invariance(self, capsys):
        # Same gamma realized with n=10 and n=1000; the analytic value
        # must be identical and the empirical estimates consistent.
        reports = []
        for n, psi in ((10, 0.6708203932499369), (1000, 0.0670820393249937)):
            code = main(["simulate", "--n1", str(n), "--n2", str(n),
                         "--theta", "0.5", "--psi", repr(psi),
                         "--reps", "3000", "--seed", "8"])
            assert code == 0
            reports.append(capsys.readouterr().out)
        analytic = [re.search(r"analytic coverage: ([0-9.]+)", r).group(1)
                    for r in reports]
        assert analytic[0] == analytic[1]
        emp = [(float(m.group(1)), float(m.group(2))) for m in
               (re.search(r"empirical coverage: ([0-9.]+) \+/- ([0-9.]+)", r)
                for r in reports)]
        gap = abs(emp[0][0] - emp[1][0])
        assert gap <= 5.0 * math.hypot(emp[0][1], emp[1][1])

    def test_every_replication_hitting_is_no_failure(self, capsys):
        # 20 hits out of 20 at coverage 0.914: z uses the expected coverage's
        # standard error, not the sample's, which is 0 here.
        assert main(["simulate", "--reps", "20", "--seed", "0"]) == 0
        stdout = capsys.readouterr().out
        assert "empirical coverage: 1.000000 +/- 0.000000" in stdout
        assert "result: PASS" in stdout

    def test_gamma_is_that_of_the_given_psi(self, capsys):
        main(["simulate", "--psi", "0.9", "--reps", "20"])
        gamma = scaled_carryover(0.9, TrialDesign(8, 8), 1.0)
        assert capsys.readouterr().out.startswith(f"gamma: {gamma!r}\n")

    @pytest.mark.parametrize("estimator, corrupt, failed_line", [
        ("carryover_effect_estimate", lambda d1, d2, d3, d4: 0.9 * (d1 - d3),
         "accept z score: -33.705"),
        ("pooled_effect_estimate", lambda d1, d2, d3, d4: 0.3 * (d1 - d2 + d3 - d4),
         "z score: -26.644"),
    ], ids=["accept-rate-gate", "coverage-gate"])
    def test_corrupted_estimator_fails_its_gate(self, capsys, monkeypatch, estimator,
                                                corrupt, failed_line):
        # Each gate fails on its own: the other z stays within 3.5.
        monkeypatch.setattr(crossover_coverage.simulate, estimator, corrupt)
        assert main(self.ARGS) == 1
        lines = capsys.readouterr().out.splitlines()
        assert failed_line in lines
        zs = [float(line.rsplit(" ", 1)[1]) for line in lines if "z score: " in line]
        assert sum(abs(z) > 3.5 for z in zs) == 1
        assert lines[-1] == "result: FAIL (|z| <= 3.5)"

    def test_bad_domain_exits_2(self, capsys):
        code = main(["simulate", "--sigma-e2", "-1", "--reps", "10"])
        assert code == 2

    def test_subnormal_level_refused_by_name(self, capsys):
        assert main(["simulate", "--alpha", "5e-324", "--reps", "10"]) == 2
        assert capsys.readouterr().err.startswith("error: alpha must")

    def test_overflow_is_a_numerical_failure(self, capsys):
        # NaN estimates must not be tallied as misses and reported as FAIL.
        assert main(["simulate", "--theta", "1e308", "--reps", "10"]) == 1
        out, err = capsys.readouterr()
        assert "numerical failure:" in err
        assert "result:" not in out

    def test_overflow_prints_no_numpy_warning(self):
        # Under -W error a warning would end the run with a traceback.
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        result = subprocess.run(
            [sys.executable, "-W", "error", "-m", "crossover_coverage", "simulate",
             "--theta", "1e308", "--reps", "10"],
            env=env, capture_output=True, text=True, timeout=120)
        assert result.returncode == 1
        assert result.stderr.startswith("numerical failure:")
        assert "RuntimeWarning" not in result.stderr

    @pytest.mark.parametrize("theta", ["1e17", "1e15"])
    def test_noise_rounded_away_is_a_numerical_failure(self, capsys, theta):
        # Responses near theta keep no unit noise: a tally of them would
        # read as a failed validation.
        assert main(["simulate", "--theta", theta, "--reps", "2000", "--seed", "5"]) == 1
        out, err = capsys.readouterr()
        assert err.startswith("numerical failure:")
        assert "result:" not in out

    def test_design_wider_than_a_subject_level_chunk_runs(self, capsys):
        # The tally draws four words per replication whatever the design.
        assert main(["simulate", "--n1", "18446744073709551615", "--reps", "1"]) == 0
        out, err = capsys.readouterr()
        assert "(1 replications)" in out
        assert err == ""


class TestEfficiency:
    @pytest.mark.parametrize("sigma_s2,sigma_e2,n", [
        ("0", "5e-324", "2"),  # var_robust is subnormal, var_randomized 0
        ("1e308", "1e308", "1"),  # both variances overflow
        ("0", "1e308", "1"),  # var_robust overflows
        ("0", "1e-300", "18446744073709551615"),  # subnormal variances
    ])
    def test_variances_outside_normal_range_are_usage_errors(self, capsys, sigma_s2,
                                                             sigma_e2, n):
        assert main(["efficiency", "--sigma-s2", sigma_s2, "--sigma-e2", sigma_e2,
                     "--n", n]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: var_") and err.count("\n") == 1

    def test_boundary_equality(self, capsys):
        assert main(["efficiency", "--sigma-s2", "4.5", "--sigma-e2", "1.0",
                     "--n", "10"]) == 0
        stdout = capsys.readouterr().out
        assert "crossover preferred: yes" in stdout
        assert "sigma_s2 >= 4.5 * sigma_e2: yes" in stdout

    def test_both_verdict_lines_agree_at_rounded_boundary(self, capsys):
        # sigma_s2 is exactly 4.5 * sigma_e2, but the two rounded variances
        # put the randomized one below the crossover one.
        assert main(["efficiency", "--sigma-s2", "34.254066711044835",
                     "--sigma-e2", "7.61201482467663", "--n", "32"]) == 0
        stdout = capsys.readouterr().out
        assert "sigma_s2 >= 4.5 * sigma_e2: yes" in stdout
        assert "crossover preferred: yes" in stdout

    def test_zero_subject_variance_ratio(self, capsys):
        assert main(["efficiency", "--sigma-s2", "0", "--n", "10"]) == 0
        stdout = capsys.readouterr().out
        assert "variance ratio (crossover / randomized): 5.500000" in stdout
        assert "crossover preferred: no" in stdout

    def test_n_does_not_change_preference(self, capsys):
        verdicts = []
        for n in ("2", "50"):
            main(["efficiency", "--sigma-s2", "2.0", "--n", n])
            verdicts.append("crossover preferred: no"
                            in capsys.readouterr().out)
        assert verdicts[0] == verdicts[1]


class TestValidate:
    def test_smoke_run_passes(self, capsys):
        assert main(["validate", "--reps", "2000", "--seed", "1729"]) == 0
        stdout = capsys.readouterr().out
        assert "failures: 0" in stdout
        assert "FAIL" not in stdout

    def test_single_replication_is_usage_error(self, capsys):
        assert main(["validate", "--reps", "1", "--seed", "3"]) == 2
        assert "--reps must be at least 1000" in capsys.readouterr().err

    @pytest.mark.parametrize("reps", ["2", "999"])
    def test_fewer_than_1000_replications_are_usage_errors(self, capsys, reps):
        # The moment gates' large-sample standard errors: at 2 replications
        # about one seed in five FAILs a moment on correct code.
        assert main(["validate", "--reps", reps, "--seed", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: validate --reps must be at least 1000, got {reps}: ")
        assert "large-sample standard errors" in err

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_bad_seed_is_usage_error_before_any_check(self, capsys, seed):
        assert main(["validate", "--reps", "2000", "--seed", seed]) == 2
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert "validate --seed must be" in captured.err

    def test_corrupted_estimator_fails(self, capsys, monkeypatch):
        # Sensitivity check: a wrong coefficient in the pooled estimator
        # must trip the suite.
        monkeypatch.setattr(
            crossover_coverage.simulate, "pooled_effect_estimate",
            lambda d1, d2, d3, d4: 0.3 * (d1 - d2 + d3 - d4))
        assert main(["validate", "--reps", "2000", "--seed", "1729"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_corrupted_pretest_fails_accept_rate(self, capsys, monkeypatch):
        # A wrong carryover coefficient moves the pretest's accept rate.
        monkeypatch.setattr(
            crossover_coverage.simulate, "carryover_effect_estimate",
            lambda d1, d2, d3, d4: 0.9 * (d1 - d3))
        assert main(["validate", "--reps", "2000", "--seed", "1729"]) == 1
        assert re.search(r"^FAIL  accept rate gamma=", capsys.readouterr().out, re.M)

    def test_moments_run_at_the_requested_replications(self, capsys, monkeypatch):
        # The moments fold in flat memory, so --reps is not capped for them.
        seen = []

        def recording(config):
            seen.append(config.replications)
            return estimator_moments(config)

        monkeypatch.setattr(crossover_coverage.cli, "estimator_moments", recording)
        assert main(["validate", "--reps", "200000", "--seed", "1729"]) == 0
        assert seen == [200_000]

    def test_checks_print_as_they_complete(self, capsys, monkeypatch):
        # The moments run last: when they fail, the 11 checks before them
        # are already on stdout and no summary line follows.
        def broken(config):
            raise NumericalError("moments overflowed")

        monkeypatch.setattr(crossover_coverage.cli, "estimator_moments", broken)
        assert main(["validate", "--reps", "2000", "--seed", "1729"]) == 1
        out, err = capsys.readouterr()
        lines = out.splitlines()
        assert len(lines) == 11
        assert all(line.startswith("PASS  ") for line in lines)
        assert "failures:" not in out
        assert err == "numerical failure: moments overflowed\n"

    def test_route_disagreement_is_a_failed_check(self, capsys, monkeypatch):
        # The routes raise past their tolerance; validate reports that as
        # one failed check and still runs the others.
        def disagree(gamma, alpha1, alpha):
            raise RouteDisagreementError("routes differ", estimate=0.5, err_bound=1e-6)

        monkeypatch.setattr(crossover_coverage.cli, "reject_cover_routes", disagree)
        assert main(["validate", "--reps", "2000", "--seed", "1729"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith(
            "FAIL  route agreement: max gap 1.000e-06 over 45 triples")
        assert len(lines) == 21
        assert all(line.startswith("PASS  ") for line in lines[1:-1])
        assert lines[-1] == "failures: 1"


class TestUsage:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

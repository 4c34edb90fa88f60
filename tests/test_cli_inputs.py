"""Generated flag values for every command end in a documented exit status.

Each command runs in-process through ``cli.main`` with flags drawn from
edge pools: signed zeros, subnormals, the largest floats, +/-inf, NaN and
2**64 +/- 1, with at most 50 replications (1,000 for validate, the fewest
it runs). Every invocation must exit 0, 1, 2 or 3 (argparse's own usage
errors included), let no exception escape, raise no warning and print no
nan or inf. Runs are derandomized, so the suite draws the same
invocations every time.
"""

import contextlib
import io
import re
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossover_coverage.cli import main

# Ordinary values first: hypothesis starts near the head of each pool.
FLOATS = ["0.1", "0.05", "0.5", "1.0", "4.5", "1e-300", "2.2250738585072014e-308",
          "5e-324", "0", "-0.0", "1e154", "1e308", "inf", "-inf", "nan"]
N = [-1, 0, 1, 2, 10, 2**64 - 1, 2**64 + 1]
GROUP_SIZES = [-1, 0, 1, 2, 8, 3277, 2**64 - 1]
REPS = [-1, 0, 1, 2, 50]
VALIDATE_REPS = [-1, 0, 1, 999, 1000]
SEEDS = [-1, 0, 1, 2**63, 2**64 - 1, 2**64]
STEPS = [-1, 0, 1, 2, 3, 801]

#: A placeholder that each run replaces with a path under its temporary directory.
OUT = "<out>"

NON_FINITE = re.compile(r"(?<![a-z])(nan|inf)(?![a-z])", re.IGNORECASE)


def given_flag(name, pool):
    """``--name=value`` with a value from the pool; the ``=`` lets ``-inf`` parse."""
    return st.sampled_from(pool).map(lambda v: [f"--{name}={v}"])


def some_flags(pools, max_size):
    """Up to max_size of the flags, each from its pool; the rest keep their defaults."""
    return st.lists(st.sampled_from(sorted(pools)), unique=True, max_size=max_size).flatmap(
        lambda names: st.tuples(*(given_flag(name, pools[name]) for name in names))).map(
        lambda parts: [a for part in parts for a in part])


def levels(name):
    """One level list of one or two entries; two go as separate arguments."""
    one = given_flag(name, FLOATS)
    two = st.lists(st.sampled_from(FLOATS), min_size=2, max_size=2).map(
        lambda vs: [f"--{name}", *vs])
    return st.one_of(one, two)


def command(name, *parts):
    return st.tuples(*parts).map(lambda parts: [name, *(a for part in parts for a in part)])


COMMANDS = {
    "coverage-curve": command(
        "coverage-curve",
        some_flags({"alpha1": FLOATS, "alpha": FLOATS, "gamma-min": FLOATS,
                    "gamma-max": FLOATS, "steps": STEPS}, 3),
        st.just(["--out", OUT])),
    "min-coverage": command(
        "min-coverage", levels("alpha1"), levels("alpha"),
        st.sampled_from([[], ["--out", OUT]])),
    # --reps is always given: the default runs a million replications.
    "simulate": command(
        "simulate",
        some_flags({"n1": GROUP_SIZES, "n2": GROUP_SIZES, "seed": SEEDS,
                    **dict.fromkeys(["theta", "psi", "sigma-s2", "sigma-e2",
                                     "alpha1", "alpha"], FLOATS)}, 3),
        given_flag("reps", REPS)),
    "efficiency": command(
        "efficiency", given_flag("sigma-s2", FLOATS),
        some_flags({"sigma-e2": FLOATS, "n": N}, 2)),
    "validate": command("validate", some_flags({"seed": SEEDS}, 1),
                        given_flag("reps", VALIDATE_REPS)),
}


#: Invocations per command. simulate and efficiency get more: most of their
#: invocations are refused early, and the huge designs and the variance-range
#: checks need one edge value among otherwise valid flags.
EXAMPLES = {"simulate": 100, "efficiency": 40}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_generated_flags_exit_cleanly(name, tmp_path_factory):
    out = str(tmp_path_factory.mktemp(name) / "out.csv")

    @settings(max_examples=EXAMPLES.get(name, 20), deadline=None, derandomize=True)
    @given(argv=COMMANDS[name])
    def run(argv):
        argv = [out if a == OUT else a for a in argv]
        stdout = io.StringIO()
        with (contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()),
              warnings.catch_warnings()):
            warnings.simplefilter("error")
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
        assert code in (0, 1, 2, 3), argv
        assert not NON_FINITE.search(stdout.getvalue()), (argv, stdout.getvalue())

    run()

"""The command line's two process entries: ``python -m crossover_coverage`` and ``cli.run()``.

Both go through ``cli.run``, which freezes the heap before parsing so
that the interpreter's exit skips its import-time objects. Each case runs
in a fresh interpreter whose ``sitecustomize`` registers an ``atexit``
hook that reports ``gc.get_freeze_count()`` on stderr, and its stdout bytes
and exit status must be those of ``cli.main`` called in this process.
"""

import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

from crossover_coverage.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

SITECUSTOMIZE = """\
import atexit, gc, sys
atexit.register(lambda: print(f"freeze count {gc.get_freeze_count()}", file=sys.stderr))
"""

ENTRIES = {
    "module": [sys.executable, "-m", "crossover_coverage"],
    "run": [sys.executable, "-c", "from crossover_coverage.cli import run; run()"],
}

CASES = {
    # Seed 1 at 1,000 replications is one of the gates' false alarms (z +3.72).
    "validate": (["validate", "--reps", "1000", "--seed", "2"], 0),
    "overflow": (["simulate", "--theta", "1e308", "--reps", "10"], 1),
    "usage": (["validate", "--reps", "2000", "--sed", "1"], 2),
    "unwritable": (["min-coverage", "--alpha1", "0.1", "--alpha", "0.05",
                    "--out", "{missing}/table.csv"], 3),
}


def _argv(case, tmp):
    argv, _ = CASES[case]
    return [arg.format(missing=tmp / "missing") for arg in argv]


@pytest.fixture(scope="module")
def children(tmp_path_factory):
    """Every (entry, case) child, started together and waited for."""
    tmp = tmp_path_factory.mktemp("entry")
    hook = tmp / "hook"
    hook.mkdir()
    (hook / "sitecustomize.py").write_text(SITECUSTOMIZE)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(hook), str(SRC), env.get("PYTHONPATH")) if p)
    procs = {(entry, case): subprocess.Popen(
                 cmd + _argv(case, tmp), env=env, stdout=subprocess.PIPE,
                 stderr=subprocess.PIPE)
             for entry, cmd in ENTRIES.items() for case in CASES}
    results = {key: (proc.communicate(timeout=120), proc.returncode)
               for key, proc in procs.items()}
    return tmp, results


def _in_process(argv, capsysbinary):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    return capsysbinary.readouterr().out, code


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("entry", ENTRIES)
def test_child_matches_main_in_process(children, capsysbinary, entry, case):
    tmp, results = children
    (out, err), code = results[entry, case]
    assert code == CASES[case][1], err.decode()
    assert (out, code) == _in_process(_argv(case, tmp), capsysbinary)


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("entry", ENTRIES)
def test_heap_is_frozen_at_exit(children, entry, case):
    (_, err), _ = children[1][entry, case]
    last = err.decode().splitlines()[-1]
    assert last.startswith("freeze count ")
    assert int(last.rsplit(" ", 1)[1]) > 0


def test_main_in_process_freezes_nothing(capsys):
    assert main(["efficiency", "--sigma-s2", "4.5"]) == 0
    assert gc.get_freeze_count() == 0

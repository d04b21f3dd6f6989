"""Golden CLI corpus: fixed ``gapdp`` runs pinned byte for byte.

Each run in ``RUNS`` executes ``gapdp.cli.main(argv)`` in-process, inside
``tests/data/cli`` (so ``--dataset`` paths are relative to it), and must
reproduce ``tests/data/cli/<name>.txt``: its exit code, stdout and stderr.
Each demo in ``DEMO_RUNS`` runs in-process through ``runpy`` and must
reproduce its stdout in ``tests/data/demos/<name>.txt``.
A file's first lines, marked ``#``, record the command and the numpy and
Python versions it was written with; they are not compared, and a failure
message names them, since numpy's ``log1p`` can move the last bit of a
draw between releases.

A deliberate output change regenerates every file with one command:

    PYTHONPATH=src python tests/test_cli_corpus.py

and the change's notes name the files that changed (``git status``).
"""

from __future__ import annotations

import contextlib
import io
import os
import platform
import runpy
import shlex
from pathlib import Path

import numpy as np
import pytest

from gapdp import cli

CORPUS = Path(__file__).parent / "data" / "cli"
DEMO_CORPUS = Path(__file__).parent / "data" / "demos"
DEMOS = Path(__file__).parents[1] / "demos"

TRIAL_EXPERIMENTS = (
    "mse-reduction-svt",
    "mse-reduction-topk",
    "adaptive-counts",
    "precision-fmeasure",
    "remaining-budget",
)


def _core() -> dict[str, list[str]]:
    """Every trial experiment, noise family and monotonic flag on one
    shuffled synthetic set: three eps by two k cells of 400 trials."""
    runs = {}
    for experiment in TRIAL_EXPERIMENTS:
        for noise in ("laplace", "exp", "geo"):
            for mono in (0, 1):
                runs[f"{experiment}-{noise}-mono{mono}"] = [
                    experiment, "--synthetic", f"n=60,step=3,base=100,order=shuffle,mono={mono}",
                    "--eps", "0.3,0.7,2", "--k", "2,5", "--trials", "400", "--seed", "11",
                    "--noise", noise,
                ]
    return runs


TOPK_PAPER = ["mse-reduction-topk", "--synthetic", "n=60,step=2000,base=10000,order=desc",
              "--eps", "0.7", "--k", "2,5,10,25"]

RUNS: dict[str, list[str]] = {
    **_core(),
    # The benchmark's paper invocations, at its timed trial counts.
    "paper-topk-laplace": TOPK_PAPER + ["--noise", "laplace", "--trials", "30", "--seed", "1"],
    "paper-topk-exp": TOPK_PAPER + ["--noise", "exp", "--trials", "30", "--seed", "1"],
    "paper-svt": ["mse-reduction-svt", "--synthetic", "n=100,step=2000,base=10000,order=desc",
                  "--eps", "0.7", "--k", "10", "--trials", "120", "--seed", "1"],
    "paper-adaptive": ["adaptive-counts", "--synthetic", "n=200,order=asc", "--eps", "0.7",
                       "--k", "2,10,24", "--trials", "15", "--seed", "1"],
    # README's top-k example at a small trial count.
    "readme-topk": TOPK_PAPER + ["--trials", "200"],
    "json-remaining-budget": ["remaining-budget", "--synthetic", "n=60,order=desc",
                              "--eps", "0.5,1.5", "--k", "2,3", "--trials", "300", "--seed", "4",
                              "--format", "json"],
    "dataset-adaptive-counts": ["adaptive-counts", "--dataset", "transactions.dat",
                                "--eps", "0.7", "--k", "2..4", "--trials", "200", "--seed", "2"],
    "dataset-mse-reduction-topk": ["mse-reduction-topk", "--dataset", "transactions.dat",
                                   "--eps", "1", "--k", "3", "--trials", "200", "--seed", "2"],
    "audit-eps1-trials50000-seed5": ["audit", "--eps", "1.0", "--trials", "50000", "--seed", "5"],
    # Config errors (exit 1), data errors (exit 2) and edges.
    "error-unknown-experiment": ["nonsense"],
    "error-k-zero": ["mse-reduction-svt", "--synthetic", "n=60", "--k", "0"],
    "error-eps-not-a-number": ["mse-reduction-svt", "--eps", "abc"],
    "error-audit-trials-100": ["audit", "--trials", "100"],
    "error-audit-no-qualified-bin": ["audit", "--trials", "20000"],
    "error-too-few-queries": ["adaptive-counts", "--synthetic", "n=20,order=desc", "--k", "3",
                              "--trials", "10"],
    "error-dataset-and-synthetic": ["adaptive-counts", "--dataset", "transactions.dat",
                                    "--synthetic", "n=60"],
    "error-dataset-missing": ["adaptive-counts", "--dataset", "no-such-file.txt", "--k", "2"],
    "error-synthetic-not-finite": ["mse-reduction-svt", "--synthetic",
                                   "n=40,step=1e308,base=1e308"],
    "edge-one-trial": ["precision-fmeasure", "--synthetic", "n=60,step=3,base=100", "--eps", "0.7",
                       "--k", "2,5", "--trials", "1", "--seed", "8"],
}

# The demos that print budget ledgers, reported items and charged costs.
DEMO_RUNS = ("02_sparse_vector_with_gap", "04_hybrids_dynamic_budget")


def run(argv: list[str]) -> str:
    """Exit code, stdout and stderr of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(CORPUS)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    return f"--- exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


def run_demo(name: str) -> str:
    """The stdout of one in-process demo run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    return out.getvalue()


def header(command: str) -> str:
    return f"# {command}\n# numpy {np.__version__}, Python {platform.python_version()}\n"


def split(text: str) -> tuple[str, str]:
    """A golden file's ``#`` header lines and the body after them."""
    lines = text.splitlines(keepends=True)
    n = next(i for i, line in enumerate(lines) if not line.startswith("# "))
    return "".join(lines[:n]), "".join(lines[n:])


def check(path: Path, command: str, produce) -> None:
    recorded, want = split(path.read_text())
    assert recorded.splitlines()[0] == header(command).splitlines()[0], "command changed"
    got = produce()
    assert got == want, (
        f"{path.stem} differs from its golden file, recorded with "
        f"{recorded.splitlines()[1][2:]}; "
        f"running numpy {np.__version__}, Python {platform.python_version()}"
    )


@pytest.mark.parametrize("name", RUNS)
def test_cli_run_matches_its_golden_file(name):
    argv = RUNS[name]
    check(CORPUS / f"{name}.txt", f"gapdp {shlex.join(argv)}", lambda: run(argv))


@pytest.mark.parametrize("name", DEMO_RUNS)
def test_demo_matches_its_golden_file(name):
    check(DEMO_CORPUS / f"{name}.txt", f"python demos/{name}.py", lambda: run_demo(name))


def test_every_golden_file_has_a_run():
    assert sorted(p.stem for p in CORPUS.glob("*.txt")) == sorted(RUNS)
    assert sorted(p.stem for p in DEMO_CORPUS.glob("*.txt")) == sorted(DEMO_RUNS)


def regenerate() -> None:
    for name, argv in RUNS.items():
        command = f"gapdp {shlex.join(argv)}"
        (CORPUS / f"{name}.txt").write_text(header(command) + run(argv))
    DEMO_CORPUS.mkdir(exist_ok=True)
    for name in DEMO_RUNS:
        command = f"python demos/{name}.py"
        (DEMO_CORPUS / f"{name}.txt").write_text(header(command) + run_demo(name))


if __name__ == "__main__":
    regenerate()

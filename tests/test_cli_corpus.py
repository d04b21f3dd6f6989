"""Golden CLI corpus: fixed ``gapdp`` runs pinned byte for byte.

Each run in ``RUNS`` executes ``gapdp.cli.main(argv)`` in-process, inside
``tests/data/cli`` (so ``--dataset`` paths are relative to it), and must
reproduce ``tests/data/cli/<name>.txt``: its exit code, stdout and stderr.
The file's first lines, marked ``#``, record the argv and the numpy and
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
import shlex
from pathlib import Path

import numpy as np
import pytest

from gapdp import cli

CORPUS = Path(__file__).parent / "data" / "cli"

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
    "edge-one-trial": ["precision-fmeasure", "--synthetic", "n=60,step=3,base=100", "--eps", "0.7",
                       "--k", "2,5", "--trials", "1", "--seed", "8"],
}


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


def header(argv: list[str]) -> str:
    return (f"# gapdp {shlex.join(argv)}\n"
            f"# numpy {np.__version__}, Python {platform.python_version()}\n")


def split(text: str) -> tuple[str, str]:
    """A golden file's ``#`` header lines and the body after them."""
    lines = text.splitlines(keepends=True)
    n = next(i for i, line in enumerate(lines) if not line.startswith("# "))
    return "".join(lines[:n]), "".join(lines[n:])


@pytest.mark.parametrize("name", RUNS)
def test_cli_run_matches_its_golden_file(name):
    recorded, want = split((CORPUS / f"{name}.txt").read_text())
    assert recorded.splitlines()[0] == header(RUNS[name]).splitlines()[0], "argv changed"
    got = run(RUNS[name])
    assert got == want, (
        f"{name} differs from its golden file, recorded with {recorded.splitlines()[1][2:]}; "
        f"running numpy {np.__version__}, Python {platform.python_version()}"
    )


def test_every_golden_file_has_a_run():
    assert sorted(p.stem for p in CORPUS.glob("*.txt")) == sorted(RUNS)


def regenerate() -> None:
    for name, argv in RUNS.items():
        (CORPUS / f"{name}.txt").write_text(header(argv) + run(argv))


if __name__ == "__main__":
    regenerate()

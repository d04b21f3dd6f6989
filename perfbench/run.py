"""Benchmark entry point for gapdp.

    python3 perfbench/run.py --workload audit-suite --seed 1 --seconds 20 --trace 0

Runs one workload (or ``all``) in fresh single-threaded worker processes,
checks the outputs, writes a result file (and, with ``--trace 1``, a trace
file) under perfbench/out/, and prints every metric by name and unit.  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json
untraced, its per-layer metrics traced.

Set-up time is the median over SETUP_SAMPLES processes, each timed from
spawn to the moment it is ready for its first timed trial.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("audit-suite", "paper-experiments", "dataset-release")
SETUP_SAMPLES = 5
DEADLINE_S = 175.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

sys.path.insert(0, str(HERE))
from checks import SPAN_NAMES, scan_artifact  # noqa: E402


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def metric_units() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    return env


def spawn(args, mode: str, workdir: Path, deadline: float) -> tuple[dict, float]:
    """Run one worker; return its JSON result and its set-up seconds."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--mode", mode, "--workdir", str(workdir)]
    workdir.mkdir(parents=True, exist_ok=True)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE,
                              timeout=max(1.0, deadline - spawned), text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker ({mode}) did not finish in time") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"worker ({mode}) exited with code {proc.returncode}")
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"worker ({mode}) printed no result") from exc
    return result, result["ready"] - spawned


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "threads": {var: child_env()[var] for var in THREAD_VARS},
    }


def write_artifact(path: Path, obj: dict, names) -> list[str]:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")
    return scan_artifact(json.loads(path.read_text()), names)


def run_workload(args) -> dict:
    e2e_units, layer_units = metric_units()
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    samples = []
    for i in range(SETUP_SAMPLES - 1):
        _, setup_s = spawn(args, "setup", OUT / f"work-{os.getpid()}-{i}", deadline)
        samples.append(setup_s)
    res, setup_s = spawn(args, "run", OUT / f"work-{os.getpid()}-run", deadline)
    samples.append(setup_s)

    if args.trace:
        values = res["layers"]
        units = layer_units
    else:
        values = {
            "trials_per_s": res["trials_per_s"],
            "call_us_p50": res["call_us_p50"],
            "call_us_p99": res["call_us_p99"],
            "setup_s": statistics.median(samples),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        units = e2e_units
    if set(values) != set(units):
        raise BenchError(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    names = set(e2e_units) | set(layer_units) | SPAN_NAMES
    problems = list(res["problems"])
    stem = f"{args.workload}-seed{args.seed}"
    if args.trace:
        trace = {"workload": args.workload, "seed": args.seed, "spans": res["spans"]}
        problems += write_artifact(OUT / f"{stem}.trace.json", trace, names)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": not problems, "attempted": res["attempted"],
        "failed": res["failed"], "metrics": metrics, "problems": problems,
        "errors": res["errors"], "rounds": res["rounds"], "trials": res["trials"],
        "setup_samples_s": samples, "calib_ms": res["calib_ms"],
        "environment": environment(),
    }
    problems += write_artifact(OUT / f"{stem}-trace{args.trace}.json", record, names)
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for error in res["errors"]:
        print(f"OPERATION FAILED: {error}", file=sys.stderr)
    return {"correct": not problems, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "gapdp" / "__init__.py").is_file():
        print(f"run.py: no gapdp package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        args.workload = name
        try:
            summary = run_workload(args)
        except BenchError as exc:
            print(f"run.py: {name}: {exc}", file=sys.stderr)
            return 1
        print(f"{name} (seed {args.seed}, trace {args.trace}): "
              f"{summary['attempted']} attempted, {summary['failed']} failed, "
              f"correct={summary['correct']}")
        for metric, m in summary["metrics"].items():
            print(f"  {metric:36s} {m['value']:.6g} {m['unit']}")
        print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

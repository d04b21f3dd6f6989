"""One benchmark process: import gapdp, build a workload, run timed rounds.

Started by run.py with one-thread numpy/BLAS settings and ``src`` on
PYTHONPATH.  ``--mode setup`` stops after set-up; ``--mode run`` goes on to
the timed rounds.  The process prints one JSON object on stdout.  Its
``ready`` field is the CLOCK_MONOTONIC reading taken just before the first
timed trial, from which run.py measures set-up time.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def calibrate() -> float:
    """Milliseconds for a fixed pure-Python loop; tracks host speed only."""
    start = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc += i * i % 7
    return (time.perf_counter() - start) * 1e3


def run_phase(workload, seconds: float, tracer) -> dict:
    """Whole rounds until ``seconds`` have passed.

    Rounds are the equal blocks of work: each gives one rate, trials over
    the summed time of its operations, and the phase reports their median.
    """
    totals = {"rounds": 0, "trials": 0, "rates": [], "attempted": 0, "failed": 0,
              "op_us": [], "op_labels": [], "problems": [], "errors": []}
    workload.begin_phase()
    start = time.monotonic()
    while True:
        rnd = workload.run_round(tracer)
        totals["rounds"] += 1
        totals["trials"] += rnd.trials
        if rnd.op_ns:
            totals["rates"].append(rnd.trials / (sum(rnd.op_ns) / 1e9))
        totals["attempted"] += rnd.attempted
        totals["failed"] += rnd.failed
        totals["op_us"] += [ns / 1e3 / t for ns, t in zip(rnd.op_ns, rnd.op_trials)]
        totals["op_labels"] += rnd.op_labels
        totals["problems"] += rnd.problems
        totals["errors"] += rnd.errors
        if time.monotonic() - start >= seconds:
            return totals


def latency_us(op_us: list[float], labels: list[str], by_kind: bool) -> tuple[float, float]:
    """Median and 99th percentile of the latency of one trial, in µs.

    ``op_us`` holds each operation's time per trial: the call itself when an
    operation is a single release, the mean over its trials otherwise.
    With ``by_kind`` (a workload whose run holds a few dozen operations,
    too few for a tail) each kind of operation is first reduced to its mean
    across rounds, which averages the host's drift over every sample of that
    kind, and the percentiles are taken over those kinds.
    """
    if by_kind:
        by_label: dict[str, list[float]] = {}
        for us, label in zip(op_us, labels):
            by_label.setdefault(label, []).append(us)
        values = [statistics.fmean(v) for v in by_label.values()]
    else:
        values = op_us
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    return (statistics.median(values),
            statistics.quantiles(values, n=100, method="inclusive")[98])


def layer_metrics(spans: dict, phase: dict, workload, tracer) -> dict:
    """Per-layer metrics from the traced phase, normalised per round or trial.

    A layer the workload never calls reads 0.
    """
    rounds, trials = phase["rounds"], max(phase["trials"], 1)

    def span(name, field, default=0.0):
        return spans.get(name, {}).get(field, default)

    out = {
        "noise.uniforms_per_trial": tracer.uniforms / trials,
        "noise.source_init_us_per_trial": span("noise.SeededSource", "total_s") * 1e6 / trials,
    }
    from workloads import MECHANISMS
    for mech in MECHANISMS:
        out[f"mech.{mech}.calls"] = span(f"mech.{mech}", "count") / rounds
        out[f"mech.{mech}.self_us_p50"] = span(f"mech.{mech}", "self_us_p50")
    for post in ("blue_topk", "fuse_svt"):
        out[f"post.{post}.calls"] = span(f"post.{post}", "count") / rounds
        out[f"post.{post}.self_us_p50"] = span(f"post.{post}", "self_us_p50")
    out["audit.self_s"] = span("audit.estimate_epsilon", "self_s") / rounds
    out["audit.bins"] = 0.0
    out["harness.self_s"] = span("harness.run_experiment", "self_s") / rounds
    out["cli.emit_s"] = span("cli.emit", "total_s") / rounds
    out["queries.load_transactions_s"] = span("queries.load_transactions", "total_s")
    out["queries.item_counts_s"] = span("queries.item_counts", "total_s")
    out.update(workload.layer_counts())
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), default="run")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import gapdp
    import_s = time.perf_counter() - start
    src_dir = (ROOT / "src").resolve()
    if src_dir not in Path(gapdp.__file__).resolve().parents:
        print(f"worker: gapdp imported from {gapdp.__file__}, not from {src_dir}",
              file=sys.stderr)
        return 3

    from tracer import Tracer
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install(cls.setup_targets())
    workload = cls(args.seed, Path(args.workdir))
    if tracer is not None:
        tracer.uninstall()
    workload.warmup()
    result = {"ready": time.monotonic(), "import_s": import_s}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    calib = [calibrate() for _ in range(3)]
    if tracer is None:
        phase = run_phase(workload, args.seconds, None)
    else:
        plain = run_phase(workload, args.seconds / 2.0, None)
        tracer.install(workload.trace_targets())
        phase = run_phase(workload, args.seconds / 2.0, tracer)
        tracer.uninstall()
    phases = [phase] if tracer is None else [plain, phase]
    problems = [p for ph in phases for p in ph["problems"]] + workload.finish()
    calib += [calibrate() for _ in range(3)]

    p50_us, p99_us = latency_us(phase["op_us"], phase["op_labels"], cls.latency_by_kind)
    tps = statistics.median(phase["rates"]) if phase["rates"] else 0.0
    result.update({
        "rounds": phase["rounds"],
        "trials": phase["trials"],
        "attempted": sum(ph["attempted"] for ph in phases),
        "failed": sum(ph["failed"] for ph in phases),
        "trials_per_s": tps,
        "call_us_p50": p50_us,
        "call_us_p99": p99_us,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "calib_ms": statistics.median(calib),
        "problems": problems,
        "errors": [e for ph in phases for e in ph["errors"]],
    })
    if tracer is not None:
        spans = tracer.summary()
        layers = layer_metrics(spans, phase, workload, tracer)
        layers["setup.import_s"] = import_s
        layers["host.calib_ms"] = result["calib_ms"]
        layers["trace.overhead_pct"] = 100.0 * (1.0 - tps / statistics.median(plain["rates"]))
        result["layers"] = layers
        result["spans"] = spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

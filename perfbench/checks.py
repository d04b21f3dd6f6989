"""Checks on gapdp's outputs, computed apart from the package.

Every check returns a list of problems; an empty list means the output
passed.  Problem texts name the output and the rule it broke but never
carry a noisy value, gap or threshold, because they end up in result files.
"""

from __future__ import annotations

import csv
import io
import math
from statistics import NormalDist

import numpy as np

# Family-wise false-alarm rate of the audit allowance, over every bin.
AUDIT_ALPHA = 1e-9
# The planted half-noise Laplace mechanism is 2*eps-DP; the audit must see it.
PLANTED_MIN_RATIO = 1.5
# Percentage points a pooled MSE reduction may sit from its closed form.
# At 5000 trials the largest harness stderr (k=2) is about 0.7 points.
MSE_TOL_POINTS = 4.0
# Float-sum fuzz when comparing consumed with allocated budget.
BUDGET_TOL = 1e-9
# Replayed gaps against the numpy recomputation.
GAP_REL_TOL = 1e-9


# ---------------------------------------------------------------- audit


def audit_allowance(trials: int, min_count: int) -> float:
    """Largest sampling excess of a correct mechanism's eps_hat over its claim.

    A qualified bin holds at least ``min_count`` trials on each input, so
    its smoothed log-ratio has standard error at most sqrt(2/min_count),
    and at most trials // min_count bins can qualify.  The allowance is the
    Bonferroni-corrected two-sided normal quantile at AUDIT_ALPHA over those
    bins, times that standard error.
    """
    bins = max(1, trials // min_count)
    z = NormalDist().inv_cdf(1.0 - AUDIT_ALPHA / (2.0 * bins))
    return z * math.sqrt(2.0 / min_count)


def check_audit(name: str, report, eps_claimed: float, trials: int,
                min_count: int, planted: bool = False) -> list[str]:
    """A correct mechanism stays within its claim plus the allowance; the
    planted broken one must exceed its claim by PLANTED_MIN_RATIO."""
    problems = []
    if not math.isfinite(report.eps_hat):
        problems.append(f"audit {name}: eps_hat is not finite")
    if report.bins < 1:
        problems.append(f"audit {name}: no qualified bin")
    if planted:
        if not report.eps_hat >= PLANTED_MIN_RATIO * eps_claimed:
            problems.append(
                f"audit {name}: planted half-noise mechanism not detected "
                f"(eps_hat {report.eps_hat:.4f} < {PLANTED_MIN_RATIO} x {eps_claimed})"
            )
    else:
        limit = eps_claimed + audit_allowance(trials, min_count)
        if not report.eps_hat <= limit:
            problems.append(
                f"audit {name}: eps_hat {report.eps_hat:.4f} exceeds claim "
                f"{eps_claimed} plus allowance ({limit:.4f})"
            )
    return problems


# ---------------------------------------------------------------- CLI CSV


def closed_form(experiment: str, noise: str, k: int) -> float:
    """Percent MSE reduction the paper derives for monotonic counting queries."""
    if experiment == "mse-reduction-topk" and noise == "laplace":
        return 100.0 * (k - 1) / (2 * k)
    if experiment == "mse-reduction-topk" and noise == "exp":
        return 100.0 * (2 * k - 2) / (3 * k)
    if experiment == "mse-reduction-svt" and noise == "laplace":
        c = k ** (2.0 / 3.0)
        return 100.0 * (1.0 - (1.0 + c) ** 3 / ((1.0 + c) ** 3 + k * k))
    raise ValueError(f"no closed form for {experiment} with {noise} noise")


def parse_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _param(row: dict, key: str) -> str:
    for part in row["parameter"].split(","):
        name, _, value = part.partition("=")
        if name == key:
            return value
    raise KeyError(key)


def check_mse_csv(text: str, experiment: str, noise: str, ks) -> list[str]:
    """One row per k, each within MSE_TOL_POINTS of the closed form."""
    problems = []
    rows = parse_rows(text)
    if [int(_param(r, "k")) for r in rows] != list(ks):
        return [f"{experiment} {noise}: rows do not cover k={list(ks)}"]
    for row in rows:
        k = int(_param(row, "k"))
        expected = closed_form(experiment, noise, k)
        empirical = float(row["empirical"])
        if not abs(empirical - expected) <= MSE_TOL_POINTS:
            problems.append(
                f"{experiment} {noise} k={k}: empirical {empirical:g} is more than "
                f"{MSE_TOL_POINTS} points from the closed form {expected:.4f}"
            )
        if not math.isclose(float(row["theoretical"]), expected, rel_tol=1e-5):
            problems.append(
                f"{experiment} {noise} k={k}: theoretical column "
                f"{row['theoretical']} differs from the closed form {expected:.4f}"
            )
    return problems


def check_adaptive_csv(text: str, ks) -> list[str]:
    """answered_svt == k, adaptive >= svt, and top + middle == adaptive."""
    problems = []
    table = {}
    for row in parse_rows(text):
        table[(int(_param(row, "k")), _param(row, "metric"))] = float(row["empirical"])
    for k in ks:
        try:
            svt = table[(k, "answered_svt")]
            adaptive = table[(k, "answered_adaptive")]
            top = table[(k, "answered_adaptive_top")]
            middle = table[(k, "answered_adaptive_middle")]
        except KeyError as exc:
            problems.append(f"adaptive-counts k={k}: missing row {exc}")
            continue
        if svt != k:
            problems.append(f"adaptive-counts k={k}: answered_svt {svt:g} != k")
        if not adaptive >= svt:
            problems.append(f"adaptive-counts k={k}: answered_adaptive < answered_svt")
        # The CSV keeps 6 significant digits.
        if not math.isclose(top + middle, adaptive, rel_tol=1e-5, abs_tol=1e-5):
            problems.append(f"adaptive-counts k={k}: top + middle != adaptive")
    return problems


# ---------------------------------------------------------------- releases


def check_ledger(name: str, ledger, eps: float) -> list[str]:
    problems = []
    if not math.isclose(ledger.allocated, eps, rel_tol=1e-12):
        problems.append(f"{name}: ledger allocates a different budget than requested")
    if not ledger.consumed <= ledger.allocated + BUDGET_TOL:
        problems.append(f"{name}: ledger consumed more than it allocated")
    return problems


def check_cost(name: str, charged: float, expected: float) -> list[str]:
    if math.isclose(charged, expected, rel_tol=1e-12, abs_tol=1e-15):
        return []
    return [f"{name}: charged budget differs from its cost formula"]


def laplace_noise(u: np.ndarray, scale: float) -> np.ndarray:
    """Inverse-CDF Laplace draws, symmetric about u = 0.5."""
    v = u - 0.5
    magnitude = -scale * np.log1p(-2.0 * np.abs(v))
    return np.where(v > 0.0, magnitude, -magnitude)


def topk_reference(values: np.ndarray, k: int, eps: float, u: np.ndarray):
    """Noisy top-k with Laplace(2k/eps) noise, ties to the lowest index."""
    noisy = values + laplace_noise(u, 2.0 * k / eps)
    order = np.lexsort((np.arange(len(values)), -noisy))[: k + 1]
    return order[:k].tolist(), (noisy[order[:k]] - noisy[order[1:]]).tolist()


def gumbel_reference(values: np.ndarray, eps: float, sensitivity: float,
                     u: np.ndarray):
    """Gumbel-max exponential mechanism over scores eps*v/(2*sensitivity)."""
    noisy = (eps / (2.0 * sensitivity)) * values - np.log(-np.log(u))
    order = np.lexsort((np.arange(len(values)), -noisy))[:2]
    return [int(order[0])], [float(noisy[order[0]] - noisy[order[1]])]


def check_replay(name: str, indices, gaps, ref_indices, ref_gaps) -> list[str]:
    """Indices must match exactly, gaps to GAP_REL_TOL relative."""
    if list(indices) != list(ref_indices):
        return [f"{name}: selected indices differ from the numpy recomputation"]
    problems = []
    for rank, (gap, ref) in enumerate(zip(gaps, ref_gaps), start=1):
        if not abs(gap - ref) <= GAP_REL_TOL * max(abs(ref), 1.0):
            problems.append(
                f"{name}: gap {rank} differs from the numpy recomputation "
                f"beyond {GAP_REL_TOL:g} relative"
            )
    return problems


# ---------------------------------------------------------------- artefacts

# Keys a result or trace file may hold besides metric, span and workload
# names: run parameters, durations, counts and environment only.
ALLOWED_KEYS = frozenset({
    "workload", "seed", "seconds", "trace", "correct", "attempted", "failed",
    "metrics", "value", "unit", "problems", "errors", "environment",
    "python", "numpy", "scipy", "nproc", "threads", "platform",
    "setup_samples_s", "rounds", "trials", "spans", "count", "total_s",
    "self_s", "self_us_p50", "self_us_p99", "parent", "calib_ms",
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
})


SPAN_NAMES = frozenset({
    "audit.estimate_epsilon", "cli.main", "cli.emit", "harness.run_experiment",
    "noise.SeededSource", "post.blue_topk", "post.fuse_svt",
    "queries.load_transactions", "queries.item_counts",
    "mech.gap_svt", "mech.adaptive_svt", "mech.gap_topk", "mech.hybrid_identity",
    "mech.hybrid_estimates", "mech.exp_mech_gumbel", "mech.exp_mech_blackbox_gap",
    "mech.planted_half_noise_laplace",
})


def scan_artifact(obj, names=frozenset(), path: str = "$") -> list[str]:
    """Reject any key outside ALLOWED_KEYS and ``names``.

    Result and trace files hold names, durations and counts only; a key such
    as ``gap``, ``threshold`` or ``answer`` means a released or unreleased
    noisy value leaked into a file.
    """
    problems = []
    if isinstance(obj, dict):
        for key, value in obj.items():
            if key not in ALLOWED_KEYS and key not in names:
                problems.append(f"artefact key {path}.{key} is not a name, duration or count")
            problems.extend(scan_artifact(value, names, f"{path}.{key}"))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            problems.extend(scan_artifact(value, names, f"{path}[{i}]"))
    elif not (obj is None or isinstance(obj, (str, bool, int, float))):
        problems.append(f"artefact value at {path} has type {type(obj).__name__}")
    return problems

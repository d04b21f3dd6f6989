"""Experiment harness: desk-scale reproductions of the evaluation suite.

Experiments (all fully deterministic in (config, seed); trial t draws from
``SeedSequence(seed, spawn_key=(t, stream))``, stream 1 feeding the second
scan of a compared pair, so no two trials, streams or seeds share a stream
and aggregation is order-free):

* ``mse-reduction-svt``   -- percent MSE reduction from fusing sparse-vector
  gap estimates with direct measurements, against the variance-model theory.
* ``mse-reduction-topk``  -- percent MSE reduction of the BLUE combination of
  top-k measurements and gaps, against (1+lam*k)/(k+lam*k).
* ``adaptive-counts``     -- queries answered by the single-branch scan vs the
  adaptive scan (split by branch) at equal budget.
* ``precision-fmeasure``  -- precision and F-measure of both scans against the
  true above-threshold set.
* ``remaining-budget``    -- budget fraction left when the adaptive scan is
  stopped after k answers (far-above-threshold theory: (1-theta)/2).
* ``audit``               -- empirical privacy-loss estimates for the whole
  mechanism suite on small worst-case inputs.

Thresholds are drawn per trial from the true top-2k..top-8k ranked values.
Synthetic data replaces the transaction datasets with a spec string such as
``n=200,step=100,base=1000,order=shuffle,mono=1``.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from . import audit as audit_mod
from .expmech import (
    UtilityTable,
    exp_mech_blackbox_batch,
    exp_mech_blackbox_gap,
    exp_mech_gumbel,
    exp_mech_gumbel_batch,
)
from .hybrid import (
    hybrid_estimates,
    hybrid_estimates_batch,
    hybrid_identity,
    hybrid_identity_batch,
)
from .noise import FamilyNoise, Laplace, RandomSource, SeededSource, canonical_family, sample
from .postprocess import (
    BlueInput,
    VarianceModel,
    blue_topk,
    blue_variance_ratio,
    fuse_svt,
    svt_variance_model,
)
from .queries import QuerySet, adjacent_counts, item_counts, load_transactions
from .svt import SvtConfig, adaptive_svt, gap_svt, svt_batch, theta_optimal
from .topk import gap_topk, gap_topk_batch

__all__ = [
    "EXPERIMENTS",
    "ConfigError",
    "ExperimentConfig",
    "emit",
    "run_audit_suite",
    "run_experiment",
    "standard_audit_cases",
    "synthetic_queries",
]

EXPERIMENTS = (
    "mse-reduction-svt",
    "mse-reduction-topk",
    "adaptive-counts",
    "precision-fmeasure",
    "remaining-budget",
    "audit",
)

_N_BATCHES = 50  # batches for standard errors of pooled-ratio statistics


class ConfigError(ValueError):
    """An experiment configuration is invalid."""


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    eps: tuple[float, ...] = (0.7,)
    k: tuple[int, ...] = (10,)
    trials: int = 10_000
    seed: int = 0
    noise: str = "laplace"
    dataset: Optional[str] = None
    synthetic: str = ""
    theta: Optional[float] = None

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {self.experiment!r}; expected one of {EXPERIMENTS}"
            )
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.experiment == "audit" and self.trials < 10_000:
            raise ConfigError("audit needs at least 10^4 trials per input")
        if not self.eps or not self.k:
            raise ConfigError("eps and k ranges must be nonempty")
        for e in self.eps:
            if not e > 0.0:
                raise ConfigError("eps values must be > 0")
        for k in self.k:
            if k < 1:
                raise ConfigError("k values must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        object.__setattr__(self, "noise", canonical_family(self.noise))
        if self.theta is not None and not 0.0 < self.theta < 1.0:
            raise ConfigError("theta must be in (0, 1)")


def synthetic_queries(spec: str, seed: int) -> QuerySet:
    """Build a synthetic counting-query set from a spec string.

    Keys: ``n`` (count, default 200), ``step`` (spacing between consecutive
    ranked values, default 100), ``base`` (smallest value, default 1000),
    ``order`` in {shuffle, desc, asc} (stream order, default shuffle) and
    ``mono`` (monotonic flag, default 1).  Values are
    base + step * (n - rank), so ranks are unambiguous for step > 0.
    """
    params = {"n": "200", "step": "100", "base": "1000", "order": "shuffle", "mono": "1"}
    if spec:
        for part in spec.split(","):
            if not part:
                continue
            if "=" not in part:
                raise ConfigError(f"bad synthetic spec item {part!r}")
            key, value = part.split("=", 1)
            if key not in params:
                raise ConfigError(f"unknown synthetic spec key {key!r}")
            params[key] = value
    try:
        n = int(params["n"])
        step = float(params["step"])
        base = float(params["base"])
        mono = bool(int(params["mono"]))
    except ValueError as exc:
        raise ConfigError(f"bad synthetic spec {spec!r}: {exc}") from exc
    if n < 2:
        raise ConfigError("synthetic n must be >= 2")
    values = [base + step * (n - rank) for rank in range(1, n + 1)]
    order = params["order"]
    if order == "desc":
        pass
    elif order == "asc":
        values.reverse()
    elif order == "shuffle":
        rng = np.random.Generator(np.random.PCG64(seed ^ 0xA5A5A5A5))
        values = [values[i] for i in rng.permutation(n)]
    else:
        raise ConfigError(f"unknown synthetic order {order!r}")
    return QuerySet(tuple(values), monotonic=mono)


def _load_queries(cfg: ExperimentConfig) -> QuerySet:
    if cfg.dataset is not None:
        return item_counts(load_transactions(cfg.dataset))
    return synthetic_queries(cfg.synthetic, cfg.seed)


def _threshold_from_rank(sorted_desc: Sequence[float], k: int, u: float) -> float:
    # Rank drawn uniformly from the true top-2k..top-8k values.
    lo, hi = 2 * k, 8 * k
    rank = lo + int(u * (hi - lo + 1))
    rank = min(rank, hi)
    return sorted_desc[rank - 1]


def _require_ranks(n: int, k: int) -> None:
    if n < 8 * k:
        raise ConfigError(
            f"threshold sampling needs at least 8k = {8 * k} queries, got {n}"
        )


def _trial_source(seed: int, trial: int, stream: int = 0) -> SeededSource:
    return SeededSource(np.random.SeedSequence(seed, spawn_key=(trial, stream)))


def _default_theta(cfg: ExperimentConfig, k: int, monotonic: bool, eps: float) -> float:
    if cfg.theta is not None:
        return cfg.theta
    return theta_optimal(k, "middle", monotonic, cfg.noise, eps=eps)


def _mean_stderr(samples: Sequence[float]) -> tuple[float, float]:
    n = len(samples)
    if n == 0:
        return math.nan, math.nan
    mean = sum(samples) / n
    if n < 2:
        return mean, 0.0
    var = sum((s - mean) ** 2 for s in samples) / (n - 1)
    return mean, math.sqrt(var / n)


class _RatioAccumulator:
    """Pooled squared-error sums with batch-based standard errors.

    The reduction statistic is 1 - sum(new errors)/sum(baseline errors); the
    pooled ratio avoids the small-sample bias of averaging per-trial ratios,
    and batching the trials gives a defensible stderr for it.
    """

    def __init__(self, trials: int):
        self.trials = trials
        self.base = [0.0] * _N_BATCHES
        self.new = [0.0] * _N_BATCHES

    def add(self, trial: int, base_sq: float, new_sq: float) -> None:
        b = trial * _N_BATCHES // self.trials
        self.base[b] += base_sq
        self.new[b] += new_sq

    def reduction(self) -> tuple[float, float]:
        total_base = sum(self.base)
        total_new = sum(self.new)
        if total_base <= 0.0:
            return math.nan, math.nan
        overall = 1.0 - total_new / total_base
        ratios = [
            1.0 - n / b for n, b in zip(self.new, self.base) if b > 0.0
        ]
        _, stderr = _mean_stderr(ratios)
        return overall, stderr


def _row(
    cfg: ExperimentConfig,
    parameter: str,
    empirical: float,
    theoretical: Optional[float],
    stderr: Optional[float],
) -> dict:
    return {
        "experiment": cfg.experiment,
        "parameter": parameter,
        "empirical": empirical,
        "theoretical": theoretical,
        "stderr": stderr,
        "trials": cfg.trials,
        "seed": cfg.seed,
    }


def _mse_reduction_svt(cfg: ExperimentConfig, qs: QuerySet) -> list[dict]:
    sorted_desc = sorted(qs.values, reverse=True)
    rows = []
    for eps in cfg.eps:
        for k in cfg.k:
            _require_ranks(len(qs), k)
            theta = _default_theta(cfg, k, qs.monotonic, eps / 2.0)
            model = svt_variance_model(k, eps, theta, cfg.noise, qs.monotonic)
            acc = _RatioAccumulator(cfg.trials)
            for t in range(cfg.trials):
                src = _trial_source(cfg.seed, t)
                threshold = _threshold_from_rank(sorted_desc, k, src.uniform())
                svt_cfg = SvtConfig(
                    epsilon=eps / 2.0, k=k, threshold=threshold, theta=theta,
                    noise=cfg.noise, monotonic=qs.monotonic,
                )
                selected = gap_svt(qs, svt_cfg, src).above_items()
                if not selected:
                    continue
                m = len(selected)
                meas = Laplace(2.0 * m / eps)
                trial_model = VarianceModel(8.0 * m * m / (eps * eps), model.var_gap)
                for item in selected:
                    true = qs.values[item.index]
                    alpha = true + sample(meas, src)
                    beta = fuse_svt([item.gap + threshold], [alpha], trial_model)[0]
                    acc.add(t, (alpha - true) ** 2, (beta - true) ** 2)
            empirical, stderr = acc.reduction()
            theory = model.var_alpha / (model.var_alpha + model.var_gap)
            rows.append(_row(cfg, f"eps={eps:g},k={k}",
                             100.0 * empirical, 100.0 * theory, 100.0 * stderr))
    return rows


def _mse_reduction_topk(cfg: ExperimentConfig, qs: QuerySet) -> list[dict]:
    rows = []
    for eps in cfg.eps:
        for k in cfg.k:
            if k + 1 > len(qs):
                raise ConfigError(f"top-k needs at least k+1 = {k + 1} queries")
            if cfg.noise == "geometric":
                raise ConfigError("top-k supports laplace or exponential noise only")
            # Selection always costs eps/2: monotonic lists get the full-eps
            # noise scale at half the charge.
            eps_param = eps if qs.monotonic else eps / 2.0
            measurement = FamilyNoise("laplace", eps, 2.0 * k)
            # lam = var(selection noise) / var(measurement noise).  Selection
            # at (eps/2, 2k) is the noise at (eps, 4k); keeping both at eps
            # makes lam exactly 1, 4, 1/2 or 2.
            selection = FamilyNoise(cfg.noise, eps, 2.0 * k if qs.monotonic else 4.0 * k)
            lam = selection.variance / measurement.variance
            meas = measurement.kind
            acc = _RatioAccumulator(cfg.trials)
            for t in range(cfg.trials):
                src = _trial_source(cfg.seed, t)
                result = gap_topk(qs, k, eps_param, cfg.noise, src)
                alphas = [
                    qs.values[j] + sample(meas, src) for j in result.indices
                ]
                betas = blue_topk(BlueInput(tuple(alphas), result.gaps[: k - 1], lam))
                for j, alpha, beta in zip(result.indices, alphas, betas):
                    true = qs.values[j]
                    acc.add(t, (alpha - true) ** 2, (beta - true) ** 2)
            empirical, stderr = acc.reduction()
            theory = 1.0 - blue_variance_ratio(k, lam)
            rows.append(_row(cfg, f"eps={eps:g},k={k}",
                             100.0 * empirical, 100.0 * theory, 100.0 * stderr))
    return rows


def _scan_pair(cfg, qs, eps, k, theta, threshold, src, src_alt):
    base_cfg = SvtConfig(
        epsilon=eps, k=k, threshold=threshold, theta=theta,
        noise=cfg.noise, monotonic=qs.monotonic,
    )
    adaptive_cfg = SvtConfig(
        epsilon=eps, k=k, threshold=threshold, theta=theta,
        noise=cfg.noise, monotonic=qs.monotonic, adaptive=True,
    )
    return gap_svt(qs, base_cfg, src), adaptive_svt(qs, adaptive_cfg, src_alt)


def _adaptive_counts(cfg: ExperimentConfig, qs: QuerySet) -> list[dict]:
    sorted_desc = sorted(qs.values, reverse=True)
    rows = []
    for eps in cfg.eps:
        for k in cfg.k:
            _require_ranks(len(qs), k)
            theta = _default_theta(cfg, k, qs.monotonic, eps)
            counts = {"svt": [], "adaptive": [], "adaptive_top": [], "adaptive_middle": []}
            for t in range(cfg.trials):
                src = _trial_source(cfg.seed, t)
                threshold = _threshold_from_rank(sorted_desc, k, src.uniform())
                src_alt = _trial_source(cfg.seed, t, 1)
                base, adaptive = _scan_pair(cfg, qs, eps, k, theta, threshold, src, src_alt)
                counts["svt"].append(float(len(base.above_items())))
                above = adaptive.above_items()
                counts["adaptive"].append(float(len(above)))
                counts["adaptive_top"].append(
                    float(sum(1 for item in above if item.branch == "top"))
                )
                counts["adaptive_middle"].append(
                    float(sum(1 for item in above if item.branch == "middle"))
                )
            for metric, samples in counts.items():
                mean, stderr = _mean_stderr(samples)
                rows.append(_row(cfg, f"eps={eps:g},k={k},metric=answered_{metric}",
                                 mean, None, stderr))
    return rows


def _precision_fmeasure(cfg: ExperimentConfig, qs: QuerySet) -> list[dict]:
    sorted_desc = sorted(qs.values, reverse=True)
    rows = []
    for eps in cfg.eps:
        for k in cfg.k:
            _require_ranks(len(qs), k)
            theta = _default_theta(cfg, k, qs.monotonic, eps)
            stats = {"precision_svt": [], "precision_adaptive": [],
                     "fmeasure_svt": [], "fmeasure_adaptive": []}
            for t in range(cfg.trials):
                src = _trial_source(cfg.seed, t)
                threshold = _threshold_from_rank(sorted_desc, k, src.uniform())
                src_alt = _trial_source(cfg.seed, t, 1)
                base, adaptive = _scan_pair(cfg, qs, eps, k, theta, threshold, src, src_alt)
                true_above = {
                    i for i, v in enumerate(qs.values) if v > threshold
                }
                for name, result in (("svt", base), ("adaptive", adaptive)):
                    returned = {item.index for item in result.above_items()}
                    hits = len(returned & true_above)
                    if returned:
                        precision = hits / len(returned)
                        stats[f"precision_{name}"].append(precision)
                        recall = hits / len(true_above) if true_above else 0.0
                        f = (2.0 * precision * recall / (precision + recall)
                             if precision + recall > 0.0 else 0.0)
                        stats[f"fmeasure_{name}"].append(f)
                    else:
                        stats[f"fmeasure_{name}"].append(0.0)
            for metric, samples in stats.items():
                mean, stderr = _mean_stderr(samples)
                rows.append(_row(cfg, f"eps={eps:g},k={k},metric={metric}",
                                 mean, None, stderr))
    return rows


def _remaining_budget(cfg: ExperimentConfig, qs: QuerySet) -> list[dict]:
    sorted_desc = sorted(qs.values, reverse=True)
    rows = []
    for eps in cfg.eps:
        for k in cfg.k:
            _require_ranks(len(qs), k)
            theta = _default_theta(cfg, k, qs.monotonic, eps)
            fractions = []
            for t in range(cfg.trials):
                src = _trial_source(cfg.seed, t)
                threshold = _threshold_from_rank(sorted_desc, k, src.uniform())
                adaptive_cfg = SvtConfig(
                    epsilon=eps, k=k, threshold=threshold, theta=theta,
                    noise=cfg.noise, monotonic=qs.monotonic, adaptive=True,
                )
                result = adaptive_svt(qs, adaptive_cfg, src)
                # Stop the scan after k answers: budget spent up to then.
                consumed = adaptive_cfg.eps0
                answered = 0
                for item in result.items:
                    if item.above:
                        consumed += item.budget_used
                        answered += 1
                        if answered >= k:
                            break
                fractions.append(1.0 - consumed / eps)
            mean, stderr = _mean_stderr(fractions)
            # Far-above-threshold limit: k top-branch answers cost
            # eps0 + k*eps2 = eps*(1+theta)/2.
            rows.append(_row(cfg, f"eps={eps:g},k={k}",
                             mean, (1.0 - theta) / 2.0, stderr))
    return rows


@dataclass(frozen=True)
class AuditCase:
    """One mechanism plus a worst-case adjacent input pair for auditing."""

    name: str
    mech: Callable[[QuerySet, RandomSource], object]
    d: QuerySet
    d_prime: QuerySet
    eps_claimed: float
    bin_width: float
    min_count: int = 1000


def _batched(scalar: Callable, batch: Callable, *args) -> Callable:
    """The mechanism ``scalar(qs, *args, src)``, carrying as ``batch`` its
    kernel builder ``batch(qs, *args)`` for the auditor's batch path."""

    def mech(qs: QuerySet, src: RandomSource):
        return scalar(qs, *args, src)

    mech.batch = lambda qs: batch(qs, *args)
    return mech


def standard_audit_cases(eps: float = 1.0) -> list[AuditCase]:
    """The full mechanism suite on small (n <= 5) worst-case inputs.

    Counting-query mechanisms use the add-one-record neighbor (all counts
    +1); the exponential-mechanism cases use a mixed plus/minus utility
    shift, the worst case a sensitivity-1 utility allows.  Top-k runs on
    monotonic counting inputs, so its claimed budget is eps/2.

    Every case carries its batch kernel (see :mod:`gapdp.audit`).
    """
    cases: list[AuditCase] = []

    svt_values = QuerySet((0.0, 1.0, 0.0), monotonic=False)
    svt_plus = adjacent_counts(svt_values, range(3), +1)
    gap_cfg = SvtConfig(epsilon=eps, k=1, threshold=1.0, theta=0.5)
    cases.append(AuditCase(
        "gap_svt",
        _batched(gap_svt, svt_batch, gap_cfg),
        svt_values, svt_plus, eps, bin_width=1.0,
    ))
    for family in ("laplace", "exponential", "geometric"):
        a_cfg = SvtConfig(
            epsilon=eps, k=1, threshold=1.0, theta=0.5, noise=family, adaptive=True
        )
        cases.append(AuditCase(
            f"adaptive_svt_{family}",
            _batched(adaptive_svt, svt_batch, a_cfg),
            svt_values, svt_plus, eps, bin_width=2.0,
        ))

    # A record holding a single item is the stressing neighbor here: shifting
    # every count together leaves the selection law unchanged.
    topk_values = QuerySet((0.0, 1.0, 1.0), monotonic=True)
    topk_plus = adjacent_counts(topk_values, {1}, +1)
    for family in ("laplace", "exponential"):
        cases.append(AuditCase(
            f"gap_topk_{family}",
            _batched(gap_topk, gap_topk_batch, 1, eps, family),
            topk_values, topk_plus, eps / 2.0, bin_width=0.5,
        ))

    hybrid_values = QuerySet((1.0, 0.0, 0.0), monotonic=True)
    hybrid_plus = adjacent_counts(hybrid_values, range(3), +1)
    cases.append(AuditCase(
        "hybrid_identity",
        _batched(hybrid_identity, hybrid_identity_batch, 0.5, 2, eps),
        hybrid_values, hybrid_plus, eps, bin_width=1.0,
    ))
    cases.append(AuditCase(
        "hybrid_estimates",
        _batched(hybrid_estimates, hybrid_estimates_batch, 0.5, 2, eps, 0.5),
        hybrid_values, hybrid_plus, eps, bin_width=2.0,
    ))

    scores = QuerySet((0.0, 1.0, 2.0))
    scores_shift = QuerySet((1.0, 0.0, 3.0))

    def on_utilities(fn):
        return lambda qs, *rest: fn(UtilityTable(qs.values, 1.0, eps), *rest)

    cases.append(AuditCase(
        "exp_mech_gumbel",
        _batched(on_utilities(exp_mech_gumbel), on_utilities(exp_mech_gumbel_batch)),
        scores, scores_shift, eps, bin_width=0.5,
    ))
    cases.append(AuditCase(
        "exp_mech_blackbox",
        _batched(on_utilities(exp_mech_blackbox_gap), on_utilities(exp_mech_blackbox_batch)),
        scores, scores_shift, eps, bin_width=0.5,
    ))
    return cases


def run_audit_suite(
    eps: float, trials: int, seed: int, cases: Optional[Sequence[AuditCase]] = None
) -> list[tuple[AuditCase, audit_mod.AuditReport]]:
    if cases is None:
        cases = standard_audit_cases(eps)
    results = []
    for case in cases:
        cfg = audit_mod.AuditConfig(
            trials=trials, bin_width=case.bin_width,
            min_count=case.min_count, seed=seed,
        )
        report = audit_mod.estimate_epsilon(
            case.mech, case.d, case.d_prime, cfg,
            eps_claimed=case.eps_claimed, mechanism=case.name,
        )
        results.append((case, report))
    return results


def _audit_experiment(cfg: ExperimentConfig) -> list[dict]:
    rows = []
    for eps in cfg.eps:
        for case, report in run_audit_suite(eps, cfg.trials, cfg.seed):
            rows.append(_row(cfg, f"eps={eps:g},mechanism={case.name}",
                             report.eps_hat, case.eps_claimed, report.slack / 3.0))
    return rows


def run_experiment(cfg: ExperimentConfig) -> list[dict]:
    """Run one named experiment and return its result rows."""
    if cfg.experiment == "audit":
        return _audit_experiment(cfg)
    qs = _load_queries(cfg)
    runner = {
        "mse-reduction-svt": _mse_reduction_svt,
        "mse-reduction-topk": _mse_reduction_topk,
        "adaptive-counts": _adaptive_counts,
        "precision-fmeasure": _precision_fmeasure,
        "remaining-budget": _remaining_budget,
    }[cfg.experiment]
    return runner(cfg, qs)


_COLUMNS = ("experiment", "parameter", "empirical", "theoretical", "stderr", "trials", "seed")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return f"{value:.6g}"
    return str(value)


def emit(results: Sequence[dict], fmt: str = "csv", path: Optional[str | Path] = None) -> str:
    """Serialize result rows to CSV or JSON; returns the text, optionally
    writing it to ``path``.  Floats are rendered at 6 significant digits, so
    identical (config, seed) runs produce byte-identical files.
    """
    if not results:
        raise ValueError("no results to emit")
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_COLUMNS)
        for row in results:
            writer.writerow([_fmt(row[c]) for c in _COLUMNS])
        text = buf.getvalue()
    elif fmt == "json":
        def clean(v):
            if isinstance(v, float) and not math.isnan(v):
                return float(f"{v:.6g}")
            if isinstance(v, float):
                return None
            return v

        text = json.dumps(
            [{c: clean(row[c]) for c in _COLUMNS} for row in results], indent=2
        ) + "\n"
    else:
        raise ConfigError(f"unknown output format {fmt!r}")
    if path is not None:
        Path(path).write_text(text)
    return text

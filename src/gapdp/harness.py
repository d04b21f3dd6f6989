"""Experiment harness: desk-scale reproductions of the evaluation suite.

Experiments (all fully deterministic in (config, seed); each (eps, k) cell
reads the seed's ``cell`` stream from its start, and the adaptive scan of
a compared pair its ``cell-adaptive`` stream (see
:class:`gapdp.noise.SeededSource`), so every cell sees the same random
numbers and a cell's rows do not depend on which other cells ran):

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

Each (eps, k) cell runs as numpy code over chunks of ``_CHUNK`` trials.
A cell has one source per stream, and each chunk takes the next rows of
its uniform matrix, ``width`` draws per trial (as many as a trial can
read), so trial t owns draws ``[t*width, (t+1)*width)`` of the stream.  The
rows go through the audit's kernels (:func:`gapdp.svt.svt_batch`, with one
threshold per row, and :func:`gapdp.topk.gap_topk_batch`), each of which
reads a fixed number of draws, the measurement draws follow them, and
:func:`gapdp.postprocess.blue_topk_rows` or
:func:`~gapdp.postprocess.fuse_svt_rows` combines them.  Each trial reads
the uniforms a scalar run replaying its block would read and every sum
keeps the scalar left-to-right order, so the output does not depend on the
chunking; ``tests/test_harness.py`` holds the scalar per-trial reference.

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
from .noise import STREAMS, FamilyNoise, Laplace, RandomSource, SeededSource, canonical_family
# blue_topk and fuse_svt are not called here.  They stay attributes of this
# module because perfbench/tracer.py patches them by name.
from .postprocess import (
    blue_topk,
    blue_topk_rows,
    blue_variance_ratio,
    fuse_svt,
    fuse_svt_rows,
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

# Trials per array chunk.  Every trial owns a fixed block of its cell's
# stream, so the chunk size changes no output; 32 rows keep an n = 200
# scan's arrays under a megabyte.
_CHUNK = 32


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
        if self.experiment == "audit" and self.trials < audit_mod.MIN_TRIALS:
            raise ConfigError(audit_mod.TOO_FEW_TRIALS)
        if not self.eps or not self.k:
            raise ConfigError("eps and k ranges must be nonempty")
        for e in self.eps:
            if not e > 0.0:
                raise ConfigError("eps values must be > 0")
            if not 0.0 < e * e < math.inf:  # noise variances divide by eps**2
                raise ConfigError(f"eps {e!r} is out of range: eps**2 must be positive and finite")
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
    if order == "asc":
        values.reverse()
    elif order == "shuffle":
        u = SeededSource(seed, *STREAMS["synthetic"]).uniform_matrix(1, n)[0]
        values = [values[i] for i in np.argsort(u, kind="stable")]
    elif order != "desc":
        raise ConfigError(f"unknown synthetic order {order!r}")
    return QuerySet(tuple(values), monotonic=mono)


def _load_queries(cfg: ExperimentConfig) -> QuerySet:
    if cfg.dataset is not None:
        return item_counts(load_transactions(cfg.dataset))
    return synthetic_queries(cfg.synthetic, cfg.seed)


def _require_ranks(n: int, k: int) -> None:
    if n < 8 * k:
        raise ConfigError(
            f"threshold sampling needs at least 8k = {8 * k} queries, got {n}"
        )


def _thresholds(qs: QuerySet, k: int, u: np.ndarray) -> np.ndarray:
    # Rank drawn uniformly from the true top-2k..top-8k values, one per draw.
    lo, hi = 2 * k, 8 * k
    rank = np.minimum(lo + (u * (hi - lo + 1)).astype(np.int64), hi)
    return np.sort(qs.values)[::-1][rank - 1]


def _chunks(trials: int):
    """Consecutive ranges of at most ``_CHUNK`` trial numbers."""
    return (range(start, min(start + _CHUNK, trials)) for start in range(0, trials, _CHUNK))


def _svt_config(cfg: ExperimentConfig, qs: QuerySet, eps: float, k: int, theta: float,
                adaptive: bool = False) -> SvtConfig:
    # The kernels take each trial's threshold as an array instead.
    return SvtConfig(epsilon=eps, k=k, threshold=math.nan, theta=theta, noise=cfg.noise,
                     monotonic=qs.monotonic, adaptive=adaptive)


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
        self.sums = np.zeros((2, _N_BATCHES))  # baseline, then new, per batch

    def add(self, trial: np.ndarray, base_sq: np.ndarray, new_sq: np.ndarray) -> None:
        """Add squared errors listed in trial-then-item order, ``trial[i]``
        being the trial of entry i.  Each batch sum runs left to right
        (``np.cumsum``, never the pairwise ``np.sum``), so it does not
        depend on how the trials were chunked."""
        if not len(trial):
            return
        batch = trial * _N_BATCHES // self.trials
        start = np.flatnonzero(np.diff(batch, prepend=-1))
        length = np.diff(start, append=len(batch))
        touched = batch[start]  # distinct: trials come in order
        # One row per touched batch: its running sum, its entries in order,
        # then zeros.  Adding +0.0 leaves a sum of squares as it is, so the
        # last column of the row-wise cumsum is the left-to-right batch sum.
        rows = np.repeat(np.arange(len(start)), length)
        cols = np.arange(1, len(batch) + 1) - np.repeat(start, length)
        table = np.zeros((2, len(start), 1 + int(length.max())))
        table[:, :, 0] = self.sums[:, touched]
        table[0, rows, cols] = base_sq
        table[1, rows, cols] = new_sq
        self.sums[:, touched] = np.cumsum(table, axis=2)[:, :, -1]

    def reduction(self) -> tuple[float, float]:
        base, new = self.sums.tolist()
        total_base = sum(base)
        total_new = sum(new)
        if total_base <= 0.0:
            return math.nan, math.nan
        overall = 1.0 - total_new / total_base
        ratios = [1.0 - n / b for n, b in zip(new, base) if b > 0.0]
        return overall, _mean_stderr(ratios)[1]


_COLUMNS = ("experiment", "parameter", "empirical", "theoretical", "stderr", "trials", "seed")


def _row(cfg: ExperimentConfig, parameter: str, empirical: float,
         theoretical: Optional[float], stderr: Optional[float]) -> dict:
    return dict(zip(_COLUMNS, (cfg.experiment, parameter, empirical, theoretical, stderr,
                               cfg.trials, cfg.seed)))


# A trial experiment is a function of one (eps, k) cell, which returns the
# cell's rows as (parameter suffix, empirical, theoretical, stderr).

def _mse_reduction_svt(cfg: ExperimentConfig, qs: QuerySet, eps: float, k: int) -> list[tuple]:
    values = qs.value_array
    n = len(values)
    _require_ranks(n, k)
    theta = _default_theta(cfg, k, qs.monotonic, eps / 2.0)
    model = svt_variance_model(k, eps, theta, cfg.noise, qs.monotonic)
    draws, scan = svt_batch(qs, _svt_config(cfg, qs, eps / 2.0, k, theta))
    acc = _RatioAccumulator(cfg.trials)
    src = SeededSource(cfg.seed, *STREAMS["cell"])
    for trials in _chunks(cfg.trials):
        # A trial draws its threshold rank, runs the scan, then measures
        # each of its m answers: at most 1 + draws + n.
        U = src.uniform_matrix(len(trials), 1 + draws + n)
        thresholds = _thresholds(qs, k, U[:, 0])
        codes, gaps = scan(U[:, 1:1 + draws], thresholds)
        answered = codes > 0
        m = answered.sum(axis=1)
        some = m > 0
        m, thresholds = m[some], thresholds[some]
        width = int(m.max(initial=0))
        # Answered queries first, in scan order, with their gaps.
        index = np.argsort(~answered[some], axis=1, kind="stable")[:, :width]
        true = values[index]
        gaps = np.take_along_axis(gaps[some], index, axis=1)
        u = U[some, 1 + draws:1 + draws + width]
        # Laplace(2m/eps) noise: scaling unit noise rounds as drawing at the
        # scale does, both being one product with log1p's value.
        alphas = true + (2.0 * m / eps)[:, None] * Laplace(1.0).inverse_cdf_array(u)
        betas = fuse_svt_rows(gaps + thresholds[:, None], alphas,
                              (8.0 * m * m / (eps * eps))[:, None], model.var_gap)
        slot = np.arange(width) < m[:, None]
        trial = np.broadcast_to(np.asarray(trials)[some][:, None], slot.shape)
        acc.add(trial[slot], ((alphas - true) ** 2)[slot], ((betas - true) ** 2)[slot])
    empirical, stderr = acc.reduction()
    theory = model.var_alpha / (model.var_alpha + model.var_gap)
    return [("", 100.0 * empirical, 100.0 * theory, 100.0 * stderr)]


def _mse_reduction_topk(cfg: ExperimentConfig, qs: QuerySet, eps: float, k: int) -> list[tuple]:
    values = qs.value_array
    n = len(values)
    if k + 1 > n:
        raise ConfigError(f"top-k needs at least k+1 = {k + 1} queries")
    if cfg.noise == "geometric":
        raise ConfigError("top-k supports laplace or exponential noise only")
    # Selection always costs eps/2: monotonic lists get the full-eps noise
    # scale at half the charge.
    eps_param = eps if qs.monotonic else eps / 2.0
    measurement = FamilyNoise("laplace", eps, 2.0 * k)
    # lam = var(selection noise) / var(measurement noise).  Selection at
    # (eps/2, 2k) is the noise at (eps, 4k); keeping both at eps makes lam
    # exactly 1, 4, 1/2 or 2.
    selection = FamilyNoise(cfg.noise, eps, 2.0 * k if qs.monotonic else 4.0 * k)
    lam = selection.variance / measurement.variance
    _, select = gap_topk_batch(qs, k, eps_param, cfg.noise)
    acc = _RatioAccumulator(cfg.trials)
    src = SeededSource(cfg.seed, *STREAMS["cell"])
    for trials in _chunks(cfg.trials):
        # n selection draws, then one measurement per rank.
        U = src.uniform_matrix(len(trials), n + k)
        index, gaps = select(U[:, :n])
        true = values[index]
        alphas = true + measurement.kind.inverse_cdf_array(U[:, n:])
        betas = blue_topk_rows(alphas, gaps[:, :k - 1], lam)
        acc.add(np.repeat(np.asarray(trials), k),
                ((alphas - true) ** 2).ravel(), ((betas - true) ** 2).ravel())
    empirical, stderr = acc.reduction()
    theory = 1.0 - blue_variance_ratio(k, lam)
    return [("", 100.0 * empirical, 100.0 * theory, 100.0 * stderr)]


def _compared_scans(cfg: ExperimentConfig, qs: QuerySet, eps: float, k: int, theta: float):
    """Per chunk of trials: each trial's threshold, the codes of its
    single-branch scan (the ``cell`` stream, after the threshold draw) and
    those of its adaptive scan (``cell-adaptive``), both at budget ``eps``."""
    draws, scan = svt_batch(qs, _svt_config(cfg, qs, eps, k, theta))
    alt_draws, alt_scan = svt_batch(qs, _svt_config(cfg, qs, eps, k, theta, adaptive=True))
    src = SeededSource(cfg.seed, *STREAMS["cell"])
    alt_src = SeededSource(cfg.seed, *STREAMS["cell-adaptive"])
    for trials in _chunks(cfg.trials):
        U = src.uniform_matrix(len(trials), 1 + draws)
        thresholds = _thresholds(qs, k, U[:, 0])
        alt = alt_src.uniform_matrix(len(trials), alt_draws)
        yield thresholds, scan(U[:, 1:], thresholds)[0], alt_scan(alt, thresholds)[0]


def _metrics(samples: dict[str, list]) -> list[tuple]:
    """One row per metric: its samples' mean and standard error."""
    rows = []
    for metric, values in samples.items():
        mean, stderr = _mean_stderr(values)
        rows.append((f",metric={metric}", mean, None, stderr))
    return rows


def _adaptive_counts(cfg: ExperimentConfig, qs: QuerySet, eps: float, k: int) -> list[tuple]:
    _require_ranks(len(qs), k)
    theta = _default_theta(cfg, k, qs.monotonic, eps)
    counts = {"answered_svt": [], "answered_adaptive": [],
              "answered_adaptive_top": [], "answered_adaptive_middle": []}
    for _, base, adaptive in _compared_scans(cfg, qs, eps, k, theta):
        top = (adaptive == 2).sum(axis=1)
        middle = (adaptive == 1).sum(axis=1)
        counts["answered_svt"] += (base > 0).sum(axis=1).tolist()
        counts["answered_adaptive"] += (top + middle).tolist()
        counts["answered_adaptive_top"] += top.tolist()
        counts["answered_adaptive_middle"] += middle.tolist()
    return _metrics(counts)


def _precision_fmeasure(cfg: ExperimentConfig, qs: QuerySet, eps: float, k: int) -> list[tuple]:
    _require_ranks(len(qs), k)
    theta = _default_theta(cfg, k, qs.monotonic, eps)
    values = qs.value_array
    stats = {"precision_svt": [], "precision_adaptive": [],
             "fmeasure_svt": [], "fmeasure_adaptive": []}
    for thresholds, *scans in _compared_scans(cfg, qs, eps, k, theta):
        true_above = values > thresholds[:, None]
        relevant = true_above.sum(axis=1)
        for name, codes in zip(("svt", "adaptive"), scans):
            returned = codes > 0
            count = returned.sum(axis=1)
            hits = (returned & true_above).sum(axis=1)
            # A trial returning nothing has no precision and F = 0; with no
            # query truly above, recall is 0.
            precision = hits / np.maximum(count, 1)
            recall = hits / np.maximum(relevant, 1)
            both = precision + recall
            f = np.divide(2.0 * precision * recall, both,
                          out=np.zeros(len(both)), where=both > 0.0)
            stats[f"precision_{name}"] += precision[count > 0].tolist()
            stats[f"fmeasure_{name}"] += f.tolist()
    return _metrics(stats)


def _remaining_budget(cfg: ExperimentConfig, qs: QuerySet, eps: float, k: int) -> list[tuple]:
    _require_ranks(len(qs), k)
    theta = _default_theta(cfg, k, qs.monotonic, eps)
    svt_cfg = _svt_config(cfg, qs, eps, k, theta, adaptive=True)
    draws, scan = svt_batch(qs, svt_cfg)
    fractions = []
    src = SeededSource(cfg.seed, *STREAMS["cell"])
    for trials in _chunks(cfg.trials):
        U = src.uniform_matrix(len(trials), 1 + draws)
        codes = scan(U[:, 1:], _thresholds(qs, k, U[:, 0]))[0]
        # Stop the scan after k answers: budget spent up to then.
        cost = np.select([codes == 2, codes == 1], [svt_cfg.eps2, svt_cfg.eps1], 0.0)
        cost[np.cumsum(codes > 0, axis=1) > k] = 0.0
        consumed = np.cumsum(np.hstack([np.full((len(U), 1), svt_cfg.eps0), cost]), axis=1)
        fractions += (1.0 - consumed[:, -1] / eps).tolist()
    mean, stderr = _mean_stderr(fractions)
    # Far-above-threshold limit: k top-branch answers cost
    # eps0 + k*eps2 = eps*(1+theta)/2.
    return [("", mean, (1.0 - theta) / 2.0, stderr)]


_CELLS = {
    "mse-reduction-svt": _mse_reduction_svt,
    "mse-reduction-topk": _mse_reduction_topk,
    "adaptive-counts": _adaptive_counts,
    "precision-fmeasure": _precision_fmeasure,
    "remaining-budget": _remaining_budget,
}


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
    eps: float, trials: int, seed: int
) -> list[tuple[AuditCase, audit_mod.AuditReport]]:
    results = []
    for case in standard_audit_cases(eps):
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
    """Run one named experiment and return its result rows, cell by cell
    for each eps and, within it, each k."""
    if cfg.experiment == "audit":
        return _audit_experiment(cfg)
    qs = _load_queries(cfg)
    cell = _CELLS[cfg.experiment]
    return [
        _row(cfg, f"eps={eps:g},k={k}{suffix}", empirical, theoretical, stderr)
        for eps in cfg.eps
        for k in cfg.k
        for suffix, empirical, theoretical, stderr in cell(cfg, qs, eps, k)
    ]


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

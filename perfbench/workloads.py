"""The benchmark's three workloads.

Each workload builds its inputs from the seed in its constructor (that is
set-up), then runs identical rounds of timed operations.  An operation is
timed alone; its outputs are checked after the clock stops.  The program is
reached only through attributes of gapdp's modules (``audit_mod.estimate_
epsilon``, ``cli_mod.main``, ``topk_mod.gap_topk``, ...), which is where the
tracer patches its spans in.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from gapdp import audit as audit_mod
from gapdp import cli as cli_mod
from gapdp import expmech as expmech_mod
from gapdp import harness as harness_mod
from gapdp import hybrid as hybrid_mod
from gapdp import noise as noise_mod
from gapdp import queries as queries_mod
from gapdp import svt as svt_mod
from gapdp import topk as topk_mod

import checks

_now = time.perf_counter_ns

MECHANISMS = (
    "gap_svt", "adaptive_svt", "gap_topk", "hybrid_identity",
    "hybrid_estimates", "exp_mech_gumbel", "exp_mech_blackbox_gap",
)


class Round:
    """Operations of one round: durations, trials, failures and problems."""

    def __init__(self):
        self.op_ns: list[int] = []
        self.op_trials: list[int] = []
        self.op_labels: list[str] = []
        self.trials = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.errors: list[str] = []

    def timed(self, label: str, fn, trials: int):
        """Run one operation under the clock; a raise counts it as failed."""
        self.attempted += 1
        start = _now()
        try:
            out = fn()
        except Exception as exc:  # the run goes on; the failure is counted
            self.failed += 1
            self.errors.append(f"{label}: {type(exc).__name__}")
            return None
        self.op_ns.append(_now() - start)
        self.op_trials.append(trials)
        self.op_labels.append(label)
        self.trials += trials
        return out


class Workload:
    """Defaults for the hooks a workload may leave out."""

    # Take latency percentiles over per-kind means rather than over single
    # operations: set by a workload whose run holds too few for a tail.
    latency_by_kind = False

    @staticmethod
    def setup_targets():
        """Module attributes to trace while the constructor builds inputs."""
        return []

    def begin_phase(self) -> None:
        """Reset per-phase state before a run of rounds."""

    def finish(self) -> list[str]:
        """Checks that run once, after the timed rounds."""
        return []

    def layer_counts(self) -> dict:
        """Per-layer counts the workload keeps itself."""
        return {}


# ------------------------------------------------------------- audit-suite

AUDIT_EPS = 1.0
# Below 5*10^4 trials per input some cases find no qualified bin.
AUDIT_TRIALS = 50_000

_CASE_MECHANISM = {
    "gap_svt": "gap_svt",
    "adaptive_svt_laplace": "adaptive_svt",
    "adaptive_svt_exponential": "adaptive_svt",
    "adaptive_svt_geometric": "adaptive_svt",
    "gap_topk_laplace": "gap_topk",
    "gap_topk_exponential": "gap_topk",
    "hybrid_identity": "hybrid_identity",
    "hybrid_estimates": "hybrid_estimates",
    "exp_mech_gumbel": "exp_mech_gumbel",
    "exp_mech_blackbox": "exp_mech_blackbox_gap",
    "planted_half_noise_laplace": "planted_half_noise_laplace",
}


def planted_case(eps: float) -> harness_mod.AuditCase:
    """A scalar Laplace mechanism with half the noise it needs: 2*eps-DP
    while it claims eps.  The audit has to catch it."""
    kind = noise_mod.Laplace(0.5 / eps)

    def half_noise_laplace(qs, src):
        return (), (qs.values[0] + noise_mod.sample(kind, src),)

    d = queries_mod.QuerySet((0.0,))
    return harness_mod.AuditCase(
        "planted_half_noise_laplace", half_noise_laplace,
        d, queries_mod.adjacent_counts(d, {0}, +1), eps, bin_width=0.5,
    )


class AuditSuite(Workload):
    """The ten standard audit cases plus the planted broken mechanism."""

    name = "audit-suite"
    latency_by_kind = True

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.cases = harness_mod.standard_audit_cases(AUDIT_EPS) + [planted_case(AUDIT_EPS)]
        self.configs = [
            audit_mod.AuditConfig(
                trials=AUDIT_TRIALS, bin_width=c.bin_width,
                min_count=c.min_count, seed=seed,
            )
            for c in self.cases
        ]
        self.first_reports = None
        self.bins_per_round = 0
        self._traced_mechs = None

    def warmup(self) -> None:
        for case in self.cases:
            src = noise_mod.SeededSource(self.seed)
            for _ in range(100):
                case.mech(case.d, src)

    def trace_targets(self):
        return [
            (audit_mod, "estimate_epsilon", "audit.estimate_epsilon"),
            (audit_mod, "SeededSource", None),
        ]

    def run_round(self, tracer) -> Round:
        if tracer is None:
            mechs = [case.mech for case in self.cases]
        else:
            if self._traced_mechs is None:
                self._traced_mechs = [
                    tracer.wrap(case.mech, "mech." + _CASE_MECHANISM[case.name])
                    for case in self.cases
                ]
            mechs = self._traced_mechs
        rnd = Round()
        reports = []
        for case, cfg, mech in zip(self.cases, self.configs, mechs):
            report = rnd.timed(
                case.name,
                lambda: audit_mod.estimate_epsilon(
                    mech, case.d, case.d_prime, cfg,
                    eps_claimed=case.eps_claimed, mechanism=case.name,
                ),
                2 * cfg.trials,
            )
            reports.append(None if report is None else (report.eps_hat, report.bins))
            if report is None:
                continue
            rnd.problems += checks.check_audit(
                case.name, report, case.eps_claimed, cfg.trials, cfg.min_count,
                planted=case.name == "planted_half_noise_laplace",
            )
        self.bins_per_round = sum(r[1] for r in reports if r is not None)
        if self.first_reports is None:
            self.first_reports = reports
        elif reports != self.first_reports:
            rnd.problems.append("audit: a repeated round with the same seed gave other estimates")
        return rnd

    def layer_counts(self) -> dict:
        return {"audit.bins": float(self.bins_per_round)}


# ------------------------------------------------------- paper-experiments

PAPER_EPS = "0.7"
TOPK_SPEC = "n=60,step=2000,base=10000,order=desc"
SVT_SPEC = "n=100,step=2000,base=10000,order=desc"
# Ascending stream order: every trial scans up to the answers at the end of
# the stream.  A shuffled order is drawn from the seed, and it moves the
# draws per trial, and so the cost, by up to 20% from one seed to the next.
ADAPTIVE_SPEC = "n=200,order=asc"
TOPK_KS = (2, 5, 10, 25)
ADAPTIVE_KS = (2, 10, 24)
# 5000 trials keep every MSE row within MSE_TOL_POINTS of its closed form
# by more than five standard errors.
MSE_TRIALS = 5000
ADAPTIVE_TRIALS = 1000
# Trials per k of the timed invocations: each lasts 15-50 ms, so a run holds
# hundreds of rounds and a latency sample of over a thousand invocations.
TIMED_TRIALS = {"topk-laplace": 30, "topk-exp": 30, "svt": 120, "adaptive": 15}


class Invocation(NamedTuple):
    """One CLI invocation: arguments without trials, seed and output."""

    label: str
    args: list
    ks: tuple
    check_trials: int
    check: Callable[[str], list]

    def argv(self, trials: int, seed: int, out: Path) -> list:
        return self.args + ["--trials", str(trials), "--seed", str(seed), "--out", str(out)]


def paper_invocations() -> list[Invocation]:
    topk = ["mse-reduction-topk", "--synthetic", TOPK_SPEC, "--eps", PAPER_EPS,
            "--k", _ks(TOPK_KS)]
    return [
        Invocation("topk-laplace", topk + ["--noise", "laplace"], TOPK_KS, MSE_TRIALS,
                   lambda text: checks.check_mse_csv(text, "mse-reduction-topk", "laplace",
                                                     TOPK_KS)),
        Invocation("topk-exp", topk + ["--noise", "exp"], TOPK_KS, MSE_TRIALS,
                   lambda text: checks.check_mse_csv(text, "mse-reduction-topk", "exp",
                                                     TOPK_KS)),
        Invocation("svt", ["mse-reduction-svt", "--synthetic", SVT_SPEC, "--eps", PAPER_EPS,
                           "--k", "10"], (10,), MSE_TRIALS,
                   lambda text: checks.check_mse_csv(text, "mse-reduction-svt", "laplace",
                                                     (10,))),
        Invocation("adaptive", ["adaptive-counts", "--synthetic", ADAPTIVE_SPEC,
                                "--eps", PAPER_EPS, "--k", _ks(ADAPTIVE_KS)],
                   ADAPTIVE_KS, ADAPTIVE_TRIALS,
                   lambda text: checks.check_adaptive_csv(text, ADAPTIVE_KS)),
    ]


def _ks(ks) -> str:
    return ",".join(str(k) for k in ks)


class PaperExperiments(Workload):
    """The paper's experiments through ``gapdp.cli.main``, CSV to files.

    The timed rounds repeat short invocations, which must give byte-identical
    CSV every time.  The closed-form checks need thousands of trials, so
    ``finish`` runs each invocation once more at full size, untimed.
    """

    name = "paper-experiments"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.invocations = paper_invocations()
        self.first_csv: dict[str, bytes] = {}

    def warmup(self) -> None:
        self.run_round(None)

    def trace_targets(self):
        return [
            (cli_mod, "main", "cli.main"),
            (cli_mod, "run_experiment", "harness.run_experiment"),
            (cli_mod, "emit", "cli.emit"),
            (harness_mod, "gap_topk", "mech.gap_topk"),
            (harness_mod, "gap_svt", "mech.gap_svt"),
            (harness_mod, "adaptive_svt", "mech.adaptive_svt"),
            (harness_mod, "blue_topk", "post.blue_topk"),
            (harness_mod, "fuse_svt", "post.fuse_svt"),
            (harness_mod, "SeededSource", None),
        ]

    def run_round(self, tracer) -> Round:
        rnd = Round()
        for inv in self.invocations:
            trials = TIMED_TRIALS[inv.label]
            out = self.workdir / f"{inv.label}.csv"
            out.unlink(missing_ok=True)
            argv = inv.argv(trials, self.seed, out)
            code = rnd.timed(inv.label, lambda: cli_mod.main(argv), len(inv.ks) * trials)
            if code is None:
                continue
            if code != 0 or not out.is_file():
                rnd.problems.append(f"{inv.label}: gapdp exited with code {code}")
                continue
            data = out.read_bytes()
            first = self.first_csv.setdefault(inv.label, data)
            if data != first:
                rnd.problems.append(f"{inv.label}: repeating the invocation changed the CSV bytes")
        return rnd

    def finish(self) -> list[str]:
        """Each invocation at full size, checked against its closed forms."""
        problems = []
        for inv in self.invocations:
            out = self.workdir / f"{inv.label}-check.csv"
            code = cli_mod.main(inv.argv(inv.check_trials, self.seed, out))
            if code != 0 or not out.is_file():
                problems.append(f"{inv.label}: gapdp exited with code {code}")
                continue
            problems += inv.check(out.read_text())
        return problems


# --------------------------------------------------------- dataset-release

N_TRANSACTIONS = 100_000
N_ITEMS = 10_000
ZIPF_EXPONENT = 1.0
MEAN_EXTRA_ITEMS = 4.0  # transaction length is 1 + Poisson(4) before dedup
# Popularity rank r sits at item ID (r * stride) mod N_ITEMS.  The stride is
# near N_ITEMS / golden ratio and coprime to N_ITEMS, so the popular items
# spread evenly over the scan order and an SVT scan's length does not hinge
# on where a seed happened to put them.
ID_STRIDE = 6181
RELEASE_EPS = 0.7
RELEASE_K = 10
REPLAYS = 3
# Rotations per round.  Each threshold-taking mechanism draws its thresholds
# stratified over the rank range, one draw per eighth, so every round does
# nearly the same work and the median round rate shrugs off host bursts.
ROTATIONS = 8


def generate_transactions(seed: int, path: Path) -> np.ndarray:
    """Write a Zipf transaction file; return every item it holds, flattened."""
    rng = np.random.default_rng([seed, 1])
    weights = 1.0 / np.arange(1, N_ITEMS + 1) ** ZIPF_EXPONENT
    lengths = 1 + rng.poisson(MEAN_EXTRA_ITEMS, N_TRANSACTIONS)
    ranks = rng.choice(N_ITEMS, size=int(lengths.sum()), p=weights / weights.sum())
    items = (ranks * ID_STRIDE) % N_ITEMS
    owner = np.repeat(np.arange(N_TRANSACTIONS), lengths)
    keys = np.unique(owner * N_ITEMS + items)  # dedup within a transaction
    owner, items = keys // N_ITEMS, keys % N_ITEMS
    seps = np.where(owner[1:] != owner[:-1], "\n", " ").tolist() + ["\n"]
    text = "".join(
        token for pair in zip(items.astype(str).tolist(), seps) for token in pair
    )
    path.write_text(text)
    return items


def _threshold(sorted_desc, k: int, u: float) -> float:
    # As the harness draws it: a rank uniform over the true top 2k..8k.
    lo, hi = 2 * k, 8 * k
    return sorted_desc[min(lo + int(u * (hi - lo + 1)), hi) - 1]


class DatasetRelease(Workload):
    """Single releases over dataset-sized counts, one closed-loop caller."""

    name = "dataset-release"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        path = workdir / "transactions.dat"
        self.items = generate_transactions(seed, path)
        db = queries_mod.load_transactions(path)
        self.counts = queries_mod.item_counts(db)
        del db
        path.unlink()
        self.values = np.asarray(self.counts.values)
        self.sorted_desc = sorted(self.counts.values, reverse=True)
        self.utilities = expmech_mod.UtilityTable(self.counts.values, 1.0, RELEASE_EPS)
        self.svt_theta = svt_mod.theta_optimal(RELEASE_K, "middle", monotonic=True)
        self.hybrid_theta = svt_mod.theta_optimal(RELEASE_K, "middle")
        self.begin_phase()

    def begin_phase(self) -> None:
        self.src = noise_mod.SeededSource(self.seed)
        self.rng = np.random.default_rng([self.seed, 2])

    def warmup(self) -> None:
        self._rotation(Round(), [self.sorted_desc[2 * RELEASE_K - 1]] * 4)
        self.begin_phase()

    @staticmethod
    def setup_targets():
        return [
            (queries_mod, "load_transactions", "queries.load_transactions"),
            (queries_mod, "item_counts", "queries.item_counts"),
        ]

    def trace_targets(self):
        return [
            (svt_mod, "gap_svt", "mech.gap_svt"),
            (svt_mod, "adaptive_svt", "mech.adaptive_svt"),
            (topk_mod, "gap_topk", "mech.gap_topk"),
            (hybrid_mod, "hybrid_identity", "mech.hybrid_identity"),
            (hybrid_mod, "hybrid_estimates", "mech.hybrid_estimates"),
            (expmech_mod, "exp_mech_gumbel", "mech.exp_mech_gumbel"),
            (expmech_mod, "exp_mech_blackbox_gap", "mech.exp_mech_blackbox_gap"),
            (noise_mod, "SeededSource", None),
        ]

    def run_round(self, tracer) -> Round:
        rnd = Round()
        strata = np.tile(np.arange(ROTATIONS), (4, 1))
        uniforms = (self.rng.permuted(strata, axis=1) + self.rng.random(strata.shape)) / ROTATIONS
        for column in uniforms.T:
            thresholds = [_threshold(self.sorted_desc, RELEASE_K, u) for u in column]
            self._rotation(rnd, thresholds)
        return rnd

    def _rotation(self, rnd: Round, thresholds) -> None:
        """One release of each mechanism, checked after its clock stops."""
        q, k, eps, src = self.counts, RELEASE_K, RELEASE_EPS, self.src
        n = len(q.values)

        svt_cfg = svt_mod.SvtConfig(eps, k, thresholds[0], self.svt_theta, monotonic=True)
        r = rnd.timed("gap_svt", lambda: svt_mod.gap_svt(q, svt_cfg, src), 1)
        if r is not None:
            rnd.problems += checks.check_ledger("gap_svt", r.ledger, eps)
            if len(r.above_items()) > k:
                rnd.problems.append("gap_svt: answered more than k queries")

        ada_cfg = svt_mod.SvtConfig(eps, k, thresholds[1], self.svt_theta,
                                    monotonic=True, adaptive=True)
        r = rnd.timed("adaptive_svt", lambda: svt_mod.adaptive_svt(q, ada_cfg, src), 1)
        if r is not None:
            rnd.problems += checks.check_ledger("adaptive_svt", r.ledger, eps)

        r = rnd.timed("gap_topk", lambda: topk_mod.gap_topk(q, k, eps, "laplace", src), 1)
        if r is not None:
            if len(set(r.indices)) != k or not all(0 <= i < n for i in r.indices):
                rnd.problems.append("gap_topk: indices are not k distinct queries")
            rnd.problems += checks.check_cost("gap_topk", r.epsilon_charged, eps / 2.0)

        r = rnd.timed("hybrid_identity",
                      lambda: hybrid_mod.hybrid_identity(q, thresholds[2], k, eps, src), 1)
        if r is not None:
            t = len(r.pairs)
            rnd.problems += checks.check_cost("hybrid_identity", r.actual_cost, (t / k) * eps)

        theta = self.hybrid_theta
        r = rnd.timed("hybrid_estimates",
                      lambda: hybrid_mod.hybrid_estimates(q, thresholds[3], k, eps, theta, src), 1)
        if r is not None:
            t = len(r.pairs)
            rnd.problems += checks.check_cost(
                "hybrid_estimates", r.actual_cost, (theta + (t / k) * (1.0 - theta)) * eps
            )

        for name in ("exp_mech_gumbel", "exp_mech_blackbox_gap"):
            mech = getattr(expmech_mod, name)
            r = rnd.timed(name, lambda: mech(self.utilities, src), 1)
            if r is not None and not (0 <= r.selected < n and r.gap >= 0.0):
                rnd.problems.append(f"{name}: selection out of range or negative gap")

    def finish(self) -> list[str]:
        """Counts against np.bincount, then replays against numpy."""
        problems = []
        if not np.array_equal(np.bincount(self.items).astype(float), self.values):
            problems.append("item_counts: counts differ from np.bincount of the generated items")
        rng = np.random.default_rng([self.seed, 3])
        n = len(self.values)
        for i in range(REPLAYS):
            u = rng.random(n)
            r = topk_mod.gap_topk(self.counts, RELEASE_K, RELEASE_EPS, "laplace",
                                  noise_mod.ReplaySource(u))
            problems += checks.check_replay(
                f"gap_topk replay {i}", r.indices, r.gaps,
                *checks.topk_reference(self.values, RELEASE_K, RELEASE_EPS, u),
            )
            u = rng.random(n)
            r = expmech_mod.exp_mech_gumbel(self.utilities, noise_mod.ReplaySource(u))
            problems += checks.check_replay(
                f"exp_mech_gumbel replay {i}", [r.selected], [r.gap],
                *checks.gumbel_reference(self.values, RELEASE_EPS, 1.0, u),
            )
        return problems


WORKLOADS = {w.name: w for w in (AuditSuite, PaperExperiments, DatasetRelease)}

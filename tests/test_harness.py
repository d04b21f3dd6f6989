import builtins
import json
import math

import numpy as np
import pytest

from gapdp import audit, harness
from gapdp.audit import Release
from gapdp.cli import main
from gapdp.expmech import log_sum_exp_excluding
from gapdp.harness import (
    EXPERIMENTS,
    ConfigError,
    ExperimentConfig,
    emit,
    run_experiment,
    standard_audit_cases,
    synthetic_queries,
)
from gapdp.noise import STREAMS, Laplace, ReplaySource, SeededSource, sample
from gapdp.postprocess import BlueInput, VarianceModel, blue_topk, fuse_svt, svt_variance_model
from gapdp.svt import SvtConfig, adaptive_svt, gap_svt
from gapdp.topk import TopKResult, gap_topk, pairwise_gap

COLUMNS = ("experiment", "parameter", "empirical", "theoretical", "stderr", "trials", "seed")


class TestSyntheticQueries:
    def test_descending_values(self):
        qs = synthetic_queries("n=4,step=10,base=100,order=desc", seed=0)
        assert qs.values == (130.0, 120.0, 110.0, 100.0)
        assert qs.monotonic

    def test_shuffle_is_seeded(self):
        a = synthetic_queries("n=50,order=shuffle", seed=1)
        b = synthetic_queries("n=50,order=shuffle", seed=1)
        c = synthetic_queries("n=50,order=shuffle", seed=2)
        assert a.values == b.values
        assert a.values != c.values
        assert sorted(a.values) == sorted(c.values)

    def test_mono_flag(self):
        assert not synthetic_queries("n=4,mono=0", seed=0).monotonic

    @pytest.mark.parametrize("spec", ["n=1", "bad", "n=4,order=weird", "zzz=3", "step=nan",
                                      "base=inf", "n=40,step=1e308,base=1e308", "mono=2"])
    def test_bad_specs(self, spec):
        with pytest.raises(ConfigError):
            synthetic_queries(spec, seed=0)


class TestConfigValidation:
    def test_unknown_experiment(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="nope")

    def test_bad_values(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="audit", trials=0)
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="audit", eps=())
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="audit", eps=(-1.0,))
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="audit", theta=2.0)

    def test_audit_trial_minimum_is_the_auditors(self):
        ExperimentConfig(experiment="audit", trials=audit.MIN_TRIALS)
        audit.AuditConfig(trials=audit.MIN_TRIALS)
        with pytest.raises(ConfigError, match=r"^audit needs at least 10\^4 trials per input$"):
            ExperimentConfig(experiment="audit", trials=audit.MIN_TRIALS - 1)
        with pytest.raises(ValueError, match=r"^audit needs at least 10\^4 trials per input$"):
            audit.AuditConfig(trials=audit.MIN_TRIALS - 1)

    def test_threshold_ranks_need_data(self):
        cfg = ExperimentConfig(
            experiment="adaptive-counts", k=(10,), trials=1, synthetic="n=20"
        )
        with pytest.raises(ConfigError, match="8k"):
            run_experiment(cfg)


class TestEmit:
    def rows(self):
        return [
            {
                "experiment": "mse-reduction-topk",
                "parameter": "eps=0.7,k=10",
                "empirical": 44.98765432,
                "theoretical": 45.0,
                "stderr": 0.1234567,
                "trials": 100,
                "seed": 0,
            }
        ]

    def test_csv_single_row(self, tmp_path):
        path = tmp_path / "out.csv"
        text = emit(self.rows(), "csv", path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(COLUMNS)
        assert len(lines) == 2
        assert lines[1].startswith("mse-reduction-topk,\"eps=0.7,k=10\",44.9877,45,")
        assert text == path.read_text()

    def test_json_round_trips(self, tmp_path):
        path = tmp_path / "out.json"
        emit(self.rows(), "json", path)
        data = json.loads(path.read_text())
        assert data[0]["empirical"] == 44.9877
        assert set(data[0]) == set(COLUMNS)

    def test_empty_results_error(self):
        with pytest.raises(ValueError):
            emit([], "csv")

    def test_unknown_format(self):
        with pytest.raises(ConfigError):
            emit(self.rows(), "xml")

    def test_none_serializes_as_blank_and_null(self):
        rows = self.rows()
        rows[0]["theoretical"] = None
        assert ",44.9877,,0.123457," in emit(rows, "csv")
        assert json.loads(emit(rows, "json"))[0]["theoretical"] is None


def small_cfg(experiment, **kw):
    defaults = dict(
        experiment=experiment,
        eps=(0.7,),
        k=(3,),
        trials=200,
        seed=1,
        synthetic="n=40,step=50,base=500",
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestExperiments:
    def test_rows_have_all_columns(self):
        rows = run_experiment(small_cfg("mse-reduction-topk"))
        assert rows and all(set(r) == set(COLUMNS) for r in rows)

    def test_mse_topk_roughly_matches_theory_at_small_scale(self):
        rows = run_experiment(small_cfg("mse-reduction-topk", trials=2000))
        row = rows[0]
        # (k-1)/(2k) = 33.3% at k=3; small-sample slack.
        assert row["theoretical"] == pytest.approx(100.0 * 2.0 / 6.0)
        assert abs(row["empirical"] - row["theoretical"]) < 6.0

    def test_mse_svt_runs_and_reports_theory(self):
        rows = run_experiment(small_cfg("mse-reduction-svt", trials=500))
        row = rows[0]
        assert 0.0 < row["theoretical"] < 100.0
        assert not math.isnan(row["empirical"])

    def test_adaptive_counts_metrics(self):
        rows = run_experiment(small_cfg("adaptive-counts"))
        metrics = {r["parameter"].split("metric=")[1] for r in rows}
        assert metrics == {
            "answered_svt",
            "answered_adaptive",
            "answered_adaptive_top",
            "answered_adaptive_middle",
        }
        by = {r["parameter"].split("metric=")[1]: r["empirical"] for r in rows}
        assert by["answered_adaptive"] == pytest.approx(
            by["answered_adaptive_top"] + by["answered_adaptive_middle"], abs=1e-9
        )

    def test_precision_fmeasure_bounds(self):
        rows = run_experiment(small_cfg("precision-fmeasure"))
        assert len(rows) == 4
        for row in rows:
            assert 0.0 <= row["empirical"] <= 1.0

    def test_precision_without_returned_items_is_nan(self, monkeypatch):
        # No scan returns an item, so the precision metrics have no samples.
        def no_answers(cfg, qs, eps, k, theta):
            below = np.zeros((cfg.trials, len(qs)), dtype=np.int64)
            yield np.full(cfg.trials, 500.0), below, below

        monkeypatch.setattr(harness, "_compared_scans", no_answers)
        rows = run_experiment(small_cfg("precision-fmeasure", trials=3))
        by = {r["parameter"].split("metric=")[1]: r for r in rows}
        for name in ("svt", "adaptive"):
            assert math.isnan(by[f"precision_{name}"]["empirical"])
            assert math.isnan(by[f"precision_{name}"]["stderr"])
            assert by[f"fmeasure_{name}"]["empirical"] == 0.0
        assert ",nan,,nan," in emit(rows, "csv")

    def test_remaining_budget_fraction(self):
        rows = run_experiment(small_cfg("remaining-budget"))
        row = rows[0]
        assert 0.0 <= row["empirical"] <= 1.0
        assert row["theoretical"] == pytest.approx(
            (1.0 - (1.0 / (1.0 + 9.0 ** (1.0 / 3.0)))) / 2.0
        )

    def test_determinism(self):
        a = run_experiment(small_cfg("mse-reduction-topk"))
        b = run_experiment(small_cfg("mse-reduction-topk"))
        assert a == b

    def test_seeds_draw_distinct_trial_streams(self):
        # Under seed XOR t these four seeds drew the same set of streams.
        empirical = {
            run_experiment(ExperimentConfig(
                experiment="mse-reduction-topk", k=(10,), trials=1000, seed=seed,
                synthetic="n=60,step=2000,base=10000,order=desc",
            ))[0]["empirical"]
            for seed in (0, 1, 2, 5)
        }
        assert len(empirical) == 4

    def test_dataset_loading(self, tmp_path):
        path = tmp_path / "tx.txt"
        lines = []
        for i in range(30):
            # Item IDs 0..29 with descending popularity.
            lines.extend(" ".join(str(j) for j in range(i + 1)) for _ in range(1))
        path.write_text("\n".join(lines) + "\n")
        cfg = ExperimentConfig(
            experiment="adaptive-counts", eps=(0.7,), k=(2,), trials=50,
            seed=0, dataset=str(path),
        )
        rows = run_experiment(cfg)
        assert rows

    def test_geometric_noise_supported_in_svt_experiments(self):
        rows = run_experiment(
            small_cfg("mse-reduction-svt", noise="geo", trials=300)
        )
        assert rows[0]["theoretical"] > 0.0

    def test_topk_rejects_geometric(self):
        with pytest.raises(ConfigError):
            run_experiment(small_cfg("mse-reduction-topk", noise="geo"))


def test_standard_audit_suite_covers_all_mechanisms():
    names = [case.name for case in standard_audit_cases(1.0)]
    assert names == [
        "gap_svt",
        "adaptive_svt_laplace",
        "adaptive_svt_exponential",
        "adaptive_svt_geometric",
        "gap_topk_laplace",
        "gap_topk_exponential",
        "hybrid_identity",
        "hybrid_estimates",
        "exp_mech_gumbel",
        "exp_mech_blackbox",
    ]
    for case in standard_audit_cases(1.0):
        assert len(case.d) <= 5
        assert len(case.d_prime) == len(case.d)


class TestCli:
    def test_success_writes_file(self, tmp_path, capsys):
        out = tmp_path / "res.csv"
        code = main([
            "mse-reduction-topk", "--synthetic", "n=30,step=50", "--eps", "0.7",
            "--k", "3", "--trials", "100", "--seed", "2", "--out", str(out),
        ])
        assert code == 0
        assert out.read_text().startswith("experiment,")

    def test_stdout_when_no_out(self, capsys):
        code = main([
            "mse-reduction-topk", "--synthetic", "n=30,step=50",
            "--k", "3", "--trials", "50",
        ])
        assert code == 0
        assert capsys.readouterr().out.startswith("experiment,")

    def test_identical_config_identical_bytes(self, tmp_path):
        args = [
            "mse-reduction-topk", "--synthetic", "n=30,step=50", "--k", "3",
            "--trials", "100", "--seed", "7", "--format", "json",
        ]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_k_range_syntax(self, capsys):
        code = main([
            "mse-reduction-topk", "--synthetic", "n=40,step=50",
            "--k", "2..3", "--trials", "50",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "k=2" in out and "k=3" in out

    def test_config_errors_exit_1(self, capsys):
        assert main(["nonsense-experiment"]) == 1
        assert main(["mse-reduction-topk", "--k", "0", "--trials", "10"]) == 1
        assert main(["mse-reduction-topk", "--eps", "abc"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("experiment", ["mse-reduction-topk", "adaptive-counts"])
    @pytest.mark.parametrize("eps", ["inf", "nan", "1e-320", "1e308", "-1"])
    def test_extreme_eps_is_a_config_error(self, capsys, experiment, eps):
        code = main([
            experiment, "--synthetic", "n=30,step=5,base=10", "--eps", f"0.5,{eps}",
            "--k", "2", "--trials", "5",
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("gapdp: config error: eps")

    def test_audit_error_names_the_case(self, capsys):
        assert main(["audit", "--trials", "20000", "--seed", "0"]) == 1
        err = capsys.readouterr().err
        assert "for gap_topk_laplace (20000 trials per input, min_count 1000)" in err

    def test_audit_errors_exit_1(self, capsys):
        # Too few trials for AuditConfig, and too few for any bin to qualify.
        assert main(["audit", "--trials", "100"]) == 1
        assert "config error: audit needs at least 10^4 trials" in capsys.readouterr().err
        assert main(["audit", "--trials", "20000"]) == 1
        assert "config error: no output bin reached" in capsys.readouterr().err

    def test_data_errors_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "missing.txt"
        code = main([
            "adaptive-counts", "--dataset", str(missing), "--k", "2", "--trials", "10",
        ])
        assert code == 2
        bad = tmp_path / "bad.txt"
        bad.write_text("1 2\n3 x\n")
        code = main([
            "adaptive-counts", "--dataset", str(bad), "--k", "2", "--trials", "10",
        ])
        assert code == 2
        capsys.readouterr()


# ------------------------------------------------ scalar per-trial reference
#
# The harness runs each (eps, k) cell as array code over chunks of trials.
# This reference runs the same experiments one trial at a time through the
# public mechanisms, one call per trial, replaying trial t's block of the
# cell's stream: draws [t*width, (t+1)*width), width being the most a trial
# can read.  A trial that reads past its block raises.  Its sparse-vector
# and measurement noise comes from ``math``'s log1p where the kernels use
# numpy's, which differ in the last bit, so the MSE statistics agree to
# 1e-9 relative and at the 6 digits written out; counts, precision and
# budget fractions agree exactly.

def trial_sources(cfg, width, stream="cell"):
    """Trial t's block of the cell's stream ``stream``, as a replay source."""
    src = SeededSource(cfg.seed, *STREAMS[stream])
    return [ReplaySource(row) for row in src.uniform_matrix(cfg.trials, width)]


def draw_threshold(desc, k, u):
    return desc[min(2 * k + int(u * (6 * k + 1)), 8 * k) - 1]


def scan_config(cfg, qs, eps, k, threshold, theta, adaptive=False):
    return SvtConfig(eps, k, threshold, theta, cfg.noise, qs.monotonic, adaptive)


def in_order(values):
    """The float sum from 0.0, left to right, whatever ``sum`` does."""
    total = 0.0
    for v in values:
        total += v
    return total


def pooled(errors, trials):
    """100 * (1 - new/base) over (trial, base, new) squared errors, and the
    stderr over 50 trial batches."""
    base, new = [0.0] * 50, [0.0] * 50
    for t, b, n in errors:
        base[t * 50 // trials] += b
        new[t * 50 // trials] += n
    if in_order(base) <= 0.0:
        return math.nan, math.nan
    ratios = [1.0 - n / b for n, b in zip(new, base) if b > 0.0]
    return (100.0 * (1.0 - in_order(new) / in_order(base)),
            100.0 * harness._mean_stderr(ratios)[1])


def reference_cell(cfg, qs, eps, k):
    """(empirical, stderr) of each row of one (eps, k) cell."""
    desc = sorted(qs.values, reverse=True)
    n = len(qs.values)
    # A threshold draw, then the scan's own threshold noise and one draw per
    # query, two for the adaptive scan.
    single, adaptive_width = 2 + n, 2 + 2 * n
    if cfg.experiment == "mse-reduction-topk":
        lam = {("laplace", True): 1.0, ("laplace", False): 4.0,
               ("exponential", True): 0.5, ("exponential", False): 2.0}[cfg.noise, qs.monotonic]
        errors = []
        for t, src in enumerate(trial_sources(cfg, n + k)):
            result = gap_topk(qs, k, eps if qs.monotonic else eps / 2.0, cfg.noise, src)
            alphas = [qs.values[j] + sample(Laplace(2.0 * k / eps), src) for j in result.indices]
            betas = blue_topk(BlueInput(tuple(alphas), result.gaps[: k - 1], lam))
            for j, alpha, beta in zip(result.indices, alphas, betas):
                errors.append((t, (alpha - qs.values[j]) ** 2, (beta - qs.values[j]) ** 2))
        return [pooled(errors, cfg.trials)]
    if cfg.experiment == "mse-reduction-svt":
        theta = harness._default_theta(cfg, k, qs.monotonic, eps / 2.0)
        var_gap = svt_variance_model(k, eps, theta, cfg.noise, qs.monotonic).var_gap
        errors = []
        for t, src in enumerate(trial_sources(cfg, single + n)):
            threshold = draw_threshold(desc, k, src.uniform())
            picked = gap_svt(qs, scan_config(cfg, qs, eps / 2.0, k, threshold, theta),
                             src).above_items()
            m = len(picked)
            for item in picked:
                true = qs.values[item.index]
                alpha = true + sample(Laplace(2.0 * m / eps), src)
                model = VarianceModel(8.0 * m * m / (eps * eps), var_gap)
                beta = fuse_svt([item.gap + threshold], [alpha], model)[0]
                errors.append((t, (alpha - true) ** 2, (beta - true) ** 2))
        return [pooled(errors, cfg.trials)]
    theta = harness._default_theta(cfg, k, qs.monotonic, eps)
    samples = {}
    if cfg.experiment == "remaining-budget":
        sources = zip(trial_sources(cfg, adaptive_width), [None] * cfg.trials)
    else:
        sources = zip(trial_sources(cfg, single),
                      trial_sources(cfg, adaptive_width - 1, "cell-adaptive"))
    for src, alt_src in sources:
        threshold = draw_threshold(desc, k, src.uniform())
        if cfg.experiment == "remaining-budget":
            scan_cfg = scan_config(cfg, qs, eps, k, threshold, theta, adaptive=True)
            spent = [item.budget_used for item in adaptive_svt(qs, scan_cfg, src).items
                     if item.above][:k]
            consumed = scan_cfg.eps0
            for cost in spent:
                consumed += cost
            samples.setdefault("fraction", []).append(1.0 - consumed / eps)
            continue
        base = gap_svt(qs, scan_config(cfg, qs, eps, k, threshold, theta), src)
        adaptive = adaptive_svt(qs, scan_config(cfg, qs, eps, k, threshold, theta, True),
                                alt_src)
        if cfg.experiment == "adaptive-counts":
            above = adaptive.above_items()
            for metric, count in (
                ("svt", len(base.above_items())), ("adaptive", len(above)),
                ("adaptive_top", sum(item.branch == "top" for item in above)),
                ("adaptive_middle", sum(item.branch == "middle" for item in above)),
            ):
                samples.setdefault(metric, []).append(float(count))
            continue
        true_above = {i for i, v in enumerate(qs.values) if v > threshold}
        samples.setdefault("precision_svt", [])
        samples.setdefault("precision_adaptive", [])
        for name, result in (("svt", base), ("adaptive", adaptive)):
            returned = {item.index for item in result.above_items()}
            hits = len(returned & true_above)
            f = 0.0
            if returned:
                precision = hits / len(returned)
                recall = hits / len(true_above) if true_above else 0.0
                samples[f"precision_{name}"].append(precision)
                if precision + recall > 0.0:
                    f = 2.0 * precision * recall / (precision + recall)
            samples.setdefault(f"fmeasure_{name}", []).append(f)
    return [harness._mean_stderr(values) for values in samples.values()]


CHUNK = harness._CHUNK


@pytest.mark.parametrize("mono", [0, 1])
@pytest.mark.parametrize("noise", ["laplace", "exp", "geo"])
@pytest.mark.parametrize("experiment", [e for e in EXPERIMENTS if e != "audit"])
def test_batched_runners_match_scalar_reference(experiment, noise, mono):
    for trials in (1, CHUNK - 1, CHUNK + 1, 2 * CHUNK + 3):
        cfg = ExperimentConfig(
            experiment=experiment, eps=(0.4, 2.0), k=(2, 5), trials=trials, seed=6,
            noise=noise, synthetic=f"n=40,step=3,base=100,order=shuffle,mono={mono}",
        )
        if experiment == "mse-reduction-topk" and cfg.noise == "geometric":
            with pytest.raises(ConfigError):
                run_experiment(cfg)
            return
        qs = synthetic_queries(cfg.synthetic, cfg.seed)
        rows = run_experiment(cfg)
        reference = [r for eps in cfg.eps for k in cfg.k for r in reference_cell(cfg, qs, eps, k)]
        assert len(reference) == len(rows)
        want = [dict(row, empirical=e, stderr=s) for row, (e, s) in zip(rows, reference)]
        assert emit(rows) == emit(want), trials
        for got, ref in zip(rows, want):
            for key in ("empirical", "stderr"):
                a, b = got[key], ref[key]
                if experiment.startswith("mse") and not math.isnan(b):
                    assert math.isclose(a, b, rel_tol=1e-9), (trials, got, ref)
                else:
                    assert a == b or (math.isnan(a) and math.isnan(b)), (trials, got, ref)


def test_ratio_accumulator_sums_left_to_right_whatever_the_chunks():
    # The batch sums must equal a scalar left-to-right sum however the
    # entries are split into calls; np.sum adds pairwise and rounds otherwise.
    # Below 50 trials every trial is a batch of its own and some batches
    # stay empty; a single call spans every batch at once.
    rng = np.random.default_rng(8)
    for trials in (997, 30, 1):
        trial = np.sort(rng.integers(0, trials, 20_000))
        base_sq, new_sq = rng.random(20_000) * 1e3, rng.random(20_000)
        want_base, want_new = [0.0] * 50, [0.0] * 50
        for t, b, n in zip(trial.tolist(), base_sq.tolist(), new_sq.tolist()):
            want_base[t * 50 // trials] += b
            want_new[t * 50 // trials] += n
        for chunk in (len(trial), 4096, 7):
            acc = harness._RatioAccumulator(trials)
            for s in range(0, len(trial), chunk):
                acc.add(trial[s:s + chunk], base_sq[s:s + chunk], new_sq[s:s + chunk])
            assert acc.sums.tolist() == [want_base, want_new], (trials, chunk)
        # Empty calls, as a chunk with no reported query makes, change nothing.
        acc = harness._RatioAccumulator(trials)
        for s in range(0, len(trial), 4096):
            acc.add(trial[:0], base_sq[:0], new_sq[:0])
            acc.add(trial[s:s + 4096], base_sq[s:s + 4096], new_sq[s:s + 4096])
        acc.add(trial[:0], base_sq[:0], new_sq[:0])
        assert acc.sums.tolist() == [want_base, want_new], (trials, "empty calls")


TRIAL_EXPERIMENTS = [e for e in EXPERIMENTS if e != "audit"]


def cells_cfg(experiment, eps=(0.4, 2.0), k=(2, 5), trials=97):
    return ExperimentConfig(
        experiment=experiment, eps=eps, k=k, trials=trials, seed=6,
        synthetic="n=40,step=3,base=100,order=shuffle,mono=1",
    )


@pytest.mark.parametrize("experiment", TRIAL_EXPERIMENTS)
def test_output_does_not_depend_on_the_chunk_size(experiment, monkeypatch):
    # Trial t owns draws [t*width, (t+1)*width) of its cell's stream,
    # whichever chunk it falls in.
    outputs = set()
    for chunk in (1, 7, 32, 1000):
        monkeypatch.setattr(harness, "_CHUNK", chunk)
        outputs.add(emit(run_experiment(cells_cfg(experiment))))
    assert len(outputs) == 1


def cell_of(row):
    return tuple(row["parameter"].split(",")[:2])


@pytest.mark.parametrize("experiment", TRIAL_EXPERIMENTS)
def test_a_cell_gives_the_same_rows_alone_and_in_any_order(experiment):
    rows = run_experiment(cells_cfg(experiment))
    for eps in (0.4, 2.0):
        for k in (2, 5):
            alone = run_experiment(cells_cfg(experiment, eps=(eps,), k=(k,)))
            within = [r for r in rows if cell_of(r) == (f"eps={eps:g}", f"k={k}")]
            assert alone and emit(alone) == emit(within), (eps, k)
    reordered = run_experiment(cells_cfg(experiment, eps=(2.0, 0.4), k=(5, 2)))
    assert [cell_of(r) for r in reordered] != [cell_of(r) for r in rows]
    assert emit(sorted(rows, key=cell_of)) == emit(sorted(reordered, key=cell_of))


@pytest.mark.parametrize("experiment", TRIAL_EXPERIMENTS)
def test_one_source_per_cell_and_stream(experiment, monkeypatch):
    built = []

    def counting_source(seed, *key):
        built.append((seed, key))
        return SeededSource(seed, *key)

    monkeypatch.setattr(harness, "SeededSource", counting_source)
    run_experiment(cells_cfg(experiment))
    streams = ["cell", "cell-adaptive"] if experiment in ("adaptive-counts",
                                                          "precision-fmeasure") else ["cell"]
    assert built == [(6, STREAMS["synthetic"])] + [(6, STREAMS[s]) for s in streams] * 4


def compensated_sum(values, start=0, *, _sum=builtins.sum):
    """``sum`` as Python 3.12 adds floats, with Neumaier compensation; the
    real ``sum`` for anything else."""
    values = list(values)
    if start != 0 or not all(isinstance(v, float) for v in values):
        return _sum(values, start)
    total = compensation = 0.0
    for v in values:
        t = total + v
        if abs(total) >= abs(v):
            compensation += (total - t) + v
        else:
            compensation += (v - t) + total
        total = t
    return total + compensation


@pytest.mark.parametrize("experiment", TRIAL_EXPERIMENTS)
def test_rows_do_not_depend_on_how_sum_rounds(experiment, monkeypatch):
    # Every float sum runs left to right, so a compensated builtin sum, as
    # on Python 3.12 and later, moves no bit of the output.
    cfg = ExperimentConfig(experiment=experiment, eps=(0.3, 0.7, 2.0), k=(2, 5), trials=60,
                           seed=11, synthetic="n=60,step=3,base=100,order=shuffle,mono=0")
    want = repr(run_experiment(cfg))
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert repr(run_experiment(cfg)) == want


def test_float_helpers_do_not_depend_on_how_sum_rounds(monkeypatch):
    tenths = (0.1,) * 10
    ranked = TopKResult(tuple(range(10)), tenths, 1.0, (1.0,))
    record = Release((), (), 2.0, tenths)
    scores = [math.log(i) for i in range(1, 10)]
    calls = (lambda: pairwise_gap(ranked, 1, 11), lambda: record.consumed,
             lambda: log_sum_exp_excluding(scores, 0))
    want = [f() for f in calls]
    assert want[:2] == [in_order(tenths)] * 2 == [0.9999999999999999] * 2
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert sum(tenths) == 1.0  # the patch rounds otherwise
    assert [f() for f in calls] == want

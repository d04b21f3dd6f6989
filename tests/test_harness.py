import json
import math

import pytest

from gapdp import harness
from gapdp.cli import main
from gapdp.harness import (
    ConfigError,
    ExperimentConfig,
    emit,
    run_experiment,
    standard_audit_cases,
    synthetic_queries,
)
from gapdp.svt import BudgetLedger, SvtResult

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

    @pytest.mark.parametrize("spec", ["n=1", "bad", "n=4,order=weird", "zzz=3"])
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
        empty = SvtResult((), BudgetLedger(0.7, 0.35))
        monkeypatch.setattr(harness, "_scan_pair", lambda *args: (empty, empty))
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

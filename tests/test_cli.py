"""Tests for the command-line pipeline: preprocess, experiment, gram, benchmark."""

import json

import numpy as np
import pytest

from mpskernel.cli import (
    EXIT_IO,
    EXIT_NONCONVERGENCE,
    EXIT_OK,
    EXIT_VALIDATION,
    ExperimentConfig,
    SyntheticSpec,
    cmd_benchmark,
    cmd_experiment,
    cmd_preprocess,
    generate_blobs,
    main,
)
from mpskernel.learn import load_dataset_csv


def synthetic_cfg(**overrides) -> ExperimentConfig:
    cfg = ExperimentConfig(
        synthetic=SyntheticSpec(n_per_class=10, separation=6.0),
        m=4,
        n_per_class=10,
        r=1,
        d=1,
        gamma=0.5,
        workers=1,
        seed=3,
    )
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


class TestGenerateBlobs:
    def test_counts_and_labels(self):
        ds = generate_blobs(SyntheticSpec(n_per_class=12), m=5, seed=0)
        assert ds.n == 24
        assert int(np.sum(ds.labels == 1)) == 12

    def test_seeded_determinism(self):
        a = generate_blobs(SyntheticSpec(n_per_class=8), m=4, seed=5)
        b = generate_blobs(SyntheticSpec(n_per_class=8), m=4, seed=5)
        assert np.array_equal(a.features, b.features)

    def test_informative_subset_leaves_rest_constant(self):
        ds = generate_blobs(SyntheticSpec(n_per_class=6, n_informative=2), m=5, seed=1)
        assert np.ptp(ds.features[:, 2:], axis=0).max() == 0.0
        assert np.ptp(ds.features[:, :2], axis=0).min() > 0.0


class TestPreprocess:
    def test_synthetic_counts(self, tmp_path):
        out = tmp_path / "out.csv"
        summary = cmd_preprocess(synthetic_cfg(), out)
        assert summary["rows"] == 20
        assert summary["per_class"] == {1: 10, -1: 10}
        ds = load_dataset_csv(out)
        assert ds.n == 20 and ds.m == 4
        assert ds.features.min() >= 0.0 and ds.features.max() <= 2.0

    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        cmd_preprocess(synthetic_cfg(), a)
        cmd_preprocess(synthetic_cfg(), b)
        assert a.read_bytes() == b.read_bytes()

    def test_requesting_too_many_rows_fails_with_counts(self, tmp_path):
        cfg = synthetic_cfg(n_per_class=50)
        cfg.synthetic.n_per_class = 10
        with pytest.raises(ValueError, match="10"):
            cmd_preprocess(cfg, tmp_path / "x.csv")

    def test_csv_input_path(self, tmp_path):
        src = tmp_path / "raw.csv"
        cmd_preprocess(synthetic_cfg(), src)
        cfg = synthetic_cfg(n_per_class=4)
        cfg.data = str(src)
        cfg.synthetic = None
        summary = cmd_preprocess(cfg, tmp_path / "sel.csv")
        assert summary["rows"] == 8


class TestExperiment:
    def test_metrics_schema(self, tmp_path):
        result = cmd_experiment(synthetic_cfg(baseline=True), tmp_path)
        assert (tmp_path / "metrics.json").exists()
        assert (tmp_path / "gram_train.csv").exists()
        assert (tmp_path / "gram_test.csv").exists()
        model = json.loads((tmp_path / "model_best.json").read_text())
        assert set(model) == {"dual_coefs", "bias", "C", "tol", "support_indices"}
        grid = ExperimentConfig().grid()
        assert len(result["quantum"]) == len(grid)
        for row in result["quantum"]:
            for block in ("train", "test"):
                for key in ("accuracy", "precision", "recall", "auc"):
                    assert 0.0 <= row[block][key] <= 1.0
        assert "best_quantum" in result and "best_gaussian" in result

    def test_worker_count_does_not_change_grams(self, tmp_path):
        r1 = cmd_experiment(synthetic_cfg(workers=1), tmp_path / "k1")
        r4 = cmd_experiment(synthetic_cfg(workers=4), tmp_path / "k4")
        g1 = np.loadtxt(tmp_path / "k1" / "gram_train.csv", delimiter=",")
        g4 = np.loadtxt(tmp_path / "k4" / "gram_train.csv", delimiter=",")
        assert np.abs(g1 - g4).max() < 1e-12
        t1 = np.loadtxt(tmp_path / "k1" / "gram_test.csv", delimiter=",")
        t4 = np.loadtxt(tmp_path / "k4" / "gram_test.csv", delimiter=",")
        assert np.abs(t1 - t4).max() < 1e-12
        assert r1["split"] == r4["split"]

    def test_baseline_shares_split(self, tmp_path):
        result = cmd_experiment(synthetic_cfg(baseline=True), tmp_path)
        assert result["split"]["train_indices"] == sorted(result["split"]["train_indices"])
        assert len(result["gaussian"]) == len(result["quantum"])


class TestBenchmark:
    def test_sample_and_pair_counts(self, tmp_path):
        cfg = synthetic_cfg(m=6, d=2)
        result = cmd_benchmark(cfg, samples=8, out_dir=tmp_path)
        assert len(result["simulation_seconds"]) == 8
        assert len(result["inner_product_seconds"]) == 28
        assert len(result["max_chi"]) == 8
        assert all(series and min(series) > 0 for series in result["memory_bytes_per_gate"])
        assert set(result["simulation_summary"]) == {"median", "q1", "q3"}

    def test_chi_stays_small_for_shallow_chain(self, tmp_path):
        cfg = synthetic_cfg(m=40, d=1, r=2, gamma=0.1)
        cfg.synthetic.n_per_class = 4
        cfg.n_per_class = None
        result = cmd_benchmark(cfg, samples=4, out_dir=tmp_path)
        assert max(result["max_chi"]) <= 4

    def test_too_few_samples_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="2"):
            cmd_benchmark(synthetic_cfg(), samples=1, out_dir=tmp_path)


class TestMainEntry:
    def test_preprocess_and_experiment_flow(self, tmp_path, capsys):
        out_csv = tmp_path / "data.csv"
        code = main(
            [
                "preprocess",
                "--synthetic",
                "--per-class", "8",
                "--features", "4",
                "--seed", "3",
                "--out", str(out_csv),
            ]
        )
        assert code == EXIT_OK
        code = main(
            [
                "experiment",
                "--data", str(out_csv),
                "--features", "4",
                "--distance", "1",
                "--layers", "1",
                "--gamma", "0.5",
                "--workers", "2",
                "--strategy", "round-robin",
                "--seed", "3",
                "--out-dir", str(tmp_path / "exp"),
            ]
        )
        assert code == EXIT_OK
        payload = json.loads((tmp_path / "exp" / "metrics.json").read_text())
        assert payload["config"]["strategy"] == "round_robin"

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps(
                {
                    "synthetic": {"n_per_class": 8, "separation": 6.0},
                    "m": 4,
                    "n_per_class": 8,
                    "d": 1,
                    "r": 1,
                    "gamma": 0.9,
                    "seed": 2,
                }
            )
        )
        out = tmp_path / "p.csv"
        code = main(["preprocess", "--config", str(config), "--features", "3", "--out", str(out)])
        assert code == EXIT_OK
        assert load_dataset_csv(out).m == 3

    def test_missing_file_gives_io_exit(self, tmp_path, capsys):
        code = main(
            ["experiment", "--data", str(tmp_path / "nope.csv"), "--out-dir", str(tmp_path)]
        )
        assert code == EXIT_IO
        a_file = tmp_path / "file"
        a_file.write_text("")
        for out_dir in (a_file, a_file / "sub"):
            code = main(
                ["gram", "--synthetic", "--features", "3", "--per-class", "3",
                 "--out-dir", str(out_dir)]
            )
            assert code == EXIT_IO

    def test_bad_value_gives_validation_exit(self, tmp_path, capsys):
        # d out of range surfaces once the feature map is built
        code = main(
            [
                "gram",
                "--synthetic",
                "--features", "4",
                "--distance", "9",
                "--per-class", "4",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == EXIT_VALIDATION
        short_row = tmp_path / "short.csv"
        short_row.write_text("a,class\n1,1\n2\n")
        code = main(["gram", "--data", str(short_row), "--features", "1",
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_VALIDATION
        assert "line 3" in capsys.readouterr().err
        for raw in ([1, 2], {"synthetic": {"n_per_klass": 4}}):
            config = tmp_path / "cfg.json"
            config.write_text(json.dumps(raw))
            code = main(["gram", "--config", str(config), "--out-dir", str(tmp_path)])
            assert code == EXIT_VALIDATION

    def test_benchmark_entry(self, tmp_path, capsys):
        code = main(
            [
                "benchmark",
                "--synthetic",
                "--features", "5",
                "--distance", "1",
                "--layers", "2",
                "--gamma", "0.1",
                "--per-class", "6",
                "--samples", "4",
                "--seed", "1",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        payload = json.loads((tmp_path / "benchmark.json").read_text())
        assert len(payload["inner_product_seconds"]) == 6

    def test_gram_entry_writes_sidecar(self, tmp_path, capsys):
        code = main(
            [
                "gram",
                "--synthetic",
                "--features", "4",
                "--per-class", "5",
                "--workers", "2",
                "--strategy", "no-messaging",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        meta = json.loads((tmp_path / "gram.csv.json").read_text())
        assert meta["strategy"] == "no_messaging"
        assert meta["n_inner_products"] == 10 * 9 // 2

    def test_svd_non_convergence_gives_solver_exit(self, tmp_path, capsys, monkeypatch):
        def never_converges(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", never_converges)
        code = main(
            [
                "gram",
                "--synthetic",
                "--features", "4",
                "--per-class", "2",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == EXIT_NONCONVERGENCE
        assert "did not converge" in capsys.readouterr().err

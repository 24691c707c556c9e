"""Tests for the command-line pipeline: preprocess, experiment, gram, benchmark."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mpskernel.cli import (
    EXIT_IO,
    EXIT_NONCONVERGENCE,
    EXIT_OK,
    EXIT_VALIDATION,
    ExperimentConfig,
    SyntheticSpec,
    _apply_overrides,
    _build_parser,
    _load_config,
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
        for run, workers, strategy in (("k4", 4, "round_robin"), ("nm", 3, "no_messaging")):
            r = cmd_experiment(
                synthetic_cfg(workers=workers, strategy=strategy), tmp_path / run
            )
            for name in ("gram_train.csv", "gram_test.csv"):
                a = np.loadtxt(tmp_path / "k1" / name, delimiter=",")
                b = np.loadtxt(tmp_path / run / name, delimiter=",")
                assert np.array_equal(a, b), (run, name)
            assert r1["split"] == r["split"]

    def test_gram_sidecars_record_kind_and_shape(self, tmp_path):
        result = cmd_experiment(synthetic_cfg(), tmp_path)
        n_train = len(result["split"]["train_indices"])
        n_test = len(result["split"]["test_indices"])
        for name, kind, shape in (
            ("gram_train.csv", "train", (n_train, n_train)),
            ("gram_test.csv", "test", (n_test, n_train)),
        ):
            meta = json.loads((tmp_path / f"{name}.json").read_text())
            assert (meta["kind"], meta["rows"], meta["cols"]) == (kind, *shape), name
        assert not {"kind", "rows", "cols"} & set(result["report"])
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert not {"kind", "rows", "cols"} & set(metrics["report"])

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


def parse(argv: list[str]) -> ExperimentConfig:
    args = _build_parser().parse_args(argv)
    return _apply_overrides(_load_config(args.config), args)


class TestParser:
    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("preprocess", "--workers", "2"),
            ("preprocess", "--strategy", "round-robin"),
            ("preprocess", "--distance", "2"),
            ("preprocess", "--layers", "2"),
            ("preprocess", "--gamma", "0.5"),
            ("preprocess", "--out-dir", "."),
            ("benchmark", "--workers", "2"),
            ("benchmark", "--strategy", "round-robin"),
            ("benchmark", "--per-class", "3"),
        ],
    )
    def test_flag_the_command_does_not_read_is_rejected(
        self, tmp_path, capsys, command, flag, value
    ):
        if command == "preprocess":
            out = ["--out", str(tmp_path / "p.csv")]
        else:
            out = ["--out-dir", str(tmp_path)]
        code = main([command, "--synthetic", "--features", "3", flag, value, *out])
        assert code == EXIT_VALIDATION
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_each_flag_sets_its_config_field(self, tmp_path):
        assert parse(["experiment"]) == ExperimentConfig()
        cfg = parse(
            [
                "experiment",
                "--seed", "5",
                "--features", "6",
                "--data", "d.csv",
                "--synthetic",
                "--blobs", "3",
                "--separation", "2.5",
                "--informative", "2",
                "--per-class", "7",
                "--distance", "2",
                "--layers", "3",
                "--gamma", "0.25",
                "--out-dir", str(tmp_path),
                "--workers", "4",
                "--strategy", "no-messaging",
                "--baseline",
            ]
        )
        assert (cfg.seed, cfg.m, cfg.data, cfg.n_per_class) == (5, 6, "d.csv", 7)
        assert (cfg.d, cfg.r, cfg.gamma) == (2, 3, 0.25)
        assert (cfg.workers, cfg.strategy, cfg.baseline) == (4, "no_messaging", True)
        assert cfg.synthetic == SyntheticSpec(
            n_per_class=100, blobs_per_class=3, separation=2.5, n_informative=2
        )
        config = tmp_path / "cfg.json"
        for strategy in ("round-robin", "round_robin"):
            config.write_text(json.dumps({"strategy": strategy, "baseline": True}))
            cfg = parse(["experiment", "--config", str(config)])
            assert cfg == ExperimentConfig(strategy="round_robin", baseline=True), strategy


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
        for name, text, message in (
            ("feature.csv", "a,b,class\n1,2,1\n2,x,-1\n", "line 3"),
            ("nan.csv", "a,b,class\n1,2,1\n2,nan,-1\n", "line 3"),
            ("inf.csv", "a,b,class\n1e400,2,1\n2,3,-1\n", "line 2"),
            ("header.csv", "a,b,class\n", "no data rows"),
            ("twice.csv", "a,class,class\n1,1,1\n2,-1,-1\n", "repeats the label column 'class'"),
        ):
            (tmp_path / name).write_text(text)
            code = main(["gram", "--data", str(tmp_path / name), "--features", "2",
                         "--out-dir", str(tmp_path)])
            assert code == EXIT_VALIDATION, name
            err = capsys.readouterr().err
            assert message in err and name in err, name
        for label in ("inf", "1.9"):
            bad_label = tmp_path / "label.csv"
            bad_label.write_text(f"a,b,class\n1,2,1\n2,3,{label}\n")
            code = main(["gram", "--data", str(bad_label), "--features", "2",
                         "--out-dir", str(tmp_path)])
            assert code == EXIT_VALIDATION, label
            assert "line 3" in capsys.readouterr().err, label
        small = {"synthetic": {"n_per_class": 3}, "m": 3}
        for raw in (
            [1, 2],
            {"synthetic": {"n_per_klass": 4}},
            {**small, "workers": "2"},
            {**small, "synthetic": {"n_per_class": "3"}},
            {**small, "budget": float("inf")},
            {**small, "workers": True},
            {**small, "gamma": 1e308},
            {**small, "gamma": 10**400},
            {**small, "budget": 10**400},
            {**small, "seed": -5},
        ):
            config = tmp_path / "cfg.json"
            config.write_text(json.dumps(raw))
            code = main(["gram", "--config", str(config), "--out-dir", str(tmp_path)])
            assert code == EXIT_VALIDATION
        # the last config's error names its negative seed
        assert "seed" in capsys.readouterr().err.splitlines()[-1]
        good = tmp_path / "good.csv"
        good.write_text("a,b,class\n1,2,1\n2,3,-1\n")
        for features in ("-1", "0"):
            code = main(["preprocess", "--data", str(good), "--features", features,
                         "--out", str(tmp_path / "pre.csv")])
            assert code == EXIT_VALIDATION, features
            assert "features" in capsys.readouterr().err, features
        on_good = ["gram", "--data", str(good), "--features", "2", "--out-dir", str(tmp_path)]
        for argv, message in (
            ([*on_good, "--blobs", "4"], "blobs_per_class"),
            ([*on_good, "--separation", "2"], "separation"),
            ([*on_good, "--informative", "1"], "n_informative"),
            ([*on_good, "--synthetic"], "both"),
            (["preprocess", "--synthetic", "--features", "4", "--per-class", "150",
              "--out", str(tmp_path / "pre.csv")], "synthetic.n_per_class"),
            (["experiment", "--synthetic", "--features", "3", "--per-class", "1",
              "--out-dir", str(tmp_path)], "no test rows"),
            (["preprocess", "--synthetic", "--features", "4", "--per-class", "-1",
              "--out", str(tmp_path / "pre.csv")], "n_per_class"),
            (["preprocess", "--synthetic", "--features", "4", "--per-class", "0",
              "--out", str(tmp_path / "pre.csv")], "n_per_class"),
            ([*on_good, "--seed", "-5"], "seed"),
            (["preprocess", "--synthetic", "--features", "4", "--separation", "nan",
              "--out", str(tmp_path / "pre.csv")], "separation"),
            (["preprocess", "--synthetic", "--features", "4", "--separation", "-1",
              "--out", str(tmp_path / "pre.csv")], "separation"),
        ):
            code = main(argv)
            assert code == EXIT_VALIDATION, argv
            assert message in capsys.readouterr().err, argv
        config.write_text(json.dumps({**small, "c_grid": []}))
        code = main(["experiment", "--config", str(config), "--out-dir", str(tmp_path)])
        assert code == EXIT_VALIDATION
        with pytest.raises(ValueError, match="c_grid"):
            ExperimentConfig(c_grid=[1.0, 0.0]).grid()

    def test_benchmark_entry(self, tmp_path, capsys):
        code = main(
            [
                "benchmark",
                "--synthetic",
                "--features", "5",
                "--distance", "1",
                "--layers", "2",
                "--gamma", "0.1",
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

    def test_python_dash_m_runs_from_a_checkout(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

        def run(*argv):
            return subprocess.run(
                [sys.executable, "-m", "mpskernel", *argv],
                capture_output=True, text=True, cwd=tmp_path, env=env, timeout=60,
            )

        assert run("--help").returncode == EXIT_OK
        bad = run("gram", "--bogus")
        assert bad.returncode == EXIT_VALIDATION
        assert "unrecognized arguments: --bogus" in bad.stderr

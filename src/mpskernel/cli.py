"""Command-line surface: preprocess, experiment, gram and benchmark subcommands.

Every command is deterministic for a fixed seed and configuration and writes
UTF-8 JSON and CSV artifacts. Exit codes: 0 success, 2 I/O failure,
3 validation failure, 4 solver non-convergence, 1 anything else.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from . import kernel, learn, mps
from .ansatz import FeatureMapConfig, encode_circuit

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_IO = 2
EXIT_VALIDATION = 3
EXIT_NONCONVERGENCE = 4

_STRATEGY_FLAGS = {"no-messaging": "no_messaging", "round-robin": "round_robin"}


@dataclass
class SyntheticSpec:
    """Two Gaussian blobs per class in m dimensions, optionally with only a
    leading block of informative features (the rest stay constant)."""

    n_per_class: int = 100
    blobs_per_class: int = 2
    separation: float = 6.0
    n_informative: int | None = None


@dataclass
class ExperimentConfig:
    data: str | None = None
    synthetic: SyntheticSpec | None = None
    m: int = 4
    n_per_class: int | None = None
    r: int = 2
    d: int = 1
    gamma: float = 0.1
    strategy: str = "round_robin"
    workers: int = 1
    c_grid: list[float] | None = None
    seed: int = 0
    baseline: bool = False
    budget: float = mps.DEFAULT_TRUNC_BUDGET

    def feature_map(self) -> FeatureMapConfig:
        return FeatureMapConfig(self.m, self.r, self.d, self.gamma)

    def grid(self) -> list[float]:
        if self.c_grid:
            return [float(c) for c in self.c_grid]
        return [float(c) for c in np.geomspace(0.01, 4.0, 8)]


def generate_blobs(spec: SyntheticSpec, m: int, seed: int) -> learn.Dataset:
    """Seeded synthetic two-class dataset; classes sit on opposite sides of a
    shared direction in the informative subspace."""
    if spec.n_per_class < 1 or spec.blobs_per_class < 1:
        raise ValueError("synthetic generator needs at least one point and blob per class")
    n_inf = m if spec.n_informative is None else spec.n_informative
    if not 1 <= n_inf <= m:
        raise ValueError("n_informative must lie in 1..m")
    rng = np.random.default_rng(seed)
    direction = np.ones(n_inf) / np.sqrt(n_inf)
    rows = []
    labels = []
    for label in (1, -1):
        centers = []
        for _ in range(spec.blobs_per_class):
            jitter = rng.normal(0.0, spec.separation / 6.0, n_inf)
            centers.append(label * (spec.separation / 2.0) * direction + jitter)
        counts = [spec.n_per_class // spec.blobs_per_class] * spec.blobs_per_class
        counts[0] += spec.n_per_class - sum(counts)
        for center, count in zip(centers, counts):
            block = np.zeros((count, m))
            block[:, :n_inf] = center + rng.normal(0.0, 1.0, (count, n_inf))
            rows.append(block)
            labels.extend([label] * count)
    return learn.Dataset(np.vstack(rows), np.array(labels))


def _load_raw(cfg: ExperimentConfig) -> learn.Dataset:
    if cfg.data is not None:
        return learn.load_dataset_csv(cfg.data)
    if cfg.synthetic is not None:
        return generate_blobs(cfg.synthetic, cfg.m, cfg.seed)
    raise ValueError("config needs either a data path or a synthetic generator spec")


def _select(dataset: learn.Dataset, m: int, n_per_class: int | None, seed: int):
    """Take the first m feature columns and a balanced seeded row sample."""
    if m > dataset.m:
        raise ValueError(f"requested {m} features but only {dataset.m} available")
    features = dataset.features[:, :m]
    if n_per_class is None:
        return learn.Dataset(features, dataset.labels)
    rng = np.random.default_rng(seed)
    keep = []
    for label in (1, -1):
        members = np.flatnonzero(dataset.labels == label)
        if members.size < n_per_class:
            raise ValueError(
                f"class {label} has {members.size} rows, need {n_per_class}"
            )
        keep.extend(sorted(rng.choice(members, size=n_per_class, replace=False)))
    keep = np.array(sorted(keep), dtype=np.int64)
    return learn.Dataset(features[keep], dataset.labels[keep])


def cmd_preprocess(cfg: ExperimentConfig, out_csv: str) -> dict:
    """Balanced down-selection plus a [0, 2] rescale over the selected rows."""
    raw = _load_raw(cfg)
    selected = _select(raw, cfg.m, cfg.n_per_class, cfg.seed)
    scaled, _, _ = learn.rescale(selected.features, selected.features)
    out = learn.Dataset(scaled, selected.labels)
    learn.save_dataset_csv(out_csv, out)
    counts = {int(c): int(np.sum(out.labels == c)) for c in (1, -1)}
    return {"rows": out.n, "features": out.m, "per_class": counts, "path": str(out_csv)}


def _metric_rows(K_train, K_test, train_labels, test_labels, grid):
    """One metrics row per C, plus the model fitted for each row."""
    rows = []
    models = []
    for C in grid:
        model = learn.svm_train(K_train, train_labels, C)
        train_metrics = learn.evaluate(
            learn.decision_scores(model, K_train), train_labels
        )
        test_metrics = learn.evaluate(learn.decision_scores(model, K_test), test_labels)
        rows.append(
            {
                "C": float(C),
                "n_support": int(model.support_indices.size),
                "train": train_metrics.to_dict(),
                "test": test_metrics.to_dict(),
            }
        )
        models.append(model)
    return rows, models


def _best(rows) -> int:
    """Index of the first row with the highest test AUC."""
    return max(range(len(rows)), key=lambda i: rows[i]["test"]["auc"])


def _sidecar(cfg: ExperimentConfig, n: int, report: kernel.RunReport) -> dict:
    return {
        "cfg": {"m": cfg.m, "r": cfg.r, "d": cfg.d, "gamma": cfg.gamma, "budget": cfg.budget},
        "N": n,
        "strategy": cfg.strategy,
        "k": cfg.workers,
        "seed": cfg.seed,
        "timings": report.seconds,
        "n_simulations": report.n_simulations,
        "n_inner_products": report.n_inner_products,
    }


def cmd_experiment(cfg: ExperimentConfig, out_dir: str) -> dict:
    """Full pipeline: split, rescale, simulate, Gram, C-grid SVM, metrics."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dataset = _select(_load_raw(cfg), cfg.m, cfg.n_per_class, cfg.seed)
    train_idx, test_idx = learn.split_indices(dataset.labels, 0.8, cfg.seed)
    X_train, X_test, params = learn.rescale(
        dataset.features[train_idx], dataset.features[test_idx]
    )
    y_train = dataset.labels[train_idx]
    y_test = dataset.labels[test_idx]
    fmap = cfg.feature_map()

    report = kernel.RunReport()
    sched_train = kernel.make_schedule(
        len(X_train), len(X_train), cfg.workers, cfg.strategy, "train"
    )
    gram_train = kernel.run_distributed(
        X_train, X_train, fmap, sched_train, budget=cfg.budget, report=report
    )
    sched_test = kernel.make_schedule(
        len(X_test), len(X_train), cfg.workers, cfg.strategy, "test"
    )
    gram_test = kernel.run_distributed(
        X_test, X_train, fmap, sched_test, budget=cfg.budget, report=report
    )

    sidecar = _sidecar(cfg, int(dataset.n), report)
    kernel.save_gram(gram_train, out / "gram_train.csv", sidecar)
    kernel.save_gram(gram_test, out / "gram_test.csv", sidecar)

    grid = cfg.grid()
    quantum_rows, models = _metric_rows(gram_train, gram_test, y_train, y_test, grid)
    best = _best(quantum_rows)
    learn.save_model_json(out / "model_best.json", models[best])
    result = {
        "config": asdict(cfg),
        "split": {"train_indices": train_idx.tolist(), "test_indices": test_idx.tolist()},
        "rescale_params": params,
        "report": sidecar,
        "quantum": quantum_rows,
        "best_quantum": quantum_rows[best],
    }
    if cfg.baseline:
        alpha = learn.default_bandwidth(X_train)
        g_train = learn.gaussian_gram(X_train, X_train, alpha)
        g_test = learn.gaussian_gram(X_test, X_train, alpha)
        gaussian_rows, _ = _metric_rows(g_train, g_test, y_train, y_test, grid)
        result["gaussian"] = gaussian_rows
        result["gaussian_alpha"] = alpha
        result["best_gaussian"] = gaussian_rows[_best(gaussian_rows)]
    _write_json(out / "metrics.json", result)
    return result


def cmd_gram(cfg: ExperimentConfig, out_dir: str) -> dict:
    """Train-kind Gram over all selected rows, rescaled over themselves."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dataset = _select(_load_raw(cfg), cfg.m, cfg.n_per_class, cfg.seed)
    X, _, _ = learn.rescale(dataset.features, dataset.features)
    report = kernel.RunReport()
    sched = kernel.make_schedule(len(X), len(X), cfg.workers, cfg.strategy, "train")
    gram = kernel.run_distributed(X, X, cfg.feature_map(), sched, budget=cfg.budget, report=report)
    sidecar = _sidecar(cfg, int(dataset.n), report)
    kernel.save_gram(gram, out / "gram.csv", sidecar)
    return sidecar


def cmd_benchmark(cfg: ExperimentConfig, samples: int, out_dir: str) -> dict:
    """Wall times for per-circuit simulation and pairwise inner products.

    Also records the peak bond dimension per sample and the state memory in
    bytes after every applied gate.
    """
    if samples < 2:
        raise ValueError("benchmark needs at least 2 samples")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dataset = _select(_load_raw(cfg), cfg.m, None, cfg.seed)
    if dataset.n < samples:
        raise ValueError(f"dataset has {dataset.n} rows, need {samples}")
    X, _, _ = learn.rescale(dataset.features, dataset.features)
    rng = np.random.default_rng(cfg.seed)
    rows = X[np.sort(rng.choice(dataset.n, size=samples, replace=False))]
    fmap = cfg.feature_map()

    states = []
    sim_times = []
    max_chis = []
    memory_series = []
    for row in rows:
        circuit = encode_circuit(row, fmap)
        log: list[int] = []
        t0 = time.perf_counter()
        state = mps.simulate_circuit(circuit, budget=cfg.budget, memory_log=log)
        sim_times.append(time.perf_counter() - t0)
        states.append(state)
        max_chis.append(mps.stats(state).max_chi)
        memory_series.append(log)

    ip_times = []
    for i in range(samples):
        for j in range(i + 1, samples):
            t0 = time.perf_counter()
            mps.inner_product(states[i], states[j])
            ip_times.append(time.perf_counter() - t0)

    def summary(values: list[float]) -> dict:
        q1, med, q3 = np.percentile(values, [25, 50, 75])
        return {"median": float(med), "q1": float(q1), "q3": float(q3)}

    payload = {
        "config": asdict(cfg),
        "samples": samples,
        "simulation_seconds": sim_times,
        "inner_product_seconds": ip_times,
        "simulation_summary": summary(sim_times),
        "inner_product_summary": summary(ip_times),
        "max_chi": max_chis,
        "memory_bytes_per_gate": memory_series,
    }
    _write_json(out / "benchmark.json", payload)
    return payload


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _known_keys(raw, cls, what: str) -> dict:
    """Return ``raw`` if it is a JSON object whose keys all name fields of ``cls``."""
    if not isinstance(raw, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(raw).__name__}")
    unknown = set(raw) - set(cls.__dataclass_fields__)
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    return raw


def _load_config(path: str | None) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if path is None:
        return cfg
    with open(path, encoding="utf-8") as fh:
        raw = _known_keys(json.load(fh), ExperimentConfig, "config")
    synth = raw.get("synthetic")
    if synth is not None:
        raw["synthetic"] = SyntheticSpec(**_known_keys(synth, SyntheticSpec, "synthetic"))
    strategy = raw.get("strategy")
    if strategy in _STRATEGY_FLAGS:
        raw["strategy"] = _STRATEGY_FLAGS[strategy]
    for key, value in raw.items():
        setattr(cfg, key, value)
    return cfg


def _apply_overrides(cfg: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    mapping = {
        "seed": "seed",
        "workers": "workers",
        "features": "m",
        "distance": "d",
        "layers": "r",
        "gamma": "gamma",
        "per_class": "n_per_class",
        "data": "data",
        "baseline": "baseline",
    }
    for flag, attr in mapping.items():
        value = getattr(args, flag, None)
        if value is not None and value is not False:
            setattr(cfg, attr, value)
    strategy = getattr(args, "strategy", None)
    if strategy is not None:
        cfg.strategy = _STRATEGY_FLAGS[strategy]
    if getattr(args, "synthetic", False) and cfg.synthetic is None:
        cfg.synthetic = SyntheticSpec()
    if cfg.synthetic is not None:
        for flag, attr in {
            "blobs": "blobs_per_class",
            "separation": "separation",
            "informative": "n_informative",
        }.items():
            value = getattr(args, flag, None)
            if value is not None:
                setattr(cfg.synthetic, attr, value)
    return cfg


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override its values")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--workers", type=int)
    parser.add_argument("--strategy", choices=sorted(_STRATEGY_FLAGS))
    parser.add_argument("--features", type=int, help="number of features / qubits (m)")
    parser.add_argument("--distance", type=int, help="interaction distance (d)")
    parser.add_argument("--layers", type=int, help="encoding repetitions (r)")
    parser.add_argument("--gamma", type=float)
    parser.add_argument("--out-dir", default=".")
    parser.add_argument("--data", help="dataset CSV with a 'class' label column")
    parser.add_argument("--per-class", dest="per_class", type=int)
    parser.add_argument("--synthetic", action="store_true", help="use the synthetic generator")
    parser.add_argument("--blobs", type=int, help="synthetic blobs per class")
    parser.add_argument("--separation", type=float, help="synthetic class separation")
    parser.add_argument("--informative", type=int, help="synthetic informative feature count")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpskernel",
        description="Quantum kernel learning with matrix product state simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="write a balanced, rescaled dataset CSV")
    _add_common(p)
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("experiment", help="run the full train/evaluate pipeline")
    _add_common(p)
    p.add_argument("--baseline", action="store_true", help="also run the Gaussian kernel")

    p = sub.add_parser("gram", help="compute a train Gram matrix and write it as CSV")
    _add_common(p)

    p = sub.add_parser("benchmark", help="time simulations and inner products")
    _add_common(p)
    p.add_argument("--samples", type=int, default=8)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits itself; keep --help at 0
        return EXIT_OK if exc.code in (0, None) else EXIT_VALIDATION
    try:
        cfg = _apply_overrides(_load_config(args.config), args)
        if args.command == "preprocess":
            summary = cmd_preprocess(cfg, args.out)
        elif args.command == "experiment":
            summary = cmd_experiment(cfg, args.out_dir)
            summary = summary["best_quantum"]
        elif args.command == "gram":
            summary = cmd_gram(cfg, args.out_dir)
        else:
            summary = cmd_benchmark(cfg, args.samples, args.out_dir)
            summary = summary["simulation_summary"]
        print(json.dumps(summary, sort_keys=True))
    except (learn.ConvergenceError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

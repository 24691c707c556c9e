"""Command-line surface: preprocess, experiment, gram and benchmark subcommands.

Each subcommand takes only the flags it reads. A flag's ``dest`` is the
``ExperimentConfig`` or ``SyntheticSpec`` field it sets (``--features`` sets
``m``), and a flag that is given overrides the ``--config`` file.

Every command is deterministic for a fixed seed and configuration and writes
UTF-8 JSON and CSV artifacts. Exit codes: 0 success, 2 I/O failure,
3 validation failure, 4 solver non-convergence, 1 anything else.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import types
import typing
from dataclasses import dataclass, asdict, is_dataclass
from pathlib import Path

import numpy as np

from . import kernel, learn, mps
from .ansatz import FeatureMapConfig, build_circuit

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_IO = 2
EXIT_VALIDATION = 3
EXIT_NONCONVERGENCE = 4

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
        if self.c_grid is None:
            return [float(c) for c in np.geomspace(0.01, 4.0, 8)]
        if not self.c_grid or not all(c > 0 for c in self.c_grid):
            raise ValueError(f"c_grid must be a non-empty list of positive Cs, got {self.c_grid}")
        return [float(c) for c in self.c_grid]


def generate_blobs(spec: SyntheticSpec, m: int, seed: int) -> learn.Dataset:
    """Seeded synthetic two-class dataset; classes sit on opposite sides of a
    shared direction in the informative subspace."""
    if spec.n_per_class < 1 or spec.blobs_per_class < 1:
        raise ValueError("synthetic generator needs at least one point and blob per class")
    if not (math.isfinite(spec.separation) and spec.separation >= 0.0):
        raise ValueError(f"separation must be finite and non-negative, got {spec.separation}")
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
    if cfg.data is not None and cfg.synthetic is not None:
        raise ValueError("config names both a data path and a synthetic generator; give one")
    if cfg.data is not None:
        return learn.load_dataset_csv(cfg.data)
    if cfg.synthetic is not None:
        return generate_blobs(cfg.synthetic, cfg.m, cfg.seed)
    raise ValueError("config needs either a data path or a synthetic generator spec")


def _select(cfg: ExperimentConfig, n_per_class: int | None) -> learn.Dataset:
    """Load the rows, then take the first m feature columns and a balanced
    seeded sample of ``n_per_class`` rows per class (all rows if None)."""
    if n_per_class is not None and n_per_class < 1:
        raise ValueError(f"n_per_class must be at least 1, got {n_per_class}")
    dataset = _load_raw(cfg)
    if not 1 <= cfg.m <= dataset.m:
        raise ValueError(f"requested {cfg.m} features; need 1 to {dataset.m}")
    features = dataset.features[:, :cfg.m]
    if n_per_class is None:
        return learn.Dataset(features, dataset.labels)
    rng = np.random.default_rng(cfg.seed)
    keep = []
    for label in (1, -1):
        members = np.flatnonzero(dataset.labels == label)
        if members.size < n_per_class:
            source = "" if cfg.synthetic is None else (
                f"; the synthetic generator makes {cfg.synthetic.n_per_class} rows per "
                f"class (config key synthetic.n_per_class)"
            )
            raise ValueError(f"class {label} has {members.size} rows, need {n_per_class}{source}")
        keep.extend(sorted(rng.choice(members, size=n_per_class, replace=False)))
    keep = np.array(sorted(keep), dtype=np.int64)
    return learn.Dataset(features[keep], dataset.labels[keep])


def cmd_preprocess(cfg: ExperimentConfig, out_csv: str) -> dict:
    """Balanced down-selection plus a [0, 2] rescale over the selected rows."""
    selected = _select(cfg, cfg.n_per_class)
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
                "train": asdict(train_metrics),
                "test": asdict(test_metrics),
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


def _gram(cfg: ExperimentConfig, X_bras, X_kets, kind: str, report: kernel.RunReport) -> np.ndarray:
    """A ``kind`` Gram of ``cfg``'s feature map, scheduled and then computed."""
    sched = kernel.make_schedule(len(X_bras), len(X_kets), cfg.workers, cfg.strategy, kind)
    return kernel.run_distributed(
        X_bras, X_kets, cfg.feature_map(), sched, budget=cfg.budget, report=report
    )


def cmd_experiment(cfg: ExperimentConfig, out_dir: str) -> dict:
    """Full pipeline: split, rescale, simulate, Gram, C-grid SVM, metrics."""
    grid = cfg.grid()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dataset = _select(cfg, cfg.n_per_class)
    train_idx, test_idx = learn.split_indices(dataset.labels, 0.8, cfg.seed)
    X_train, X_test, params = learn.rescale(
        dataset.features[train_idx], dataset.features[test_idx]
    )
    y_train = dataset.labels[train_idx]
    y_test = dataset.labels[test_idx]

    report = kernel.RunReport()
    gram_train = _gram(cfg, X_train, X_train, "train", report)
    gram_test = _gram(cfg, X_test, X_train, "test", report)

    sidecar = _sidecar(cfg, int(dataset.n), report)
    kernel.save_gram(gram_train, out / "gram_train.csv", {**sidecar, "kind": "train"})
    kernel.save_gram(gram_test, out / "gram_test.csv", {**sidecar, "kind": "test"})

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
    dataset = _select(cfg, cfg.n_per_class)
    X, _, _ = learn.rescale(dataset.features, dataset.features)
    report = kernel.RunReport()
    gram = _gram(cfg, X, X, "train", report)
    sidecar = _sidecar(cfg, int(dataset.n), report)
    kernel.save_gram(gram, out / "gram.csv", {**sidecar, "kind": "train"})
    return sidecar


def cmd_benchmark(cfg: ExperimentConfig, samples: int, out_dir: str) -> dict:
    """Wall times for per-circuit simulation and pairwise inner products.

    Each sample's circuit is simulated as built, and the pairs are timed on
    the samples' coarse-grained states, the way a Gram computes its entries.
    Also records the peak bond dimension per sample and the state memory in
    bytes after every built gate.
    """
    if samples < 2:
        raise ValueError("benchmark needs at least 2 samples")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dataset = _select(cfg, None)
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
        circuit = build_circuit(row, fmap)
        log: list[int] = []
        t0 = time.perf_counter()
        state = mps.simulate_circuit(circuit, budget=cfg.budget, memory_log=log)
        sim_times.append(time.perf_counter() - t0)
        states.append(state)
        max_chis.append(state.peak_chi)
        memory_series.append(log)

    states = kernel.coarse_grain(states)
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


def _fits(value, hint) -> bool:
    """Whether a JSON value fits a field type: a ``bool`` is no number, an
    ``int`` within the float range is a ``float``, floats are finite and a
    dataclass is an object."""
    if isinstance(hint, types.UnionType):
        return any(_fits(value, h) for h in typing.get_args(hint))
    if hint is type(None):
        return value is None
    if typing.get_origin(hint) is list:
        (item,) = typing.get_args(hint)
        return isinstance(value, list) and all(_fits(v, item) for v in value)
    if is_dataclass(hint):
        return isinstance(value, dict)
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        if isinstance(value, int):
            return abs(value) <= sys.float_info.max
        return isinstance(value, float) and math.isfinite(value)
    return isinstance(value, hint)


def _known_keys(raw, cls, what: str) -> dict:
    """Return ``raw`` if it is a JSON object whose keys all name fields of
    ``cls`` and whose values fit those fields' types."""
    if not isinstance(raw, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(raw).__name__}")
    hints = typing.get_type_hints(cls)
    unknown = set(raw) - set(hints)
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    for key, value in raw.items():
        if not _fits(value, hints[key]):
            expected = cls.__dataclass_fields__[key].type
            raise ValueError(f"{what} key {key!r} must be {expected}, got {value!r}")
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
    for key, value in raw.items():
        setattr(cfg, key, value)
    return cfg


def _apply_overrides(cfg: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    """Set the field each given flag is named after: an ``ExperimentConfig``
    field, or a synthetic-generator field, which needs a generator spec."""
    given = dict(vars(args))
    if given.pop("synthetic", False) and cfg.synthetic is None:
        cfg.synthetic = SyntheticSpec()
    for key, value in given.items():
        if key in ExperimentConfig.__dataclass_fields__:
            setattr(cfg, key, value)
        elif key in SyntheticSpec.__dataclass_fields__:
            if cfg.synthetic is None:
                raise ValueError(
                    f"{key} is a synthetic generator setting, but no generator is given; "
                    f"add --synthetic or a config 'synthetic' spec"
                )
            setattr(cfg.synthetic, key, value)
    cfg.strategy = cfg.strategy.replace("-", "_")
    if cfg.seed < 0:
        raise ValueError(f"seed must be non-negative, got {cfg.seed}")
    return cfg


def _build_parser() -> argparse.ArgumentParser:
    def group() -> argparse.ArgumentParser:
        # a flag that is not given stays out of the namespace
        return argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)

    source = group()
    source.add_argument(
        "--config", default=None, help="JSON config file; flags override its values"
    )
    source.add_argument("--seed", type=int)
    source.add_argument("--features", dest="m", type=int, help="number of features / qubits (m)")
    source.add_argument("--data", help="dataset CSV with a 'class' label column")
    source.add_argument("--synthetic", action="store_true", help="use the synthetic generator")
    source.add_argument(
        "--blobs", dest="blobs_per_class", type=int, help="synthetic blobs per class"
    )
    source.add_argument("--separation", type=float, help="synthetic class separation")
    source.add_argument(
        "--informative", dest="n_informative", type=int, help="synthetic informative feature count"
    )
    rows = group()
    rows.add_argument("--per-class", dest="n_per_class", type=int)
    circuit = group()
    circuit.add_argument("--distance", dest="d", type=int, help="interaction distance (d)")
    circuit.add_argument("--layers", dest="r", type=int, help="encoding repetitions (r)")
    circuit.add_argument("--gamma", type=float)
    circuit.add_argument("--out-dir", default=".")
    schedule = group()
    schedule.add_argument("--workers", type=int)
    schedule.add_argument("--strategy", choices=("no-messaging", "round-robin"))

    parser = argparse.ArgumentParser(
        prog="mpskernel",
        description="Quantum kernel learning with matrix product state simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, what: str, *parents) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=what, parents=parents, argument_default=argparse.SUPPRESS)

    p = command("preprocess", "write a balanced, rescaled dataset CSV", source, rows)
    p.add_argument("--out", required=True, help="output CSV path")
    p = command(
        "experiment", "run the full train/evaluate pipeline", source, rows, circuit, schedule
    )
    p.add_argument("--baseline", action="store_true", help="also run the Gaussian kernel")
    command(
        "gram", "compute a train Gram matrix and write it as CSV", source, rows, circuit, schedule
    )
    p = command("benchmark", "time simulations and inner products", source, circuit)
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

"""Output checks, run after each timed command and outside its timed region.

References that depend only on the inputs are computed once per run and
reused for every later command of the same run, whose inputs are the same.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import reference
import workloads

ENTRY_TOL = 1e-10  # exact references against the program's default budget
ROUND_TOL = 1e-12  # rounding slack on symmetry, unit diagonal and the [0, 1] range
PSD_TOL = -1e-10
MIN_AUC = 0.95


class CheckFailed(Exception):
    pass


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _load_gram(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)


def check_range(K: np.ndarray, shape: tuple[int, int], what: str) -> None:
    _require(K.shape == shape, f"{what}: shape {K.shape}, expected {shape}")
    _require(np.all(np.isfinite(K)), f"{what}: non-finite entries")
    _require(K.min() >= 0.0 and K.max() <= 1.0 + ROUND_TOL,
             f"{what}: entries outside [0, 1]: [{K.min():.17g}, {K.max():.17g}]")


def check_train_gram(K: np.ndarray, n: int, what: str) -> None:
    """Symmetric, unit diagonal, entries in [0, 1], positive semidefinite."""
    check_range(K, (n, n), what)
    asym = float(np.abs(K - K.T).max())
    _require(asym <= ROUND_TOL, f"{what}: not symmetric, max |K - K^T| = {asym:.3e}")
    diag = float(np.abs(np.diag(K) - 1.0).max())
    _require(diag <= ROUND_TOL, f"{what}: diagonal off 1 by {diag:.3e}")
    low = float(np.linalg.eigvalsh(K).min())
    _require(low >= PSD_TOL, f"{what}: smallest eigenvalue {low:.3e}")


def _pairs(rng, n_rows: int, n_cols: int, count: int, distinct: bool) -> list[tuple[int, int]]:
    out = []
    while len(out) < count:
        i, j = int(rng.integers(n_rows)), int(rng.integers(n_cols))
        if (distinct and i == j) or (i, j) in out:
            continue
        out.append((min(i, j), max(i, j)) if distinct else (i, j))
    return out


def _discard_distance(state) -> float:
    """Bound on || exact state - truncated state ||.

    One truncation that discards weight w and rescales the kept part moves a
    unit vector by sqrt((1 - sqrt(1 - w))^2 + w) <= sqrt(w (1 + w)); unitary
    gates keep distances, so the triangle inequality and Cauchy-Schwarz over
    at most one truncation per two-qubit gate give sqrt(n_2q W (1 + W)) for
    accumulated discard W.
    """
    w = state.accumulated_discard
    return math.sqrt(state.gate_count_2q * w * (1.0 + w))


class Checker:
    """Checks one workload's outputs; holds the run's references."""

    def __init__(self, w: workloads.Workload, seed: int):
        self.w = w
        self.seed = seed
        self.refs: dict | None = None

    def check(self, work_dir: Path) -> None:
        out = workloads.out_dir(work_dir)
        if self.w.command == "gram":
            self._check_gram(work_dir, out)
        else:
            self._check_experiment(work_dir, out)

    # -- gram workloads -------------------------------------------------
    def _check_gram(self, work_dir: Path, out: Path) -> None:
        w = self.w
        K = _load_gram(out / "gram.csv")
        check_train_gram(K, w.rows, "gram.csv")
        sidecar = json.loads((out / "gram.csv.json").read_text(encoding="utf-8"))
        _require(sidecar["n_inner_products"] == w.entries(),
                 f"sidecar counts {sidecar['n_inner_products']} inner products, "
                 f"expected {w.entries()}")
        if self.refs is None:
            features, _ = reference.read_rows(workloads.input_csv(work_dir))
            X, _ = reference.rescale(features, features)
            rng = np.random.default_rng(self.seed)
            if w.d == 1:
                self.refs = self._exact_chain_refs(X, _pairs(rng, w.rows, w.rows, 3, True))
            else:
                rows = sorted(int(i) for i in rng.choice(w.rows, size=3, replace=False))
                self.refs = self._resimulated_refs(X, rows)
        for (i, j), (value, bound) in self.refs.items():
            err = abs(K[i, j] - value)
            _require(err <= bound, f"gram.csv[{i},{j}] = {K[i, j]:.17g}, reference "
                     f"{value:.17g}, |error| {err:.3e} > {bound:.3e}")

    def _exact_chain_refs(self, X, pairs) -> dict:
        w = self.w
        states = {i: reference.chain_state(X[i], w.r, w.gamma) for p in pairs for i in p}
        return {(i, j): (abs(reference.chain_overlap(states[i], states[j])) ** 2, ENTRY_TOL)
                for i, j in pairs}

    def _resimulated_refs(self, X, rows) -> dict:
        """Entries at the default budget, each with the bound implied by the discards."""
        from mpskernel.ansatz import FeatureMapConfig, encode_circuit
        from mpskernel.mps import inner_product, simulate_circuit

        w = self.w
        cfg = FeatureMapConfig(w.m, w.r, w.d, w.gamma)
        circuits = {i: encode_circuit(X[i], cfg) for i in rows}
        coarse = {i: simulate_circuit(c, budget=w.budget) for i, c in circuits.items()}
        fine = {i: simulate_circuit(c) for i, c in circuits.items()}
        refs = {}
        for a, i in enumerate(rows):
            for j in rows[a + 1:]:
                # |K - K'| <= 2 |<a|b> - <a'|b'>| <= 2 (sum of the four state distances)
                dist = sum(_discard_distance(s[k]) for s in (coarse, fine) for k in (i, j))
                refs[(i, j)] = (abs(inner_product(fine[i], fine[j])) ** 2,
                                2.0 * dist + ROUND_TOL)
        return refs

    # -- experiment -----------------------------------------------------
    def _check_experiment(self, work_dir: Path, out: Path) -> None:
        w = self.w
        n_tr, n_te = w.split_sizes()
        K_train = _load_gram(out / "gram_train.csv")
        K_test = _load_gram(out / "gram_test.csv")
        check_train_gram(K_train, n_tr, "gram_train.csv")
        check_range(K_test, (n_te, n_tr), "gram_test.csv")
        sidecar = json.loads((out / "gram_train.csv.json").read_text(encoding="utf-8"))
        _require(sidecar["n_inner_products"] == w.entries(),
                 f"sidecar counts {sidecar['n_inner_products']} inner products, "
                 f"expected {w.entries()}")
        metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
        model = json.loads((out / "model_best.json").read_text(encoding="utf-8"))
        train_idx = np.array(metrics["split"]["train_indices"])
        test_idx = np.array(metrics["split"]["test_indices"])
        _require((train_idx.size, test_idx.size) == (n_tr, n_te),
                 f"split sizes {(train_idx.size, test_idx.size)}, expected {(n_tr, n_te)}")
        features, labels = reference.read_rows(workloads.input_csv(work_dir))

        if self.refs is None:
            X_tr, X_te = reference.rescale(features[train_idx], features[test_idx])
            rng = np.random.default_rng(self.seed)
            train_pairs = _pairs(rng, n_tr, n_tr, 4, True)
            test_pairs = _pairs(rng, n_te, n_tr, 4, False)
            dense = {}

            def state(X, i, side):
                if (side, i) not in dense:
                    dense[(side, i)] = reference.dense_state(X[i], w.d, w.r, w.gamma)
                return dense[(side, i)]

            self.refs = {
                "train": {(i, j): abs(np.vdot(state(X_tr, i, 0), state(X_tr, j, 0))) ** 2
                          for i, j in train_pairs},
                "test": {(i, j): abs(np.vdot(state(X_te, i, 1), state(X_tr, j, 0))) ** 2
                         for i, j in test_pairs},
            }
        for name, K in (("train", K_train), ("test", K_test)):
            for (i, j), value in self.refs[name].items():
                err = abs(K[i, j] - value)
                _require(err <= ENTRY_TOL, f"gram_{name}.csv[{i},{j}] = {K[i, j]:.17g}, "
                         f"dense reference {value:.17g}, |error| {err:.3e}")

        best = metrics["best_quantum"]
        _require(best["test"]["auc"] == max(r["test"]["auc"] for r in metrics["quantum"]),
                 "best_quantum is not the row with the highest test AUC")
        _require(model["C"] == best["C"], f"model_best.json has C={model['C']}, "
                 f"best row has C={best['C']}")
        scores = K_test @ np.array(model["dual_coefs"]) + model["bias"]
        auc = reference.auc_pairwise(scores, labels[test_idx])
        _require(abs(auc - best["test"]["auc"]) <= ROUND_TOL,
                 f"reported best test AUC {best['test']['auc']!r}, recomputed {auc!r}")
        _require(auc >= MIN_AUC, f"best test AUC {auc:.4f} < {MIN_AUC}")

"""Preprocessing, Gaussian-kernel baseline, SVM training on precomputed kernels, metrics.

A kernel is a 2-D array of entries: :func:`gaussian_gram` returns an
``np.ndarray``, and :func:`svm_train` and :func:`decision_scores` take any
array-like, such as a quantum Gram from :mod:`mpskernel.kernel`.

The SVM solves the standard soft-margin dual over a precomputed kernel with
pairwise (SMO-style) updates on the maximal violating pair, deterministic
tie-breaking, and the usual box plus equality constraints.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-3
MAX_SMO_STEPS = 100_000
LABEL_COLUMN = "class"
_TEXT_LABELS = {"illicit": 1, "licit": -1}


class ConvergenceError(RuntimeError):
    """SMO failed to reach the requested tolerance within the iteration cap."""


@dataclass
class Dataset:
    features: np.ndarray  # (N, m) float64
    labels: np.ndarray  # (N,) values in {+1, -1}

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or self.labels.shape != (self.features.shape[0],):
            raise ValueError("features must be (N, m) with one label per row")
        if not np.all(np.isin(self.labels, (-1, 1))):
            raise ValueError("labels must be +1 or -1")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def m(self) -> int:
        return self.features.shape[1]


@dataclass
class SvmModel:
    dual_coefs: np.ndarray  # alpha_i * y_i per training point
    bias: float
    C: float
    tol: float
    support_indices: np.ndarray  # points with alpha_i > 0


@dataclass
class Metrics:
    accuracy: float
    balanced_accuracy: float
    precision: float
    recall: float
    auc: float


def rescale(train_features, other_features):
    """Per-feature min-max map onto [0, 2] using training-split extrema.

    Constant features map to the midpoint 1.0; the other split is clamped
    into the training range before the map. Returns (train, other, params)
    where params is the per-feature (min, max) list.
    """
    train = np.asarray(train_features, dtype=np.float64)
    other = np.asarray(other_features, dtype=np.float64)
    if train.ndim != 2 or train.shape[0] == 0:
        raise ValueError("training split must be a non-empty (N, m) array")
    if not (np.all(np.isfinite(train)) and np.all(np.isfinite(other))):
        raise ValueError("features must be finite")
    lo = train.min(axis=0)
    hi = train.max(axis=0)
    # columns beyond magnitude 1 are mapped on halved values, which is exact for
    # them and keeps a range wider than the largest float finite; smaller ones,
    # subnormal ones among them, are not halved and keep every bit
    scale = np.where(np.maximum(-lo, hi) > 1.0, 0.5, 1.0)
    constant = lo == hi
    span = np.where(constant, 1.0, hi * scale - lo * scale)

    def apply(mat: np.ndarray) -> np.ndarray:
        out = 2.0 * ((np.clip(mat, lo, hi) * scale - lo * scale) / span)
        out[:, constant] = 1.0
        return out

    params = list(zip(lo.tolist(), hi.tolist()))
    return apply(train), apply(other), params


def split_indices(labels, train_fraction: float = 0.8, seed: int = 0):
    """Class-balanced train/test index split, deterministic per seed.

    Each class puts ``round(train_fraction * rows)`` of its rows in the train
    split. Raises ``ValueError`` when a class would get no train or no test rows.
    """
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    train_idx: list[int] = []
    test_idx: list[int] = []
    classes = np.unique(labels)
    if len(classes) < 2:
        raise ValueError("both classes must be present to split")
    for c in classes:
        members = np.flatnonzero(labels == c)
        order = rng.permutation(members)
        n_train = int(round(train_fraction * members.size))
        if not 0 < n_train < members.size:
            part = "train" if n_train <= 0 else "test"
            raise ValueError(
                f"class {c} has {members.size} rows; train fraction {train_fraction} "
                f"leaves it no {part} rows"
            )
        train_idx.extend(order[:n_train].tolist())
        test_idx.extend(order[n_train:].tolist())
    return np.sort(np.array(train_idx, dtype=np.int64)), np.sort(
        np.array(test_idx, dtype=np.int64)
    )


def default_bandwidth(train_features) -> float:
    """1 / (m * population variance of all training feature entries)."""
    mat = np.asarray(train_features, dtype=np.float64)
    var = float(np.var(mat))
    if var == 0.0:
        raise ValueError("training features are constant, bandwidth undefined")
    return 1.0 / (mat.shape[1] * var)


def gaussian_gram(X_rows, X_cols, alpha: float | None = None) -> np.ndarray:
    """exp(-alpha * ||x - x'||^2) kernel matrix.

    When ``alpha`` is omitted it defaults to :func:`default_bandwidth` of
    ``X_cols`` (the training side). When both sides are the same array the
    matrix is a train Gram: symmetrised, with a unit diagonal.
    """
    rows = np.asarray(X_rows, dtype=np.float64)
    cols = np.asarray(X_cols, dtype=np.float64)
    if alpha is None:
        alpha = default_bandwidth(cols)
    if not (np.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be finite and positive, got {alpha}")
    sq = (
        np.sum(rows**2, axis=1)[:, None]
        + np.sum(cols**2, axis=1)[None, :]
        - 2.0 * rows @ cols.T
    )
    np.maximum(sq, 0.0, out=sq)
    K = np.exp(-alpha * sq)
    if X_rows is X_cols:
        K = 0.5 * (K + K.T)
        np.fill_diagonal(K, 1.0)
    return K


def _is_symmetric(K: np.ndarray) -> bool:
    """``np.allclose(K, K.T, atol=1e-10)``, answered exactly when it can be.

    An exact match is checked first. Otherwise the tolerance test runs over
    blocks of about sqrt(n) rows, so its temporaries hold about n^1.5
    entries rather than n^2; a NaN still fails it.
    """
    if np.array_equal(K, K.T):
        return True
    step = max(1, math.isqrt(len(K)))
    return all(
        np.allclose(K[i : i + step], K[:, i : i + step].T, atol=1e-10)
        for i in range(0, len(K), step)
    )


def svm_train(
    K_train,
    labels,
    C: float,
    tol: float = DEFAULT_TOL,
    objective_trace: list[float] | None = None,
) -> SvmModel:
    """Train a soft-margin SVM on a precomputed kernel via SMO pair updates.

    Repeatedly selects the maximal violating pair (ties broken by lowest
    index), solves the two-variable subproblem exactly, and stops once the
    violation gap drops to ``tol``. Every step reads ``K_train`` itself; the
    label-signed matrix of the dual is never formed. Raises
    :class:`ConvergenceError` after ``MAX_SMO_STEPS`` pair updates.
    """
    K = np.asarray(K_train, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    n = y.size
    if K.shape != (n, n):
        raise ValueError(f"kernel must be ({n}, {n}), got {K.shape}")
    if not _is_symmetric(K):
        raise ValueError("training kernel must be symmetric")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be +1 or -1")
    if not (np.isfinite(C) and C > 0):
        raise ValueError(f"C must be finite and positive, got {C}")

    # Q_ij = y_i y_j K_ij is the dual's label-signed kernel; its factors are +-1,
    # so the steps below read K and apply the signs exactly
    alpha = np.zeros(n)
    grad = -np.ones(n)  # gradient of 1/2 a^T Q a - sum(a)

    def objective() -> float:
        # dual objective sum(a) - 1/2 a^T Q a, via a^T Q a = a . (grad + 1)
        return float(alpha.sum() - 0.5 * (alpha @ (grad + 1.0)))

    if objective_trace is not None:
        objective_trace.append(objective())

    gap = np.inf
    for _ in range(MAX_SMO_STEPS):
        minus_yg = -y * grad
        up = ((y > 0) & (alpha < C)) | ((y < 0) & (alpha > 0))
        low = ((y > 0) & (alpha > 0)) | ((y < 0) & (alpha < C))
        if not up.any() or not low.any():
            gap = 0.0
            break
        i = int(np.flatnonzero(up)[np.argmax(minus_yg[up])])
        j = int(np.flatnonzero(low)[np.argmin(minus_yg[low])])
        gap = minus_yg[i] - minus_yg[j]
        if gap <= tol:
            break
        # exact solution of the two-variable subproblem along the constraint
        quad = K[i, i] + K[j, j] - 2.0 * K[i, j]
        quad = max(quad, 1e-300)
        delta = gap / quad
        if y[i] > 0:
            delta = min(delta, C - alpha[i])
        else:
            delta = min(delta, alpha[i])
        if y[j] > 0:
            delta = min(delta, alpha[j])
        else:
            delta = min(delta, C - alpha[j])
        alpha[i] += y[i] * delta
        alpha[j] -= y[j] * delta
        grad += delta * (y * (K[:, i] - K[:, j]))
        if objective_trace is not None:
            objective_trace.append(objective())
    else:
        raise ConvergenceError(
            f"SMO did not converge within {MAX_SMO_STEPS} steps, final gap {gap:.3e}"
        )

    # the loop only exits by a break, after computing minus_yg, up and low and
    # before alpha changes, so they still hold for the final alpha
    free = (alpha > 0) & (alpha < C)
    if free.any():
        bias = float(np.mean(minus_yg[free]))
    else:
        hi = minus_yg[up].max() if up.any() else 0.0
        lo = minus_yg[low].min() if low.any() else 0.0
        bias = float(0.5 * (hi + lo))
    return SvmModel(
        dual_coefs=alpha * y,
        bias=bias,
        C=C,
        tol=tol,
        support_indices=np.flatnonzero(alpha > 0),
    )


def decision_scores(model: SvmModel, K_eval) -> np.ndarray:
    """score_j = sum_i dual_coefs_i * K_eval[j, i] + bias."""
    K = np.asarray(K_eval, dtype=np.float64)
    if K.ndim != 2 or K.shape[1] != model.dual_coefs.size:
        raise ValueError(
            f"evaluation kernel must have {model.dual_coefs.size} columns, got {K.shape}"
        )
    return K @ model.dual_coefs + model.bias


def evaluate(scores, labels) -> Metrics:
    """Metrics at threshold 0, and the AUC from the Mann-Whitney rank sum.

    The AUC is the probability that a positive outscores a negative, with half
    credit for ties (Hanley & McNeil 1982). Tied scores share their average
    rank; the rank sums are exact half-integers, so the final division is the
    only rounding.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.size == 0:
        raise ValueError("scores and labels must be equal-length and non-empty")
    if not np.all(np.isin(labels, (-1, 1))):
        raise ValueError("labels must be +1 or -1")
    pos = labels == 1
    neg = labels == -1
    n_pos = int(pos.sum())
    n_neg = int(neg.sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("both classes must be present to evaluate")

    pred_pos = scores > 0.0
    tp = int(np.sum(pred_pos & pos))
    fp = int(np.sum(pred_pos & neg))
    tn = n_neg - fp
    accuracy = (tp + tn) / scores.size
    tpr_at = tp / n_pos
    tnr_at = tn / n_neg
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0

    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2)[inverse]
    auc = float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))
    return Metrics(
        accuracy=float(accuracy),
        balanced_accuracy=float(0.5 * (tpr_at + tnr_at)),
        precision=float(precision),
        recall=float(tpr_at),
        auc=auc,
    )


def _parse_label(raw: str, path, line: int) -> int:
    """A class label: ``illicit``, ``licit`` or a number equal to +1 or -1."""
    raw = raw.strip()
    if raw in _TEXT_LABELS:
        return _TEXT_LABELS[raw]
    try:
        value = float(raw)
    except ValueError:
        value = None
    if value not in (1.0, -1.0):
        raise ValueError(f"{path}: line {line}: class label {raw!r} is not illicit, licit, 1 or -1")
    return int(value)


def load_dataset_csv(path) -> Dataset:
    """Read a dataset CSV: header row, one ``class`` label column, finite numeric features.

    A leading UTF-8 byte order mark, as spreadsheet programs write, is skipped.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if LABEL_COLUMN not in header:
            raise ValueError(f"{path}: missing required label column {LABEL_COLUMN!r}")
        if header.count(LABEL_COLUMN) > 1:
            raise ValueError(f"{path}: header repeats the label column {LABEL_COLUMN!r}")
        label_pos = header.index(LABEL_COLUMN)
        rows = []
        labels = []
        for record in reader:
            if not record:
                continue
            if len(record) != len(header):
                raise ValueError(
                    f"{path}: line {reader.line_num}: {len(record)} fields, header has {len(header)}"
                )
            labels.append(_parse_label(record[label_pos], path, reader.line_num))
            try:
                rows.append([float(v) for i, v in enumerate(record) if i != label_pos])
            except ValueError as exc:
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
            if not np.all(np.isfinite(rows[-1])):
                raise ValueError(f"{path}: line {reader.line_num}: features must be finite")
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return Dataset(np.array(rows, dtype=np.float64), np.array(labels))


def save_dataset_csv(path, dataset: Dataset) -> None:
    names = [f"f{i}" for i in range(dataset.m)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(names + [LABEL_COLUMN])
        for row, label in zip(dataset.features, dataset.labels):
            writer.writerow([f"{v:.17g}" for v in row] + [str(int(label))])


def save_model_json(path, model: SvmModel) -> None:
    payload = {
        "dual_coefs": model.dual_coefs.tolist(),
        "bias": model.bias,
        "C": model.C,
        "tol": model.tol,
        "support_indices": model.support_indices.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")

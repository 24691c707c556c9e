"""Gram matrices of squared state overlaps.

Each data row is encoded and simulated once as an MPS; kernel entries are
squared moduli of pairwise inner products. A Gram is a plain ``np.ndarray``:
``train`` is square and symmetric, ``test`` is test rows by train columns.
A :class:`TileSchedule` is a checked record of one Gram's kind (``train`` or
``test``) and state counts. :func:`make_schedule` also validates a worker
count ``k`` and a strategy (``no_messaging`` or ``round_robin``), which
callers record alongside the Gram but which never shape it:
:func:`run_distributed` simulates each row once and fills the Gram in one
pass on the calling thread. :func:`save_gram` writes a Gram as CSV, with a
JSON sidecar of the caller's metadata (the Gram's kind among it) and shape.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from .ansatz import FeatureMapConfig, build_circuit
from .mps import DEFAULT_TRUNC_BUDGET, MpsState, inner_product, simulate_circuit

STRATEGIES = ("no_messaging", "round_robin")
KINDS = ("train", "test")


@dataclass(frozen=True)
class TileSchedule:
    """A checked record of the Gram to compute: its kind and state counts."""

    kind: str
    n_bras: int
    n_kets: int


@dataclass
class RunReport:
    """Counters and per-phase wall seconds filled in by a Gram computation."""

    n_simulations: int = 0
    n_inner_products: int = 0
    seconds: dict[str, float] = field(
        default_factory=lambda: {"simulation": 0.0, "inner_products": 0.0}
    )

    def _add(self, phase: str, dt: float) -> None:
        self.seconds[phase] = self.seconds.get(phase, 0.0) + dt


def simulate_dataset(
    X, cfg: FeatureMapConfig, budget: float = DEFAULT_TRUNC_BUDGET
) -> list[MpsState]:
    """Build and simulate one MPS per data row.

    Each row's circuit is simulated as built: long-range RXX gates are
    applied as MPO fan-outs, with no routing SWAPs.
    """
    X = _check_rows(X, cfg.m)
    return [simulate_circuit(build_circuit(row, cfg), budget=budget) for row in X]


def _check_rows(X, m: int) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.size == 0:
        return X.reshape(0, m)
    if X.ndim != 2 or X.shape[1] != m:
        raise ValueError(f"expected feature rows of length {m}, got shape {X.shape}")
    return X


def compute_gram(
    bras: list[MpsState],
    kets: list[MpsState],
    kind: str,
    report: RunReport | None = None,
) -> np.ndarray:
    """The one pair loop: squared overlaps of bra ``i`` with ket ``j``.

    ``train`` requires ``bras is kets``; only the strict upper triangle is
    computed and mirrored, and the diagonal is fixed to 1 since simulated
    states are normalized. ``test`` computes every entry.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    train = kind == "train"
    if train and (len(bras) != len(kets) or any(a is not b for a, b in zip(bras, kets))):
        raise ValueError("train kind requires bras and kets to be the same states")
    if bras and kets and bras[0].m != kets[0].m:
        raise ValueError("qubit count mismatch between state lists")
    K = np.eye(len(bras)) if train else np.empty((len(bras), len(kets)))
    t0 = time.perf_counter()
    for i in range(len(bras)):
        for j in range(i + 1 if train else 0, len(kets)):
            K[i, j] = abs(inner_product(bras[i], kets[j])) ** 2
            if train:
                K[j, i] = K[i, j]
    if report is not None:
        report.n_inner_products += len(bras) * (len(bras) - 1) // 2 if train else K.size
        report._add("inner_products", time.perf_counter() - t0)
    return K


def make_schedule(n_bras: int, n_kets: int, k: int, strategy: str, kind: str) -> TileSchedule:
    """Check a Gram's shape and its ``k``-worker ``strategy`` and record the shape.

    ``k`` and ``strategy`` are validated but not kept: execution is serial
    and its result does not depend on either.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}")
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    if kind == "train" and n_bras != n_kets:
        raise ValueError("train kind requires equal bra and ket counts")
    if k < 1:
        raise ValueError("worker count must be at least 1")
    if n_kets < 1 or n_bras < 1:
        raise ValueError("state counts must be at least 1")
    return TileSchedule(kind, n_bras, n_kets)


def run_distributed(
    X_bras,
    X_kets,
    cfg: FeatureMapConfig,
    schedule: TileSchedule,
    budget: float = DEFAULT_TRUNC_BUDGET,
    report: RunReport | None = None,
) -> np.ndarray:
    """Compute the Gram that ``schedule`` records, on the calling thread.

    The rows must match the schedule's state counts. Each ket row is
    simulated once, each bra row once for ``test`` (``train`` reuses the
    kets), and :func:`compute_gram` fills the Gram in one pass. An error
    raised by a simulation or an inner product propagates as is.
    """
    X_bras = _check_rows(X_bras, cfg.m)
    X_kets = _check_rows(X_kets, cfg.m)
    if (X_bras.shape[0], X_kets.shape[0]) != (schedule.n_bras, schedule.n_kets):
        raise ValueError("schedule was built for different state counts")
    train = schedule.kind == "train"
    if train and not np.array_equal(X_bras, X_kets):
        raise ValueError("train kind requires identical bra and ket rows")

    t0 = time.perf_counter()
    kets = simulate_dataset(X_kets, cfg, budget)
    bras = kets if train else simulate_dataset(X_bras, cfg, budget)
    if report is not None:
        report.n_simulations += len(kets) + (0 if train else len(bras))
        report._add("simulation", time.perf_counter() - t0)
    return compute_gram(bras, kets, schedule.kind, report)


def save_gram(K: np.ndarray, csv_path, sidecar: dict | None = None) -> None:
    """Write the full matrix as CSV with 17 significant digits, plus a JSON sidecar.

    The sidecar holds ``sidecar``'s keys (a Gram's ``kind`` among them) plus
    the matrix's ``rows`` and ``cols``.
    """
    with open(csv_path, "w", encoding="utf-8") as fh:
        np.savetxt(fh, K, fmt="%.17g", delimiter=",")
    if sidecar is not None:
        meta = {**sidecar, "rows": K.shape[0], "cols": K.shape[1]}
        with open(str(csv_path) + ".json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")


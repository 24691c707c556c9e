"""Gram matrices of squared state overlaps.

Each data row is encoded and simulated once as an MPS; kernel entries are
squared moduli of pairwise inner products. A :class:`TileSchedule` is the
plan for spreading that work over ``k`` workers with one of two strategies:
``no_messaging`` (workers independently simulate whatever their tiles need)
and ``round_robin`` (every state is simulated exactly once and half-blocks
of states circulate between workers). Plans are built and validated for
``k`` workers; :func:`run_distributed` executes one on the calling thread by
simulating each row once and filling the Gram in one pass, so ``k`` shapes
the plan but never the result.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from .ansatz import FeatureMapConfig, encode_circuit
from .mps import DEFAULT_TRUNC_BUDGET, MpsState, inner_product, simulate_circuit

STRATEGIES = ("no_messaging", "round_robin")
KINDS = ("train", "test")


@dataclass
class GramMatrix:
    """Kernel entries; ``train`` is square symmetric, ``test`` is test rows by train cols."""

    entries: np.ndarray
    kind: str

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]


@dataclass(frozen=True)
class Tile:
    """Index rectangle assigned to one worker.

    For ``train`` schedules both ranges address the same state list; a tile
    whose ranges coincide is computed as its strict upper triangle.
    """

    worker: int
    row_start: int
    row_stop: int
    col_start: int
    col_stop: int


@dataclass(frozen=True)
class Transfer:
    """One message: states ``which[start:stop]`` move from ``src`` to ``dst``."""

    src: int
    dst: int
    which: str  # "bra" | "ket"
    start: int
    stop: int


@dataclass
class ScheduleStep:
    tiles: list[Tile] = field(default_factory=list)
    transfers: list[Transfer] = field(default_factory=list)


@dataclass
class TileSchedule:
    strategy: str
    kind: str
    k: int
    n_bras: int
    n_kets: int
    # worker -> (which, start, stop) ranges that worker simulates locally
    initial_states: dict[int, list[tuple[str, int, int]]]
    steps: list[ScheduleStep]


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


def _blocks(n: int, parts: int) -> list[tuple[int, int]]:
    """Split range(n) into ``parts`` contiguous blocks, earlier blocks one larger."""
    base, extra = divmod(n, parts)
    bounds = [0]
    for i in range(parts):
        bounds.append(bounds[-1] + base + (1 if i < extra else 0))
    return [(bounds[i], bounds[i + 1]) for i in range(parts)]


def _halves(block: tuple[int, int]) -> list[tuple[int, int]]:
    a, b = block
    mid = a + (b - a + 1) // 2
    return [(a, mid), (mid, b)]


def simulate_dataset(
    X, cfg: FeatureMapConfig, budget: float = DEFAULT_TRUNC_BUDGET
) -> list[MpsState]:
    """Encode and simulate one MPS per data row."""
    X = _check_rows(X, cfg.m)
    if not np.all(np.isfinite(X)):
        raise ValueError("features must be finite")
    return [simulate_circuit(encode_circuit(row, cfg), budget=budget) for row in X]


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
) -> GramMatrix:
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
    return GramMatrix(K, kind)


def _train_round_robin(n: int, k: int) -> TileSchedule:
    # Circle-method tournament on 2k half-blocks: worker w owns circle slots
    # (w, 2k-1-w), the unit in the last slot stays put and all others rotate
    # one slot per step, so every pair of half-blocks meets exactly once and
    # each rotation moves half of a worker's states to a neighbor.
    blocks = _blocks(n, k)
    units = [h for blk in blocks for h in _halves(blk)]
    n_slots = 2 * k
    init_slot_of_unit = [0] * n_slots
    for w in range(k):
        init_slot_of_unit[2 * w] = w
        init_slot_of_unit[2 * w + 1] = n_slots - 1 - w

    def worker_of_slot(s: int) -> int:
        return s if s < k else n_slots - 1 - s

    def holder(unit: int, t: int) -> int:
        s0 = init_slot_of_unit[unit]
        if s0 == n_slots - 1:
            return worker_of_slot(s0)
        return worker_of_slot((s0 + t) % (n_slots - 1))

    initial = {w: [("ket", *blocks[w])] for w in range(k)}
    steps = []
    n_rounds = n_slots - 1 if k > 1 else 1
    for t in range(n_rounds):
        step = ScheduleStep()
        if t > 0:
            for u, (a, b) in enumerate(units):
                src, dst = holder(u, t - 1), holder(u, t)
                if src != dst and a < b:
                    step.transfers.append(Transfer(src, dst, "ket", a, b))
        paired: dict[int, list[int]] = {w: [] for w in range(k)}
        for u in range(len(units)):
            paired[holder(u, t)].append(u)
        for w, (u1, u2) in paired.items():
            (a1, b1), (a2, b2) = units[u1], units[u2]
            if t == 0:
                # both halves of the local block: one triangular tile
                step.tiles.append(Tile(w, a1, b2, a1, b2))
            elif a1 < b1 and a2 < b2:
                lo, hi = sorted([units[u1], units[u2]])
                step.tiles.append(Tile(w, lo[0], lo[1], hi[0], hi[1]))
        steps.append(step)
    return TileSchedule("round_robin", "train", k, n, n, initial, steps)


def _test_round_robin(n_bras: int, n_kets: int, k: int) -> TileSchedule:
    # Worker w owns one train (ket) block; the n_test states are split into
    # ell blocks that rotate within the first group of ell workers, while the
    # other workers receive per-step copies from the matching group-0 worker.
    ell = max(1, round(k * n_bras / n_kets))
    ell = min(ell, k, n_bras)
    ket_blocks = _blocks(n_kets, k)
    bra_blocks = _blocks(n_bras, ell)
    initial = {w: [("ket", *ket_blocks[w])] for w in range(k)}
    for b in range(ell):
        initial[b].append(("bra", *bra_blocks[b]))
    steps = []
    for t in range(ell):
        step = ScheduleStep()
        if t > 0:
            for a in range(ell):
                blk = bra_blocks[(a + t - 1) % ell]
                if a != (a - 1) % ell:
                    step.transfers.append(Transfer(a, (a - 1) % ell, "bra", *blk))
        for w in range(ell, k):
            a = w % ell
            blk = bra_blocks[(a + t) % ell]
            src = (a + 1) % ell if t > 0 else a
            if src != w:
                step.transfers.append(Transfer(src, w, "bra", *blk))
        for w in range(k):
            a = w % ell
            ra, rb = bra_blocks[(a + t) % ell]
            ca, cb = ket_blocks[w]
            step.tiles.append(Tile(w, ra, rb, ca, cb))
        steps.append(step)
    return TileSchedule("round_robin", "test", k, n_bras, n_kets, initial, steps)


def _no_messaging(n_bras: int, n_kets: int, k: int, kind: str) -> TileSchedule:
    if kind == "train":
        g = 1
        while g * (g + 1) // 2 < k:
            g += 1
        g = min(g, n_kets)
        blocks = _blocks(n_kets, g)
        pairs = [(i, j) for i in range(g) for j in range(i, g)]
        tiles = [
            Tile(t % k, *blocks[i], *blocks[j]) for t, (i, j) in enumerate(pairs)
        ]
    else:
        # favour square tiles: pick the grid with at least k tiles whose
        # aspect ratio is closest to 1
        best = None
        for gr in range(1, n_bras + 1):
            gc = min(max(1, -(-k // gr)), n_kets)
            aspect = abs(np.log((n_bras / gr) / (n_kets / gc)))
            key = (gr * gc < k, aspect, gr * gc, gr)
            if best is None or key < best[0]:
                best = (key, gr, gc)
        _, gr, gc = best
        rblocks = _blocks(n_bras, gr)
        cblocks = _blocks(n_kets, gc)
        pairs = [(i, j) for i in range(gr) for j in range(gc)]
        tiles = [
            Tile(t % k, *rblocks[i], *cblocks[j]) for t, (i, j) in enumerate(pairs)
        ]
    initial: dict[int, list[tuple[str, int, int]]] = {w: [] for w in range(k)}
    for w in range(k):
        mine = [t for t in tiles if t.worker == w]
        ket_ranges = sorted({(t.col_start, t.col_stop) for t in mine})
        if kind == "train":
            ket_ranges = sorted(
                set(ket_ranges) | {(t.row_start, t.row_stop) for t in mine}
            )
            initial[w] = [("ket", a, b) for a, b in ket_ranges]
        else:
            bra_ranges = sorted({(t.row_start, t.row_stop) for t in mine})
            initial[w] = [("bra", a, b) for a, b in bra_ranges] + [
                ("ket", a, b) for a, b in ket_ranges
            ]
    return TileSchedule(
        "no_messaging", kind, k, n_bras, n_kets, initial, [ScheduleStep(tiles=tiles)]
    )


def make_schedule(n_bras: int, n_kets: int, k: int, strategy: str, kind: str) -> TileSchedule:
    """Build a tile schedule covering every required Gram entry exactly once."""
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
    k = min(k, n_kets)  # degenerate oversubscription reduces to one state per worker
    if strategy == "no_messaging":
        return _no_messaging(n_bras, n_kets, k, kind)
    if kind == "train":
        return _train_round_robin(n_kets, k)
    return _test_round_robin(n_bras, n_kets, k)


def validate_schedule(schedule: TileSchedule) -> None:
    """Check exact single coverage plus the per-strategy simulation invariants."""
    counts = np.zeros((schedule.n_bras, schedule.n_kets), dtype=np.int64)
    for step in schedule.steps:
        for t in step.tiles:
            for i in range(t.row_start, t.row_stop):
                for j in range(t.col_start, t.col_stop):
                    if schedule.kind == "train" and (
                        (t.row_start, t.row_stop) == (t.col_start, t.col_stop)
                    ):
                        if j > i:
                            counts[i, j] += 1
                    else:
                        counts[i, j] += 1
    if schedule.kind == "train":
        required = np.triu(np.ones_like(counts), k=1)
    else:
        required = np.ones_like(counts)
    if not np.array_equal(counts * required, required):
        raise AssertionError("schedule does not cover every required entry exactly once")
    if np.any(counts * (1 - required)):
        raise AssertionError("schedule covers entries outside the required region")
    sim = np.zeros(schedule.n_bras + schedule.n_kets, dtype=np.int64)
    for ranges in schedule.initial_states.values():
        for which, a, b in ranges:
            off = 0 if which == "bra" else schedule.n_bras
            sim[off + a : off + b] += 1
    needed = sim if schedule.kind == "test" else sim[schedule.n_bras :]
    if schedule.strategy == "round_robin" and not np.all(needed == 1):
        raise AssertionError("round_robin must simulate each state exactly once")
    if np.any(needed < 1):
        raise AssertionError("some state is never simulated")


def run_distributed(
    X_bras,
    X_kets,
    cfg: FeatureMapConfig,
    schedule: TileSchedule,
    budget: float = DEFAULT_TRUNC_BUDGET,
    report: RunReport | None = None,
) -> GramMatrix:
    """Compute the Gram that ``schedule`` plans, on the calling thread.

    The plan contributes only its state counts and kind: each ket row is
    simulated once, each bra row once for ``test`` (``train`` reuses the
    kets), and :func:`compute_gram` fills the Gram in one pass. The result is
    therefore bit-identical for any worker count and either strategy, and an
    error raised by a simulation or an inner product propagates as is.
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


def save_gram(gram: GramMatrix, csv_path, sidecar: dict | None = None) -> None:
    """Write the full matrix as CSV with 17 significant digits, plus a JSON sidecar."""
    with open(csv_path, "w", encoding="utf-8") as fh:
        for row in gram.entries:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    if sidecar is not None:
        meta = dict(sidecar)
        meta.setdefault("kind", gram.kind)
        meta.setdefault("rows", gram.rows)
        meta.setdefault("cols", gram.cols)
        with open(str(csv_path) + ".json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")


def load_gram(csv_path, kind: str) -> GramMatrix:
    entries = np.loadtxt(csv_path, delimiter=",", dtype=np.float64, ndmin=2)
    return GramMatrix(entries, kind)

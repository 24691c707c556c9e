"""The benchmark's workloads: inputs built from the seed, and the command each one times.

Every workload is a closed loop of one client: one ``mpskernel`` command at a
time, each in a fresh process. The program receives only the generated CSV
and config file; the workload seed stays with the benchmark.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "gram" or "experiment"
    m: int
    d: int
    per_class: int  # rows per class in the input CSV
    workers: int = 1
    budget: float | None = None  # None: the program's default budget
    r: int = 2
    gamma: float = 0.1

    @property
    def rows(self) -> int:
        return 2 * self.per_class

    def split_sizes(self) -> tuple[int, int]:
        """(train rows, test rows) of the experiment's class-balanced 80/20 split."""
        per_class_train = int(round(0.8 * self.per_class))
        return 2 * per_class_train, 2 * (self.per_class - per_class_train)

    def entries(self) -> int:
        """Gram entries the command must deliver."""
        if self.command == "gram":
            return self.rows * (self.rows - 1) // 2
        n_tr, n_te = self.split_sizes()
        return n_tr * (n_tr - 1) // 2 + n_te * n_tr


# Row counts are chosen so one command takes about 5-15 s on a 2-core machine:
# long enough that process start-up is a small share of wall_s, short enough
# that a run holds two or more commands and reports their median.
WORKLOADS = {
    # Paper-width chain at d=1: chi stays <= 4, so time goes to per-gate and
    # per-site Python overhead over thousands of small gates.
    "gram_m165": Workload("gram_m165", "gram", m=165, d=1, per_class=16),
    # Interaction-distance sweep at d=6: routing SWAPs, SVDs and QR sweeps.
    "deep_m40": Workload("deep_m40", "gram", m=40, d=6, per_class=3, budget=1e-16),
    # The whole pipeline: train and test Grams on two round-robin workers,
    # the C-grid SVM fits, the Gaussian baseline and every output file.
    "experiment_m15_k2": Workload(
        "experiment_m15_k2", "experiment", m=15, d=1, per_class=100, workers=2
    ),
}

# Reduced sizes for the smoke run: the same commands and checks in seconds.
SMOKE = {
    "gram_m165": Workload("gram_m165", "gram", m=165, d=1, per_class=2),
    "deep_m40": Workload("deep_m40", "gram", m=20, d=6, per_class=2, budget=1e-16),
    "experiment_m15_k2": Workload(
        "experiment_m15_k2", "experiment", m=15, d=1, per_class=20, workers=2
    ),
}


def input_csv(work_dir: Path) -> Path:
    return work_dir / "input.csv"


def out_dir(work_dir: Path) -> Path:
    return work_dir / "out"


def build_inputs(w: Workload, seed: int, work_dir: Path) -> None:
    """Write the workload's input CSV and config into ``work_dir``."""
    from mpskernel import cli, learn

    work_dir.mkdir(parents=True, exist_ok=True)
    csv_path = input_csv(work_dir)
    if w.command == "gram":
        data = cli.generate_blobs(cli.SyntheticSpec(n_per_class=w.per_class), w.m, seed)
        learn.save_dataset_csv(csv_path, data)
    else:
        argv = ["preprocess", "--synthetic", "--features", str(w.m),
                "--per-class", str(w.per_class), "--seed", str(seed), "--out", str(csv_path)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"preprocess exited {code}")
    config = {"seed": seed}
    if w.budget is not None:
        config["budget"] = w.budget
    (work_dir / "config.json").write_text(json.dumps(config) + "\n", encoding="utf-8")


def command_argv(w: Workload, work_dir: Path) -> list[str]:
    """The ``mpskernel`` command line the workload times."""
    argv = [w.command, "--config", str(work_dir / "config.json"),
            "--data", str(input_csv(work_dir)),
            "--features", str(w.m), "--distance", str(w.d), "--layers", str(w.r),
            "--gamma", repr(w.gamma), "--workers", str(w.workers),
            "--strategy", "round-robin", "--out-dir", str(out_dir(work_dir))]
    if w.command == "experiment":
        argv.append("--baseline")
    return argv

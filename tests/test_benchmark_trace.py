"""The benchmark still runs against the program.

``perfbench/tracing.py`` wraps public functions by name and reads some of
their parameters (``run_distributed``'s ``schedule`` and ``report``,
``encode_circuit``'s ``x``), and ``perfbench/checks.py`` checks every
workload's output files. A rename or an output the checks reject would
otherwise show only as failed benchmark operations.
"""

import json
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
OP = PERFBENCH / "op.py"


def test_traced_counts_match_run_report(tmp_path):
    for workload in ("gram_m165", "deep_m40", "experiment_m15_k2"):
        proc = subprocess.run(
            [sys.executable, str(OP), "--workload", workload, "--seed", "1", "--smoke",
             "--trace", "1", "--work-dir", str(tmp_path / workload)],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["exit"] == 0, (workload, proc.stderr)
        layers = result["layers"]
        counts = [layers["mps.states"], layers["mps.inner_products"]]
        assert result["report_counts"] == counts, workload


def test_smoke_run_passes_its_checks():
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "smoke: 0 failure(s)" in proc.stdout.splitlines(), proc.stdout

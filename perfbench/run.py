"""Benchmark entry point: runs one workload for a fixed time and prints its metrics.

    python3 perfbench/run.py --workload gram_m165 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Each operation is one ``mpskernel`` command in a fresh process (see
``op.py``); the run repeats whole operations until their summed lifetime
reaches ``--seconds``, checks every operation's outputs after it ends, and
prints, as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and the medians of the metrics ``BENCHMARK.json`` lists: the
end-to-end ones with ``--trace 0``, the per-layer ones with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import reference
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_LIMIT_S = 170.0  # a run ends, with or without its last operation, by then
EXTRA_SETUPS = 9  # set-up-only processes per run, so setup_s is a median of several


def _spawn_op(workload: str, seed: int, work_dir: Path, trace: int, smoke: bool,
              workers: int | None, spans: Path | None, timeout: float,
              setup_only: bool = False) -> tuple[float, dict | None]:
    """Run one operation; returns (lifetime in s, parsed result or None on failure)."""
    cmd = [sys.executable, str(HERE / "op.py"), "--workload", workload, "--seed", str(seed),
           "--work-dir", str(work_dir), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    if workers is not None:
        cmd += ["--workers", str(workers)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:  # subprocess.run kills and reaps the child
        print(f"operation timed out after {timeout:.0f} s", file=sys.stderr)
        return time.monotonic() - spawned, None
    lifetime = time.monotonic() - spawned
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return lifetime, None
    result = json.loads(lines[-1])
    if result["exit"] != 0:
        sys.stderr.write(proc.stderr)
        return lifetime, None
    result["setup_s"] = result["ready"] - spawned
    return lifetime, result


def _check_trace_counts(w, result: dict) -> None:
    """The traced call counts must agree with the program's own RunReport counters."""
    layers = result["layers"]
    sims, ips = result["report_counts"]
    if (sims, ips) != (layers["mps.states"], layers["mps.inner_products"]):
        raise checks.CheckFailed(
            f"RunReport counts {sims} simulations and {ips} inner products, traced calls "
            f"{layers['mps.states']} and {layers['mps.inner_products']}")
    if ips != w.entries():
        raise checks.CheckFailed(f"{ips} inner products, expected {w.entries()}")


def run(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    w = workloads.WORKLOADS[args.workload]
    if args.workers is not None:
        w = dataclasses.replace(w, workers=args.workers)
    checker = checks.Checker(w, args.seed)
    work_root = HERE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    spans = None
    if args.trace:
        spans = HERE / "results" / f"{args.workload}-seed{args.seed}.spans.json"
        spans.parent.mkdir(exist_ok=True)
    # compile the package once so no operation pays for writing bytecode
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                   cwd=ROOT, check=True, capture_output=True)

    start = time.monotonic()
    measured = 0.0
    attempted = failed = 0
    correct = True
    samples: list[dict[str, float]] = []
    setups: list[float] = []
    try:
        for k in range(0 if args.trace else EXTRA_SETUPS):
            work_dir = work_root / f"setup{k}"
            _, result = _spawn_op(args.workload, args.seed, work_dir, 0, False, args.workers,
                                  None, RUN_LIMIT_S, setup_only=True)
            if result is None:
                raise RuntimeError("set-up failed")
            setups.append(result["setup_s"])
            shutil.rmtree(work_dir, ignore_errors=True)
        while True:
            work_dir = work_root / f"op{attempted}"
            timeout = max(1.0, RUN_LIMIT_S - (time.monotonic() - start))
            lifetime, result = _spawn_op(args.workload, args.seed, work_dir, args.trace, False,
                                         args.workers, None if attempted else spans, timeout)
            attempted += 1
            measured += lifetime
            if result is None:
                failed += 1
            else:
                try:
                    checker.check(work_dir)
                    if args.trace:
                        _check_trace_counts(w, result)
                except checks.CheckFailed as exc:
                    print(f"check failed: {exc}", file=sys.stderr)
                    correct = False
                    break
                samples.append(result["layers"] if args.trace else result)
                setups.append(result["setup_s"])
            shutil.rmtree(work_dir, ignore_errors=True)
            if measured >= args.seconds or time.monotonic() - start >= RUN_LIMIT_S:
                break
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    values = {"setup_s": setups}
    if samples:
        if args.trace:
            values.update((k, [s[k] for s in samples]) for k in samples[0])
        else:
            wall_s = statistics.median(s["wall_s"] for s in samples)
            values.update(wall_s=[wall_s], entries_per_s=[w.entries() / wall_s],
                          peak_rss_mb=[s["peak_rss_mb"] for s in samples])
    metrics = {item["name"]: {"value": statistics.median(values[item["name"]]),
                              "unit": item["unit"]}
               for item in listed if values.get(item["name"])}
    if samples:
        print(f"{args.workload}: {len(samples)} operations, {measured:.1f} s measured",
              file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct and samples else 1


def smoke() -> int:
    """Every workload at reduced size; then show that the checks reject wrong outputs."""
    import numpy as np

    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, 2.0, 8)
    dense = reference.dense_state(x, 1, 2, 0.7)
    chain = reference.chain_state(x, 2, 0.7)
    y = rng.uniform(0.0, 2.0, 8)
    err = abs(abs(np.vdot(dense, reference.dense_state(y, 1, 2, 0.7))) ** 2
              - abs(reference.chain_overlap(chain, reference.chain_state(y, 2, 0.7))) ** 2)
    expect(err < 1e-12, f"exact chain reference matches the dense one (|error| {err:.1e})")

    work_root = HERE / "work" / f"smoke-{os.getpid()}"
    seed = 1
    try:
        for name, w in workloads.SMOKE.items():
            work_dir = work_root / name
            t0 = time.monotonic()
            _, result = _spawn_op(name, seed, work_dir, 0, True, None, None, RUN_LIMIT_S)
            expect(result is not None, f"{name}: command exits 0 ({time.monotonic() - t0:.1f} s)")
            if result is None:
                continue
            checker = checks.Checker(w, seed)

            def rejected() -> bool:
                try:
                    checker.check(work_dir)
                except checks.CheckFailed as exc:
                    print(f"     rejected: {exc}")
                    return True
                return False

            expect(not rejected(), f"{name}: outputs pass the checks")
            out = workloads.out_dir(work_dir)
            gram = out / ("gram.csv" if w.command == "gram" else "gram_train.csv")
            original = gram.read_text(encoding="utf-8")
            K = np.loadtxt(gram, delimiter=",", ndmin=2)
            K[0, 1] += 1e-6
            np.savetxt(gram, K, delimiter=",", fmt="%.17g")
            expect(rejected(), f"{name}: one Gram entry moved by 1e-6 is rejected")
            if w.d == 1:
                # keep the matrix symmetric, so only the exact reference can notice
                i, j = next(iter(checker.refs["train"] if w.command == "experiment"
                                 else checker.refs))
                K[0, 1] -= 1e-6
                K[i, j] += 1e-6
                K[j, i] = K[i, j]
                np.savetxt(gram, K, delimiter=",", fmt="%.17g")
                expect(rejected(), f"{name}: a checked entry pair moved by 1e-6 is rejected")
            gram.write_text(original, encoding="utf-8")
            if w.command == "experiment":
                path = out / "metrics.json"
                original = path.read_text(encoding="utf-8")
                metrics = json.loads(original)
                best = metrics["best_quantum"]
                for row in [best] + [r for r in metrics["quantum"] if r["C"] == best["C"]]:
                    row["test"]["auc"] += 1e-6
                path.write_text(json.dumps(metrics), encoding="utf-8")
                expect(rejected(), f"{name}: the reported best AUC moved by 1e-6 is rejected")
                path.write_text(original, encoding="utf-8")
            expect(not rejected(), f"{name}: restored outputs pass again")
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    print(f"smoke: {len(failures)} failure(s)")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workers", type=int,
                        help="override the workload's worker count (for the k=1 baseline)")
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at reduced size and test the checks")
    args = parser.parse_args()
    if not (ROOT / "src" / "mpskernel" / "__init__.py").is_file():
        print(f"error: no mpskernel package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.smoke:
        return smoke()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())

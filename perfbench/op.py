"""One operation of a workload, in a fresh process: set up, then time one command.

Set-up imports the package from ``src/`` of the checkout and writes the
workload's input CSV and config. The timed region is one call of
``mpskernel.cli.main``, which reads the inputs and writes every output file.
The last line of standard output is a JSON object the benchmark reads.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _peak_rss_mb() -> float:
    """High-water resident set of this process image.

    ``getrusage`` is not used: its ``ru_maxrss`` keeps the parent's resident
    size from before ``exec``, so it would read the benchmark's own memory.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--workers", type=int)
    parser.add_argument("--spans", help="file the traced run writes its spans to")
    parser.add_argument("--setup-only", action="store_true", help="stop once the inputs are ready")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import mpskernel
    from mpskernel import cli

    if Path(mpskernel.__file__).resolve().parent != ROOT / "src" / "mpskernel":
        raise SystemExit(f"imported mpskernel from {mpskernel.__file__}, not from this checkout")
    import workloads

    w = (workloads.SMOKE if args.smoke else workloads.WORKLOADS)[args.workload]
    if args.workers is not None:
        w = dataclasses.replace(w, workers=args.workers)
    work_dir = Path(args.work_dir)
    workloads.build_inputs(w, args.seed, work_dir)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"exit": 0, "ready": ready}))
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    argv = workloads.command_argv(w, work_dir)
    stdout = io.StringIO()
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    wall_s = time.perf_counter() - t0
    cpu_s = _cpu_s() - cpu0

    result = {
        "exit": code,
        "ready": ready,
        "wall_s": wall_s,
        "peak_rss_mb": _peak_rss_mb(),
    }
    if tracer is not None:
        out = workloads.out_dir(work_dir)
        output_bytes = sum(p.stat().st_size for p in out.iterdir()) if out.is_dir() else 0
        result["layers"] = tracer.layers(wall_s, cpu_s, output_bytes)
        result["report_counts"] = tracer.report_counts()
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Spans around the program's public calls, recorded from outside the program.

:func:`install` replaces each traced public function, in every ``mpskernel``
module that binds it, with a wrapper that records a span (name, thread,
start, end, parent span) and a few fields read from the call's arguments or
result. Spans stay in memory; :meth:`Tracer.write` dumps them once the
command has ended, and :meth:`Tracer.layers` turns them into the per-layer
metrics.
"""

from __future__ import annotations

import inspect
import json
import statistics
import sys
import threading
import time


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, thread, start, end, parent, fields]
        self._local = threading.local()

    def wrap(self, name, fn, before=None, after=None):
        """Wrap ``fn``; ``before(args)`` runs first, ``after(args, result, pre)`` fills fields."""
        signature = inspect.signature(fn)
        spans = self.spans
        local = self._local

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            bound = signature.bind(*args, **kwargs).arguments if before or after else None
            pre = before(bound) if before else None
            span = [name, threading.current_thread().name, time.perf_counter(), None,
                    stack[-1] if stack else None, None]
            spans.append(span)  # list.append is atomic across threads
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if after:
                span[5] = after(bound, result, pre)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        rows = [
            {"name": n, "thread": th, "start": t0, "end": t1,
             "parent": None if p is None else index[id(p)], "fields": f}
            for n, th, t0, t1, p, f in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows}, fh)

    def _named(self, name):
        return [s for s in self.spans if s[0] == name]

    def _busy(self, name) -> float:
        """Seconds inside ``name``, summed over threads."""
        return sum(s[3] - s[2] for s in self._named(name))

    def layers(self, wall_s: float, cpu_s: float, output_bytes: int) -> dict[str, float]:
        """Per-layer metrics of one traced command."""
        states = [s[5] for s in self._named("mps.simulate_circuit")]
        encodes = [s[5] for s in self._named("ansatz.encode_circuit")]
        phases = {p: sum(st["timings"].get(p, 0.0) for st in states)
                  for p in ("two_qubit", "canonicalize", "one_qubit")}
        simulate_s = self._busy("mps.simulate_circuit")
        chis = [st["peak_chi"] for st in states] or [0]
        grams = self._named("kernel.run_distributed")
        distinct_rows = len({e["row"] for e in encodes})
        busy_max = busy_min = 0.0
        for g in grams:
            per_thread: dict[str, float] = {}
            for s in self.spans:
                if s[0] in ("mps.simulate_circuit", "mps.inner_product") and g[2] <= s[2] <= g[3]:
                    per_thread[s[1]] = per_thread.get(s[1], 0.0) + (s[3] - s[2])
            if per_thread:
                busy_max += max(per_thread.values())
                busy_min += min(per_thread.values())
        return {
            "ansatz.encode_s": self._busy("ansatz.encode_circuit"),
            "ansatz.swaps": sum(e["swaps"] for e in encodes),
            "tensor.svd_calls": len(self._named("tensor.svd_truncated")),
            "tensor.svd_s": self._busy("tensor.svd_truncated"),
            "mps.states": len(states),
            "mps.simulate_s": simulate_s,
            "mps.two_qubit_s": phases["two_qubit"],
            "mps.canonicalize_s": phases["canonicalize"],
            "mps.one_qubit_s": phases["one_qubit"],
            "mps.gate_overhead_s": simulate_s - sum(phases.values()),
            "mps.peak_chi_max": max(chis),
            "mps.peak_chi_median": statistics.median(chis),
            "mps.discard_max": max((st["discard"] for st in states), default=0.0),
            "mps.inner_products": len(self._named("mps.inner_product")),
            "mps.inner_product_s": self._busy("mps.inner_product"),
            "mps.wire_bytes": sum(s[5]["bytes"] for s in self._named("mps.serialize_state")),
            "mps.serialize_s": self._busy("mps.serialize_state"),
            "mps.deserialize_s": self._busy("mps.deserialize_state"),
            "kernel.gram_train_s": sum(g[3] - g[2] for g in grams if g[5]["kind"] == "train"),
            "kernel.gram_test_s": sum(g[3] - g[2] for g in grams if g[5]["kind"] == "test"),
            "kernel.sims_per_row": len(states) / distinct_rows if distinct_rows else 0.0,
            "kernel.worker_busy_max_s": busy_max,
            "kernel.worker_busy_min_s": busy_min,
            "learn.svm_fits": len(self._named("learn.svm_train")),
            "learn.svm_train_s": self._busy("learn.svm_train"),
            "learn.gaussian_s": self._busy("learn.gaussian_gram"),
            "cli.load_s": self._busy("learn.load_dataset_csv"),
            "cli.write_s": self._busy("kernel.save_gram") + self._busy("learn.save_model_json"),
            "cli.output_bytes": output_bytes,
            "process.cpu_s": cpu_s,
            "process.cpu_per_wall": cpu_s / wall_s,
            "trace.wall_s": wall_s,
        }

    def report_counts(self) -> tuple[int, int]:
        """(simulations, inner products) the program's ``RunReport`` objects counted."""
        grams = [s[5] for s in self._named("kernel.run_distributed")]
        return (sum(g["report_sims"] for g in grams), sum(g["report_ips"] for g in grams))


def _report_before(args):
    report = args.get("report")
    return None if report is None else (report.n_simulations, report.n_inner_products)


def _report_after(args, result, pre):
    fields = {"kind": args["schedule"].kind, "report_sims": 0, "report_ips": 0}
    if pre is not None:
        report = args["report"]
        fields["report_sims"] = report.n_simulations - pre[0]
        fields["report_ips"] = report.n_inner_products - pre[1]
    return fields


def _encode_after(args, circuit, _):
    import numpy as np

    row = np.asarray(args["x"], dtype=np.float64).tobytes()
    return {"swaps": sum(g.kind == "SWAP" for g in circuit.gates), "row": hash(row)}


def _state_after(_, state, __):
    return {"peak_chi": state.peak_chi, "discard": state.accumulated_discard,
            "timings": dict(state.timings)}


def install(tracer: Tracer) -> None:
    """Wrap the traced public functions wherever an ``mpskernel`` module binds them."""
    from mpskernel import ansatz, kernel, learn, mps, tensor

    targets = [
        (ansatz, "encode_circuit", None, _encode_after),
        (tensor, "svd_truncated", None, None),
        (mps, "simulate_circuit", None, _state_after),
        (mps, "inner_product", None, None),
        (mps, "serialize_state", None, lambda a, blob, p: {"bytes": len(blob)}),
        (mps, "deserialize_state", None, None),
        (kernel, "run_distributed", _report_before, _report_after),
        (kernel, "save_gram", None, None),
        (learn, "svm_train", None, None),
        (learn, "gaussian_gram", None, None),
        (learn, "load_dataset_csv", None, None),
        (learn, "save_model_json", None, None),
    ]
    modules = [mod for name, mod in sys.modules.items()
               if name == "mpskernel" or name.startswith("mpskernel.")]
    for owner, attr, before, after in targets:
        original = getattr(owner, attr)
        wrapped = tracer.wrap(f"{owner.__name__.split('.')[-1]}.{attr}", original, before, after)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)

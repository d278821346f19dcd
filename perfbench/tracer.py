"""Span tracing for one hopsync CLI invocation, from outside the package.

Run as a script, this is the traced child of the benchmark:

    python -X importtime perfbench/tracer.py SPANS.json -- simulate --topology ...

It imports ``hopsync.cli``, substitutes timing wrappers for the layer
functions listed in WRAPS wherever another hopsync module holds a binding to
them, calls ``hopsync.cli.main`` on the remaining arguments, restores the
original bindings, and writes the spans it kept in memory to SPANS.json.
The package's own files are not changed.

Imported as a module, it provides the arithmetic the benchmark applies to the
spans: self times, import times from ``-X importtime``, and the per-layer
table.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time

LAYERS = ("cli", "model", "channel", "kernels", "detector", "harness", "dynamics")

# Wrapped layer functions: (span name, module that exports it, attribute,
# metric suffix for its self time, whether to report a call count).
WRAPS = (
    ("model.generate_topology", "hopsync.model", "generate_topology", "s", False),
    ("model.has_spanning_path", "hopsync.model", "has_spanning_path", "s", True),
    ("model.build_matrices", "hopsync.model", "build_matrices", "s", False),
    ("channel.sample_masks", "hopsync.channel", "sample_masks", "s", True),
    ("kernels.run_rounds", "hopsync.kernels", "run_rounds", "s", True),
    ("kernels.filter_series", "hopsync.kernels", "filter_series", "s", True),
    ("detector.detect", "hopsync.detector", "detect", "s", True),
    ("detector.node_filter_input", "hopsync.detector", "node_filter_input", "s", True),
    ("detector.OnlineDetector.push", "hopsync.detector", "OnlineDetector.push", "s", True),
    ("harness.run", "hopsync.harness", "run", "self_s", False),
    ("harness.summarize", "hopsync.harness", "summarize", "s", False),
    ("harness.write_trace_csv", "hopsync.harness", "write_trace_csv", "s", False),
    ("harness.write_summary_csv", "hopsync.harness", "write_summary_csv", "s", False),
    ("harness.scaling_sweep", "hopsync.harness", "scaling_sweep", "self_s", False),
    ("harness.write_sweep_csv", "hopsync.harness", "write_sweep_csv", "s", False),
    ("dynamics.steady_state_error", "hopsync.dynamics", "steady_state_error", "s", False),
)
MAIN_SPAN = "cli.main"

# Calls inside the defining module are part of the caller's own work and get
# no span, except harness.run: scaling_sweep reaches it through the harness
# module's own namespace, and the sweep's per-run work must show under it.
PATCH_HOME = {"harness.run"}


def _count_event(counts, args, kwargs, result):
    counts["detector.events"] += result is not None


def _count_mask_rounds(counts, args, kwargs, result):
    counts["channel.mask_rounds"] += len(result)


def _count_run_nodes(counts, args, kwargs, result):
    counts["harness.run_nodes"] += args[0].topology.node_count


# Counters taken from a call's arguments and result, outside its span; each
# is a few attribute reads, so the time they add to the caller is negligible.
COUNTERS = {
    "detector.detect": _count_event,
    "detector.OnlineDetector.push": _count_event,
    "channel.sample_masks": _count_mask_rounds,
    "harness.run": _count_run_nodes,
}
COUNT_NAMES = ("detector.events", "channel.mask_rounds", "harness.run_nodes")


class Recorder:
    """Keeps spans as (name, start, end, parent index, raised) in memory."""

    def __init__(self):
        self.spans = []
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self.absent = []
        self._stack = []
        self._restore = []

    def wrap(self, name, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            raised = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, raised)
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Substitute wrappers for every binding of each listed function.

        A function that no longer exists is recorded in ``absent``.
        """
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "hopsync" or key.startswith("hopsync."))]
        for name, module_name, attr, _, _ in WRAPS:
            try:
                owner = importlib.import_module(module_name)
                cls_name, _, meth = attr.rpartition(".")
                if cls_name:
                    owner = getattr(owner, cls_name)
                original = getattr(owner, meth)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self.wrap(name, original)
            if cls_name:
                self._patch(owner, meth, wrapper)
                continue
            home = getattr(original, "__module__", None)
            for mod in modules:
                if mod.__name__ == home and name not in PATCH_HOME:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, key, value):
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)


def self_times(spans):
    """Each span's duration minus the part of it that its child spans cover."""
    children = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(idx, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def import_seconds(importtime_lines, prefix):
    """Cumulative import time of the outermost modules named ``prefix`` or
    ``prefix.*`` in ``-X importtime`` output, in seconds."""
    entries = []
    for line in importtime_lines:
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        label = parts[2].rstrip()
        depth = len(label) - len(label.lstrip())
        entries.append((depth, int(parts[1]), label.strip()))
    total_us = 0
    stack = []  # (depth, inside a matching module) from the root down
    for depth, cumulative_us, module in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        match = module == prefix or module.startswith(prefix + ".")
        if match and not inside:
            total_us += cumulative_us
        stack.append((depth, inside or match))
    return total_us / 1e6


def layer_metrics(record, importtime_lines, trace_csv=b""):
    """Per-layer metrics of one traced invocation, as {name: (value, unit)}.

    ``trace_csv`` is the trace.csv the invocation wrote, if any; the
    benchmark has read it for the output check already.
    """
    spans = [tuple(s) for s in record["spans"]]
    self_s = self_times(spans)
    seconds, calls, errors = {}, {}, dict.fromkeys(LAYERS, 0)
    for (name, _, _, _, raised), own in zip(spans, self_s):
        seconds[name] = seconds.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
        errors[name.split(".", 1)[0]] += raised
    counts = record["counts"]
    out = {
        "cli.import_s": (import_seconds(importtime_lines, "hopsync"), "s"),
        "cli.import_scipy_s": (import_seconds(importtime_lines, "scipy"), "s"),
        "cli.main.self_s": (seconds.get(MAIN_SPAN, 0.0), "s"),
    }
    for name, _, _, suffix, with_calls in WRAPS:
        out[f"{name}.{suffix}"] = (seconds.get(name, 0.0), "s")
        if with_calls:
            out[f"{name}.calls"] = (calls.get(name, 0), "count")
    for name in ("channel.mask_rounds", "detector.events"):
        out[name] = (counts[name], "count")
    out["harness.trace_rows"] = (max(trace_csv.count(b"\n") - 1, 0), "count")
    out["harness.trace_bytes"] = (len(trace_csv), "bytes")
    # base: ordinary nodes summed over harness.run calls
    base = counts["harness.run_nodes"]
    passes = calls.get("kernels.filter_series", 0) / base if base else 0.0
    out["detector.filter_passes_per_node"] = (passes, "ratio")
    for layer in LAYERS:
        out[f"{layer}.errors"] = (errors[layer], "count")
    return out


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- CLI-ARGS...", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    cli = importlib.import_module("hopsync.cli")
    rec = Recorder()
    rec.install()
    try:
        return rec.wrap(MAIN_SPAN, cli.main)(cli_args)
    finally:
        rec.uninstall()
        with open(spans_path, "w") as fh:
            json.dump({"spans": rec.spans, "counts": rec.counts,
                       "absent": rec.absent}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

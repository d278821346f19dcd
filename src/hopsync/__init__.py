"""hopsync: deterministic simulator for single-hop consensus clock sync.

Ordinary nodes repeatedly average the clocks they hear (one gateway keeps
perfect time); the library provides the round evolution, the analytic
steady-state error, a lossy-link channel model, a seven-tap dip detector for
stopping near the transient error minimum, and an experiment harness with a
CLI front end.
"""
from .channel import ChannelModel, sample_mask, sample_masks
from .detector import (DetectionEvent, DetectorConfig, OnlineDetector,
                       SeriesTooShort, detect, filter_response,
                       node_filter_input, scan_polarity)
from .dynamics import (ClockState, DimensionMismatch, ErrorState,
                       NotConvergent, SteadyStateResult, error_of, error_step,
                       steady_state_error, step)
from .harness import (ConfigInvalid, NodeSummary, RunTrace, SimConfig,
                      SweepPoint, SweepResult, initial_clocks, run,
                      run_error_recursion, scaling_sweep, summarize,
                      write_summary_csv, write_sweep_csv, write_trace_csv)
from .model import (InvalidPlacement, IsolatedNode, SystemMatrices, Topology,
                    build_matrices, effective_matrices, generate_topology,
                    grid_topology, has_spanning_path, line_topology,
                    load_topology, random_topology, ring_topology,
                    save_topology)

__version__ = "0.1.0"

__all__ = [
    "ChannelModel", "ClockState", "ConfigInvalid",
    "DetectionEvent", "DetectorConfig", "DimensionMismatch", "ErrorState",
    "InvalidPlacement", "IsolatedNode", "NodeSummary", "NotConvergent",
    "OnlineDetector", "RunTrace", "SeriesTooShort", "SimConfig",
    "SteadyStateResult", "SweepPoint", "SweepResult", "SystemMatrices",
    "Topology", "build_matrices", "detect", "effective_matrices", "error_of",
    "error_step", "filter_response", "generate_topology", "grid_topology",
    "has_spanning_path", "initial_clocks", "line_topology", "load_topology",
    "node_filter_input", "random_topology", "ring_topology", "run",
    "run_error_recursion", "sample_mask", "sample_masks", "save_topology",
    "scaling_sweep", "scan_polarity", "steady_state_error", "step",
    "summarize", "write_summary_csv", "write_sweep_csv", "write_trace_csv",
    "__version__",
]

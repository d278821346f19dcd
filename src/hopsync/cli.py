"""Command-line front end: ``hopsync simulate|sweep|steady-state``.

Configuration is layered: built-in defaults, then an optional ``--config``
file of flat ``key=value`` lines (keys match the flag names), then explicit
flags. ``--dump-config`` prints the resolved configuration and exits; feeding
that output back as a config file reproduces the same effective run.

Exit codes: 0 success, 2 configuration/usage error, 3 topology not connected
under ``--require-connected``, 4 steady-state system not solvable.
"""
from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import List, Optional, Sequence, Tuple

from .detector import DetectorConfig
from .dynamics import NotConvergent, steady_state_error
from .harness import (ConfigInvalid, SimConfig, run, scaling_sweep, summarize,
                      write_summary_csv, write_sweep_csv, write_trace_csv)
from .model import generate_topology, has_spanning_path

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DISCONNECTED = 3
EXIT_NOT_CONVERGENT = 4

# Canonical key order for --dump-config; every behavior-affecting flag has a
# row here so a dumped file round-trips to the same effective configuration.
_KEYS = ["topology", "gateway", "delta-t", "rounds", "p", "seed", "init-min",
         "init-max", "cf", "k-guard", "halt-on-detect", "require-connected",
         "out", "sizes", "seeds"]

_DEFAULTS = {
    "topology": "grid:4x4",
    "gateway": "corner",
    "delta-t": 0.001,
    "rounds": 500,
    "p": 1.0,
    "seed": 0,
    "init-min": 0.0,
    "init-max": None,       # resolved to 100 * delta-t
    "cf": 1.002,
    "k-guard": 11,
    "halt-on-detect": False,
    "require-connected": False,
    "out": ".",
    "sizes": None,          # sweep only; required there
    "seeds": 5,
}

_BOOL_KEYS = {"halt-on-detect", "require-connected"}
_INT_KEYS = {"rounds", "seed", "k-guard", "seeds"}
_FLOAT_KEYS = {"delta-t", "p", "init-min", "init-max", "cf"}


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_CONFIG):
        super().__init__(message)
        self.code = code


def _fmt_value(key, value) -> str:
    if key in _BOOL_KEYS:
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_value(key: str, raw: str):
    try:
        if key in _BOOL_KEYS:
            low = raw.strip().lower()
            if low in ("true", "1", "yes", "on"):
                return True
            if low in ("false", "0", "no", "off"):
                return False
            raise ValueError(raw)
        if key in _INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS:
            return float(raw)
        return raw
    except ValueError:
        raise CliError(f"bad value for {key!r}: {raw!r}")


def _read_config_file(path: str) -> dict:
    values = {}
    try:
        fh = open(path)
    except OSError as err:
        raise CliError(f"cannot read config file: {err}")
    with fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, raw = line.partition("=")
            key = key.strip()
            if not sep or key not in _KEYS:
                raise CliError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = _parse_value(key, raw.strip())
    return values


def _resolve(args) -> dict:
    """Layer defaults, config file, and explicit flags into one dict."""
    cfg = dict(_DEFAULTS)
    if args.config:
        cfg.update(_read_config_file(args.config))
    flag_map = {
        "topology": args.topology, "gateway": args.gateway,
        "delta-t": args.delta_t, "rounds": args.rounds, "p": args.p,
        "seed": args.seed, "init-min": args.init_min,
        "init-max": args.init_max, "cf": args.cf, "k-guard": args.k_guard,
        "halt-on-detect": args.halt_on_detect,
        "require-connected": args.require_connected, "out": args.out,
        "sizes": getattr(args, "sizes", None),
        "seeds": getattr(args, "seeds", None),
    }
    for key, val in flag_map.items():
        if val is not None:
            cfg[key] = val
    if cfg["init-max"] is None:
        cfg["init-max"] = 100.0 * cfg["delta-t"]
    return cfg

def _dump(cfg: dict) -> None:
    for key in _KEYS:
        if cfg[key] is None:
            continue
        print(f"{key}={_fmt_value(key, cfg[key])}")


def _gateway_arg(cfg: dict):
    g = cfg["gateway"]
    if g == "corner":
        return "corner"
    try:
        return int(g)
    except (TypeError, ValueError):
        raise CliError(f"bad --gateway value: {g!r}")


def _build_topology(cfg: dict):
    try:
        return generate_topology(cfg["topology"], gateway=_gateway_arg(cfg),
                                 seed=cfg["seed"])
    except CliError:
        raise
    except (ValueError, OSError) as err:
        raise CliError(f"bad topology {cfg['topology']!r}: {err}")


def _sim_config(cfg: dict, topo) -> SimConfig:
    try:
        det = DetectorConfig(c_f=cfg["cf"], k_guard=cfg["k-guard"])
        return SimConfig(topology=topo, delta_t=cfg["delta-t"],
                         n_max=cfg["rounds"], p=cfg["p"], seed=cfg["seed"],
                         init_min=cfg["init-min"], init_max=cfg["init-max"],
                         detector=det, halt_on_detect=cfg["halt-on-detect"])
    except (ConfigInvalid, ValueError) as err:
        raise CliError(str(err))


def _num(v) -> str:
    s = repr(float(v))
    return s[:-2] if s.endswith(".0") else s


def _print_summary(summaries) -> None:
    header = ["node", "min_err_instant", "min_err_value", "ss_instant",
              "ss_value", "det_instant", "det_value"]
    rows = [header]
    for s in summaries:
        rows.append([str(s.node_id), str(s.min_error_instant),
                     f"{s.min_error_value:.6g}", str(s.ss_error_instant),
                     f"{s.ss_error_value:.6g}",
                     "-" if s.detected_instant is None else str(s.detected_instant),
                     "-" if s.detected_error_value is None
                     else f"{s.detected_error_value:.6g}"])
    widths = [max(len(r[c]) for r in rows) for c in range(len(header))]
    for r in rows:
        print("  ".join(v.rjust(w) for v, w in zip(r, widths)))


@contextlib.contextmanager
def _writing(out: str):
    """Create the output directory ``out``; an OSError there or in the
    writes of the with-block is a usage error (exit 2), not a traceback."""
    try:
        os.makedirs(out, exist_ok=True)
        yield
    except OSError as err:
        raise CliError(f"cannot write output in {out!r}: {err}")


def _cmd_simulate(cfg: dict) -> int:
    topo = _build_topology(cfg)
    connected = has_spanning_path(topo)
    if cfg["require-connected"] and not connected:
        print("topology has no spanning path from the gateway", file=sys.stderr)
        return EXIT_DISCONNECTED
    sim = _sim_config(cfg, topo)
    trace = run(sim)
    if not connected:
        print("warning: topology is not connected; some nodes never hear "
              "the gateway", file=sys.stderr)
    summaries = summarize(trace)
    with _writing(cfg["out"]):
        write_trace_csv(trace, os.path.join(cfg["out"], "trace.csv"))
        write_summary_csv(summaries, os.path.join(cfg["out"], "summary.csv"))
    _print_summary(summaries)
    return EXIT_OK


def _cmd_steady_state(cfg: dict) -> int:
    topo = _build_topology(cfg)
    try:
        result = steady_state_error(topo, cfg["delta-t"])
    except NotConvergent as err:
        print(f"steady state not solvable: {err}", file=sys.stderr)
        return EXIT_NOT_CONVERGENT
    except ValueError as err:
        raise CliError(str(err))
    print(", ".join(_num(v) for v in result.ess))
    return EXIT_OK


def _parse_sizes(raw: Optional[str]) -> List[Tuple[int, int]]:
    if not raw or not raw.strip():
        raise CliError("sweep needs --sizes, e.g. --sizes 2x2,3x3,4x4")
    out = []
    for part in raw.split(","):
        r, sep, c = part.strip().partition("x")
        try:
            if not sep:
                raise ValueError(part)
            rows, cols = int(r), int(c)
            if rows < 1 or cols < 1 or rows * cols < 2:
                raise ValueError(part)
        except ValueError:
            raise CliError(f"bad size {part.strip()!r} in --sizes "
                           "(need RxC with at least 2 total nodes)")
        out.append((rows, cols))
    return out


def _cmd_sweep(cfg: dict) -> int:
    sizes = _parse_sizes(cfg["sizes"])
    rows, cols = sizes[0]
    template = _sim_config(cfg, generate_topology(f"grid:{rows}x{cols}"))
    try:
        result = scaling_sweep(sizes, template, seeds=cfg["seeds"])
    except ConfigInvalid as err:
        raise CliError(str(err))
    with _writing(cfg["out"]):
        write_sweep_csv(result, os.path.join(cfg["out"], "sweep.csv"))
    if result.slope is None:
        print("fit: undefined (need at least two distinct node counts)")
    else:
        r2 = "undefined" if result.r_squared is None else f"{result.r_squared:.4f}"
        print(f"fit: instant = {result.slope:.4f} * nodes + "
              f"{result.intercept:.4f}   r_squared = {r2}")
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH",
                        help="flat key=value config file; flags override it")
    parser.add_argument("--topology", metavar="SPEC",
                        help="grid:RxC | line:N | ring:N | random:N:P | file:PATH "
                             "(default grid:4x4)")
    parser.add_argument("--gateway", metavar="WHERE",
                        help="node index, or 'corner' (default)")
    parser.add_argument("--delta-t", type=float, metavar="SEC",
                        help="round period in seconds (default 0.001)")
    parser.add_argument("--rounds", type=int, metavar="N",
                        help="rounds to simulate (default 500)")
    parser.add_argument("--p", type=float, metavar="PROB",
                        help="per-edge availability probability (default 1.0)")
    parser.add_argument("--seed", type=int, metavar="U64",
                        help="master seed (default 0)")
    parser.add_argument("--init-min", type=float, metavar="SEC",
                        help="initial clock lower bound (default 0)")
    parser.add_argument("--init-max", type=float, metavar="SEC",
                        help="initial clock upper bound (default 100*delta-t)")
    parser.add_argument("--cf", type=float, metavar="REAL",
                        help="detector comparison factor (default 1.002)")
    parser.add_argument("--k-guard", type=int, metavar="INT",
                        help="rounds before detections may fire (default 11)")
    parser.add_argument("--halt-on-detect", action="store_const", const=True,
                        help="detected nodes stop exchanging and freeze")
    parser.add_argument("--require-connected", action="store_const", const=True,
                        help="refuse topologies without a gateway spanning path")
    parser.add_argument("--out", metavar="DIR",
                        help="output directory for CSV files (default .)")
    parser.add_argument("--dump-config", action="store_true",
                        help="print the resolved configuration and exit")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopsync",
        description="Round-based consensus clock synchronization simulator.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_sim = sub.add_parser("simulate",
                           help="run one network and write trace/summary CSVs")
    _add_common(p_sim)

    p_sweep = sub.add_parser("sweep",
                             help="scaling sweep over square grids")
    _add_common(p_sweep)
    p_sweep.add_argument("--sizes", metavar="LIST",
                         help="comma list of grid sizes, e.g. 2x2,3x3,4x4")
    p_sweep.add_argument("--seeds", type=int, metavar="N",
                         help="seeds per size (default 5)")

    p_ss = sub.add_parser("steady-state",
                          help="print the analytic per-node steady-state error")
    _add_common(p_ss)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve(args)
        if args.dump_config:
            _dump(cfg)
            return EXIT_OK
        if args.subcommand == "simulate":
            return _cmd_simulate(cfg)
        if args.subcommand == "steady-state":
            return _cmd_steady_state(cfg)
        return _cmd_sweep(cfg)
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.code


if __name__ == "__main__":
    sys.exit(main())

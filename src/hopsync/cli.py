"""Command-line front end: ``hopsync simulate|sweep|steady-state``.

Configuration is layered: built-in defaults, then an optional ``--config``
file of flat ``key=value`` lines (keys match the flag names), then explicit
flags. ``--dump-config`` prints the resolved configuration and exits; feeding
that output back as a config file reproduces the same effective run.

Exit codes: 0 success, 2 configuration/usage error or out of memory, 3
topology not connected under ``--require-connected``, 4 steady-state system
not solvable, 130 interrupted (Ctrl-C), 141 standard output closed early (a
closed pipe, 128 + SIGPIPE; nothing is printed), 143 terminated (SIGTERM,
which leaves through the same cleanup as Ctrl-C). Each output file is
either complete or absent: it is written beside its final name and renamed
into place only once complete, and ``simulate`` renames its two files only
once both are complete, with SIGINT and SIGTERM held between the renames.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import re
import signal
import sys
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from .detector import DetectorConfig
from .dynamics import NotConvergent, steady_state_error
from .harness import (ConfigInvalid, SimConfig, _default_init_max,
                      _replacing_all, run, scaling_sweep, summarize,
                      write_summary_csv, write_sweep_csv, write_trace_csv)
from .model import generate_topology, has_spanning_path

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DISCONNECTED = 3
EXIT_NOT_CONVERGENT = 4
EXIT_INTERRUPTED = 130   # 128 + SIGINT
EXIT_CLOSED_PIPE = 141   # 128 + SIGPIPE
EXIT_TERMINATED = 143    # 128 + SIGTERM


class _Terminated(BaseException):
    """Raised by main's SIGTERM handler, so that a terminated command
    leaves through the same cleanup as an interrupted one."""


def _terminate(signum, frame):
    raise _Terminated


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_CONFIG):
        super().__init__(message)
        self.code = code


def _bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(raw)


def _gateway(raw: str):
    if raw == "corner":
        return raw
    try:
        return int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'corner' or a node index, got {raw!r}") from None


class _Option(NamedTuple):
    key: str            # the flag without its dashes, and the config-file key
    parse: Callable     # flag or config-file string -> value
    default: object     # None: not set (init-max: _default_init_max)
    metavar: Optional[str]
    help: str
    sweep_only: bool = False


# One row per option, in --dump-config order. Every behavior-affecting flag
# has a row, so a dumped file round-trips to the same effective configuration.
_OPTIONS = (
    _Option("topology", str, "grid:4x4", "SPEC",
            "grid:RxC | line:N | ring:N | random:N:P | file:PATH"),
    _Option("gateway", _gateway, "corner", "WHERE", "node index, or 'corner'"),
    _Option("delta-t", float, SimConfig.delta_t, "SEC", "round period in seconds"),
    _Option("rounds", int, SimConfig.n_max, "N", "rounds to simulate"),
    _Option("p", float, SimConfig.p, "PROB", "per-edge availability probability"),
    _Option("seed", int, SimConfig.seed, "U64", "master seed"),
    _Option("init-min", float, SimConfig.init_min, "SEC", "initial clock lower bound"),
    _Option("init-max", float, SimConfig.init_max, "SEC",
            "initial clock upper bound (default 100*delta-t)"),
    _Option("cf", float, DetectorConfig.c_f, "REAL", "detector comparison factor"),
    _Option("k-guard", int, DetectorConfig.k_guard, "INT",
            "rounds before detections may fire"),
    _Option("halt-on-detect", _bool, SimConfig.halt_on_detect, None,
            "detected nodes stop exchanging and freeze"),
    _Option("require-connected", _bool, False, None,
            "refuse topologies without a gateway spanning path"),
    _Option("out", str, ".", "DIR", "output directory for CSV files"),
    _Option("sizes", str, None, "LIST",
            "comma list of grid sizes, e.g. 2x2,3x3,4x4", sweep_only=True),
    _Option("seeds", int, 5, "N", "seeds per size", sweep_only=True),
)


def _read_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as err:
        raise CliError(f"cannot read config file: {err}")
    parsers = {opt.key: opt.parse for opt in _OPTIONS}
    values = {}
    for lineno, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if not sep or key not in parsers:
            raise CliError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = parsers[key](raw)
        except (ValueError, argparse.ArgumentTypeError):
            raise CliError(f"bad value for {key!r}: {raw!r}")
    return values


def _resolve(args) -> dict:
    """Layer defaults, config file, and explicit flags into one dict."""
    cfg = {opt.key: opt.default for opt in _OPTIONS}
    if args.config:
        cfg.update(_read_config_file(args.config))
    for opt in _OPTIONS:  # a flag not given, or not taken here, is None
        if (value := getattr(args, opt.key, None)) is not None:
            cfg[opt.key] = value
    if cfg["init-max"] is None:
        cfg["init-max"] = _default_init_max(cfg["delta-t"])
    return cfg


def _dump(cfg: dict) -> None:
    for opt in _OPTIONS:
        value = cfg[opt.key]
        if opt.parse is _bool:
            value = "true" if value else "false"
        if value is not None:
            print(f"{opt.key}={value}")


def _build_topology(cfg: dict):
    try:
        return generate_topology(cfg["topology"], gateway=cfg["gateway"],
                                 seed=cfg["seed"])
    except (ValueError, OSError) as err:
        raise CliError(f"bad topology {cfg['topology']!r}: {err}")


def _refuse_disconnected() -> int:
    print("topology has no spanning path from the gateway", file=sys.stderr)
    return EXIT_DISCONNECTED


def _flag_spelled(message: str, cfg: dict) -> str:
    """``message``, a library check's on SimConfig or DetectorConfig fields
    or on scaling_sweep's seeds, with each named by its flag in _OPTIONS:
    n_max as --rounds, c_f as --cf, any other with '-' for '_'. A name
    right after a number counts things, as in "4294967296 seeds of the 2x2
    grid", and stays a word. An init-max of 100 * delta-t, as by default,
    is named with --delta-t too."""
    fields = {"seeds"} | {f.name for cls in (SimConfig, DetectorConfig)
                          for f in dataclasses.fields(cls)}
    flags = {}
    for opt in _OPTIONS:
        name = {"rounds": "n_max", "cf": "c_f"}.get(
            opt.key, opt.key.replace("-", "_"))
        if name in fields:
            flags[name] = f"--{opt.key}"
    if cfg["init-max"] == _default_init_max(cfg["delta-t"]):
        flags["init_max"] += " (100 * --delta-t)"
    return re.sub(r"(?<!\d )\b\w+", lambda m: flags.get(m[0], m[0]),
                  message)


def _sim_config(cfg: dict, topo) -> SimConfig:
    try:
        det = DetectorConfig(c_f=cfg["cf"], k_guard=cfg["k-guard"])
        return SimConfig(topology=topo, delta_t=cfg["delta-t"],
                         n_max=cfg["rounds"], p=cfg["p"], seed=cfg["seed"],
                         init_min=cfg["init-min"], init_max=cfg["init-max"],
                         detector=det, halt_on_detect=cfg["halt-on-detect"])
    except (ConfigInvalid, ValueError) as err:
        raise CliError(_flag_spelled(str(err), cfg))


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
        return _refuse_disconnected()
    sim = _sim_config(cfg, topo)
    if not connected:
        print("warning: topology is not connected; some nodes never hear "
              "the gateway", file=sys.stderr)
    out = [os.path.join(cfg["out"], f) for f in ("trace.csv", "summary.csv")]
    with _writing(cfg["out"]), _replacing_all(out) as (trace_csv, summary_csv):
        trace = run(sim)
        summaries = summarize(trace)
        write_summary_csv(summaries, summary_csv)
        write_trace_csv(trace, trace_csv)
    _print_summary(summaries)
    return EXIT_OK


def _cmd_steady_state(cfg: dict) -> int:
    if cfg["p"] != 1.0:
        raise CliError("steady-state solves the p = 1 system; "
                       f"--p {cfg['p']} is not supported")
    topo = _build_topology(cfg)
    # the solve finds a disconnected network itself: search only to refuse
    if cfg["require-connected"] and not has_spanning_path(topo):
        return _refuse_disconnected()
    try:
        result = steady_state_error(topo, cfg["delta-t"])
    except NotConvergent as err:
        print(f"steady state not solvable: {err}", file=sys.stderr)
        return EXIT_NOT_CONVERGENT
    except ValueError as err:
        raise CliError(_flag_spelled(str(err), cfg))
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
    for opt in _OPTIONS:  # the sweep builds its own grids
        if opt.key in ("topology", "gateway") and cfg[opt.key] != opt.default:
            raise CliError(f"sweep runs corner-gateway grids of --sizes; "
                           f"--{opt.key} {cfg[opt.key]} is not supported")
    sizes = _parse_sizes(cfg["sizes"])
    rows, cols = sizes[0]
    try:  # ConfigInvalid, or a grid too large to index
        template = _sim_config(cfg, generate_topology(f"grid:{rows}x{cols}"))
        result = scaling_sweep(sizes, template, seeds=cfg["seeds"])
    except ValueError as err:
        raise CliError(_flag_spelled(str(err), cfg))
    except OSError as err:  # a forked worker failed (see scaling_sweep)
        raise CliError(f"sweep failed: {err}")
    with _writing(cfg["out"]):
        write_sweep_csv(result, os.path.join(cfg["out"], "sweep.csv"))
    if result.slope is None:
        print("fit: undefined (need at least two distinct node counts)")
    else:
        r2 = "undefined" if result.r_squared is None else f"{result.r_squared:.4f}"
        print(f"fit: instant = {result.slope:.4f} * nodes + "
              f"{result.intercept:.4f}   r_squared = {r2}")
    return EXIT_OK


def _add_options(parser: argparse.ArgumentParser, sweep_only: bool) -> None:
    for opt in _OPTIONS:
        if opt.sweep_only != sweep_only:
            continue
        if opt.parse is _bool:
            kind = dict(action="store_const", const=True)
        else:
            kind = dict(type=opt.parse, metavar=opt.metavar)
        default = ("" if opt.default is None or opt.parse is _bool
                   else f" (default {opt.default})")
        parser.add_argument(f"--{opt.key}", dest=opt.key,
                            help=opt.help + default, **kind)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopsync",
        description="Round-based consensus clock synchronization simulator.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, help_ in [
            ("simulate", "run one network and write trace/summary CSVs"),
            ("sweep", "scaling sweep over square grids"),
            ("steady-state", "print the analytic per-node steady-state error")]:
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", metavar="PATH",
                       help="flat key=value config file; flags override it")
        _add_options(p, sweep_only=False)
        p.add_argument("--dump-config", action="store_true",
                       help="print the resolved configuration and exit")
        if name == "sweep":
            _add_options(p, sweep_only=True)
    return parser


def _attach_values(argv: Sequence[str]) -> List[str]:
    """``argv`` with each argument that starts with a single ``-`` and
    follows an option that takes a value attached to it, ``--key value`` as
    ``--key=value``: argparse then hands it to that option's own parser
    (``-1e-3``, ``-inf``, ``--out -results``) instead of reading it as a
    flag. An argument that starts with ``--`` stays a flag."""
    takes_value = {"--config"} | {f"--{opt.key}" for opt in _OPTIONS
                                  if opt.parse is not _bool}
    out: List[str] = []
    for arg in argv:
        if (out and out[-1] in takes_value and arg.startswith("-")
                and not arg.startswith("--")):
            out[-1] += f"={arg}"
        else:
            out.append(arg)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_values(
        sys.argv[1:] if argv is None else argv))
    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        cfg = _resolve(args)
        if args.dump_config:
            _dump(cfg)
            code = EXIT_OK
        elif args.subcommand == "simulate":
            code = _cmd_simulate(cfg)
        elif args.subcommand == "steady-state":
            code = _cmd_steady_state(cfg)
        else:
            code = _cmd_sweep(cfg)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.code
    except MemoryError as err:
        print(f"error: out of memory: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull, so that the flush at
        # interpreter exit has nowhere to fail (the Python docs' note on
        # SIGPIPE), and say nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_PIPE
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except _Terminated:
        print("error: terminated", file=sys.stderr)
        return EXIT_TERMINATED
    finally:
        signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())

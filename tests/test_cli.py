import argparse
import csv
import math
import os
import resource
import shutil
import signal
import subprocess
import sys
import time

import pytest

import hopsync
from hopsync import cli
from hopsync.cli import build_parser, main
from hopsync.model import Topology, has_spanning_path, save_topology


def run_cli(*argv):
    return main(list(argv))


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def test_simulate_smoke(tmp_path, capsys):
    code = run_cli("simulate", "--topology", "grid:4x4", "--p", "1.0",
                   "--seed", "7", "--out", str(tmp_path))
    assert code == 0
    assert (tmp_path / "trace.csv").exists()
    assert (tmp_path / "summary.csv").exists()
    out = capsys.readouterr().out
    assert "min_err_instant" in out and out.count("\n") >= 16


def test_simulate_single_node_line(tmp_path):
    code = run_cli("simulate", "--topology", "line:1", "--out", str(tmp_path))
    assert code == 0
    rows = read_csv(tmp_path / "summary.csv")
    assert len(rows) == 2  # header + the single node
    assert float(rows[1][4]) == pytest.approx(0.001, rel=1e-9)  # ss = delta_t


def test_simulate_dip_values_below_half_period(tmp_path):
    code = run_cli("simulate", "--topology", "grid:4x4", "--delta-t", "0.001",
                   "--seed", "6", "--init-min", "0.43", "--init-max", "0.53",
                   "--out", str(tmp_path))
    assert code == 0
    for row in read_csv(tmp_path / "summary.csv")[1:]:
        assert float(row[2]) < 0.0005


def test_steady_state_line3(capsys):
    assert run_cli("steady-state", "--topology", "line:3", "--delta-t", "1") == 0
    assert capsys.readouterr().out.strip() == "3, 4"


def test_steady_state_delta_t_halving_exact(capsys):
    run_cli("steady-state", "--topology", "grid:4x4", "--delta-t", "0.002")
    full = [float(v) for v in capsys.readouterr().out.strip().split(", ")]
    run_cli("steady-state", "--topology", "grid:4x4", "--delta-t", "0.001")
    half = [float(v) for v in capsys.readouterr().out.strip().split(", ")]
    assert full == [2.0 * v for v in half]


def test_steady_state_disconnected_exit4(tmp_path, capsys):
    topo = Topology(node_count=3, edges=((0, 3), (1, 2)))
    path = tmp_path / "split.topo"
    save_topology(topo, path)
    code = run_cli("steady-state", "--topology", f"file:{path}")
    assert code == 4
    assert "not solvable" in capsys.readouterr().err


@pytest.mark.parametrize("split", [False, True])
@pytest.mark.parametrize("how", ["flag", "config"])
def test_steady_state_require_connected_exit3(tmp_path, capsys, how, split):
    # the flag or its config key refuses a disconnected network with simulate's
    # message before the solve; a connected one still solves
    edges = ((0, 3), (1, 2)) if split else ((0, 3), (0, 1), (1, 2))
    path = tmp_path / "t.topo"
    save_topology(Topology(node_count=3, edges=edges), path)
    config = tmp_path / "c.cfg"
    config.write_text("require-connected=true\n")
    extra = (["--require-connected"] if how == "flag"
             else ["--config", str(config)])
    code = run_cli("steady-state", "--topology", f"file:{path}",
                   "--delta-t", "1", *extra)
    captured = capsys.readouterr()
    if split:
        assert code == 3 and captured.out == ""
        assert captured.err == ("topology has no spanning path from the "
                                "gateway\n")
    else:
        assert code == 0
        values = [float(v) for v in captured.out.split(", ")]
        assert values == pytest.approx([5.0, 8.0, 9.0])


def _limit_address_space():
    limit = 3 * 10**9
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def _cli_env() -> dict:
    """The environment of a fresh interpreter that imports this hopsync."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(hopsync.__file__)))
    return {**os.environ, "OPENBLAS_NUM_THREADS": "1",
            "PYTHONPATH": os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _cli_process(*argv, code=None, **kwargs):
    """Run ``python -m hopsync.cli *argv``, or ``python -c code``, in a fresh
    interpreter."""
    command = ["-m", "hopsync.cli", *argv] if code is None else ["-c", code]
    return subprocess.run([sys.executable, *command], capture_output=True,
                          text=True, env=_cli_env(), **kwargs)


@pytest.mark.parametrize("topology, read", [("grid:100x100", 10),
                                            ("line:3", 0)])
def test_closed_stdout_exits_141_quietly(topology, read):
    # a reader that stops early, as `| head -c 10` does, closes the pipe
    # while the command still prints (197 kB for grid:100x100, past the
    # pipe's buffer), or before it prints a byte, so that only the last
    # flush fails: nothing on stderr, and the shell's status for SIGPIPE.
    # stdout is block-buffered, as on a pipe by default, whatever the
    # environment running the tests asks for.
    env = _cli_env()
    env.pop("PYTHONUNBUFFERED", None)
    with subprocess.Popen(
            [sys.executable, "-m", "hopsync.cli", "steady-state",
             "--topology", topology], stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, env=env) as proc:
        if read:
            assert len(os.read(proc.stdout.fileno(), read)) > 0
        proc.stdout.close()
        err = proc.stderr.read()
    assert proc.returncode == 141
    assert err == b""


# a simulate whose trace.csv writer, in one process, stops before its
# second block, first creating the file named by its first argument
_STALLED_WRITE = """
import sys, time
from hopsync import cli, harness
block = harness._trace_block
def stall(times, errors, filter_outputs, targets, nodes, r0, work):
    if r0 > 0:
        open(sys.argv[1], "w").close()
        time.sleep(60)
    return block(times, errors, filter_outputs, targets, nodes, r0, work)
harness._trace_block = stall
harness._workers = lambda blocks: 1
sys.exit(cli.main(sys.argv[2:]))
"""


def test_terminated_write_leaves_no_file(tmp_path):
    # SIGTERM in the middle of trace.csv deletes its new file, as Ctrl-C
    # does, and exits 128 + SIGTERM with one line
    out, stalled = tmp_path / "out", tmp_path / "stalled"
    with subprocess.Popen(
            [sys.executable, "-c", _STALLED_WRITE, str(stalled), "simulate",
             "--topology", "grid:4x4", "--rounds", "600", "--out", str(out)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=_cli_env()) as proc:
        try:
            for _ in range(1200):
                if stalled.exists() or proc.poll() is not None:
                    break
                time.sleep(0.05)
            assert stalled.exists()
            # trace.csv's new file, and summary.csv's, written before it
            names = os.listdir(out)
            assert names and all(p.endswith(".tmp") for p in names)
            proc.send_signal(signal.SIGTERM)
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
    assert proc.returncode == 143
    assert err == b"error: terminated\n"
    assert os.listdir(out) == []


def test_steady_state_large_grid_bounded_memory():
    # a dense (I - a) for 39,999 nodes would need 11.9 GiB; the sparse solve
    # fits in 3 GB of address space
    proc = _cli_process("steady-state", "--topology", "grid:200x200",
                        preexec_fn=_limit_address_space, timeout=300)
    assert proc.returncode == 0, proc.stderr
    values = [float(v) for v in proc.stdout.strip().split(", ")]
    assert len(values) == 39_999
    assert all(math.isfinite(v) and v > 0 for v in values)


@pytest.mark.parametrize("argv", [
    ("simulate", "--topology", "grid:4x4", "--rounds", "100000000"),
    ("simulate", "--topology", "file:huge.topo"),
    ("steady-state", "--topology", "file:huge.topo"),
])
def test_out_of_memory_exit2(tmp_path, argv):
    # an allocation past the address space is an error line, not a traceback
    (tmp_path / "huge.topo").write_text("N 100000000000\nG gw\nE 0 gw\n")
    proc = _cli_process(*argv, "--out", str(tmp_path / "out"), cwd=tmp_path,
                        preexec_fn=_limit_address_space, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: out of memory: ")
    assert "Traceback" not in proc.stderr


def test_steady_state_does_not_import_scipy():
    # the solve is NumPy only; importing scipy would cost more than the
    # solve of most networks
    code = ("import sys; from hopsync.cli import main; "
            "code = main(['steady-state', '--topology', 'grid:4x4']); "
            "print(code, 'scipy' in sys.modules)")
    proc = _cli_process(code=code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_cli_import_leaves_numpy_random_unloaded():
    # the mask stream imports numpy.random on first use, so a command that
    # draws no mask does not pay for it (NumPy 1.x imports it with numpy)
    code = ("import sys, numpy; eager = 'numpy.random' in sys.modules; "
            "import hopsync.cli; print(eager, 'numpy.random' in sys.modules)")
    proc = _cli_process(code=code)
    assert proc.returncode == 0, proc.stderr
    eager, loaded = proc.stdout.split()
    assert loaded == eager


def test_trace_writer_leaves_numpy_ma_unloaded(tmp_path):
    # np.unique without return_inverse asks numpy.ma whether its input is
    # masked on some NumPy versions, and importing numpy.ma costs peak RSS;
    # nothing that writes trace.csv should load it
    code = ("import sys; from hopsync.cli import main; "
            "code = main(['simulate', '--topology', 'grid:3x3', '--rounds', "
            f"'60', '--out', {str(tmp_path)!r}]); "
            "print(code, 'numpy.ma' in sys.modules)")
    proc = _cli_process(code=code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"
    assert (tmp_path / "trace.csv").stat().st_size > 0


def test_require_connected_exit3(tmp_path, capsys):
    topo = Topology(node_count=3, edges=((0, 3), (1, 2)))
    path = tmp_path / "split.topo"
    save_topology(topo, path)
    code = run_cli("simulate", "--topology", f"file:{path}",
                   "--require-connected", "--out", str(tmp_path))
    assert code == 3


def test_disconnected_without_flag_warns_but_runs(tmp_path, capsys):
    topo = Topology(node_count=3, edges=((0, 3), (1, 2)))
    path = tmp_path / "split.topo"
    save_topology(topo, path)
    code = run_cli("simulate", "--topology", f"file:{path}",
                   "--out", str(tmp_path))
    assert code == 0
    assert "warning" in capsys.readouterr().err


@pytest.mark.parametrize("require", [False, True])
@pytest.mark.parametrize("split", [False, True])
def test_simulate_searches_reachability_once(tmp_path, monkeypatch, capsys,
                                             require, split):
    # one search before the run both refuses a disconnected network under
    # --require-connected and warns about one without it; the run searches
    # nothing
    import hopsync.cli as cli
    calls = []

    def counted(topo):
        calls.append(topo)
        return has_spanning_path(topo)

    monkeypatch.setattr(cli, "has_spanning_path", counted)
    edges = ((0, 3), (1, 2)) if split else ((0, 3), (0, 1), (1, 2))
    path = tmp_path / "t.topo"
    save_topology(Topology(node_count=3, edges=edges), path)
    flags = ["--require-connected"] if require else []
    code = run_cli("simulate", "--topology", f"file:{path}",
                   "--out", str(tmp_path), *flags)
    err = capsys.readouterr().err
    assert code == (3 if require and split else 0)
    assert len(calls) == 1
    assert ("warning" in err) == (split and not require)
    assert ("no spanning path" in err) == (split and require)


def test_bad_topology_exit2(capsys):
    assert run_cli("steady-state", "--topology", "blob:9") == 2
    assert run_cli("simulate", "--topology", "grid:4") == 2


@pytest.mark.parametrize("record", ["E 0", "N", "G"])
@pytest.mark.parametrize("command", ["simulate", "steady-state"])
def test_truncated_topology_record_exit2(tmp_path, capsys, command, record):
    body = {"E 0": "N 2\nG gw\nE 0 1\nE 0\n", "N": "N\nG gw\nE 0 1\n",
            "G": "N 2\nG\nE 0 1\n"}[record]
    path = tmp_path / "t.topo"
    path.write_text(body)
    line = body.splitlines().index(record) + 1
    assert run_cli(command, "--topology", f"file:{path}",
                   "--out", str(tmp_path)) == 2
    captured = capsys.readouterr()
    assert f"{path}:{line}:" in captured.err and captured.out == ""
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize("argv, output", [
    (("simulate", "--topology", "grid:2x2", "--rounds", "50"), "trace.csv"),
    (("sweep", "--sizes", "2x2,3x3", "--rounds", "50"), "sweep.csv"),
])
def test_out_naming_a_file_exit2(tmp_path, argv, output):
    # --out must be a directory; an existing file there is a usage error
    target = tmp_path / "taken"
    target.write_text("keep\n")
    proc = _cli_process(*argv, "--out", str(target), timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot write output")
    assert "Traceback" not in proc.stderr
    assert target.read_text() == "keep\n"
    assert not (tmp_path / output).exists()


# grid:2x2 has N = 3 ordinary nodes, so SimConfig accepts a bound of
# max(|init_min|, |init_max|, delta_t * n_max) up to DBL_MAX / (N + 8): at
# 400 rounds that is delta_t <= 4.0857e304.
@pytest.mark.parametrize("argv", [
    ("simulate", "--topology", "grid:2x2", "--delta-t", "1e306"),
    ("simulate", "--topology", "grid:2x2", "--delta-t", "4.09e304"),
    ("simulate", "--topology", "grid:2x2", "--init-min=-1.7e307"),
    ("sweep", "--sizes", "2x2,3x3", "--delta-t", "4.08e304"),
])
def test_overflowing_config_exit2(tmp_path, capsys, argv):
    assert run_cli(*argv, "--rounds", "400", "--out", str(tmp_path)) == 2
    captured = capsys.readouterr()
    assert "overflow" in captured.err and captured.out == ""
    assert os.listdir(tmp_path) == []


def test_config_just_inside_overflow_bound_is_finite(tmp_path):
    assert run_cli("simulate", "--topology", "grid:2x2", "--delta-t",
                   "4.08e304", "--rounds", "400", "--out", str(tmp_path)) == 0
    for row in read_csv(tmp_path / "summary.csv")[1:]:
        assert all(math.isfinite(float(v)) for v in (row[2], row[4]))
    cells = [r[2:5] for r in read_csv(tmp_path / "trace.csv")[1:]]
    assert all(math.isfinite(float(v)) for row in cells for v in row if v)
    assert sum(1 for row in cells if row[2]) == 3 * (401 - 6)


def test_bad_config_values_exit2(capsys):
    assert run_cli("simulate", "--topology", "grid:3x3", "--p", "1.5") == 2
    assert run_cli("simulate", "--rounds", "10") == 2  # below guard window


@pytest.mark.parametrize("argv", [
    ("--delta-t", "nan", "--init-max", "1"),
    ("--delta-t", "nan"),
    ("--delta-t", "inf"),
    ("--init-min", "nan"),
])
def test_simulate_non_finite_exit2(tmp_path, capsys, argv):
    code = run_cli("simulate", "--topology", "grid:3x3", *argv,
                   "--out", str(tmp_path))
    assert code == 2
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "trace.csv").exists()


def test_steady_state_non_finite_exit2(capsys):
    # the same delta_t rule as simulate: positive and finite
    for delta_t in ("nan", "0", "-1"):
        assert run_cli("steady-state", "--topology", "line:3",
                       "--delta-t", delta_t) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "finite" in captured.err


def test_steady_state_lossy_p_exit2(tmp_path, capsys):
    # the solve is the p = 1 system; a lossy p, from a flag or a config
    # file, is refused rather than silently answered for p = 1
    config = tmp_path / "lossy.cfg"
    config.write_text("p=0.3\n")
    for argv in (["--p", "0.3"], ["--config", str(config)]):
        assert run_cli("steady-state", "--topology", "line:3",
                       "--delta-t", "1", *argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: steady-state solves the p = 1 "
                                "system; --p 0.3 is not supported\n")
    assert run_cli("steady-state", "--topology", "line:3", "--delta-t", "1",
                   "--p", "1") == 0
    assert capsys.readouterr().out.strip() == "3, 4"


def test_steady_state_no_ordinary_node_exit2(capsys):
    # grid:1x1 is the gateway alone; simulate and sweep reject it too
    assert run_cli("steady-state", "--topology", "grid:1x1") == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "no ordinary node" in captured.err


def test_sweep_smoke(tmp_path, capsys):
    code = run_cli("sweep", "--sizes", "2x2,3x3,4x4", "--rounds", "300",
                   "--out", str(tmp_path))
    assert code == 0
    rows = read_csv(tmp_path / "sweep.csv")
    assert len(rows) == 4
    assert [r[0] for r in rows[1:]] == ["4", "9", "16"]
    assert "r_squared" in capsys.readouterr().out


def test_sweep_empty_and_malformed_sizes(capsys):
    assert run_cli("sweep", "--sizes", "") == 2
    assert run_cli("sweep", "--sizes", "2x2,9") == 2
    assert run_cli("sweep") == 2  # sizes required
    # sizes past the first and the seed count are checked too
    assert run_cli("sweep", "--sizes", "2x2", "--seeds", "0") == 2
    assert run_cli("sweep", "--sizes", "2x2", "--seeds", "-1") == 2
    assert run_cli("sweep", "--sizes", "2x2,0x3") == 2
    assert run_cli("sweep", "--sizes", "2x2,1x1") == 2
    assert run_cli("sweep", "--sizes=2x2,-1x-3") == 2


def test_sweep_refuses_topology_and_gateway(tmp_path, capsys):
    # the sweep builds corner-gateway grids of --sizes; a --topology or
    # --gateway other than the default, from a flag or a config file, is
    # refused rather than silently ignored
    config = tmp_path / "ring.cfg"
    config.write_text("topology=ring:5\ngateway=0\n")
    for argv, shown in ((["--topology", "ring:5"], "--topology ring:5"),
                        (["--gateway", "0"], "--gateway 0"),
                        (["--config", str(config)], "--topology ring:5")):
        assert run_cli("sweep", "--sizes", "2x2,3x3", *argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: sweep runs corner-gateway grids of "
                                f"--sizes; {shown} is not supported\n")
    assert run_cli("sweep", "--sizes", "2x2,3x3", "--config", str(config),
                   "--dump-config") == 0
    assert "topology=ring:5\ngateway=0\n" in capsys.readouterr().out
    assert run_cli("sweep", "--sizes", "2x2,3x3", "--topology", "grid:4x4",
                   "--gateway", "corner", "--rounds", "100",
                   "--out", str(tmp_path)) == 0


def test_dump_config_round_trip(tmp_path, capsys):
    assert run_cli("simulate", "--seed", "9", "--delta-t", "0.002",
                   "--dump-config") == 0
    first = capsys.readouterr().out
    assert "seed=9" in first and "init-max=0.2" in first
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(first)
    assert run_cli("simulate", "--config", str(cfg_file), "--dump-config") == 0
    assert capsys.readouterr().out == first


def test_flags_override_config_file(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("seed=5\np=0.5\n# comment line\n")
    assert run_cli("simulate", "--config", str(cfg_file), "--seed", "8",
                   "--dump-config") == 0
    out = capsys.readouterr().out
    assert "seed=8" in out and "p=0.5" in out


def test_unknown_config_key_exit2(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("velocity=9\n")
    assert run_cli("simulate", "--config", str(cfg_file)) == 2


def test_config_file_not_utf8_exit2(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_bytes(b"seed=\xff\n")
    assert run_cli("simulate", "--config", str(cfg_file)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot read config file: ")
    assert "Traceback" not in captured.err and captured.out == ""


_COMMON_FLAGS = ["-h", "--help", "--config", "--topology", "--gateway",
                 "--delta-t", "--rounds", "--p", "--seed", "--init-min",
                 "--init-max", "--cf", "--k-guard", "--halt-on-detect",
                 "--require-connected", "--out", "--dump-config"]


def test_cli_flags_pinned():
    # every subcommand takes the common flags (perfbench appends --seed and
    # --out to steady-state too); only sweep adds --sizes and --seeds
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    flags = {name: [s for a in p._actions for s in a.option_strings]
             for name, p in sub.choices.items()}
    assert flags == {"simulate": _COMMON_FLAGS,
                     "sweep": _COMMON_FLAGS + ["--sizes", "--seeds"],
                     "steady-state": _COMMON_FLAGS}


_DEFAULT_DUMP = """topology=grid:4x4
gateway=corner
delta-t=0.001
rounds=500
p=1.0
seed=0
init-min=0.0
init-max=0.1
cf=1.002
k-guard=11
halt-on-detect=false
require-connected=false
out=.
seeds=5
"""

# a file that sets every key; the flags below override all but the
# sweep-only keys, and turn on the two switches the file turns off
_FILE_CONFIG = """topology=line:5
gateway=1
delta-t=0.5
rounds=40
p=0.25
seed=3
init-min=1
init-max=2.0
cf=1.5
k-guard=7
halt-on-detect=no
require-connected=OFF
out=from-file
sizes=4x4
seeds=2
"""

_FLAGS = ["--topology", "ring:7", "--gateway", "2", "--delta-t", "0.25",
          "--rounds", "77", "--p", "0.5", "--seed", "12", "--init-min=-1.5",
          "--init-max", "3", "--cf", "1.01", "--k-guard", "9",
          "--halt-on-detect", "--require-connected", "--out", "results"]

_FLAGS_DUMP = """topology=ring:7
gateway=2
delta-t=0.25
rounds=77
p=0.5
seed=12
init-min=-1.5
init-max=3.0
cf=1.01
k-guard=9
halt-on-detect=true
require-connected=true
out=results
"""


@pytest.mark.parametrize("command", ["simulate", "sweep", "steady-state"])
def test_dump_config_every_option_round_trips(tmp_path, capsys, command):
    assert run_cli(command, "--dump-config") == 0
    assert capsys.readouterr().out == _DEFAULT_DUMP
    base = tmp_path / "base.cfg"
    base.write_text(_FILE_CONFIG)
    flags, tail = _FLAGS, "sizes=4x4\nseeds=2\n"
    if command == "sweep":
        flags, tail = _FLAGS + ["--sizes", "2x2,3x3", "--seeds", "3"], \
            "sizes=2x2,3x3\nseeds=3\n"
    assert run_cli(command, "--config", str(base), *flags,
                   "--dump-config") == 0
    first = capsys.readouterr().out
    assert first == _FLAGS_DUMP + tail
    again = tmp_path / "again.cfg"
    again.write_text(first)
    assert run_cli(command, "--config", str(again), "--dump-config") == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("value", ["-1e-3", "-1E-3", "-1e+300", "-inf",
                                   "-0.5", "-2"])
def test_negative_numbers_pass_as_flags(capsys, value):
    # argparse reads "-1e-3" and "-inf" as flags unless attached; every line
    # --dump-config prints, given back as a flag, dumps the same
    assert run_cli("sweep", "--init-min", value, "--init-max", value,
                   "--dump-config") == 0
    dumped = capsys.readouterr().out
    assert f"init-min={float(value)}\ninit-max={float(value)}\n" in dumped
    flags = []
    for line in dumped.splitlines():
        key, raw = line.split("=", 1)
        if raw not in ("true", "false"):
            flags += [f"--{key}", raw]
    assert run_cli("sweep", *flags, "--dump-config") == 0
    assert capsys.readouterr().out == dumped


def test_out_starting_with_a_dash(tmp_path, monkeypatch, capsys):
    # a value starting with a single dash is taken for a string option's
    # value, not for a flag
    monkeypatch.chdir(tmp_path)
    assert run_cli("simulate", "--topology", "grid:2x2", "--rounds", "40",
                   "--out", "-results") == 0
    assert sorted(os.listdir(tmp_path / "-results")) == ["summary.csv",
                                                         "trace.csv"]
    capsys.readouterr()
    assert run_cli("simulate", "--out", "-results", "--dump-config") == 0
    assert "\nout=-results\n" in capsys.readouterr().out


# every option that takes a value; and arguments that start with a single
# dash, which that option's parser takes or refuses, and others
_VALUE_FLAGS = ["--config"] + [f"--{opt.key}" for opt in cli._OPTIONS
                               if opt.parse is not cli._bool]
_TOKENS = ["-1", "-0", "-1e-3", "-inf", "-nan", "-.5", "-0x1p-3", "-1_0",
           "-x", "-results", "-", "-h", "5", "corner", "grid:2x2"]


def _exit_and_output(capsys, *argv):
    try:
        code = run_cli(*argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr()


@pytest.mark.parametrize("flag", _VALUE_FLAGS)
def test_value_apart_or_attached_alike(tmp_path, monkeypatch, capsys, flag):
    # an argument after an option that takes a value is its value, whether
    # or not it starts with a single dash: "--key tok" does what
    # "--key=tok" does, and that option's parser takes or refuses it
    monkeypatch.chdir(tmp_path)
    for tok in _TOKENS:
        apart = _exit_and_output(capsys, "sweep", flag, tok, "--dump-config")
        attached = _exit_and_output(capsys, "sweep", f"{flag}={tok}",
                                    "--dump-config")
        assert apart == attached, tok


@pytest.mark.parametrize("flag, message", [
    ("--gateway", "expected 'corner' or a node index, got '-x'"),
    ("--delta-t", "invalid float value: '-x'"),
    ("--rounds", "invalid int value: '-x'"),
])
def test_single_dash_value_refused_by_its_parser(capsys, flag, message):
    code, captured = _exit_and_output(capsys, "simulate", flag, "-x")
    assert code == 2
    assert f"argument {flag}: {message}" in captured.err


@pytest.mark.parametrize("flag", ["--dump-config", "--dump"])
def test_string_option_followed_by_a_flag_still_exits2(capsys, flag):
    # "--dump" is argparse's abbreviation of --dump-config
    with pytest.raises(SystemExit) as exc:
        run_cli("simulate", "--out", flag)
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("exc, code, err", [
    (OSError("disk full"), 2, "error: cannot write output"),
    (KeyboardInterrupt(), 130, "error: interrupted\n"),
])
def test_failed_summary_leaves_both_earlier_files(tmp_path, monkeypatch,
                                                  capsys, exc, code, err):
    # trace.csv is complete when summary.csv fails: neither replaces the
    # earlier run's file, and no new file is left
    (tmp_path / "trace.csv").write_bytes(b"earlier trace\r\n")
    (tmp_path / "summary.csv").write_bytes(b"earlier summary\r\n")

    def fail(summaries, path):
        raise exc
    monkeypatch.setattr(cli, "write_summary_csv", fail)
    assert run_cli("simulate", "--topology", "grid:2x2", "--rounds", "40",
                   "--out", str(tmp_path)) == code
    assert capsys.readouterr().err.startswith(err)
    assert sorted(os.listdir(tmp_path)) == ["summary.csv", "trace.csv"]
    assert (tmp_path / "trace.csv").read_bytes() == b"earlier trace\r\n"
    assert (tmp_path / "summary.csv").read_bytes() == b"earlier summary\r\n"


def test_negative_delta_t_flag_is_refused_by_config(capsys):
    assert run_cli("simulate", "--delta-t", "-1e-3") == 2
    assert capsys.readouterr().err == \
        "error: --delta-t must be positive and finite\n"


# a value the library refuses is named by its flag, not by the library
# field: a default init-max of 100 * delta-t names the --delta-t it came from
_FLAG_NAMED = [
    (["simulate", "--rounds", "10"],
     "--rounds must be at least --k-guard + 7"),
    (["simulate", "--k-guard", "-1"], "--k-guard must be a nonnegative integer"),
    (["simulate", "--cf", "2"], "--cf must lie in [0.95, 1.05]"),
    (["simulate", "--delta-t", "0"], "--delta-t must be positive and finite"),
    (["simulate", "--init-min", "5", "--init-max", "1"],
     "--init-min must not exceed --init-max"),
    (["simulate", "--init-max", "inf"],
     "--init-min and --init-max must be finite"),
    (["simulate", "--delta-t", "1e308"],
     "--init-min and --init-max (100 * --delta-t) must be finite"),
    (["sweep", "--sizes", "2x2", "--rounds", "10"],
     "--rounds must be at least --k-guard + 7"),
    (["sweep", "--sizes", "2x2", "--seeds", "0"], "--seeds must be at least 1"),
    (["steady-state", "--delta-t", "0"],
     "--delta-t must be positive and finite"),
]


@pytest.mark.parametrize("argv, message", _FLAG_NAMED,
                         ids=[" ".join(a) for a, _ in _FLAG_NAMED])
def test_refused_value_named_by_its_flag(tmp_path, capsys, argv, message):
    assert run_cli(*argv, "--out", str(tmp_path / "out")) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_number_option_without_a_value_still_exits2(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("simulate", "--rounds", "--dump-config")
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


def test_workers_removed_exit2(tmp_path, capsys):
    # the sweep's thread pool is gone: a workers= line is an unknown key,
    # --workers an unknown flag, and --dump-config no longer prints it
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("sizes=2x2,3x3\nworkers=4\n")
    assert run_cli("sweep", "--config", str(cfg_file)) == 2
    assert "unknown config key 'workers'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        run_cli("sweep", "--sizes", "2x2,3x3", "--workers", "4")
    assert exc.value.code == 2
    capsys.readouterr()
    assert run_cli("sweep", "--sizes", "2x2", "--dump-config") == 0
    assert "workers" not in capsys.readouterr().out


@pytest.mark.parametrize("sizes", ["2x2,2x2", "2x8,4x4"])
def test_sweep_fit_undefined_for_one_node_count(tmp_path, capsys, sizes):
    code = run_cli("sweep", "--sizes", sizes, "--rounds", "100", "--seeds",
                   "2", "--out", str(tmp_path))
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out == \
        "fit: undefined (need at least two distinct node counts)\n"
    assert captured.err == ""
    assert len(read_csv(tmp_path / "sweep.csv")) == 3


def test_topology_file_gateway_spellings(tmp_path, capsys):
    for body in ("N 2\nG gw\nE 0 gw\nE 0 1\n", "N 2\nG 2\nE 0 2\nE 0 1\n"):
        path = tmp_path / "t.topo"
        path.write_text(body)
        assert run_cli("steady-state", "--topology", f"file:{path}",
                       "--delta-t", "1") == 0
        assert capsys.readouterr().out.strip() == "3, 4"


# argv and exit code of bad or edge-case input that must be refused with
# one line on stderr and no traceback; {dir} is a directory, {topo} a
# connected topology file, {split} a disconnected one and {cfg} a config
# file. A huge random:N:P is refused before it draws, and is checked with
# its draw patched out (test_huge_random_refused_in_one_line).
_REFUSED = [
    (["simulate", "--topology", "grid:1x1"], 2),
    (["steady-state", "--topology", "grid:1x1"], 2),
    (["simulate", "--topology", "random:5:0.5", "--seed", "-1"], 2),
    (["simulate", "--gateway", "-1"], 2),
    (["simulate", "--init-min", "nan"], 2),
    (["simulate", "--topology", "line:0"], 2),
    (["simulate", "--topology", "ring:2"], 2),
    (["simulate", "--topology", "grid:-3x2"], 2),
    (["simulate", "--topology", "grid:3x"], 2),
    (["simulate", "--topology", "random:5"], 2),
    (["simulate", "--topology", "random:5:nan"], 2),
    (["simulate", "--topology", "file:"], 2),
    (["simulate", "--topology", "file:{dir}"], 2),
    (["sweep", "--sizes", "2x2", "--seeds", "0"], 2),
    (["simulate", "--config", "{cfg}"], 2),
    (["sweep", "--sizes", "99999999999x99999999999"], 2),
    (["sweep", "--sizes", "2x2,99999999999x99999999999"], 2),
    (["simulate", "--topology", "file:{topo}", "--gateway", "2"], 2),
    (["steady-state", "--topology", "file:{topo}", "--gateway", "2"], 2),
    (["simulate", "--topology", "file:{split}", "--require-connected"], 3),
    (["steady-state", "--delta-t", "1e308"], 4),
]


@pytest.mark.parametrize("argv, code", _REFUSED,
                         ids=[" ".join(a) for a, _ in _REFUSED])
def test_bad_input_refused_in_one_line(tmp_path, capsys, argv, code):
    paths = {"dir": tmp_path, "topo": tmp_path / "t.topo",
             "split": tmp_path / "split.topo", "cfg": tmp_path / "r.cfg"}
    save_topology(Topology(node_count=2, edges=((0, 2), (0, 1))),
                  paths["topo"])
    save_topology(Topology(node_count=3, edges=((0, 3), (1, 2))),
                  paths["split"])
    paths["cfg"].write_text("rounds=1e2\n")
    argv = [arg.format(**paths) for arg in argv]
    assert run_cli(*argv, "--out", str(tmp_path / "out")) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert "Traceback" not in captured.err
    if code == 2:
        assert captured.err.startswith("error: ")
    assert not (tmp_path / "out").exists()


def test_rounds_past_any_array_exit2(tmp_path, capsys):
    # more rounds than an array can index are out of memory, in one line:
    # no array of the run's clocks can be that large
    assert run_cli("simulate", "--rounds", "10000000000000000000",
                   "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: ") and err.count("\n") == 1
    assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize("command", ["simulate", "steady-state"])
def test_huge_random_refused_in_one_line(no_topology_allocation, tmp_path,
                                         capsys, command):
    # 2e18 pairs: refused by their count, before any is drawn; allocating
    # and drawing are patched out, so a regression fails here instead of
    # taking the memory
    assert run_cli(command, "--topology", "random:2000000000:0.5",
                   "--out", str(tmp_path / "out")) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad topology")
    assert captured.err.count("\n") == 1
    assert "links to build or draw" in captured.err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args, message", [
    (("--sizes", "2x2", "--seeds", "9999999999999"), "seeds of the 2x2 grid"),
    (("--sizes", "32x32,99999x99999", "--seeds", "8", "--rounds", "600",
      "--p", "0.5"), "links to build or draw"),
    # the count of seeds reads as prose, not as the --seeds flag
    (("--sizes", "2x2", "--seeds", "1073741825"),
     "error: 1073741825 seeds of the 2x2 grid draw 4294967300 links a "
     "round, more than the 4294967296 allowed"),
])
def test_oversized_sweep_refused_before_any_run(no_sweep_evolution, tmp_path,
                                                capsys, args, message):
    # refused in one line before any size evolves: drawing clocks, evolving
    # and forking are patched out, so a regression fails here instead of
    # running until killed
    assert run_cli("sweep", *args, "--out", str(tmp_path / "out")) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_halt_on_detect_freezes_clock(tmp_path):
    code = run_cli("simulate", "--topology", "grid:4x4", "--seed", "6",
                   "--init-min", "0.43", "--init-max", "0.53",
                   "--halt-on-detect", "--out", str(tmp_path))
    assert code == 0
    rows = read_csv(tmp_path / "trace.csv")[1:]
    by_node = {}
    for r in rows:
        if r[5] == "1":
            by_node[int(r[1])] = int(r[0])
    assert by_node, "no detections recorded"
    node, target = next(iter(by_node.items()))
    clocks = [float(r[2]) for r in rows
              if int(r[1]) == node and int(r[0]) >= target + 3]
    assert len(set(clocks)) == 1  # frozen from the decision round on


def test_reruns_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli("simulate", "--topology", "grid:4x4", "--seed", "3",
                       "--p", "0.5", "--out", str(out)) == 0
    assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
    assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()


@pytest.mark.skipif(shutil.which("hopsync") is None,
                    reason="console script not on PATH")
def test_console_script_entry(tmp_path):
    proc = subprocess.run(
        ["hopsync", "steady-state", "--topology", "line:3", "--delta-t", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "3, 4"

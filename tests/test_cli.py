import csv
import math
import os
import resource
import shutil
import subprocess
import sys

import pytest

import hopsync
from hopsync.cli import main
from hopsync.model import Topology, save_topology


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
    topo = Topology(node_count=3, gateway_id=3, edges=((0, 3), (1, 2)))
    path = tmp_path / "split.topo"
    save_topology(topo, path)
    code = run_cli("steady-state", "--topology", f"file:{path}")
    assert code == 4
    assert "not solvable" in capsys.readouterr().err


def _limit_address_space():
    limit = 3 * 10**9
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_steady_state_large_grid_bounded_memory():
    # a dense (I - a) for 39,999 nodes would need 11.9 GiB; the sparse solve
    # fits in 3 GB of address space
    src = os.path.dirname(os.path.dirname(os.path.abspath(hopsync.__file__)))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "hopsync.cli", "steady-state",
         "--topology", "grid:200x200"],
        capture_output=True, text=True, env=env,
        preexec_fn=_limit_address_space, timeout=300)
    assert proc.returncode == 0, proc.stderr
    values = [float(v) for v in proc.stdout.strip().split(", ")]
    assert len(values) == 39_999
    assert all(math.isfinite(v) and v > 0 for v in values)


def test_require_connected_exit3(tmp_path, capsys):
    topo = Topology(node_count=3, gateway_id=3, edges=((0, 3), (1, 2)))
    path = tmp_path / "split.topo"
    save_topology(topo, path)
    code = run_cli("simulate", "--topology", f"file:{path}",
                   "--require-connected", "--out", str(tmp_path))
    assert code == 3


def test_disconnected_without_flag_warns_but_runs(tmp_path, capsys):
    topo = Topology(node_count=3, gateway_id=3, edges=((0, 3), (1, 2)))
    path = tmp_path / "split.topo"
    save_topology(topo, path)
    code = run_cli("simulate", "--topology", f"file:{path}",
                   "--out", str(tmp_path))
    assert code == 0
    assert "warning" in capsys.readouterr().err


def test_bad_topology_exit2(capsys):
    assert run_cli("steady-state", "--topology", "blob:9") == 2
    assert run_cli("simulate", "--topology", "grid:4") == 2


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
    assert run_cli("steady-state", "--topology", "line:3",
                   "--delta-t", "nan") == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "finite" in captured.err


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

"""hopsync benchmark: CLI workloads timed end to end, plus a traced per-layer run.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Each workload is one ``hopsync`` command, run through the real CLI
(``python -m hopsync.cli`` with ``src`` on the path) as a closed loop of one
client: one fresh process at a time, timed from its start to its exit. The
first invocation pays ``.pyc`` compilation and is discarded. Every invocation's
outputs are checked: against the goldens in ``goldens.json`` at the default
seed, and on any seed for the expected line counts and for byte identity
with the run's first invocation.

With ``--trace 1`` each loop iteration also runs the command once under
``tracer.py``, which wraps the package's layer functions in spans, and the
per-layer metrics are reported instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A record of the run
(environment, every sample, the last traced run's spans) goes to
``.perfbench/`` in the checkout.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
GOLDENS = os.path.join(HERE, "goldens.json")

DEFAULT_SEED = 0
# One BLAS/OpenMP thread in every child: at or below nproc on any machine,
# and the closed loop never runs two children at once.
BLAS_THREADS = 1
CHILD_TIMEOUT_S = 60.0
# ACCEPTANCE 2's oracle tolerance, 1e-6 * delta_t at the CLI's default delta_t.
STEADY_TOLERANCE = 1e-6 * 0.001


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple         # CLI arguments; --seed and --out are appended
    topologies: tuple   # topology specs the setup probe builds
    node_rounds: int    # ordinary nodes x rounds per invocation (one solve for steady-state)
    outputs: tuple      # files written into --out
    lines: dict         # expected newline count of each output, stdout included


WORKLOADS = {w.name: w for w in (
    # ROADMAP's baseline case: trace.csv writing dominates the wall time.
    Workload("trace_30x30",
             ("simulate", "--topology", "grid:30x30", "--rounds", "400", "--p", "0.6"),
             ("grid:30x30",), 899 * 400, ("trace.csv", "summary.csv"),
             {"trace.csv": 401 * 899 + 1, "summary.csv": 900, "stdout": 900}),
    # No trace.csv; time splits between round evolution, mask sampling and
    # detection plus filtering.
    Workload("sweep_mixed",
             ("sweep", "--sizes", "2x2,4x4,8x8,16x16,32x32", "--seeds", "8",
              "--rounds", "600", "--p", "0.5"),
             tuple(f"grid:{k}x{k}" for k in (2, 4, 8, 16, 32)),
             (3 + 15 + 63 + 255 + 1023) * 8 * 600, ("sweep.csv",),
             {"sweep.csv": 6, "stdout": 1}),
    # 20,000 one-round kernel calls and the online detector; nodes halt early.
    Workload("halt_3x3",
             ("simulate", "--topology", "grid:3x3", "--rounds", "20000", "--p", "0.5",
              "--halt-on-detect"),
             ("grid:3x3",), 8 * 20000, ("trace.csv", "summary.csv"),
             {"trace.csv": 20001 * 8 + 1, "summary.csv": 9, "stdout": 9}),
    # The only user of the steady-state solve.
    Workload("steady_60x60",
             ("steady-state", "--topology", "grid:60x60"),
             ("grid:60x60",), 3599, (), {"stdout": 1}),
)}

SETUP_CODE = """\
import sys
import hopsync.cli
from hopsync.model import generate_topology
for spec in sys.argv[1:]:
    generate_topology(spec)
"""
ENV_CODE = """
import json, numpy, scipy, hopsync
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "scipy": scipy.__version__,
                  "blas": f"{blas.get('name')} {blas.get('version')}",
                  "hopsync_backend": getattr(hopsync, "BACKEND", None)}))
"""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = str(BLAS_THREADS)
    env.pop("HOPSYNC_BACKEND", None)
    return env


def read_outputs(wl, outdir, stdout):
    """Raw bytes of every output of one invocation, stdout included."""
    data = {"stdout": stdout}
    for name in wl.outputs:
        with open(os.path.join(outdir, name), "rb") as fh:
            data[name] = fh.read()
    return data


def check_outputs(wl, seed, data, reference, golden):
    """Digest the outputs and list every way they are wrong.

    ``reference`` is the digest of the run's first invocation (None for the
    first itself); ``golden`` is the workload's entry in goldens.json.
    Returns (digest, problems).
    """
    digest = {name: hashlib.sha256(blob).hexdigest() for name, blob in data.items()}
    problems = []
    for name, want in wl.lines.items():
        got = data[name].count(b"\n")
        if got != want:
            problems.append(f"{name}: {got} lines, expected {want}")
    if reference is not None and digest != reference:
        problems.append("outputs differ from the run's first invocation")
    if seed == DEFAULT_SEED:
        for name, want in golden.get("sha256", {}).items():
            if digest[name] != want:
                problems.append(f"{name}: sha256 differs from the golden")
    if "values" in golden:
        # the grid steady state does not depend on the seed
        try:
            values = [float(v) for v in data["stdout"].split(b",")]
        except ValueError:
            values = []
        want = golden["values"]
        if len(values) != len(want):
            problems.append(f"stdout: {len(values)} values, expected {len(want)}")
        elif any(abs(a - b) > STEADY_TOLERANCE for a, b in zip(values, want)):
            problems.append("stdout: steady-state values differ from the golden")
    return digest, problems


@dataclass
class Sample:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: bytes
    stderr: bytes


def spawn(cmd, env, stdout_path, stderr_path):
    """Run one child to completion, timed from just before its start to its exit."""
    with open(stdout_path, "w+b") as out, open(stderr_path, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Sample(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024.0, out.read(), err.read())


class Bench:
    """One benchmark run of one workload: children started, failures, samples."""

    def __init__(self, wl, seed, goldens):
        self.wl = wl
        self.seed = seed
        self.golden = goldens.get(wl.name, {})
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = None
        self.last_spans = None

    def _fail(self, what, problems, sample):
        self.failed += 1
        tail = sample.stderr.decode(errors="replace").strip().splitlines()[-3:]
        self.problems.append(f"{what}: " + "; ".join(problems + tail))
        print(f"FAILED {self.problems[-1]}", file=sys.stderr)

    def command(self, traced=False):
        """Run the workload's command once; returns the Sample and, when
        traced, its per-layer metrics."""
        self.attempted += 1
        tmp = tempfile.mkdtemp(dir=WORK)
        try:
            outdir = os.path.join(tmp, "out")
            cli_args = [*self.wl.args, "--seed", str(self.seed), "--out", outdir]
            spans_path = os.path.join(tmp, "spans.json")
            if traced:
                cmd = [sys.executable, "-X", "importtime",
                       os.path.join(HERE, "tracer.py"), spans_path, "--", *cli_args]
            else:
                cmd = [sys.executable, "-m", "hopsync.cli", *cli_args]
            sample = spawn(cmd, self.env, os.path.join(tmp, "stdout"),
                           os.path.join(tmp, "stderr"))
            what = f"{'traced ' if traced else ''}invocation {self.attempted}"
            if sample.code != 0:
                self._fail(what, [f"exit code {sample.code}"], sample)
                return sample, None
            try:
                data = read_outputs(self.wl, outdir, sample.stdout)
            except OSError as err:
                self._fail(what, [f"missing output: {err}"], sample)
                return sample, None
            digest, problems = check_outputs(self.wl, self.seed, data,
                                             self.reference, self.golden)
            if self.reference is None:
                self.reference = digest
            if problems:
                self._fail(what, problems, sample)
            if not traced:
                return sample, None
            with open(spans_path) as fh:
                record = json.load(fh)
            self.last_spans = record
            lines = sample.stderr.decode(errors="replace").splitlines()
            return sample, tracer.layer_metrics(record, lines,
                                                data.get("trace.csv", b""))
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    def setup(self, with_env=False):
        """Time a fresh interpreter importing hopsync.cli and building the
        workload's topologies; with_env also returns the child's versions."""
        self.attempted += 1
        tmp = tempfile.mkdtemp(dir=WORK)
        try:
            code = SETUP_CODE + (ENV_CODE if with_env else "")
            sample = spawn([sys.executable, "-c", code, *self.wl.topologies], self.env,
                           os.path.join(tmp, "stdout"), os.path.join(tmp, "stderr"))
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        if sample.code != 0:
            self._fail("setup probe", [f"exit code {sample.code}"], sample)
            return sample, {}
        return sample, json.loads(sample.stdout) if with_env else {}


def _git(*args):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "-C", ROOT, *args], env=env, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout if proc.returncode == 0 else None


def machine_record():
    top = _git("rev-parse", "--show-toplevel")
    in_repo = top is not None and os.path.realpath(top.strip()) == os.path.realpath(ROOT)
    commit = _git("rev-parse", "HEAD") if in_repo else None
    status = _git("status", "--porcelain", "--untracked-files=no") if in_repo else None
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"git_commit": commit.strip() if commit else None,
            "git_dirty": None if status is None else bool(status.strip()),
            "nproc": os.cpu_count(), "cpu_model": cpu_model,
            "blas_threads": BLAS_THREADS}


def end_to_end_metrics(wl, plain, setups):
    """Medians over the timed invocations and setup probes."""
    wall = statistics.median(s.wall_s for s in plain)
    return {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "cpu_s": (statistics.median(s.cpu_s for s in plain), "s"),
        "peak_rss_mb": (statistics.median(s.peak_rss_mb for s in plain), "MB"),
        "node_rounds_per_s": (wl.node_rounds / wall, "1/s"),
    }


def median_metrics(dicts):
    """Median of each metric over several traced invocations; the lower
    middle value for an even count, so every value is one measured."""
    if not dicts:
        return {}
    return {name: (statistics.median_low(d[name][0] for d in dicts), unit)
            for name, (_, unit) in dicts[0].items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(SRC, "hopsync", "cli.py")):
        print(f"error: no hopsync sources under {SRC}", file=sys.stderr)
        return 2

    # a terminated benchmark still kills and reaps the child it is waiting on
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    wl = WORKLOADS[args.workload]
    with open(GOLDENS) as fh:
        goldens = json.load(fh)
    os.makedirs(WORK, exist_ok=True)
    bench = Bench(wl, args.seed, goldens)

    bench.command()  # warm-up: pays .pyc compilation, timing discarded
    _, versions = bench.setup(with_env=True)
    env = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
           **machine_record(), **versions}
    plain, setups, traced, layers = [], [], [], []
    start = time.perf_counter()
    while True:
        plain.append(bench.command()[0])
        setups.append(bench.setup()[0].wall_s)
        if args.trace:
            sample, metrics = bench.command(traced=True)
            traced.append(sample.wall_s)
            if metrics is not None:
                layers.append(metrics)
        if time.perf_counter() - start >= args.seconds:
            break

    end_to_end = end_to_end_metrics(wl, plain, setups)
    per_layer = median_metrics(layers)
    if args.trace:
        overhead = statistics.median(traced) - end_to_end["wall_s"][0]
        per_layer["trace.overhead_s"] = (overhead, "s")
    reported = per_layer if args.trace else end_to_end

    record = {"env": env, "metrics": {**end_to_end, **per_layer},
              "samples": {"wall_s": [s.wall_s for s in plain],
                          "cpu_s": [s.cpu_s for s in plain],
                          "peak_rss_mb": [s.peak_rss_mb for s in plain],
                          "setup_s": setups, "traced_wall_s": traced},
              "attempted": bench.attempted, "failed": bench.failed,
              "problems": bench.problems, "last_traced_run": bench.last_spans}
    record_path = os.path.join(WORK, f"{wl.name}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w") as fh:
        json.dump(record, fh)

    print("env " + json.dumps(env))
    for name, (value, unit) in {**end_to_end, **per_layer}.items():
        print(f"  {name:34s} {value:>16.6g} {unit}")
    print(f"  failed_runs {bench.failed} of {bench.attempted} attempted; "
          f"{len(plain)} timed invocations; record: {os.path.relpath(record_path, ROOT)}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

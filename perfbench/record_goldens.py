"""Write goldens.json: the outputs of every workload at the default seed.

    python3 perfbench/record_goldens.py

Stores the SHA-256 of each output file and of stdout; for steady_60x60 it
stores the printed values instead, which run.py compares within ACCEPTANCE
2's tolerance so that a different solver is not rejected for last-bit
differences. Re-record only when a change is meant to alter the outputs.
"""
from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import tempfile

import run


def main():
    os.makedirs(run.WORK, exist_ok=True)
    goldens = {}
    for wl in run.WORKLOADS.values():
        tmp = tempfile.mkdtemp(dir=run.WORK)
        try:
            outdir = os.path.join(tmp, "out")
            cmd = [sys.executable, "-m", "hopsync.cli", *wl.args,
                   "--seed", str(run.DEFAULT_SEED), "--out", outdir]
            sample = run.spawn(cmd, run.child_env(), os.path.join(tmp, "stdout"),
                               os.path.join(tmp, "stderr"))
            if sample.code != 0:
                sys.exit(f"{wl.name}: exit code {sample.code}")
            data = run.read_outputs(wl, outdir, sample.stdout)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        if wl.name == "steady_60x60":
            goldens[wl.name] = {"values": [float(v) for v in data["stdout"].split(b",")]}
        else:
            goldens[wl.name] = {"sha256": {name: hashlib.sha256(blob).hexdigest()
                                           for name, blob in data.items()}}
        print(f"{wl.name}: {sample.wall_s:.2f} s")
    with open(run.GOLDENS, "w") as fh:
        json.dump(goldens, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()

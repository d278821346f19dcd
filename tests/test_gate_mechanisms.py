"""The mechanisms behind acceptance gates 3 and 5, which fail by design.

Each gate's failure message names a property of the system that makes the
gate unmeetable; these tests pin those properties, so a change that made a
gate pass for another reason, or a message that stopped being true, shows
here. The gates themselves stay as they are.
"""
import numpy as np
import pytest

from hopsync.harness import SimConfig, run
from hopsync.model import build_matrices, generate_topology

DT = 1e-3


def _extremes(spec):
    """The smallest eigenvalue of spec's averaging matrix and its spectral
    radius. The matrix is similar to a symmetric one, so every eigenvalue
    is real."""
    eig = np.linalg.eigvals(build_matrices(generate_topology(spec, seed=1)).a)
    assert np.abs(eig.imag).max() < 1e-9
    return eig.real.min(), np.abs(eig).max()


@pytest.mark.parametrize("spec", ["grid:4x4", "grid:3x5", "ring:16", "line:16"])
def test_bipartite_networks_have_an_alternating_mode_as_slow_as_the_slowest(
        spec):
    # gate 3: on a bipartite network the averaging matrix has -rho as an
    # eigenvalue, so the alternating mode decays no faster than the slowest
    # smooth one and the error still moves about 2dt a round near its dip
    low, rho = _extremes(spec)
    assert abs(low + rho) < 1e-9


@pytest.mark.parametrize("spec", ["random:16:0.3", "random:16:0.5"])
def test_networks_with_odd_cycles_damp_the_alternating_mode(spec):
    # the contrast: these random networks hold odd cycles, and their smallest
    # eigenvalue stays well inside -rho (measured -0.76 and -0.56 rho)
    low, rho = _extremes(spec)
    assert low / rho >= -0.8


def test_lossy_four_node_minima_land_on_whole_periods():
    # gate 5: with the gateway anchoring exact multiples of dt, a node that
    # misses links while the group crosses zero rejoins whole rounds late,
    # so its min |e| is a whole number of periods (here 1, 1 and 2) and
    # never drops below dt
    cfg = SimConfig(topology=generate_topology("grid:2x2"), delta_t=DT,
                    n_max=500, p=0.5, seed=1)
    periods = np.abs(run(cfg).errors).min(axis=0) / DT
    assert np.round(periods).tolist() == [1, 1, 2]
    assert np.abs(periods - np.round(periods)).max() < 1e-9

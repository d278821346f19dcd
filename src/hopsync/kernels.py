"""The NumPy hot kernels: round evolution and the seven-tap filter.

Every run, detector and reference path calls these two functions, so their
floating-point results define the simulator's output bytes. Keep the
accumulation order (all low-side contributions in edge order, then all
high-side ones) when editing run_rounds.
"""
from __future__ import annotations

import numpy as np


def run_rounds(times0, edges_u, edges_v, n_ordinary, masks, delta_t, round0=0):
    """Evolve node clocks over len(masks) synchronous rounds.

    times0: float64[n_ordinary] initial clocks.
    edges_u/edges_v: int64 edge endpoints, u < v; v == n_ordinary is the gateway.
    masks: bool[rounds, n_edges] per-round availability.
    round0: absolute round number of times0, for resumed single-round calls.
    Returns float64[rounds+1, n_ordinary] with row n the clocks at round n.

    Per round, every node with at least one available neighbor averages those
    neighbors' current values (the gateway contributes delta_t * (round0 + n));
    nodes with none hold.
    """
    times0 = np.asarray(times0, dtype=np.float64)
    masks = np.asarray(masks, dtype=bool)
    n = int(n_ordinary)
    rounds = masks.shape[0]
    out = np.empty((rounds + 1, n), dtype=np.float64)
    out[0] = times0
    t = times0.copy()
    text = np.empty(n + 1, dtype=np.float64)
    for rnd in range(rounds):
        av = masks[rnd]
        au = edges_u[av]
        avv = edges_v[av]
        text[:n] = t
        text[n] = delta_t * (round0 + rnd)
        sums = np.zeros(n, dtype=np.float64)
        counts = np.zeros(n, dtype=np.int64)
        np.add.at(sums, au, text[avv])
        np.add.at(counts, au, 1)
        w = avv < n
        np.add.at(sums, avv[w], t[au[w]])
        np.add.at(counts, avv[w], 1)
        t = np.where(counts > 0, sums / np.maximum(counts, 1), t)
        out[rnd + 1] = t
    return out


def filter_series(x, c_f):
    """Seven-tap difference filter along axis 0; output j refers to sample j+3.

    ``x`` is one series, or a (samples, columns) block filtered column by
    column with the same result bits as filtering each column alone.
    Evaluated as 0.2*((cf*x[m+3]-x[m-1]) + (cf*x[m+1]-x[m-3])) + 0.5*(cf*x[m+2]-x[m-2]),
    which keeps unit-ramp output exactly 3.6 and constant-input output exactly
    0.0 at c_f = 1 in IEEE arithmetic.
    """
    x = np.asarray(x, dtype=np.float64)
    d1 = c_f * x[6:] - x[2:-4]
    d2 = c_f * x[5:-1] - x[1:-5]
    d3 = c_f * x[4:-2] - x[:-6]
    return 0.2 * (d1 + d3) + 0.5 * d2

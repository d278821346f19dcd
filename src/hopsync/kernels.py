"""The NumPy hot kernels: round evolution and the seven-tap filter.

Every run, sweep and detector calls these two functions, so their
floating-point results define the simulator's output bytes. The reference
paths (dynamics.step, dynamics.error_step, harness.run_error_recursion)
evolve the dense matrices instead, and the tests compare them against these.

run_rounds evolves one network or a batch of S independent runs of it (one
per seed) as one state with a leading seed axis. Each round sums neighbor
values with one np.bincount over flattened ``seed * N + node`` bins and
counts them with another. The contributions are laid out as all low-side
ones (each available edge u < v adds v's value to u), seed-major in edge
order, then all high-side ones (v gains u's value) in the same order. A bin
belongs to one seed, so it accumulates in edge order, low side first, exactly
as one np.add.at pass per side over a single run did: a batch of S runs is
bit for bit S single runs. A link that is down still has its place in that
order, adding +0.0 to the sum and weight 0 to the count: a running sum that
starts at +0.0 is never -0.0, so adding +0.0 changes no bit, NaN and
infinities included. Keep that order when editing run_rounds.
"""
from __future__ import annotations

import numpy as np

# filter_series' slices fix its window: output j reads samples j..j+6 and
# refers to sample j+3, so it looks _LOOKAHEAD samples ahead.
_WINDOW = 7
_LOOKAHEAD = 3


def run_rounds(times0, edges_u, edges_v, masks, delta_t, *, round0=0):
    """Evolve node clocks over len(masks) synchronous rounds.

    times0: float64[N] initial clocks, or float64[S, N] for S runs at once.
    edges_u/edges_v: int64 edge endpoints, u < v; v == N is the gateway.
    masks: bool[rounds, E] per-round availability, or bool[rounds, S, E] with
        one row per run when times0 has a seed axis.
    round0: absolute round number of times0, for resumed calls.
    Returns float64[rounds+1, N] (or [rounds+1, S, N]) with row n the clocks
    at round n.

    Per round, every node with at least one available neighbor averages those
    neighbors' current values (the gateway contributes delta_t * (round0 + n));
    nodes with none hold.
    """
    times0 = np.asarray(times0, dtype=np.float64)
    masks = np.asarray(masks, dtype=bool)
    if times0.ndim == 1:
        return run_rounds(times0[None], edges_u, edges_v, masks[:, None],
                          delta_t, round0=round0)[:, 0]
    s_count, n = times0.shape
    rounds, n_edges = masks.shape[0], len(edges_u)
    cells = s_count * n
    # Every (seed, edge) contribution, low side then high side: its bin, its
    # entry in ``pick`` (where its link's mask bit sits) and its value's
    # position in ``flat``. ``flat`` holds the +0.0 a down link adds, then
    # each seed's clocks followed by the gateway's.
    high = np.flatnonzero(edges_v < n)
    seed = np.arange(s_count)[:, None]
    bins = np.concatenate([(seed * n + edges_u).ravel(),
                           (seed * n + edges_v[high]).ravel()])
    src = 1 + np.concatenate([(seed * (n + 1) + edges_v).ravel(),
                              (seed * (n + 1) + edges_u[high]).ravel()])
    pick = np.concatenate([np.arange(s_count * n_edges),
                           (seed * n_edges + high).ravel()])
    flat = np.zeros(1 + s_count * (n + 1))
    text = flat[1:].reshape(s_count, n + 1)
    t = text[:, :n]
    t[:] = times0
    up = np.empty(len(bins), dtype=bool)
    at = np.empty(len(bins), dtype=np.int64)
    vals = np.empty(len(bins))
    out = np.empty((rounds + 1, s_count, n), dtype=np.float64)
    out[0] = times0
    for rnd in range(rounds):
        np.take(masks[rnd].ravel(), pick, out=up)
        text[:, n] = delta_t * (round0 + rnd)
        np.take(flat, np.multiply(src, up, out=at), out=vals)
        sums = np.bincount(bins, weights=vals, minlength=cells)
        counts = np.bincount(bins, weights=up, minlength=cells)
        out[rnd + 1] = np.where(counts > 0, sums / np.maximum(counts, 1),
                                t.ravel()).reshape(s_count, n)
        t[:] = out[rnd + 1]
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

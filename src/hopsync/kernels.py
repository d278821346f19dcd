"""The NumPy hot kernels: round evolution, the seven-tap filter and the
float formatting of trace.csv.

Every run, sweep and detector calls the first two, so their floating-point
results define the simulator's output bytes. The reference paths
(dynamics.step, dynamics.error_step, harness.run_error_recursion) evolve the
dense matrices instead, and the tests compare them against these.
_float_reprs prints trace.csv's floats with ``repr``'s digits, and the tests
compare it against ``repr``.

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

# _float_reprs' tables. A value's text is gathered from a row of 24
# characters laid out as _ROW: '0', the value's 17 digits A..Q, the two
# digits XY of its decimal exponent's magnitude, '.', '-', 'e' and NUL.
# _TEMPLATES[(sign * 18 + max(k, -5) + 5) * 18 + nd] lists the row columns
# that make the text of a value with that sign, decimal exponent k and nd
# significant digits, NUL-padded to 23 characters. _PAIRS[v] packs the
# characters of v = 0..99 as two digits, then '.-' and 'e' NUL, two UCS-4
# characters to a uint64. _POW5[s] = 5**s for s = 16 - k, k = -11..12: log10
# may put k one below the range's lowest decimal exponent.
_ROW = "0ABCDEFGHIJKLMNOPQXY.-e\0"
_TEMPLATES = np.frombuffer("".join(
    ("-" * sign + (d[:k + 1] + "." + d[k + 1:] if k >= 0 else
                   "0." + "0" * (-1 - k) + d if k > -5 else
                   d[:1] + "." * (nd > 1) + d[1:] + "e-XY")).ljust(23, "\0")
    for sign in (0, 1) for k in range(-5, 13) for nd in range(18)
    for d in [_ROW[1:1 + nd]]).translate(
        dict(zip(map(ord, _ROW), range(len(_ROW))))).encode("latin-1"),
    dtype=np.uint8).reshape(-1, 23).astype(np.intp)
_PAIRS = np.concatenate([
    np.stack(np.divmod(np.arange(100), 10), axis=1) + ord("0"),
    np.array([ord(c) for c in _ROW[20:]]).reshape(2, 2)]).astype(
        np.uint32).view(np.uint64).ravel()
_POW5 = 5 ** np.arange(28, dtype=np.uint64)


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


def _float_reprs(x) -> np.ndarray:
    """``repr`` of each float64 of ``x``, as a flat object array of str.

    Values with 1e-10 <= |x| < 1e13 that are not whole numbers and whose
    mantissa is not a power of two are formatted here; all others (zeros,
    whole numbers, NaN, infinities, values outside that range and powers of
    two, whose rounding interval is lopsided) go through ``repr``. Values
    are taken 1024 at a time: twice that is a few percent faster but its
    temporaries raise a halting run's peak RSS by about 1 MB more.

    Write x = m * 2**e and let k be its decimal exponent. One 128-bit
    product in 32-bit limbs gives x * 10**(16 - k) = m * 5**s / 2**sh (s =
    16 - k) as its 17-digit integer part t and remainder r / 2**sh; k starts
    from log10 and is fixed where t falls outside [10**16, 10**17). On that
    scale x's rounding interval is v +- 5**s / 2**(sh + 1) around v = t + r
    / 2**sh, and its ends are never integers. ``repr`` prints the shortest
    digits that read back as x, the nearest of them if several do, so:

    - 15 or fewer digits: the interval is narrower than the 15-digit
      spacing and holds at most one such decimal, the multiple of 100 at or
      below its upper end if that lies above its lower end;
    - 16 digits: if any 16-digit decimal reads back, the nearest one (v / 10
      rounded half to even) does;
    - 17 digits: v rounded half to even, which always reads back.

    The text then follows ``repr``'s layout: ``dd.ddd`` for k >= 0,
    ``0.000ddd`` for -4 <= k < 0 and ``d.ddde-XX`` below, without trailing
    zeros.
    """
    x = np.ascontiguousarray(x, dtype=np.float64).ravel()
    out = np.empty(x.size, dtype=object)
    one, frac = np.uint64(1), np.uint64(2**52 - 1)
    low, word = np.uint64(2**32 - 1), np.uint64(32)
    for c0 in range(0, x.size, 1024):
        xs, cell = x[c0:c0 + 1024], out[c0:c0 + 1024]
        mag = np.abs(xs)
        with np.errstate(invalid="ignore"):  # floor of a signalling NaN
            fast = ((mag >= 1e-10) & (mag < 1e13) & (np.floor(mag) != mag)
                    & ((xs.view(np.uint64) & frac) != 0))
        cell[~fast] = [repr(v) for v in xs[~fast].tolist()]
        bits, mag = xs.view(np.uint64)[fast], mag[fast]
        count = len(bits)
        if not count:
            continue
        m = (bits & frac) | np.uint64(2**52)
        m0, m1 = m & low, m >> word
        biased = (bits >> np.uint64(52)).astype(np.int64) & 0x7FF
        k = np.floor(np.log10(mag)).astype(np.int64)
        while True:
            s = 16 - k
            sh = (1075 - s - biased).astype(np.uint64)
            p = _POW5[s]
            p0, p1 = p & low, p >> word
            lo, b, c = m0 * p0, m0 * p1, m1 * p0
            mid = (lo >> word) + (b & low) + (c & low)
            hi = m1 * p1 + (b >> word) + (c >> word) + (mid >> word)
            lo = (lo & low) | (mid << word)
            t = (hi << (np.uint64(64) - sh)) | (lo >> sh)
            under, over = t < 10**16, t >= 10**17
            if not (under.any() or over.any()):
                break
            k = k - under + over
        # from here on every quantity is below 2**62: int64
        two_r = ((lo & ((one << sh) - one)) << one).astype(np.int64)
        t, p, sh = t.astype(np.int64), p.astype(np.int64), sh.astype(np.int64)
        lower = t + ((two_r - p) >> (sh + 1))
        upper = t + ((two_r + p) >> (sh + 1))
        q = t // 10
        d15 = upper // 100 * 100
        d16 = 10 * (q + ((t - 10 * q > 5) | ((t - 10 * q == 5)
                                              & ((two_r > 0) | (q % 2 == 1)))))
        d17 = t + ((two_r > 1 << sh) | ((two_r == 1 << sh) & (t % 2 == 1)))
        digits = np.where(d15 > lower, d15, np.where(
            (d16 > lower) & (d16 <= upper), d16, d17))
        carry = digits >= 10**17
        digits[carry] = 10**16
        k += carry
        # the 17 digits as a lead digit and eight pairs, then |k|'s pair
        pairs = np.empty((10, count), dtype=np.intp)
        for j in range(8, 0, -1):
            q = digits // 100
            pairs[j] = digits - 100 * q
            digits = q
        pairs[0] = digits
        np.abs(k, out=pairs[9])
        # significant digits: up to the last nonzero digit
        col = np.arange(count)
        last = ((pairs[:9] != 0) * np.arange(9, dtype=np.uint8)[:, None]).max(
            axis=0).astype(np.intp)
        nd = 2 * last + 1 - ((last > 0) & (pairs[last, col] % 10 == 0))
        row = np.empty((count, len(_ROW) // 2), dtype=np.uint64)
        row[:, :10] = np.take(_PAIRS, pairs).T
        row[:, 10:] = _PAIRS[100:]
        # each value's text is its template's columns of its row
        at = np.take(_TEMPLATES, (np.signbit(xs[fast]) * 18
                                  + np.maximum(k, -5) + 5) * 18 + nd, axis=0)
        at += len(_ROW) * col[:, None]
        cell[fast] = np.take(row.view(np.uint32), at).view("U23").ravel()
    return out

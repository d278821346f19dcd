"""The NumPy hot kernels: round evolution, the error, the seven-tap filter
and the float formatting of trace.csv.

Every run, sweep and detector calls the first three, so their
floating-point results define the simulator's output bytes. The reference
paths (dynamics.step, dynamics.error_step, harness.run_error_recursion)
evolve the dense matrices instead, and the tests compare them against these.
_float_texts prints trace.csv's floats with ``repr``'s digits, as ASCII bytes
in a NumPy matrix, and the tests compare it against ``repr``.

run_rounds evolves one network or a batch of S independent runs of it (one
per seed) as one state with a leading seed axis. Each round sums the values
its up links carry with one np.bincount over flattened ``seed * N + node``
bins and counts them with another. The contributions are laid out as all
low-side ones (each edge u < v adds v's value to u), seed-major in edge
order, then all high-side ones (v gains u's value) in the same order, and a
round keeps those whose link is up. A bin belongs to one seed, so each node
adds its up links' values in edge order, low side first, exactly as one
np.add.at pass per side over a single run did: a batch of S runs is bit for
bit S single runs. Keep that order when editing _tables or run_rounds.
"""
from __future__ import annotations

import numpy as np

# filter_series' slices fix its window: output j reads samples j..j+6 and
# refers to sample j+3, so it looks _LOOKAHEAD samples ahead.
_WINDOW = 7
_LOOKAHEAD = 3

# _float_texts' tables. A value's text is gathered from a row of 24 bytes
# laid out as _ROW: the two digits XY of its decimal exponent's magnitude,
# '.', '-', 'e', NUL, '0' and its 17 digits A..Q, so that XY and 0A are
# uint16 pairs of the row and B..Q four uint32 quads.
# _TEMPLATES[(sign * 18 + max(k, -5) + 5) * 18 + nd] lists the row columns
# that make the text of a value with that sign, decimal exponent k and nd
# significant digits, NUL-padded to 23 bytes, the longest text formatted
# here. _PAIRS[v] holds the two digits of v = 0..99 as one uint16 and
# _QUADS[v] the four of v = 0..9999 as one uint32. _POW5[s] = 5**s for
# s = 16 - k, k = -11..12: log10 may put k one below the range's lowest
# decimal exponent.
_ROW = b"XY.-e\0" + b"0ABCDEFGHIJKLMNOPQ"
_TEMPLATES = np.frombuffer(b"".join(
    (b"-" * sign + (d[:k + 1] + b"." + d[k + 1:] if k >= 0 else
                    b"0." + b"0" * (-1 - k) + d if k > -5 else
                    d[:1] + b"." * (nd > 1) + d[1:] + b"e-XY")).ljust(23, b"\0")
    for sign in (0, 1) for k in range(-5, 13) for nd in range(18)
    for d in [b"ABCDEFGHIJKLMNOPQ"[:nd]]).translate(
        bytes.maketrans(_ROW, bytes(range(len(_ROW))))),
    dtype=np.uint8).reshape(-1, 23)
_PAIRS = (np.stack(np.divmod(np.arange(100), 10), axis=1)
          + ord("0")).astype(np.uint8).view(np.uint16).ravel()
_QUADS = np.stack(np.broadcast_arrays(_PAIRS[:, None], _PAIRS[None]),
                  axis=2).view(np.uint32).ravel()
_POW5 = 5 ** np.arange(28, dtype=np.uint64)
# the width of _float_texts' rows: repr's longest texts, such as
# -2.2250738585072014e-308, have 24 characters
_TEXT_WIDTH = 24


def _tables(s_count, n, edges_u, edges_v):
    """run_rounds' contribution tables for ``s_count`` runs of ``n`` nodes
    over these edges, as (bins, src, pick).

    Every (seed, edge) contribution, low side then high side, has its bin,
    its entry in ``pick`` (where its link's mask bit sits in a round's
    flattened (S, E) masks) and its value's position in run_rounds'
    ``flat``, which holds each seed's clocks followed by the gateway's. A
    round keeps those whose link is up, so each node adds its up links'
    values in edge order, low side first.
    """
    high = np.flatnonzero(edges_v < n)
    seed = np.arange(s_count)[:, None]
    bins = np.concatenate([(seed * n + edges_u).ravel(),
                           (seed * n + edges_v[high]).ravel()])
    src = np.concatenate([(seed * (n + 1) + edges_v).ravel(),
                          (seed * (n + 1) + edges_u[high]).ravel()])
    pick = np.concatenate([np.arange(s_count * len(edges_u)),
                           (seed * len(edges_u) + high).ravel()])
    return bins, src, pick


def run_rounds(times0, edges_u, edges_v, masks, delta_t, *, round0=0,
               out=None, tables=None):
    """Evolve node clocks over len(masks) synchronous rounds.

    times0: float64[N] initial clocks, or float64[S, N] for S runs at once.
    edges_u/edges_v: int64 edge endpoints, u < v; v == N is the gateway.
    masks: bool[rounds, E] per-round availability, or bool[rounds, S, E] with
        one row per run when times0 has a seed axis.
    round0: absolute round number of times0, for resumed calls.
    out: where the result is written, of the result's shape, if given (it
        may be a strided view, and times0 may be its row 0); a new array
        otherwise.
    tables: _tables(S, N, edges_u, edges_v) (S = 1 for a 1-D times0), if
        given: a caller that steps the same network many times makes them
        once; they are made here otherwise.
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
                          delta_t, round0=round0, tables=tables,
                          out=None if out is None else out[:, None])[:, 0]
    s_count, n = times0.shape
    rounds, cells = masks.shape[0], s_count * n
    if out is None:
        out = np.empty((rounds + 1, s_count, n), dtype=np.float64)
    elif out.shape != (rounds + 1, s_count, n):
        raise ValueError(f"out must have shape {(rounds + 1, s_count, n)}, "
                         f"not {out.shape}")
    bins, src, pick = (_tables(s_count, n, edges_u, edges_v) if tables is None
                       else tables)
    flat = np.empty((s_count, n + 1))
    t = flat[:, :n]
    t[:] = times0
    out[0] = t
    for rnd in range(rounds):
        live = np.flatnonzero(masks[rnd].ravel()[pick])
        flat[:, n] = delta_t * (round0 + rnd)
        into = bins[live]
        sums = np.bincount(into, weights=flat.ravel()[src[live]],
                           minlength=cells)
        counts = np.bincount(into, minlength=cells)
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


def _error(dt: float, rounds, clocks, out=None) -> np.ndarray:
    """The error e = dt*r - t of ``clocks`` at ``rounds`` (broadcast against
    ``clocks``), written into ``out`` where given (``clocks`` itself
    included): the one place it is written, so every reader of a clock's
    error, the detector's input |e| included, gets the same bits."""
    return np.subtract(dt * np.float64(rounds), clocks, out=out)


def _shortest_digits(x, mag):
    """``repr``'s shortest round-trip digits of each float64 of ``x``
    (|x| = ``mag``), all in _float_texts' range, as (digits, k): a 17-digit
    integer padded with trailing zeros, and the decimal exponent k.

    Write x = m * 2**e. One 128-bit product in 32-bit limbs gives
    x * 10**(16 - k) = m * 5**s / 2**sh (s = 16 - k) as its 17-digit integer
    part t and remainder r / 2**sh; k starts from log10 and is fixed where t
    falls outside [10**16, 10**17). On that scale x's rounding interval is
    v +- 5**s / 2**(sh + 1) around v = t + r / 2**sh, and its ends are never
    integers. ``repr`` prints the shortest digits that read back as x, the
    nearest of them if several do, so:

    - 15 or fewer digits: the interval is narrower than the 15-digit
      spacing and holds at most one such decimal, the multiple of 100 at or
      below its upper end if that lies above its lower end;
    - 16 digits: if any 16-digit decimal reads back, the nearest one (v / 10
      rounded half to even) does;
    - 17 digits: v rounded half to even, which always reads back.

    Its temporaries are freed on return, before _float_texts lays out the
    text.
    """
    one, frac = np.uint64(1), np.uint64(2**52 - 1)
    low, word = np.uint64(2**32 - 1), np.uint64(32)
    bits = x.view(np.uint64)
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
    return digits, k + carry


def _float_texts(x, out=None) -> np.ndarray:
    """``repr`` of each float64 of ``x`` as ASCII bytes, one value to a row
    of a (x.size, 24) uint8 matrix, NUL-padded: 24 bytes hold repr's longest
    texts, such as -2.2250738585072014e-308. The matrix is ``out`` where
    given, whatever it held before, and new otherwise; ``out`` may be a
    strided view.

    Values with 1e-10 <= |x| < 1e13 that are not whole numbers and whose
    mantissa is not a power of two get their digits from _shortest_digits
    and are laid out here, in at most 23 bytes; all others (zeros, whole
    numbers, NaN, infinities, values outside that range and powers of two,
    whose rounding interval is lopsided) go through ``repr``. Values are
    taken 2048 at a time, whose temporaries hold about 0.8 MB: twice that
    is faster still, but doubles them. The buffers a chunk lays its text
    out in are made once per call.

    The text follows ``repr``'s layout: ``dd.ddd`` for k >= 0,
    ``0.000ddd`` for -4 <= k < 0 and ``d.ddde-XX`` below, without trailing
    zeros.
    """
    x = np.ascontiguousarray(x, dtype=np.float64).ravel()
    if out is None:
        out = np.empty((x.size, _TEXT_WIDTH), dtype=np.uint8)
    frac = np.uint64(2**52 - 1)
    chunk = min(x.size, 2048)
    # the row: |k|'s pair, '.-', 'e' NUL, '0' and the lead digit, then the
    # other 16 digits as four quads
    rows = np.empty((chunk, len(_ROW)), dtype=np.uint8)
    rows.view(np.uint16)[:, 1:3] = np.frombuffer(_ROW[2:6], dtype=np.uint16)
    base = np.arange(0, rows.size, len(_ROW), dtype=np.int32)[:, None]
    ats = np.empty((chunk, _TEMPLATES.shape[1]), dtype=np.int32)
    texts = np.empty((chunk, _TEMPLATES.shape[1]), dtype=np.uint8)
    for c0 in range(0, x.size, 2048):
        xs, cell = x[c0:c0 + 2048], out[c0:c0 + 2048]
        row, at, text = rows[:len(xs)], ats[:len(xs)], texts[:len(xs)]
        mag = np.abs(xs)
        with np.errstate(invalid="ignore"):  # floor of a signalling NaN
            fast = ((mag >= 1e-10) & (mag < 1e13) & (np.floor(mag) != mag)
                    & ((xs.view(np.uint64) & frac) != 0))
        # values for repr are formatted as 0.5 here and overwritten below
        slow = np.flatnonzero(~fast)
        if slow.size:
            xs = np.where(fast, xs, 0.5)
            mag = np.abs(xs)
        digits, k = _shortest_digits(xs, mag)
        pairs, quads = row.view(np.uint16), row.view(np.uint32)
        pairs[:, 0] = _PAIRS[np.abs(k)]
        pairs[:, 3] = _PAIRS[digits // 10**16]
        for j, scale in enumerate((10**12, 10**8, 10**4, 1)):
            quads[:, 2 + j] = _QUADS[digits // scale % 10**4]
        # significant digits: up to the last nonzero one
        nd = 17 - np.argmax(row[:, :6:-1] != ord("0"), axis=1)
        # each value's text is its template's columns of its row
        np.add(_TEMPLATES[(np.signbit(xs) * 18 + np.maximum(k, -5) + 5) * 18
                          + nd], base[:len(xs)], out=at)
        cell[:, :_TEMPLATES.shape[1]] = np.take(rows, at, out=text,
                                                mode="clip")
        cell[:, _TEMPLATES.shape[1]:] = 0
        if slow.size:
            cell[slow] = np.array(
                [repr(v).encode() for v in x[c0 + slow].tolist()],
                dtype=f"S{_TEXT_WIDTH}").view(np.uint8).reshape(
                    -1, _TEXT_WIDTH)
    return out

"""The full-circle reader of the polar lines: every line j, each read once.

constructions._line_bins reads the lines j <= 2^(m-1) only and gives each
line but 0 the multiplicity 2, as line -j has line j's counts when the rows
and weights are symmetric under k -> -k.  This reads all 2^m + 1 lines with
no multiplicity and no symmetry check, and the tests compare the two.
"""

import numpy as np

from walshlab import constructions as C


def full_circle_bins(ctx, shifted: np.ndarray, weights=()):
    """(counts, *sums) per chunk of lines j <= 2^m, in _line_bins' layout."""
    log_r = C._circle_lines(ctx)[1]
    units, circle = (1 << ctx.m) - 1, log_r.size
    windows = np.lib.stride_tricks.sliding_window_view(np.concatenate((log_r, log_r[:-1])), circle)
    rows, width = len(shifted), 4 * units
    lines = max(1, C.LINE_CHUNK // (rows * circle))
    offsets = np.arange(rows * lines).reshape(rows, lines, 1) * width
    tiled = [np.tile(w, rows * lines).astype(np.float64) for w in weights]

    def fold(per_bin):  # a line's bins onto log y, as (row, line and log y)
        per_bin = per_bin.reshape(-1, width)
        out = per_bin[:, :units] + per_bin[:, units:2 * units]
        out += per_bin[:, -1:]
        return out.reshape(rows, -1)

    for j in range(0, circle, lines):
        win = windows[j:j + lines]
        if len(win) < lines:  # the last chunk
            offsets = offsets.ravel()[:rows * len(win)].reshape(rows, -1, 1)
        bins = shifted[:, None] - win
        bins += offsets
        flat, n_bins = bins.ravel(), offsets.size * width
        yield fold(np.bincount(flat, minlength=n_bins)), *(
            fold(np.bincount(flat, t[:flat.size], n_bins)).astype(np.int64) for t in tiled)


def read_every_line(monkeypatch):
    """Make constructions read the lines through full_circle_bins, each with multiplicity 1."""
    monkeypatch.setattr(C, "_line_bins", lambda ctx, shifted, weights=(): (
        (1, *chunk) for chunk in full_circle_bins(ctx, shifted, weights)))

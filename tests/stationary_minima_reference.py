"""Reference stationary minima of a product's upper bound, for the arithmetic tests.

``pboxes.multivariate._stationary_minima`` sorts every row of corners in one
stable sort, its dropped corners moved last as ``+inf``.  Here each row's
kept corners are sorted alone, the rows with one number of kept corners in
one 2-d ``np.argsort``, so that no row's order can depend on a row beside
it.  The rest of the computation is the same; the tests patch this function
in and compare the two bit for bit.
"""

from __future__ import annotations

import numpy as np


def stationary_minima(f1, f2, xs, ps, keep, y) -> np.ndarray:
    """Per row, the least ``F1(x) + F2(y / x)`` at a stationary point strictly
    inside a corner cell, or 1 where there is none."""
    counts = keep.sum(axis=1)
    # dropped corners go last, and a cell that reaches one has no p_hi > p_lo
    sorted_x, sorted_p = np.full(xs.shape, np.inf), np.full(xs.shape, np.inf)
    for n in np.flatnonzero(np.bincount(counts)):
        rows = counts == n
        cx = xs[rows][keep[rows]].reshape(-1, n)
        cp = ps[rows][keep[rows]].reshape(-1, n)
        order = np.argsort(cx, axis=1)
        sorted_x[rows, :n] = np.take_along_axis(cx, order, axis=1)
        sorted_p[rows, :n] = np.take_along_axis(cp, order, axis=1)
    left, right = sorted_x[:, :-1], sorted_x[:, 1:]
    p_hi, p_lo = sorted_p[:, :-1], sorted_p[:, 1:]
    cell = (right > left) & (p_hi > p_lo)
    row = np.nonzero(cell)[0]
    left, right, p_hi, p_lo = left[cell], right[cell], p_hi[cell], p_lo[cell]
    s1 = (f1.left_limit(right) - f1(left)) / (right - left)
    s2 = (f2.left_limit(p_hi) - f2(p_lo)) / (p_hi - p_lo)
    curved = (s1 > 0.0) & (s2 > 0.0)
    row, left, right, y_cell = row[curved], left[curved], right[curved], y[row[curved]]
    mid = np.sqrt(s2[curved] * y_cell / s1[curved])
    inner = (mid > left) & (mid < right)
    mid, y_cell = mid[inner], y_cell[inner]
    least = np.ones(len(xs))
    np.minimum.at(least, row[inner], f1(mid) + f2(y_cell / mid))
    return least

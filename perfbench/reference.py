"""Reference values the benchmark computes itself, to check the program.

None of this calls pboxes.  Every model here is continuous, which is what the
generator produces, so a CDF's left limit is its value.
"""

from __future__ import annotations

import numpy as np

# the registered analytic CDFs of the scenario format, as functions of z
ANALYTIC = {
    "uniform": lambda z: np.asarray(z, dtype=float) + 0.0,
    "square": lambda z: np.asarray(z, dtype=float) ** 2,
    "triangular_sym": lambda z: 1.0 - (1.0 - np.asarray(z, dtype=float)) ** 2,
}


def knots_cdf(knots):
    """CDF from sorted ``(x, F)`` knots: 0 below the first knot, 1 above the last."""
    xs = np.array([x for x, _ in knots], dtype=float)
    fs = np.array([f for _, f in knots], dtype=float)
    return lambda x: np.interp(x, xs, fs, left=0.0, right=1.0)


def cut_probabilities(knots, levels, lower, upper, side):
    """Lower or upper probability of ``{z : f(z) >= t}`` for every level t.

    ``f`` is the piecewise-linear function through ``knots`` on [0, 1].  Its
    cut set at t is a union of closed intervals whose ends are the exact
    crossings of the segments with t, so no grid is involved.  Segments are
    scanned left to right for all levels at once, closing a component where
    a segment leaves the cut.  The lower side sums, over components [a, b],
    ``lower(b) - upper(a)`` (``lower(b)`` when a = 0); the upper side is one
    minus the same sum over the open gaps between components.
    """
    zs = np.array([z for z, _ in knots], dtype=float)
    vs = np.array([v for _, v in knots], dtype=float)
    t = np.asarray(levels, dtype=float)
    inside = np.zeros_like(t)        # lower side: sum over components
    gaps = np.zeros_like(t)          # upper side: sum over gaps
    open_at = np.full_like(t, np.nan)
    last_end = np.full_like(t, np.nan)

    def close(mask, a, b):
        a, b = a[mask], b[mask]
        bottom = np.where(a == 0.0, 0.0, upper(a))
        inside[mask] += np.maximum(0.0, lower(b) - bottom)
        prev = last_end[mask]
        first = np.isnan(prev)
        gap = np.where(first, np.where(a > 0.0, lower(a), 0.0),
                       np.maximum(0.0, lower(a) - upper(np.where(first, 0.0, prev))))
        gaps[mask] += gap
        last_end[mask] = b

    open_at[vs[0] >= t] = zs[0]
    for i in range(len(zs) - 1):
        z0, z1, v0, v1 = zs[i], zs[i + 1], vs[i], vs[i + 1]
        in0, in1 = v0 >= t, v1 >= t
        with np.errstate(divide="ignore", invalid="ignore"):
            crossing = z0 + (t - v0) / (v1 - v0) * (z1 - z0)
        enters = ~in0 & in1
        open_at[enters] = crossing[enters]
        close(in0 & ~in1, open_at, crossing)
        open_at[in0 & ~in1] = np.nan
    still_open = ~np.isnan(open_at)
    close(still_open, open_at, np.full_like(t, zs[-1]))
    empty = np.isnan(last_end)
    tail = np.where(empty, 1.0,
                    np.where(last_end < 1.0,
                             np.maximum(0.0, 1.0 - upper(np.where(empty, 0.0, last_end))),
                             0.0))
    if side == "lower":
        return np.clip(inside, 0.0, 1.0)
    return np.clip(1.0 - (gaps + tail), 0.0, 1.0)


def expectation_bracket(knots, lower, upper, side, levels=1 << 16):
    """Darboux bracket of ``inf f + integral of the cut probability``.

    The cut probability is non-increasing in the level, so the right and
    left endpoint sums on a uniform grid enclose the integral.
    """
    values = [v for _, v in knots]
    lo, hi = min(values), max(values)
    ts = np.linspace(lo, hi, levels + 1)
    g = cut_probabilities(knots, ts, lower, upper, side)
    delta = (hi - lo) / levels
    return lo + delta * float(np.sum(g[1:])), lo + delta * float(np.sum(g[:-1]))


def arithmetic(op, x1, x2, y, grid=1 << 17):
    """(lower, upper) CDF of ``X1 op X2`` at y under unknown dependence.

    Evaluates the Fréchet bounds along the constraint line, parametrised by
    the value x of X1, on a fine grid plus every point where a knot of
    either variable meets the line.  ``x1`` and ``x2`` are dicts of
    ``lower`` and ``upper`` knot lists with positive, bounded supports.
    """
    l1, u1 = knots_cdf(x1["lower"]), knots_cdf(x1["upper"])
    l2, u2 = knots_cdf(x2["lower"]), knots_cdf(x2["upper"])
    k1 = np.array([x for x, _ in x1["lower"] + x1["upper"]], dtype=float)
    k2 = np.array([x for x, _ in x2["lower"] + x2["upper"]], dtype=float)
    a, b = k1.min(), k1.max()
    # the value of X2 on the line as a function of x, and the x at which the
    # line meets each knot of X2
    line, meets = {
        "add": (lambda x: y - x, y - k2),
        "subtract": (lambda x: x - y, y + k2),
        "multiply": (lambda x: y / x, y / k2),
        "divide": (lambda x: x / y, y * k2),
    }[op]
    xs = np.concatenate([np.linspace(a, b, grid + 1), k1, meets[(meets >= a) & (meets <= b)]])
    other = line(xs)
    if op in ("add", "multiply"):
        # X1 + X2 <= y  (or X1 X2 <= y) holds when X2 <= line(x)
        low = np.maximum(0.0, l1(xs) + l2(other) - 1.0)
        up = np.minimum(1.0, u1(xs) + u2(other))
    else:
        # X1 - X2 <= y  (or X1 / X2 <= y) holds when X2 >= line(x)
        low = np.maximum(0.0, l1(xs) - u2(other))
        up = np.minimum(1.0, u1(xs) + 1.0 - l2(other))
    return float(low.max()), float(up.min())


def step_event_lower(lower, upper, classes):
    """Lower probability of a class subset on a finite step p-box.

    Sums ``lower[b] - upper[a - 1]`` over the runs ``a..b`` of consecutive
    classes in the subset.
    """
    members = sorted(set(classes))
    total, i = 0.0, 0
    while i < len(members):
        j = i
        while j + 1 < len(members) and members[j + 1] == members[j] + 1:
            j += 1
        a, b = members[i], members[j]
        total += max(0.0, lower[b] - (upper[a - 1] if a > 0 else 0.0))
        i = j + 1
    return min(max(total, 0.0), 1.0)

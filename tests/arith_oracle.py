"""Independent fine-grid evaluation of the dependency-bound formulas.

Everything here works in the original variable coordinates, straight from
the defining sup/inf expressions, with no reuse of the library's transform
or optimiser code.  The sweep covers the full hull of the constraint line
where either factor is still varying — an infimum can sit just outside the
naive feasible segment, where one CDF has already saturated at 0 or 1 —
and is a dense uniform grid augmented with the exact CDF corner points
plus one-sided probes beside them (limits at jumps matter).
"""

import numpy as np

GRID = 100_000
_EPS = 1e-9


def _sweep(lo, hi, corners, grid=GRID):
    pts = [np.linspace(lo, hi, grid + 1)]
    inside = np.asarray([c for c in corners if lo <= c <= hi], dtype=float)
    if inside.size:
        width = max(hi - lo, 1e-30)
        pts += [inside,
                np.clip(inside - _EPS * width, lo, hi),
                np.clip(inside + _EPS * width, lo, hi)]
    return np.unique(np.concatenate(pts))


def _bounds(op, x1, x2, y):
    """Segment emptiness test plus the extended sweep hull, in x1 coordinates."""
    (a1, b1), (a2, b2) = x1.support, x2.support
    if op == "add":
        seg = (max(a1, y - b2), min(b1, y - a2))
        hull = (min(a1, y - b2), max(b1, y - a2))
        low_support = a1 + a2
    elif op == "subtract":
        seg = (max(a1, y + a2), min(b1, y + b2))
        hull = (min(a1, y + a2), max(b1, y + b2))
        low_support = a1 - b2
    elif op == "multiply":
        seg = (max(a1, y / b2), min(b1, y / a2))
        hull = (min(a1, y / b2), max(b1, y / a2))
        low_support = a1 * a2
    else:
        seg = (max(a1, y * a2), min(b1, y * b2))
        hull = (min(a1, y * a2), max(b1, y * b2))
        low_support = a1 / b2
    return seg, hull, low_support


def _partner(op, xs, y):
    if op == "add":
        return y - xs
    if op == "subtract":
        return xs - y
    if op == "multiply":
        return y / xs
    return xs / y


def _oracle(op, side):
    def value(x1, x2, y):
        seg, hull, low_support = _bounds(op, x1, x2, y)
        if seg[1] < seg[0]:
            return 0.0 if y < low_support else 1.0
        if side == "lower":
            f1, f2 = x1.lower, x2.lower
        else:
            f1, f2 = x1.upper, x2.upper
        corners = list(f1.knot_xs)
        for k in f2.knot_xs:
            if op == "add":
                corners.append(y - k)
            elif op == "subtract":
                corners.append(y + k)
            elif op == "multiply":
                if k > 0:
                    corners.append(y / k)
            else:
                corners.append(y * k)
        xs = _sweep(hull[0], hull[1], corners)
        partners = _partner(op, xs, y)
        if side == "lower":
            if op in ("subtract", "divide"):
                # the second preorder reverses, so its upper CDF enters
                vals = np.maximum(0.0, np.asarray(f1(xs))
                                  - np.asarray(x2.upper.left_limit(partners)))
            else:
                vals = np.maximum(0.0, np.asarray(f1(xs)) + np.asarray(f2(partners)) - 1.0)
            return float(np.clip(vals.max(), 0.0, 1.0))
        if op in ("subtract", "divide"):
            vals = np.minimum(1.0, np.asarray(f1(xs)) + 1.0
                              - np.asarray(x2.lower.left_limit(partners)))
        else:
            vals = np.minimum(1.0, np.asarray(f1(xs)) + np.asarray(f2(partners)))
        return float(np.clip(vals.min(), 0.0, 1.0))

    return value


ORACLES = {
    op: (_oracle(op, "lower"), _oracle(op, "upper"))
    for op in ("add", "subtract", "multiply", "divide")
}

add_lower = ORACLES["add"][0]
add_upper = ORACLES["add"][1]


def random_real_line_pbox(rng, positive=False, max_knots=6):
    """Random piecewise-linear p-box on a lattice-aligned bounded support."""
    from pboxes.multivariate import RealLinePBox
    from pboxes.pbox import PiecewiseLinearCdf

    a = rng.randrange(8, 33) / 16 if positive else rng.randrange(-32, 17) / 16
    width = rng.randrange(8, 33) / 16
    count = rng.randint(2, max_knots)
    offsets = sorted(rng.sample(range(1, 64), count - 1))
    xs = [a] + [a + width * k / 64 for k in offsets] + [a + width]

    def ladder():
        vals = sorted(rng.randrange(0, 100) / 100 for _ in range(len(xs) - 1))
        return vals + [1.0]

    one, two = ladder(), ladder()
    lower = [min(p, q) for p, q in zip(one, two)]
    upper = [max(p, q) for p, q in zip(one, two)]
    return RealLinePBox(PiecewiseLinearCdf(tuple(zip(xs, lower))),
                        PiecewiseLinearCdf(tuple(zip(xs, upper))))

"""The exact Choquet integral of a knot oscillation on a piecewise-linear
p-box, in rationals.

Every float of the model is read as the exact rational it stores.  A cut
``{f >= t}`` (on the upper side its complement ``{f < t}``) has components
whose ends between knots are the exact segment crossings, and its lower
probability sums ``max(0, F_lower(top) - F_upper(bottom))`` over them, with 0
for a bottom at the first knot and ``F_lower(1)`` for a top at the last.
Between consecutive breakpoints (the knot values, and the oscillation at
every CDF break) each gain is linear in the level, so its clamp is
integrated exactly by splitting at its zero.  Nothing here calls the
library's integration: it shares only the model's numbers.
"""

from __future__ import annotations

from fractions import Fraction


def _linear(knots, x: Fraction) -> Fraction:
    """The piecewise-linear function through ``knots`` at ``x``, 0 below its
    first knot and 1 above its last; inside, continuous."""
    if x < knots[0][0]:
        return Fraction(0)
    for (x0, f0), (x1, f1) in zip(knots, knots[1:]):
        if x <= x1:
            return f0 + (f1 - f0) * (x - x0) / (x1 - x0)
    return Fraction(1)


def _crossing(z0, v0, z1, v1, t: Fraction) -> Fraction:
    return z0 + (t - v0) * (z1 - z0) / (v1 - v0)


def _gains(zs, vs, lower, upper, t_mid: Fraction, upper_side: bool):
    """The gains of the components at ``t_mid``, each as a function of the level."""
    n = len(zs)
    inside = [(v < t_mid) if upper_side else (v >= t_mid) for v in vs]
    gains, k = [], 0
    while k < n:
        if not inside[k]:
            k += 1
            continue
        first = k
        while k + 1 < n and inside[k + 1]:
            k += 1
        last = k
        k += 1

        def gain(t, first=first, last=last):
            top = (_linear(lower, _crossing(zs[last], vs[last], zs[last + 1], vs[last + 1], t))
                   if last < n - 1 else _linear(lower, Fraction(1)))
            bottom = (_linear(upper, _crossing(zs[first - 1], vs[first - 1], zs[first],
                                               vs[first], t))
                      if first > 0 else Fraction(0))
            return top - bottom

        gains.append(gain)
    return gains


def _positive_part(g0: Fraction, g1: Fraction, width: Fraction) -> Fraction:
    """The integral of ``max(0, g)`` over a piece of ``width`` where ``g`` is
    linear from ``g0`` to ``g1``."""
    if g0 >= 0 and g1 >= 0:
        return width * (g0 + g1) / 2
    if g0 <= 0 and g1 <= 0:
        return Fraction(0)
    positive = max(g0, g1)
    return width * positive / (abs(g0) + abs(g1)) * positive / 2


def exact_expectation(osc_knots, lower_knots, upper_knots, inf_value, sup_value,
                      upper_side: bool) -> Fraction:
    """The lower (or, with ``upper_side``, upper) expectation of the oscillation
    through ``osc_knots``, which span [0, 1], on the p-box of the two CDFs."""
    zs = [Fraction(z) for z, _ in osc_knots]
    vs = [Fraction(v) for _, v in osc_knots]
    lower = [(Fraction(x), Fraction(f)) for x, f in lower_knots]
    upper = [(Fraction(x), Fraction(f)) for x, f in upper_knots]
    a, b = Fraction(inf_value), Fraction(sup_value)
    levels = {a, b, *vs}
    for x, _ in lower[1:-1] + upper[1:-1]:
        for (z0, v0), (z1, v1) in zip(zip(zs, vs), zip(zs[1:], vs[1:])):
            if z0 <= x <= z1:
                levels.add(v0 + (v1 - v0) * (x - z0) / (z1 - z0))
    levels = sorted(t for t in levels if a <= t <= b)
    total = Fraction(0)
    for t0, t1 in zip(levels, levels[1:]):
        width = t1 - t0
        gains = _gains(zs, vs, lower, upper, (t0 + t1) / 2, upper_side)
        # the clamp of a linear gain kinks at its one zero
        covered = sum((_positive_part(g(t0), g(t1), width) for g in gains), Fraction(0))
        total += width - covered if upper_side else covered
    return a + total

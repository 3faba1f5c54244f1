"""Reference linear programs for the oracle tests.

A minimal two-phase dense simplex in exact rationals, independent of the
vertex sweep in ``pboxes.oracle``.  The tests compare the sweep against it
on the credal polytope and use it to solve the 2x2 coupling LP.

:func:`chain_sweep_reference` is the vertex sweep as it was before it
skipped the steps of zero cost: every step swept, on ``(numerator,
denominator)`` pairs.  The tests require the same integers from
``pboxes.oracle._chain_sweep``, which :func:`chain_vertex_min` reads as
an exact Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import lcm
from typing import Sequence

from pboxes.errors import ValidationError
from pboxes.oracle import FiniteCredalInstance, _chain_sweep


def chain_vertex_min(instance: FiniteCredalInstance, gamble: Sequence) -> Fraction:
    """The oracle's vertex sweep for a gamble of exact numbers, as a Fraction."""
    values = [Fraction(v) for v in gamble]
    e = lcm(*(v.denominator for v in values))
    numerator = _chain_sweep(instance, [v.numerator * (e // v.denominator) for v in values])
    return Fraction(numerator, instance._integer_chain[0] * e)


def chain_sweep_reference(instance: FiniteCredalInstance, gamble: Sequence[tuple]) -> tuple:
    """Exact minimum expectation of a gamble of ``(numerator, denominator)``
    pairs, as ``(numerator, D * E)``, with ``D`` the instance's common
    denominator and ``E`` the gamble's, sweeping every step."""
    n = instance.n
    if n == 1:
        return gamble[0]
    scale, grid, windows = instance._integer_chain
    e = lcm(*(d for _, d in gamble))
    g = [p * (e // d) for p, d in gamble]
    # best[j - a]: least partial cost with the current s at grid[j], a <= j <= b
    a, b = windows[0]
    cost = g[0] - g[1]
    best = [cost * v for v in grid[a:b + 1]]
    for i in range(1, n - 1):
        prefix = list(accumulate(best, min))
        na, nb = windows[i]
        cost = g[i] - g[i + 1]
        # windows only move right, so every j >= na has a predecessor k <= min(j, b)
        best = [prefix[min(j, b) - a] + cost * grid[j] for j in range(na, nb + 1)]
        a, b = na, nb
    return g[n - 1] * scale + min(best), scale * e


def simplex_min(c: Sequence[Fraction], a_ub, b_ub, a_eq, b_eq) -> Fraction:
    """Minimal two-phase dense simplex in exact rationals with Bland's rule."""
    n = len(c)
    rows = []
    rhs = []
    kinds = []  # "ub" or "eq" after sign normalisation
    for row, b in zip(a_ub, b_ub):
        if b < 0:
            rows.append([-x for x in row]); rhs.append(-b); kinds.append("lb")
        else:
            rows.append(list(row)); rhs.append(b); kinds.append("ub")
    for row, b in zip(a_eq, b_eq):
        if b < 0:
            rows.append([-x for x in row]); rhs.append(-b); kinds.append("eq")
        else:
            rows.append(list(row)); rhs.append(b); kinds.append("eq")
    m = len(rows)
    slack_cols = sum(1 for k in kinds if k in ("ub", "lb"))
    art_cols = sum(1 for k in kinds if k in ("lb", "eq"))
    total = n + slack_cols + art_cols
    tableau = [[Fraction(0)] * (total + 1) for _ in range(m)]
    basis = [0] * m
    s_at = n
    a_at = n + slack_cols
    art_idx = []
    for i, (row, b, kind) in enumerate(zip(rows, rhs, kinds)):
        for j, v in enumerate(row):
            tableau[i][j] = Fraction(v)
        tableau[i][total] = Fraction(b)
        if kind == "ub":
            tableau[i][s_at] = Fraction(1); basis[i] = s_at; s_at += 1
        elif kind == "lb":
            tableau[i][s_at] = Fraction(-1); s_at += 1
            tableau[i][a_at] = Fraction(1); basis[i] = a_at
            art_idx.append(a_at); a_at += 1
        else:
            tableau[i][a_at] = Fraction(1); basis[i] = a_at
            art_idx.append(a_at); a_at += 1

    def pivot(row_i, col_j):
        piv = tableau[row_i][col_j]
        tableau[row_i] = [v / piv for v in tableau[row_i]]
        for r in range(m):
            if r != row_i and tableau[r][col_j] != 0:
                factor = tableau[r][col_j]
                tableau[r] = [v - factor * w for v, w in zip(tableau[r], tableau[row_i])]
        basis[row_i] = col_j

    def solve_phase(costs):
        while True:
            reduced = list(costs)
            for r, bcol in enumerate(basis):
                if costs[bcol] != 0:
                    cb = costs[bcol]
                    reduced = [rc - cb * tv for rc, tv in zip(reduced, tableau[r])]
            entering = next((j for j in range(total) if reduced[j] < 0), None)
            if entering is None:
                return
            ratio, leave = None, None
            for r in range(m):
                if tableau[r][entering] > 0:
                    cand = tableau[r][total] / tableau[r][entering]
                    if ratio is None or cand < ratio or (cand == ratio and basis[r] < basis[leave]):
                        ratio, leave = cand, r
            if leave is None:
                raise ValidationError("unbounded linear program")
            pivot(leave, entering)

    if art_idx:
        phase1 = [Fraction(0)] * (total + 1)
        for j in art_idx:
            phase1[j] = Fraction(1)
        solve_phase(phase1)
        obj = sum(tableau[r][total] for r in range(m) if basis[r] in art_idx)
        if obj != 0:
            raise ValidationError("internal consistency error: infeasible credal polytope")
        # drive any residual artificial out of the basis
        for r in range(m):
            if basis[r] in art_idx:
                col = next((j for j in range(n + slack_cols) if tableau[r][j] != 0), None)
                if col is not None:
                    pivot(r, col)
    phase2 = [Fraction(0)] * (total + 1)
    for j in range(n):
        phase2[j] = Fraction(c[j])
    for j in art_idx:
        phase2[j] = Fraction(10**9)  # keep artificials parked at zero
    solve_phase(phase2)
    value = Fraction(0)
    for r, bcol in enumerate(basis):
        if bcol < n:
            value += c[bcol] * tableau[r][total]
    return value


def credal_lp(instance: FiniteCredalInstance, gamble: Sequence[Fraction]) -> Fraction:
    """Minimum expectation over the credal polytope, as an LP in the masses."""
    n = instance.n
    a_ub, b_ub = [], []
    for k in range(n - 1):
        prefix = [Fraction(1)] * (k + 1) + [Fraction(0)] * (n - k - 1)
        a_ub.append(prefix); b_ub.append(instance.upper_cum[k])
        a_ub.append([-v for v in prefix]); b_ub.append(-instance.lower_cum[k])
    a_eq = [[Fraction(1)] * n]
    b_eq = [Fraction(1)]
    return simplex_min(gamble, a_ub, b_ub, a_eq, b_eq)

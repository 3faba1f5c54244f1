"""Reference cut probabilities of a coordinate grid, for the choquet tests.

The anchored cut of a point of a coordinate grid, ``[z, 1]`` or ``[0, z]``,
or on the upper side its complement ``[0, z)`` or ``(z, 1]``, is written
here as one piece per point with broadcast ends and openness flags, and its
lower probability comes from the generic piece formula
``pboxes.pbox._piece_gains``.  ``pboxes.choquet._coordinate_grid`` reads the
one CDF such a piece needs directly; the tests compare the two bit for bit.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from pboxes.pbox import PBox, _piece_gains


def anchored_probs(pbox: PBox, rising: bool, upper: bool, s: np.ndarray) -> np.ndarray:
    """Lower (upper) cut probability at every point ``s`` of a coordinate grid
    over an increasing (``rising``) or decreasing oscillation."""
    z = s if rising else 1.0 - s
    fill = partial(np.broadcast_to, shape=z.shape)
    if upper:
        ends = (fill(0.0), z) if rising else (z, fill(1.0))
        gains = _piece_gains(pbox, *ends, fill(not rising), fill(rising))
        return 1.0 - np.clip(gains, 0.0, 1.0)
    ends = (z, fill(1.0)) if rising else (fill(0.0), z)
    return np.clip(_piece_gains(pbox, *ends, fill(False), fill(False)), 0.0, 1.0)

"""A CDF on [0, 1] with its own left limit, for jumps above 0.

:class:`pboxes.AnalyticCdf` is one function, continuous above 0.  A p-box
reads its CDFs by duck typing, a call and ``left_limit``, so the tests
model a jump inside (0, 1] with this object and keep the engine's reads
of an open top covered."""

import numpy as np


class JumpCdf:
    """``fn``, vectorised, with left limit ``left`` above 0 and 0 at or below 0."""

    def __init__(self, fn, left):
        self.fn, self.left = fn, left

    def __call__(self, z):
        return self.fn(z)

    def left_limit(self, z):
        out = np.where(np.asarray(z) <= 0.0, 0.0, self.left(z))
        return float(out) if out.ndim == 0 else out

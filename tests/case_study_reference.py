"""Hand-derived oscillations of the two case studies, for the scenario tests.

Each case study's gamble is written here as a curve of the joint coordinate
z alone, with the corners of the box of radius z folded in by hand.  The
library builds the same curves from the gamble by its corner rule; the
tests compare the two.
"""

from __future__ import annotations

import numpy as np

from pboxes.scenarios import (
    DIKE_GUMBEL_LOCATION,
    DIKE_GUMBEL_SCALE,
    DIKE_RIVER_LENGTH,
    DIKE_RIVER_WIDTH,
)


def oscillator_lower(z):
    """Least damping ratio over the class at z: damping 2 - z, stiffness 1 + z/2."""
    z = np.asarray(z, dtype=float)
    return (2.0 - z) / (2.0 * np.sqrt(1.0 + z / 2.0))


def oscillator_upper(z):
    """Greatest damping ratio over the class at z: damping 2 + z, stiffness 1 - z/2."""
    z = np.asarray(z, dtype=float)
    return (2.0 + z) / (2.0 * np.sqrt(1.0 - z / 2.0))


def dike_overflow_curve(z):
    """Extreme overflow height over the class at deviation coordinate z.

    Increasing from 0 at z = -1 to infinity at z = 1; the value at z is
    the worst case over the class, the value at -z the best case.
    """
    z = np.asarray(z, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inner = -np.log((1.0 + z) / 2.0)
        flow = DIKE_GUMBEL_LOCATION - DIKE_GUMBEL_SCALE * np.log(inner)
        flow = np.maximum(flow, 0.0)
        denom = ((30.0 - 15.0 * z)
                 * np.sqrt((5.0 - 2.0 * z) / DIKE_RIVER_LENGTH) * DIKE_RIVER_WIDTH)
        out = (flow / denom) ** 0.6
    return float(out) if out.ndim == 0 else out


# named oscillation -> its reference curve of z
REFERENCE_CURVES = {
    "oscillator_lower": oscillator_lower,
    "oscillator_upper": oscillator_upper,
    "dike_lower": lambda z: dike_overflow_curve(np.negative(z)),
    "dike_upper": dike_overflow_curve,
}

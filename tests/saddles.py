"""Saddle parameter sets shared by the property tests.

SADDLES draws kappa, four log10 coefficients in [-2, 2] and the sign of
delta; saddle() turns one draw into a SaddleParams, rejecting draws whose
delta is within 1e-3 of degenerate.  swap() is time reversal.
"""
import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from saddletail.params import SaddleParams

SADDLES = dict(
    kappa=st.sampled_from([2, 4, 6]),
    logs=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
    sign=st.sampled_from([-1.0, 1.0]),
)


def saddle(kappa, logs, sign):
    a0, a2, b0, b2 = (10.0**e for e in logs)
    if np.sign(a2 * b0 - a0 * b2) != sign:  # swapping the pairs flips delta
        a0, a2, b0, b2 = b0, b2, a0, a2
    assume(abs(a2 * b0 - a0 * b2) > 1e-3 * (a2 * b0 + a0 * b2))
    return SaddleParams(a0, a2, b0, b2, kappa)


def swap(p):
    """Time reversal: exchange the axes, so entry and exit data trade places."""
    return SaddleParams(p.b2, p.b0, p.a2, p.a0, p.kappa)

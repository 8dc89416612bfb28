"""Dense views of a dictionary's packed Cholesky factor, for tests that check L or K^-1 entry by entry."""

import numpy as np
import scipy.linalg


def lower(d):
    """L as a new dense (m, m) lower-triangular array, read from the packed factor."""
    m = d.m
    out = np.zeros((m, m))
    out[np.tril_indices(m)] = d._factor()[: m * (m + 1) // 2]
    return out


def gram_inverse(d):
    """K^-1 from the factor by two triangular solves, symmetrized."""
    inv = scipy.linalg.cho_solve((lower(d), True), np.eye(d.m), check_finite=False)
    return 0.5 * (inv + inv.T)

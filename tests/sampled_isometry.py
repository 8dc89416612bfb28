"""The paper's randomized quasi-isometry experiment and the Gersgorin discs, for tests.

``spectral_report`` reads the exact isometry extremes off the spectrum; the
sampled extremes here always fall inside them.
"""

import numpy as np

DEFAULT_TRIALS = 10_000


def gersgorin_intervals(gram) -> list[tuple[float, float]]:
    """Disc (center, radius) per row: the diagonal entry and the absolute
    off-diagonal row sum. Every eigenvalue lies in the union of the discs."""
    a = np.asarray(gram, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    centers = np.diag(a)
    radii = np.sum(np.abs(a), axis=1) - np.abs(centers)
    return list(zip(centers.tolist(), radii.tolist()))


def _nonzero_normal(rng: np.random.Generator, trials: int, m: int) -> np.ndarray:
    out = rng.standard_normal((trials, m))
    while True:
        bad = np.linalg.norm(out, axis=1) == 0.0
        if not bad.any():
            return out
        out[bad] = rng.standard_normal((int(bad.sum()), m))


def verify_isometry(
    dictionary,
    trials: int = DEFAULT_TRIALS,
    rng_seed: int = 0,
    rescale_factor: float = 1.0,
) -> tuple[float, float, float]:
    """Monte-Carlo extremes of the dual-to-feature-space distortion.

    Draws ``trials`` standard-normal coefficient vectors (and pairs) and
    returns (worst_ratio_low, worst_ratio_high, worst_ip_deviation) of the
    Rayleigh quotient alpha^T K alpha / ||alpha||^2 and the inner-product
    deviation |alpha'^T (K - I) alpha''| / (||alpha'|| ||alpha''||), where
    K is the Gram matrix divided by ``rescale_factor**2``. For a
    dictionary with isometry constant nu (at this rescale factor) the
    ratios must lie in [1-nu, 1+nu] and the deviations below nu. The
    sampled extremes never pass the exact ones in ``spectral_report``.
    """
    if dictionary.m == 0:
        raise ValueError("verify_isometry requires a non-empty dictionary")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    gram, m, s_sq = dictionary.gram, dictionary.m, rescale_factor**2
    rng = np.random.default_rng(rng_seed)
    a = _nonzero_normal(rng, trials, m)
    ratios = np.sum((a @ gram) * a, axis=1) / np.sum(a * a, axis=1) / s_sq
    a1 = _nonzero_normal(rng, trials, m)
    a2 = _nonzero_normal(rng, trials, m)
    norms = np.linalg.norm(a1, axis=1) * np.linalg.norm(a2, axis=1)
    dev = np.abs(np.sum((a1 @ gram) * a2, axis=1) / norms / s_sq - np.sum(a1 * a2, axis=1) / norms)
    return float(ratios.min()), float(ratios.max()), float(dev.max())

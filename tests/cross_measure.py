"""The paper's relations between the four sparsity measures and the spectrum, which hold for every dictionary."""

import numpy as np

from sparsekaf import CRITERION_KINDS, eigensolve

SLACK = 1e-9


def relation_failures(label, d):
    """One line per relation that dictionary ``d`` (m >= 2) breaks, each naming ``label``.

    With r^2 and R^2 the smallest and largest kappa(x, x) over the atoms:
    delta_approx <= delta_dist (the whole span is at least as close as one
    atom); delta_approx^2/m <= lambda_min <= delta_approx^2; r^2 - gamma_Babel
    <= lambda_min (Gersgorin); max |K_ij| <= gamma_Babel <= (m-1) max |K_ij|
    over i != j; and r^2 (1 - gamma_coh^2) <= delta_dist^2 <= R^2 (1 -
    gamma_coh^2), an equality for unit-norm kernels. The slack, scaled by
    R^2, absorbs rounding, the distance measure's one-ulp downward rounding
    among it.
    """
    gram, m = d.gram, d.m
    dist, approx, coh, babel = (d.measure(kind) for kind in CRITERION_KINDS)
    lam_min = eigensolve(gram).lambda_min
    diag = np.diag(gram)
    r_sq, R_sq = float(diag.min()), float(diag.max())
    max_off = float(np.max(np.abs(gram[~np.eye(m, dtype=bool)])))
    slack = SLACK * max(1.0, R_sq)
    checks = (
        ("delta_approx <= delta_dist", approx**2 <= dist**2 + slack),
        ("delta_approx^2/m <= lambda_min", approx**2 / m <= lam_min + slack),
        ("lambda_min <= delta_approx^2", lam_min <= approx**2 + slack),
        ("r^2 - gamma_babel <= lambda_min", r_sq - babel <= lam_min + slack),
        ("max |K_ij| <= gamma_babel", max_off <= babel + slack),
        ("gamma_babel <= (m-1) max |K_ij|", babel <= (m - 1) * max_off + slack),
        ("r^2 (1 - gamma_coh^2) <= delta_dist^2", r_sq * (1.0 - coh**2) <= dist**2 + slack),
        ("delta_dist^2 <= R^2 (1 - gamma_coh^2)", dist**2 <= R_sq * (1.0 - coh**2) + slack),
    )
    return [f"{label} (m={m}): {name} fails" for name, holds in checks if not holds]

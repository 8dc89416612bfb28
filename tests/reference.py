"""A from-scratch reference for online learning over a sparse dictionary, on numpy alone.

It follows the definitions in the README and shares no code with the
library: kernel values come from their closed forms, one pair at a time;
each criterion statistic is computed as defined, the approximation residual
by least squares on the full Gram matrix; the four update rules act on the
coefficient vector alpha, the functional rule's xi = K^-1 kvec from a dense
solve; and the four measures are taken from their definitions over the
dense Gram matrix. Nothing is factored, cached or updated in place.
"""

from __future__ import annotations

import math

import numpy as np

PIVOT_FLOOR = 1e-12


def kernel_value(kernel: tuple, x, y) -> float:
    """kappa(x, y) for ``kernel`` = ("linear",), ("polynomial", degree, offset) or ("gaussian", sigma)."""
    if kernel[0] == "gaussian":
        d_sq = sum((a - b) ** 2 for a, b in zip(x, y))
        return math.exp(-d_sq / (2.0 * kernel[1] ** 2))
    dot = sum(a * b for a, b in zip(x, y))
    return dot if kernel[0] == "linear" else (dot + kernel[2]) ** kernel[1]


class Reference:
    """The dictionary and the coefficient vector of one online run."""

    def __init__(self, kernel: tuple, kind: str, threshold: float, algorithm: str, eta: float, eps: float):
        self.kernel, self.kind, self.threshold = kernel, kind, threshold
        self.algorithm, self.eta, self.eps = algorithm, eta, eps
        self.atoms: list[tuple] = []
        self.gram = np.zeros((0, 0))
        self.alpha = np.zeros(0)

    def row(self, x) -> np.ndarray:
        return np.array([kernel_value(self.kernel, a, x) for a in self.atoms])

    def predict(self, x) -> tuple[float, float]:
        """alpha^T kvec(x), and sum_j |alpha_j kvec_j|, the scale of its rounding error."""
        terms = self.alpha * self.row(x)
        return float(terms.sum()), float(np.abs(terms).sum())

    def residual(self, x, kvec: np.ndarray) -> float:
        """kappa(x, x) minus the squared norm of kappa(x, .)'s projection onto the atoms' span."""
        if not self.atoms:
            return kernel_value(self.kernel, x, x)
        xi = np.linalg.lstsq(self.gram, kvec, rcond=None)[0]
        return kernel_value(self.kernel, x, x) - float(kvec @ xi)

    def statistic(self, x, kvec: np.ndarray) -> float:
        """The criterion statistic: the distances and the approximation residual pass at or above
        threshold^2, coherence and Babel at or below the threshold."""
        kxx = kernel_value(self.kernel, x, x)
        if self.kind == "distance":
            return min(kxx - k**2 / self.gram[j, j] for j, k in enumerate(kvec))
        if self.kind == "approximation":
            return self.residual(x, kvec)
        if self.kind == "coherence":
            return max(abs(k) / math.sqrt(kxx * self.gram[j, j]) for j, k in enumerate(kvec))
        return float(np.abs(kvec).sum())

    def bar(self) -> float:
        return self.threshold**2 if self.kind in ("distance", "approximation") else self.threshold

    def passes(self, statistic: float) -> bool:
        if self.kind in ("distance", "approximation"):
            return statistic >= self.bar()
        return statistic <= self.bar()

    def admit(self, x, kvec: np.ndarray) -> None:
        """Append ``x``: the Gram matrix gains the row [kvec, kappa(x, x)] and alpha a zero."""
        m = len(self.atoms)
        gram = np.empty((m + 1, m + 1))
        gram[:m, :m] = self.gram
        gram[m, :m] = gram[:m, m] = kvec
        gram[m, m] = kernel_value(self.kernel, x, x)
        self.atoms.append(tuple(x))
        self.gram = gram
        self.alpha = np.append(self.alpha, 0.0)

    def update(self, x, error: float) -> None:
        """One update of alpha by the configured rule, over the current atoms."""
        kvec, a, eta, eps = self.row(x), self.alpha, self.eta, self.eps
        if self.algorithm == "lms_identity":
            self.alpha = a + eta * (error * kvec - eps * a)
        elif self.algorithm == "lms_gram":
            self.alpha = a + eta * (error * kvec - eps * (self.gram @ a))
        elif self.algorithm == "nlms":
            self.alpha = a + eta / (float(kvec @ kvec) + eps) * error * kvec
        else:
            self.alpha = (1.0 - eta * eps) * a + eta * error * np.linalg.solve(self.gram, kvec)

    def measure(self, kind: str) -> float:
        """The measure of the atoms: delta for distance and approximation, gamma for coherence and Babel."""
        gram, m = self.gram, len(self.atoms)
        off = [(i, j) for i in range(m) for j in range(m) if i != j]
        if kind == "babel":
            return max(sum(abs(gram[i, j]) for j in range(m) if j != i) for i in range(m))
        if kind == "distance":
            return math.sqrt(max(min(gram[i, i] - gram[i, j] ** 2 / gram[j, j] for i, j in off), 0.0))
        if kind == "coherence":
            return max(abs(gram[i, j]) / math.sqrt(gram[i, i] * gram[j, j]) for i, j in off)
        residuals = []
        for i in range(m):
            rest = [j for j in range(m) if j != i]
            k = gram[rest, i]
            xi = np.linalg.lstsq(gram[np.ix_(rest, rest)], k, rcond=None)[0]
            residuals.append(gram[i, i] - float(k @ xi))
        return math.sqrt(max(min(residuals), 0.0))

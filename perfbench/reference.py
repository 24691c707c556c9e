"""Exact references for kernel entries, written from the feature-map definition.

Nothing here calls ``mpskernel``. The feature map of a row ``x`` already
rescaled to [0, 2] is ``(exp(-i Hxx) exp(-i Hz))^r |+>^m`` with
``Hz = gamma * sum_i x_i Z_i`` and
``Hxx = gamma^2 (pi/2) sum_{i<j<=i+d} (1-x_i)(1-x_j) X_i X_j``; a kernel entry
is ``|<phi(x)|phi(y)>|^2``.
"""

from __future__ import annotations

import csv
import math

import numpy as np

_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def read_rows(path) -> tuple[np.ndarray, np.ndarray]:
    """Features and labels of a dataset CSV whose last column is ``class``."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[-1] != "class":
            raise ValueError(f"{path}: expected 'class' as the last column")
        records = [r for r in reader if r]
    features = np.array([[float(v) for v in r[:-1]] for r in records])
    labels = np.array([int(r[-1]) for r in records])
    return features, labels


def rescale(train: np.ndarray, other: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Min-max map of each feature onto [0, 2] by the training extrema, clamped."""
    lo, hi = train.min(axis=0), train.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)

    def apply(mat):
        out = np.where(hi > lo, 2.0 * (mat - lo) / span, 1.0)
        return np.clip(out, 0.0, 2.0)

    return apply(train), apply(other)


def _xx_half_angle(x, i, j, gamma) -> float:
    return gamma**2 * (math.pi / 2.0) * (1.0 - x[i]) * (1.0 - x[j])


def dense_state(x, d: int, r: int, gamma: float) -> np.ndarray:
    """Statevector with 2^m amplitudes; the XX terms commute, so each is applied exactly."""
    m = len(x)
    psi = np.full((2,) * m, 2.0 ** (-m / 2), dtype=complex)
    for _ in range(r):
        for q in range(m):
            shape = [1] * m
            shape[q] = 2
            phase = np.exp(np.array([-1j, 1j]) * gamma * x[q]).reshape(shape)
            psi = psi * phase
        for k in range(1, d + 1):
            for i in range(m - k):
                a = _xx_half_angle(x, i, i + k, gamma)
                psi = math.cos(a) * psi - 1j * math.sin(a) * np.flip(psi, axis=(i, i + k))
    return psi.reshape(-1)


def chain_state(x, r: int, gamma: float) -> list[np.ndarray]:
    """Exact MPS of the d=1 feature map, with no truncation.

    ``prod_i (cos a_i - i sin a_i X_i X_{i+1})`` is a bond-2 operator chain,
    so each repetition doubles the bonds: 2^r is their final size.
    """
    m = len(x)
    sites = [np.full((1, 2, 1), 2.0**-0.5, dtype=complex) for _ in range(m)]
    for _ in range(r):
        for q in range(m):
            sites[q] = sites[q] * np.exp(np.array([-1j, 1j]) * gamma * x[q])[None, :, None]
        for q in range(m):
            n_left = 1 if q == 0 else 2
            n_right = 1 if q == m - 1 else 2
            # w[a, b] acts on site q: X^a from edge (q-1, q), coefficient and X^b from edge (q, q+1)
            w = np.zeros((n_left, n_right, 2, 2), dtype=complex)
            if q < m - 1:
                angle = _xx_half_angle(x, q, q + 1, gamma)
                coef = (math.cos(angle), -1j * math.sin(angle))
            else:
                coef = (1.0,)
            for a in range(n_left):
                for b in range(n_right):
                    w[a, b] = coef[b] * np.linalg.matrix_power(_X, a + b)
            site = np.einsum("abts,lsr->latrb", w, sites[q])
            cl, na, _, cr, nb = site.shape
            sites[q] = site.reshape(cl * na, 2, cr * nb)
    return sites


def chain_overlap(bra: list[np.ndarray], ket: list[np.ndarray]) -> complex:
    env = np.ones((1, 1), dtype=complex)
    for a, b in zip(bra, ket):
        env = np.einsum("ab,asc,bsd->cd", env, a.conj(), b)
    return complex(env[0, 0])


def auc_pairwise(scores, labels) -> float:
    """P(positive outscores negative), half credit for ties, by full enumeration."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1][:, None]
    neg = scores[labels == -1][None, :]
    wins = np.sum(pos > neg) + 0.5 * np.sum(pos == neg)
    return float(wins / (pos.size * neg.size))

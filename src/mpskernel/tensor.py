"""Truncated SVD of dense complex tensors.

Tensors are plain ``numpy.ndarray`` objects with ``complex128`` entries stored
in row-major order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Singular values below this factor times the largest one are treated as exact
# zeros before any truncation budget is applied.
NOISE_FLOOR = 10.0 * np.finfo(np.float64).eps


@dataclass(frozen=True)
class SvdResult:
    """Truncated decomposition ``t = left . diag(singular_values) . right``.

    ``left`` carries the left axis group plus a trailing bond axis, ``right``
    carries a leading bond axis plus the right axis group. Both are isometries
    over their group axes. ``discarded_weight`` is the squared sum of the
    singular values removed by truncation.
    """

    left: np.ndarray
    singular_values: np.ndarray
    right: np.ndarray
    discarded_weight: float


def svd_truncated(t, left_axes: int, budget: float) -> SvdResult:
    """Truncated SVD of ``t`` split after its first ``left_axes`` axes.

    The tensor is reshaped (row-major) to a matrix over the two axis groups
    and decomposed. The maximal trailing set of singular values whose squared
    sum stays within ``budget`` is removed; at least one value is always
    retained.
    """
    t = np.asarray(t, dtype=np.complex128)
    if not 0 < left_axes < t.ndim:
        raise ValueError("split must leave a non-empty axis group on each side")
    if not budget >= 0:
        raise ValueError("budget must be non-negative")
    if not np.all(np.isfinite(t)):
        raise ValueError("tensor has non-finite entries")

    left_shape = t.shape[:left_axes]
    right_shape = t.shape[left_axes:]
    mat = t.reshape(math.prod(left_shape), math.prod(right_shape))
    try:
        u, s, vh = np.linalg.svd(mat, full_matrices=False)
    except np.linalg.LinAlgError:
        # gesdd can fail to converge on a matrix whose conjugate transpose it
        # decomposes fine: mat^H = v s uh gives mat = uh^H s v^H
        v, s, uh = np.linalg.svd(mat.conj().T, full_matrices=False)
        u, vh = uh.conj().T, v.conj().T

    if s.size and s[0] > 0.0:
        s = np.where(s < NOISE_FLOOR * s[0], 0.0, s)
    sq = s * s
    # tail[i] = squared mass of values i..end; remove the longest such tail
    tail = np.cumsum(sq[::-1])[::-1]
    removable = np.nonzero(tail <= budget)[0]
    keep = int(removable[0]) if removable.size else s.size
    keep = max(keep, 1)
    discarded = float(np.sum(sq[keep:]))

    return SvdResult(
        left=u[:, :keep].reshape(*left_shape, keep),
        singular_values=s[:keep].copy(),
        right=vh[:keep].reshape(keep, *right_shape),
        discarded_weight=discarded,
    )

"""Discrete p-variation norms and the flow-adapted V2 norm.

The continuum supremum over all partitions is replaced by the supremum over
the sample times, which is exact for the piecewise-constant interpolant and
is the declared semantics of every variation quantity here. A partition is
any strictly increasing subset of sample indices; the convention v(inf) = 0
is one extra jump of size ||v(t_last)|| appended after the final time.

The dynamic program below is bitwise-equal to exhaustive enumeration of all
partitions: IEEE round-to-nearest addition is monotone, so maximizing before
adding the next increment never changes the attained floating-point maximum.
"""

from __future__ import annotations

import numpy as np

from .airy import phase_matrix
from .grid import Path


def increment_tables(rows: np.ndarray, weight: float):
    """(D, nrm): pairwise increment sizes and vector norms of the (m, dim)
    rows of a sampled path under the pairing weight * Re sum(a * conj(b)),
    the spatial L2 pairing when rows are stored bins scaled by the square
    roots of their Parseval weights (weight = L) or sample vectors
    (weight = L/N).

    Complex rows are read as real vectors, and distances are those of the
    rows centred on their mean (gram_distances). Centring leaves every
    difference unchanged and shrinks the rows to the size of the path's own
    variation, so the small increments of a nearly constant path are not
    lost to cancellation against ||v||^2. Norms are summed from the
    uncentred rows directly.
    """
    R = np.ascontiguousarray(rows)
    if R.ndim != 2 or not (weight > 0):
        raise ValueError("need rows (m, dim) and a positive weight")
    if len(R) == 0:
        return np.zeros((0, 0)), np.zeros(0)
    if np.iscomplexobj(R):
        R = R.view(R.real.dtype)
    return (gram_distances(R - R.mean(axis=0), weight),
            np.sqrt(weight * np.einsum("ij,ij->i", R, R)))


def gram_distances(rows: np.ndarray, weight: float) -> np.ndarray:
    """sqrt(max(d_j + d_k - 2 G_jk, 0)) for centred rows, G = weight A A^T
    their Gram matrix and d its diagonal. A is the rows' real view: complex
    rows (with a contiguous last axis) are read as real vectors, real and
    imaginary parts side by side, whose dot products are the real parts of
    the complex ones."""
    a = rows.view(np.float64) if rows.dtype == np.complex128 else rows
    G = weight * (a @ a.T)
    d = np.diagonal(G)
    D2 = d[:, None] + d[None, :] - 2.0 * G
    np.maximum(D2, 0.0, out=D2)
    return np.sqrt(D2, out=D2)


def vp_batch(D: np.ndarray, nrm: np.ndarray, p: float) -> list:
    """vp_norm of each path in a stack of increment tables D (B, m, m) and
    norms nrm (B, m), as Python floats.

    Dynamic program: M[k] = max over j < k of M[j] + d(j,k)^p, one k-loop
    for the whole stack. Maxima are exact and each entry is summed as in a
    lone DP, so every value is bitwise the one path's own.
    """
    Dp = D ** p
    M = np.zeros(nrm.shape)
    for k in range(1, M.shape[1]):
        np.maximum.reduce(M[:, :k] + Dp[:, :k, k], axis=1, out=M[:, k])
    return [float(b) ** (1.0 / p) for b in np.max(M + nrm ** p, axis=1)]


def vp_norm(rows: np.ndarray, weight: float, p: float) -> float:
    """Supremum over all sample-time partitions of the l^p increment sum
    plus the terminal jump, of the rows under the pairing weight
    (increment_tables; vp_batch of one path)."""
    p = float(p)
    if p < 1:
        raise ValueError("p must be >= 1")
    D, nrm = increment_tables(rows, weight)
    return vp_batch(D[None], nrm[None], p)[0] if nrm.size else 0.0


def v2_kdv_norm(path: Path) -> float:
    """V^2 norm of the flow-undone path: the rows S(-t_k) u(t_k) in spectral
    form, under the L2 pairing (each bin scaled by the square root of its
    Parseval weight, one weight L), then vp_norm.

    Free solutions pull back to constants, so their value is exactly the
    terminal jump ||phi||."""
    rows = phase_matrix(path.grid, -1)
    np.multiply(path.spectral_matrix, rows, out=rows)
    return vp_norm(rows * np.sqrt(path.grid.bin_weights),
                   path.grid.domain_length, 2.0)

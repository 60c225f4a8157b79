"""Discrete p-variation norms and the flow-adapted V2 norm.

The continuum supremum over all partitions is replaced by the supremum over
the sample times, which is exact for the piecewise-constant interpolant and
is the declared semantics of every variation quantity here. A partition is
any strictly increasing subset of sample indices; the convention v(inf) = 0
is one extra jump of size ||v(t_last)|| appended after the final time, and
can be toggled off for experiments.

The dynamic program below is bitwise-equal to exhaustive enumeration of all
partitions: IEEE round-to-nearest addition is monotone, so maximizing before
adding the next increment never changes the attained floating-point maximum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .airy import phase_matrix
from .grid import Path


@dataclass(frozen=True)
class SampledPath:
    """Finitely sampled path with values in a weighted inner-product space.

    vectors: (num_times, dim) real or complex rows; the inner product is
    weight * Re sum(a * conj(b)), matching the spatial L2 pairing when rows
    are stored bins scaled by the square roots of their Parseval weights
    (weight = L) or sample vectors (weight = L/N).
    """

    times: np.ndarray
    vectors: np.ndarray
    weight: float = 1.0
    terminal: bool = True

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.float64)
        v = np.asarray(self.vectors)
        if t.ndim != 1 or v.ndim != 2 or v.shape[0] != t.size:
            raise ValueError("need times (m,) and vectors (m, dim)")
        if t.size >= 2 and not np.all(np.diff(t) > 0):
            raise ValueError("times must be strictly increasing")
        if not (self.weight > 0):
            raise ValueError("weight must be positive")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "vectors", v)

    def __len__(self):
        return self.times.size


def _sampled(path: Path, rows: np.ndarray, terminal: bool) -> SampledPath:
    """The spectral rows under the L2 pairing: each bin scaled by the
    square root of its Parseval weight, one scalar weight L."""
    return SampledPath(path.grid.times, rows * np.sqrt(path.grid.bin_weights),
                       weight=path.grid.domain_length, terminal=terminal)


def pullback_sampled(path: Path, terminal: bool = True) -> SampledPath:
    """Undo the free flow snapshotwise: rows are S(-t_k) u(t_k) in spectral form."""
    rows = phase_matrix(path.grid, -1)
    return _sampled(path, np.multiply(path.spectral_matrix, rows, out=rows), terminal)


def sampled_from_path(path: Path, terminal: bool = True) -> SampledPath:
    return _sampled(path, path.spectral_matrix, terminal)


def increment_tables(sp: SampledPath):
    """(D, nrm): pairwise increment sizes and vector norms.

    Complex rows are read as real vectors, and distances are those of the
    rows centred on their mean (gram_distances). Centring leaves every
    difference unchanged and shrinks the rows to the size of the path's own
    variation, so the small increments of a nearly constant path are not
    lost to cancellation against ||v||^2. Norms are summed from the
    uncentred rows directly.
    """
    R = np.ascontiguousarray(sp.vectors)
    if np.iscomplexobj(R):
        R = R.view(R.real.dtype)
    return (gram_distances(R - R.mean(axis=0), sp.weight),
            np.sqrt(sp.weight * np.einsum("ij,ij->i", R, R)))


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


def vp_batch(D: np.ndarray, nrm: np.ndarray, p: float,
             terminal: bool = True) -> list:
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
    best = np.max(M + nrm ** p, axis=1) if terminal else np.max(M, axis=1)
    return [float(b) ** (1.0 / p) for b in best]


def vp_norm(sp: SampledPath, p: float) -> float:
    """Supremum over all sample-time partitions of the l^p increment sum,
    plus the terminal jump when the v(inf)=0 convention is on (vp_batch of
    one path)."""
    p = float(p)
    if p < 1:
        raise ValueError("p must be >= 1")
    if len(sp) == 0:
        return 0.0
    D, nrm = increment_tables(sp)
    return vp_batch(D[None], nrm[None], p, sp.terminal)[0]


def v2_kdv_norm(path: Path, terminal: bool = True) -> float:
    """V^2 norm of the flow-undone path (pull back by S(-t), then vp_norm).

    Free solutions pull back to constants, so their value is exactly the
    terminal jump ||phi||."""
    return vp_norm(pullback_sampled(path, terminal=terminal), 2.0)

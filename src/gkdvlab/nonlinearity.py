"""Real-power nonlinearity, frequency truncations, and decomposition identities.

The two check routines verify, in floating point, the exact algebraic
identities that rewrite |u|^{p-1}u as band sums of truncated fields. Both
identities hold pointwise at every sample (they are the fundamental theorem
of calculus in the value u(x)), so the only genuine error source is the
quadrature in the truncation parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from . import littlewood_paley as lp
from .grid import Field, GridSpec, to_samples, to_spectrum


class ExpansionBudgetError(Exception):
    """Nested band sum would exceed the configured work budget."""


_ABS_FLOOR = 1e-300  # keeps 0**0 away from the power kernels


def _power(a: np.ndarray, e: float) -> np.ndarray:
    """a ** e for a > 0 and e >= 0, in a itself or a new array: by squarings
    of a in place and products when e is a whole number (x^4 is (x^2)^2), from
    a copy of the first factor unless it is the only one; by float pow otherwise."""
    if not float(e).is_integer():
        return a ** e
    n, out = int(e), None
    if n == 0:
        return np.ones_like(a)
    while n:
        if n & 1:
            if out is None:
                out = a if n == 1 else a.copy()
            else:
                out *= a
        n >>= 1
        if n:
            a *= a
    return out


@dataclass(frozen=True)
class PowerLaw:
    """f(x) = |x|^{p-1} x with derivatives through order four.

    The order-k derivative is prod_{i<k}(p-i) times |x|^{p-1-k} x for even k
    and |x|^{p-k} for odd k; no order beyond four is ever needed here.
    """

    p: float
    coefficients: Tuple[float, ...] = field(init=False)

    def __post_init__(self):
        if not (self.p >= 5.0):
            raise ValueError("power must satisfy p >= 5")
        c = [1.0]
        for i in range(4):
            c.append(c[-1] * (self.p - i))
        object.__setattr__(self, "coefficients", tuple(c))

    def derivative(self, x, order: int = 0):
        if not (0 <= order <= 4):
            raise ValueError("derivative order must be in 0..4")
        x = np.asarray(x, dtype=np.float64)
        ax = np.abs(x, out=np.empty_like(x))
        np.maximum(ax, _ABS_FLOOR, out=ax)
        even = order % 2 == 0
        out = _power(ax, self.p - order - even)
        if self.coefficients[order] != 1.0:
            out *= self.coefficients[order]
        if even:
            out *= x
        return out[()]  # a scalar for a scalar x

    def __call__(self, x):
        return self.derivative(x, 0)


def expansion_constant(p: float) -> float:
    """Constant in front of the four-fold band decomposition: the order-4
    derivative prefactor p(p-1)(p-2)(p-3). Equals 120 at p = 5."""
    return PowerLaw(p).coefficients[4]


# zero-padding ratio of every nonlinear product: exact for a quadratic product
# of fields on the stored bins; for p = 5 and 7 the alias part is at rounding
# on the seeded CLI data, and no finite ratio is exact for a non-integer p
DEALIAS_FACTOR = 2.0
# bytes of padded samples per block of power_spectra rows: 8 rows at 2N = 8192
_POWER_BLOCK_BYTES = 1 << 19


def _padded_size(grid: GridSpec) -> int:
    return int(round(DEALIAS_FACTOR * grid.num_points))


def power_spectra(c: np.ndarray, grid: GridSpec, p: float) -> np.ndarray:
    """Spectra of |f|^{p-1} f for the fields whose spectra are c along the
    last axis (one field or a whole path), in a new C-contiguous (..., N/2) array.

    This is the Galerkin truncation of the nonlinearity: f(u) is formed on
    DEALIAS_FACTOR * N samples of the bins m < N/2, in row blocks of at most
    _POWER_BLOCK_BYTES padded samples, and cut back to those bins, with no
    roll-off. Real powers alias; the padding pushes the dominant aliases out
    of the stored bins. Overflowed values come back as NaN or inf; the callers
    that need finite spectra refuse them.
    """
    law, n, m = PowerLaw(p), grid.num_points, _padded_size(grid)
    out = np.empty(c.shape[:-1] + (n // 2,), dtype=np.complex128)
    rows, into = c.reshape(-1, c.shape[-1]), out.reshape(-1, n // 2)
    step = max(1, _POWER_BLOCK_BYTES // (8 * m))
    for i in range(0, rows.shape[0], step):
        into[i:i + step] = to_spectrum(law(to_samples(rows[i:i + step], m)), n)
    return out


def evaluate_power(f: Field, p: float) -> Field:
    """|f|^{p-1} f formed on the zero-padded grid and cut back to the stored
    bins m < N/2 (power_spectra), with no roll-off."""
    return Field.from_coefficients(f.grid, power_spectra(f.coefficients, f.grid, p))


def _gl_nodes(n: int):
    if n < 1:
        raise ValueError("need at least one quadrature node")
    x, w = np.polynomial.legendre.leggauss(int(n))
    return (x + 1.0) / 2.0, w / 2.0


def window_project(u: Field, band: range) -> Field:
    """Sharp spectral window where the band's partition sums to one.

    Keeps |xi| in [2 lam_{zmin-1}, lam_zmax]; outside it the telescoping
    sums cannot reproduce u, so the identity checks pre-project."""
    lo = 2.0 * lp.scale_value(band.start - 1)
    hi = lp.scale_value(band.stop - 1)
    xi = u.grid.frequencies
    keep = (xi >= lo) & (xi <= hi)
    return Field.from_coefficients(u.grid, np.where(keep, u.coefficients, 0.0))


def _rel_l2(a: np.ndarray, b: np.ndarray) -> float:
    scale = float(np.linalg.norm(b))
    if scale == 0.0:
        return float(np.linalg.norm(a))
    return float(np.linalg.norm(a - b)) / scale


def telescoping_check(u: Field, p: float, band=None, nodes: int = 16) -> float:
    """Relative L2 residual of the one-level band decomposition of f(u).

    Rebuilds f(u) as sum over band scales of int_0^1 f'(blend) dtau times
    the band piece, with Gauss-Legendre in tau, and compares against the
    direct pointwise power. Scales whose band piece vanishes identically
    contribute nothing and are skipped.

    The `nodes`-point rule is exact when f' along the blend is a polynomial
    in tau of degree at most 2*nodes - 1; at odd integer p that degree is
    p - 1 (3 nodes at p=5). Below that node count the residual is the
    tau-quadrature error and falls as nodes are added; past it the
    residual is rounding noise and need not decrease.
    """
    grid = u.grid
    if band is None:
        band = lp.default_band(grid)
    u = window_project(u, band)
    law = PowerLaw(p)
    target = law(u.values)
    tnorm = float(np.linalg.norm(target))
    if tnorm == 0.0:
        return 0.0
    tau, wts = _gl_nodes(nodes)
    uh = u.coefficients
    n = grid.num_points
    acc = np.zeros(n)
    for z in band:
        psi = lp.symbol_array(grid, z, "psi")
        piece_h = psi * uh
        if not np.any(piece_h):
            continue
        low = lp.symbol_array(grid, z - 1, "leq")
        rows = low[None, :] + tau[:, None] * psi[None, :]
        stack = np.vstack([rows * uh[None, :], piece_h[None, :]])
        vals = to_samples(stack, n)
        blend = law.derivative(vals[:-1], 1)
        acc += (wts @ blend) * vals[-1]
    return _rel_l2(acc, target)


def _chain_cutoffs(band: range, length: int) -> List[int]:
    zs = np.linspace(band.start - 1, band.stop - 1, length + 1)
    zs = sorted(set(int(round(z)) for z in zs))
    if zs[0] != band.start - 1:
        zs.insert(0, band.start - 1)
    if zs[-1] != band.stop - 1:
        zs.append(band.stop - 1)
    return zs


_EXPANSION_BUDGET = 6_000_000  # elementary transforms of one nested band sum


def quintic_expansion_check(u: Field, p: float, band=None, nodes: int = 8) -> float:
    """Relative L2 residual of the four-fold nested band decomposition.

    The band lattice is coarsened to a short chain of cutoffs (the percent-
    spaced lattice would make the nested sum astronomically large); the
    telescoping is exact for any chain drawn from the lattice. The sum runs
    over all four band indices independently: every factor is a multiplier
    applied in spectral space, and the innermost level is batched.
    """
    grid = u.grid
    if band is None:
        band = lp.default_band(grid)
    u = window_project(u, band)
    law = PowerLaw(p)
    cexp = expansion_constant(p)
    target = law(u.values)
    tnorm = float(np.linalg.norm(target))
    if tnorm == 0.0:
        return 0.0
    tau, wts = _gl_nodes(nodes)
    zs = _chain_cutoffs(band, 3)
    n = grid.num_points
    uh = u.coefficients
    cum = [lp.symbol_array(grid, z, "leq") for z in zs]
    bands = [cum[i] - cum[i - 1] for i in range(1, len(cum))]
    live = [i for i, q in enumerate(bands) if np.any(q * uh)]
    nb = len(live)
    work = (nb * nodes) ** 4
    if work > _EXPANSION_BUDGET:
        raise ExpansionBudgetError(
            "nested band sum needs a budget of %d elementary transforms "
            "(budget is %d); coarsen the chain or lower the node count"
            % (work, _EXPANSION_BUDGET))

    cum_below = [cum[i] for i in live]
    q_live = [bands[i] for i in live]
    blends = [cum_below[i][None, :] + tau[:, None] * q_live[i][None, :]
              for i in range(nb)]

    def level(m: np.ndarray, depth: int) -> np.ndarray:
        """Sum over live band i and node a of w_a P_i(m u) times the next level at
        blends[i][a] m; at depth 1 that level, over the last two band indices, is one batch."""
        acc = np.zeros(n)
        for i in range(nb):
            piece = to_samples(q_live[i] * m * uh, n)
            for a in range(nodes):
                mm = blends[i][a] * m
                if depth > 1:
                    inner = level(mm, depth - 1)
                else:
                    base = mm * uh
                    stack = np.empty((nb * nodes + nb, uh.size), dtype=np.complex128)
                    for i2 in range(nb):
                        stack[i2 * nodes:(i2 + 1) * nodes] = blends[i2] * base[None, :]
                        stack[nb * nodes + i2] = q_live[i2] * base
                    vals = to_samples(stack, n)
                    v, pieces = vals[:nb * nodes], vals[nb * nodes:]
                    core = cexp * np.maximum(np.abs(v), _ABS_FLOOR) ** (p - 5.0) * v
                    summed = np.einsum("a,ban->bn", wts, core.reshape(nb, nodes, n))
                    inner = (summed * pieces).sum(axis=0)
                acc += wts[a] * inner * piece
        return acc

    return _rel_l2(level(1.0, 3), target)

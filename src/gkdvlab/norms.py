"""Scale-indexed norms over the 1.01-adic band lattice and the critical rescaling.

Every supremum over scales reports its argmax; sup-norms fail opaquely
otherwise. Band arguments are ranges of lattice exponents; None means the
grid's full resolvable band.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import littlewood_paley as lp
from .airy import phase_matrix
from .grid import Field, GridSpec, Path
from .io import canonical_json
from .variation import SampledPath, vp_norm


@dataclass(frozen=True)
class CriticalIndex:
    """Nonlinearity power together with its scale-invariant regularity."""

    p: float
    s_p: float

    def __post_init__(self):
        if not (self.p >= 5.0):
            raise ValueError("power must satisfy p >= 5")


def critical_index(p: float) -> CriticalIndex:
    p = float(p)
    if not (p >= 5.0):
        raise ValueError("power must satisfy p >= 5")
    return CriticalIndex(p, 0.5 - 2.0 / (p - 1.0))


@dataclass(frozen=True)
class NormReport:
    name: str
    s: float
    band_lo: int
    band_hi: int
    value: float
    argmax_scale: Optional[float]
    out_of_band_fraction: float

    def to_dict(self) -> dict:
        return {
            "norm": self.name,
            "s": self.s,
            "band": [self.band_lo, self.band_hi],
            "value": self.value,
            "argmax_scale": self.argmax_scale,
            "out_of_band_fraction": self.out_of_band_fraction,
        }

    def to_json(self) -> str:
        return canonical_json(self.to_dict())


def _resolve_band(grid: GridSpec, band) -> range:
    if band is None:
        return lp.default_band(grid)
    if isinstance(band, range):
        return band
    lo, hi = band
    return range(int(lo), int(hi) + 1)


def out_of_band_fraction(f: Field, band) -> float:
    """Squared-L2 fraction of f not reproduced by the band's partition.

    The mean mode is never covered, so fields with nonzero mean always show
    a positive fraction.
    """
    band = _resolve_band(f.grid, band)
    c2 = np.abs(f.coefficients) ** 2
    total = float(np.sum(c2))
    if total == 0.0:
        return 0.0
    mask = lp.partition_sum(f.grid, band)
    resid = float(np.sum((1.0 - mask) ** 2 * c2))
    return resid / total


def besov_report(f: Field, s: float, band=None) -> NormReport:
    """sup over band scales of lam^s ||P_z f||_{L2}, with argmax."""
    band = _resolve_band(f.grid, band)
    vals = np.sqrt(lp.band_energies(f, band))
    best = 0.0
    arg = None
    for i, z in enumerate(band):
        v = lp.scale_value(z) ** s * vals[i]
        if v > best:
            best = v
            arg = lp.scale_value(z)
    return NormReport("besov", float(s), band.start, band.stop - 1,
                      best, arg, out_of_band_fraction(f, band))


def besov_norm(f: Field, s: float, band=None) -> float:
    return besov_report(f, s, band).value


def sobolev_report(f: Field, s: float, band=None) -> NormReport:
    """l2 over band scales of lam^s ||P_z f||_{L2}; argmax is the top term."""
    band = _resolve_band(f.grid, band)
    vals = np.sqrt(lp.band_energies(f, band))
    total = 0.0
    best = 0.0
    arg = None
    for i, z in enumerate(band):
        term = (lp.scale_value(z) ** s * vals[i]) ** 2
        total += term
        if term > best:
            best = term
            arg = lp.scale_value(z)
    return NormReport("sobolev", float(s), band.start, band.stop - 1,
                      float(np.sqrt(total)), arg, out_of_band_fraction(f, band))


def sobolev_norm(f: Field, s: float, band=None) -> float:
    return sobolev_report(f, s, band).value


def xs_report(path: Path, s: float, band=None) -> NormReport:
    """sup over band scales of lam^s V2 of the flow-undone localized path.

    Exact V2 per band is a dynamic program, so scales are screened first by
    the cheap full-chain V1 bound (V2 <= V1) and only survivors are solved
    exactly, best-first.
    """
    grid = path.grid
    band = _resolve_band(grid, band)
    # out-of-band fraction is reported for the initial snapshot
    g = path.spectral_matrix * phase_matrix(grid, -1)
    L = grid.domain_length
    diffs = np.abs(np.diff(g, axis=0)) ** 2
    last = np.abs(g[-1]) ** 2
    entries = []
    for z in band:
        start, row = lp.band_row(grid, z)
        if row.size == 0:
            continue
        # the span and its mirror at N - bin, in fft order
        pos = np.arange(start, start + row.size)
        idx = np.concatenate([pos, grid.num_points - pos[::-1]])
        psi = np.concatenate([row, row[::-1]])
        p2 = psi ** 2
        v1 = float(np.sum(np.sqrt(L * diffs[:, idx] @ p2)))
        v1 += float(np.sqrt(L * last[idx] @ p2))
        if v1 > 0.0:
            entries.append((lp.scale_value(z) ** s * v1, z, idx, psi))
    entries.sort(key=lambda e: -e[0])
    best = 0.0
    arg = None
    for bound, z, idx, psi in entries:
        if bound <= best:
            break
        sp = SampledPath(grid.times, g[:, idx] * psi, weight=L)
        v = lp.scale_value(z) ** s * vp_norm(sp, 2.0)
        if v > best:
            best = v
            arg = lp.scale_value(z)
    # row 0 of the pullback is u(0) itself (S(0) is the identity)
    return NormReport("xs", float(s), band.start, band.stop - 1,
                      best, arg, out_of_band_fraction(path[0], band))


def xs_norm(path: Path, s: float, band=None) -> float:
    return xs_report(path, s, band).value


def rescaled_grid(g: GridSpec, m: int) -> GridSpec:
    """The grid of the critical rescaling by c = 1.01^m: length L/c and
    dt/c^3, so the lattice and paired time rescalings map onto themselves."""
    c = lp.scale_value(int(m))
    return GridSpec(g.domain_length / c, g.num_points, g.dt / c ** 3,
                    g.num_steps, g.dealias_factor)


def _rescale_factor(m: int, p: float) -> float:
    return lp.scale_value(int(m)) ** (2.0 / (critical_index(p).p - 1.0))


def rescale(f: Field, m: int, p: float) -> Field:
    """Critical rescaling by c = 1.01^m: x -> c x, amplitude c^{2/(p-1)}.

    The output lives on rescaled_grid(f.grid, m) with identical coefficient
    values scaled by c^{2/(p-1)}, shifted m slots up in frequency.
    """
    return Field.from_coefficients(rescaled_grid(f.grid, m),
                                   _rescale_factor(m, p) * f.coefficients,
                                   check=False)


def rescale_path(path: Path, m: int, p: float) -> Path:
    """Snapshotwise critical rescaling; the grid's dt absorbs c^{-3}."""
    return Path.from_spectral_matrix(rescaled_grid(path.grid, m),
                                     _rescale_factor(m, p)
                                     * path.spectral_matrix)

"""Frequency decomposition on the multiplicative lattice 1.01^Z.

Bands are far denser than the classical dyadic ladder: roughly 70 lattice
points per octave, and each fixed frequency xi lies in the support of about
70 neighboring band symbols (ln 2.02 / ln 1.01). The smooth symbols

    Psi_z(xi) = cutoff(|xi| / lam_z) - cutoff(|xi| / lam_{z-1})

are built from ADJACENT entries of one shared lambda table so that partial
sums over z telescope term by term; the partition-of-unity identity then
holds to ~1e-14 in floating point, not merely to the bump's smoothness.

The cutoff profile equals 1 on [0,1], vanishes outside (-2,2), and is C-inf:
    cutoff(s) = h(2-|s|) / (h(2-|s|) + h(|s|-1)),  h(t) = exp(-1/t) for t>0.
Consequently supp Psi_z = (lam_z/1.01, 2 lam_z), inside the coarser bound
(lam_z/2.02, 2 lam_z) used for disjointness bookkeeping.

Mode 0 is excluded from every projection (homogeneous convention); the mean
must be tracked separately, which reconstruction helpers do.

Symbols are even in xi and act on the stored bins 0 .. N/2 - 1 of a real
field (grid.py), so there is no mirror to fill: a band's energy is
L sum_m w_m Psi_z(xi_m)^2 |c_m|^2 with the Parseval bin weights w, and as
no band reaches mode 0 that weight is 2 on every bin a band covers.

Band symbols live in one store per frequency set (L, N), kept for the
_BANKS_KEPT most recently used sets. psi rows are the rows of narrow dense
blocks of consecutive bands over a shared window of bins (at most _SLACK
times each row's span, or at most _FLOOR bins, so that the narrow low bands
share a few blocks), zero outside each row's nonzero span; a block is
built on first use, a few rows at a time (band z's row is bump(xi / lam_z)
- bump(xi / lam_{z-1}); each bump call of at most _BUMP_VALUES values carries
its last cutoff to the next: one value per cutoff per window bin, bump clipped
to [1, 2]); two argmax passes find the rows' spans, and band_row returns views
trimmed to them. leq rows are stored one by one over their spans, and
nothing else is stored: partition_sum spreads the psi rows on each call.
Spread on the N/2 stored bins a row is bitwise the symbol on the grid
frequencies (mode 0 zeroed for leq). Band reductions run band_sums, one
matmul per block that meets the rows' support, squared on the fly, reading
a band's rows of a block as a slice where they are contiguous, each window
clipped to the bins the rows hold: rows may stop at their support's end. A band
piece (band_piece, of a Field or a Path) multiplies only the row's span,
over the bins its input stores.
"""

from __future__ import annotations

import threading
import warnings
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, List, Tuple

import numpy as np

from .grid import Field, GridSpec, _Stored, _support_end, _unit_scaled

BASE = 1.01


class CoverageWarning(UserWarning):
    """Requested band does not intersect the grid's resolvable frequencies."""


# ---------------------------------------------------------------- lambda table

_table_lock = threading.Lock()
_pos_powers = [1.0]  # _pos_powers[k] = 1.01^k by repeated multiplication


def scale_value(z: int) -> float:
    """1.01^z: repeated multiplication upward from 1, one reciprocal for z < 0.

    Every call reads the same table, so lam_{z-1} and lam_z used by a symbol
    are always the identical floats, which is what makes band sums telescope
    exactly.
    """
    z = int(z)
    k = abs(z)
    if k >= len(_pos_powers):
        with _table_lock:
            while len(_pos_powers) <= k:
                _pos_powers.append(_pos_powers[-1] * BASE)
    v = _pos_powers[k]
    return 1.0 / v if z < 0 else v


@dataclass(frozen=True)
class LPScale:
    """One lattice frequency lam = 1.01^exponent."""

    exponent: int
    lam: float

    def __post_init__(self):
        if self.lam != scale_value(self.exponent):
            raise ValueError("lam must equal the shared table value for exponent")


def scale_values(band) -> np.ndarray:
    """scale_value(z) for each z of the band, read from the same table."""
    z = np.asarray(band, dtype=np.int64)
    scale_value(int(np.abs(z).max(initial=0)))  # the table now covers the band
    v = np.array(_pos_powers)[np.abs(z)]
    return np.where(z < 0, 1.0 / v, v)


def scale(z: int) -> LPScale:
    return LPScale(int(z), scale_value(z))


# ---------------------------------------------------------------- bump profile


def bump(s):
    """Smooth even cutoff: 1 on |s|<=1, 0 on |s|>=2, strictly between otherwise: one
    pass over |s| clipped to [1, 2], where exp(-1/0) = 0 gives 1 and 0 exactly; NaN gives NaN."""
    a = np.abs(np.atleast_1d(np.asarray(s, dtype=np.float64)))
    up, dn = np.subtract(2.0, np.clip(a, 1.0, 2.0, out=a)), np.subtract(a, 1.0, out=a)
    with np.errstate(divide="ignore"):  # -1/0 = -inf, and exp(-inf) = 0
        up, dn = (np.exp(np.divide(-1.0, t, out=t), out=t) for t in (up, dn))
    np.divide(up, np.add(up, dn, out=dn), out=up)
    return float(up[0]) if np.ndim(s) == 0 else up


def psi_symbol(sc: LPScale, xi):
    """Band symbol Psi_lam(xi); nonnegative, supported in (lam/1.01, 2 lam)."""
    lam_hi = scale_value(sc.exponent)
    lam_lo = scale_value(sc.exponent - 1)
    a = np.abs(np.asarray(xi, dtype=np.float64))
    return bump(a / lam_hi) - bump(a / lam_lo)


def leq_symbol(sc: LPScale, xi):
    """Symbol of the cumulative cutoff P_{<=lam}: equals sum of Psi over z' <= z
    away from xi = 0; forced to 0 at xi = 0 (homogeneous convention)."""
    a = np.abs(np.asarray(xi, dtype=np.float64))
    out = np.asarray(bump(a / scale_value(sc.exponent)))
    return np.where(a == 0.0, 0.0, out)


# ------------------------------------------------------------ band-row store

_BANKS_KEPT = 8  # frequency sets (L, N) whose rows stay in memory
# a psi block's window of bins is at most _SLACK times each of its spans, or at most
# _FLOOR bins: the narrow low bands share a few blocks (18 is the largest floor that
# keeps the blocks within 1.3 times the spans at N = 1024)
_SLACK, _FLOOR = 1.2, 18
_BUMP_VALUES = 1 << 16  # cutoff values per bump call while a block is built


class _Bank(dict):
    """Symbols of one frequency set: bands z0 + edges[b] .. z0 + edges[b+1] - 1
    form psi block b, and no psi row outside z0 .. z0 + edges[-1] - 1 is
    nonzero. The dict holds (z, "leq") -> (first bin, row)."""

    def __init__(self, grid: GridSpec):
        band = default_band(grid)
        self.z0, self.pos = band.start - 1, grid.frequencies
        self.built, self.edges = {}, [0]
        # cut[i] = lam_{z0 + i - 1}: band z0 + i lives on (cut[i], 2 cut[i + 1])
        self.cut = scale_values(range(band.start - 2, band.stop + 1))
        lo = np.searchsorted(self.pos, self.cut[:-1], "right")
        hi = np.maximum(lo, np.searchsorted(self.pos, 2.0 * self.cut[1:]))
        # a block grows while its window stays within _SLACK of its least span or _FLOOR bins
        starts, stops = lo.tolist(), hi.tolist()
        first, least = 0, stops[0] - starts[0]
        for i in range(1, len(starts)):
            least = min(least, stops[i] - starts[i])
            window = stops[i] - starts[first]
            if window > _FLOOR and window > _SLACK * least:
                self.edges.append(i)
                first, least = i, stops[i] - starts[i]
        self.edges.append(lo.size)
        # block b's window of bins is start[b] .. stop[b] - 1; both ascend in b
        self.start, self.stop = lo[self.edges[:-1]], hi[np.subtract(self.edges[1:], 1)]

    def block(self, b: int) -> Tuple[int, np.ndarray, list]:
        """(first bin, read-only block, (first bin, row view) per band), built
        a few rows at a time: each cutoff bump(xi / lam_z) serves bands z and z + 1."""
        entry = self.built.get(b)
        if entry is None:
            i, j = self.edges[b], self.edges[b + 1]
            lo = int(self.start[b])
            pos = self.pos[lo:self.stop[b]]
            blk = np.empty((j - i, pos.size))
            # row r is cutoff r + 1 minus cutoff r; a call's last cutoff carries into the next
            step, cut = max(1, _BUMP_VALUES // (pos.size or 1)), bump(pos / self.cut[i:i + 1, None])
            for q in range(0, j - i, step):
                last, cut = cut[-1], bump(pos / self.cut[i + q + 1:min(i + q + step, j) + 1, None])
                np.subtract(cut[0], last, out=blk[q])
                np.subtract(cut[1:], cut[:-1], out=blk[q + 1:q + cut.shape[0]])
            blk.flags.writeable = False
            # row r spans bins a[r] .. e[r] - 1: argmax from both ends (one zero bin stands
            # for an empty window, which has no argmax)
            nz = blk != 0.0 if pos.size else np.zeros((j - i, 1), bool)
            a = nz.argmax(1)
            e = np.where(nz[np.arange(j - i), a], pos.size - nz[:, ::-1].argmax(1), a)
            rows = [(lo + x, blk[r, x:y]) for r, (x, y) in enumerate(zip(a.tolist(), e.tolist()))]
            entry = self.built.setdefault(b, (lo, blk, rows))
        return entry


@lru_cache(maxsize=_BANKS_KEPT)
def _bank(length: float, num_points: int) -> _Bank:
    """The symbols of every grid with this frequency set."""
    return _Bank(GridSpec(length, num_points, 1.0, 1))


def _compute_symbol(xi: np.ndarray, z: int, kind: str) -> np.ndarray:
    """The symbol of band z on the frequencies xi, read-only."""
    if kind not in ("psi", "leq"):
        raise ValueError(kind)
    arr = (psi_symbol if kind == "psi" else leq_symbol)(scale(z), xi)
    arr.flags.writeable = False
    return arr


def band_row(grid: GridSpec, z: int, kind: str = "psi") -> Tuple[int, np.ndarray]:
    """(first bin, read-only row) of the symbol over its nonzero span of
    bins 1 .. N/2 - 1, shared; a psi row is a view into its block."""
    bank, z = _bank(grid.domain_length, grid.num_points), int(z)
    if kind == "psi" and 0 <= z - bank.z0 < bank.edges[-1]:
        b = bisect_right(bank.edges, z - bank.z0) - 1
        return bank.block(b)[2][z - bank.z0 - bank.edges[b]]
    key = (z, kind)
    entry = bank.get(key)
    if entry is None:
        pos = grid.frequencies
        # psi vanishes for xi <= lam_{z-1}, both kinds for xi >= 2 lam_z
        lo = 1 if kind == "leq" else int(np.searchsorted(pos, scale_value(z - 1), "right"))
        hi = max(lo, int(np.searchsorted(pos, 2.0 * scale_value(z))))
        row = _compute_symbol(pos[lo:hi], z, kind)
        nz = np.flatnonzero(row)
        entry = bank.setdefault(key, (lo + int(nz[0]), row[nz[0]:nz[-1] + 1])
                                if nz.size else (lo, row[:0]))
    return entry


def band_sums(grid: GridSpec, band, x: np.ndarray) -> np.ndarray:
    """sum_m Psi_z(xi_m)^2 x[k, m] in row k, column i, for the i-th band z of
    an ascending band and rows x[k] on the leading stored bins (zero past
    them): one matmul per block whose window meets the span of nonzero
    columns of x, against its rows squared on the fly, the window clipped to
    the columns of x, so x may stop where its support ends. Empty rows give zeros."""
    bank = _bank(grid.domain_length, grid.num_points)
    idx = np.asarray(band, dtype=np.int64) - bank.z0
    out = np.zeros((x.shape[0], idx.size))
    first, end = x.shape[1] - _support_end(x[:, ::-1]), _support_end(x)
    at, idx = np.searchsorted(idx, bank.edges).tolist(), idx.tolist()
    for b in range(int(np.searchsorted(bank.stop, first, "right")),
                   int(np.searchsorted(bank.start, end))):
        u, v = at[b], at[b + 1]
        if u == v:
            continue
        lo, blk, _ = bank.block(b)
        r, edge = idx[u] - bank.edges[b], idx[v - 1] - bank.edges[b]
        cols = min(blk.shape[1], x.shape[1] - lo)
        # a band covering the block's rows contiguously reads them as a slice
        w = np.square(blk[r:edge + 1, :cols] if edge - r == v - 1 - u
                      else blk[[z - bank.edges[b] for z in idx[u:v]], :cols])
        out[:, u:v] = x[:, lo:lo + cols] @ w.T
    return out


def _spread(grid: GridSpec, rows: Iterable[Tuple[int, np.ndarray]]) -> np.ndarray:
    """Sum of (first bin, row) spans on the N/2 stored bins."""
    out = np.zeros(grid.num_points // 2)
    for start, row in rows:
        out[start:start + row.size] += row
    return out


def symbol_array(grid: GridSpec, z: int, kind: str = "psi") -> np.ndarray:
    """The symbol on the grid frequencies, spread from its stored row."""
    return _spread(grid, [band_row(grid, z, kind)])


def band_energies(f: Field, band: Iterable[int]) -> Tuple[np.ndarray, int]:
    """(||P_z 2^e f||_{L2}^2 for each z of an ascending band, e), in one
    band_sums over f's support; 2^e as grid._unit_scaled sets it."""
    c, e = _unit_scaled(f.bins(f.spectral_end))
    c2 = f.grid.bin_weights[:c.size] * np.abs(c) ** 2
    return f.grid.domain_length * band_sums(f.grid, band, c2[None, :])[0], e


# ----------------------------------------------------------------- projections


def _band_is_resolvable(grid: GridSpec, sc: LPScale) -> bool:
    return (2.0 * sc.lam > grid.delta_xi) and (sc.lam / BASE < grid.resolvable_max)


def band_piece(x: _Stored, z: int, kind: str) -> _Stored:
    """The band z piece (kind "psi") or low-pass piece ("leq") of a Field or
    a Path, of its type, up to the lesser of its spectral end and the end of
    the symbol's span."""
    start, row = band_row(x.grid, z, kind)
    end = min(x.spectral_end, start + row.size)
    if end <= start:
        return type(x).zero(x.grid)
    c = x.bins(end)
    out = np.zeros(c.shape, dtype=np.complex128)
    np.multiply(c[..., start:], row[:end - start], out=out[..., start:])
    return type(x)._adopt(x.grid, out, end)


def project(f: Field, sc: LPScale) -> Field:
    """P_lam f: multiply coefficients by Psi_lam. Out-of-band scales produce a
    zero field and a CoverageWarning."""
    if not _band_is_resolvable(f.grid, sc):
        warnings.warn(
            f"band z={sc.exponent} (lam={sc.lam:.4g}) lies outside the resolvable "
            f"range [{f.grid.delta_xi:.4g}, {f.grid.resolvable_max:.4g}]",
            CoverageWarning,
            stacklevel=2,
        )
        return Field.zero(f.grid)
    return band_piece(f, sc.exponent, "psi")


def default_band(grid: GridSpec) -> range:
    """Exponent range covering all nonzero resolvable grid frequencies.

    Bottom: smallest z with lam > delta_xi / 2, so the cumulative cutoff below
    the band vanishes on every grid frequency. Top: smallest z with
    lam >= top resolvable frequency, rounding OUTWARD so the partition still
    sums to 1 at the topmost frequencies (the top lambda may exceed pi N / L
    by under one percent). Empty on grids with no nonzero resolvable mode.
    """
    lo_target = grid.delta_xi / 2.0
    z = int(np.floor(np.log(lo_target) / np.log(BASE)))
    while scale_value(z) <= lo_target:
        z += 1
    while z > -10_000_000 and scale_value(z - 1) > lo_target:
        z -= 1
    z_min = z
    hi_target = grid.resolvable_max
    if hi_target <= 0:  # N <= 2: no nonzero mode is resolvable
        return range(z_min, z_min)
    z = int(np.ceil(np.log(hi_target) / np.log(BASE)))
    while scale_value(z) < hi_target:
        z += 1
    while z > z_min and scale_value(z - 1) >= hi_target:
        z -= 1
    z_max = z
    return range(z_min, z_max + 1)


def partition_sum(grid: GridSpec, band: range) -> np.ndarray:
    """sum_z Psi_z on the N/2 stored bins (telescopes exactly), added in z order."""
    return _spread(grid, (band_row(grid, z) for z in band))


def decompose(f: Field, band: Iterable[int]) -> List[Tuple[LPScale, Field]]:
    """Ordered (scale, P_lam f) list over the band; linear in f."""
    return [(scale(z), project(f, scale(z))) for z in band]


def reconstruct(pieces: List[Tuple[LPScale, Field]], mean_field: Field) -> Field:
    out = mean_field
    for _, piece in pieces:
        out = out + piece
    return out


def mean_mode(f: Field) -> Field:
    c = np.zeros_like(f.coefficients)
    c[0] = f.coefficients[0].real
    return Field.from_coefficients(f.grid, c)

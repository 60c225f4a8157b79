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
from .variation import distances, vp_batch


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
    c2 = f.grid.bin_weights * np.abs(f.coefficients) ** 2
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


# bytes of working memory the V2 engine of xs_report may hold at once: the
# weights of one screen block, or the Gram, distance and powered distance
# tables (3 x m x m floats per band) of one chunk of bands
_ENGINE_BYTES = 1 << 23


def _band_columns(e: np.ndarray, spans: list, L2: float) -> np.ndarray:
    """sqrt(L2 * e[:, span] . row^2) for each (first bin, row) span, one
    column per band. Consecutive bands share one matmul over the window of
    bins their spans cover, as long as the weight block fits the budget."""
    out = np.empty((e.shape[0], len(spans)))
    i = 0
    while i < len(spans):
        lo = spans[i][0]
        j = i + 1
        while j < len(spans) and (spans[j][0] + spans[j][1].size - lo) \
                * (j + 1 - i) * 8 <= _ENGINE_BYTES:
            j += 1
        W = np.zeros((j - i, max(st + row.size for st, row in spans[i:j]) - lo))
        for b, (start, row) in enumerate(spans[i:j]):
            W[b, start - lo:start - lo + row.size] = row * row
        out[:, i:j] = e[:, lo:lo + W.shape[1]] @ W.T
        i = j
    return np.sqrt(L2 * out)


def _energy(x: np.ndarray) -> np.ndarray:
    """|x|^2 elementwise."""
    return x.real ** 2 + x.imag ** 2


def _band_values(cen: np.ndarray, energy: np.ndarray, bands: list,
                 s: float, L2: float) -> list:
    """lam^s V2 of each (z, first bin, row) band, one batched DP for all:
    the Gram matrix of a band is L2 A A^T, A the real view of its span of
    the centred pullback weighted by the row; the norms come from |g|^2."""
    G = np.empty((len(bands), cen.shape[0], cen.shape[0]))
    nrm = np.empty((len(bands), cen.shape[0]))
    for b, (_, start, row) in enumerate(bands):
        a = (cen[:, start:start + row.size] * row).view(np.float64)
        np.matmul(a, a.T, out=G[b])
        nrm[b] = energy[:, start:start + row.size] @ (row * row)
    G *= L2
    return [lp.scale_value(z) ** s * v for (z, _, _), v
            in zip(bands, vp_batch(distances(G), np.sqrt(L2 * nrm), 2.0))]


def xs_report(path: Path, s: float, band=None) -> NormReport:
    """sup over band scales of lam^s V2 of the flow-undone localized path.

    Exact V2 per band is a dynamic program, so bands are screened by the
    cheap full-chain V1 bound (V2 <= V1) and visited best-first: in order of
    bound descending, then z ascending, stopping at the first band whose
    bound is at most the best value so far. The argmax is the first visited
    band attaining the maximum.

    Three things cut the work without changing that answer. The band with
    the largest terminal jump is solved first; once the visit has passed it
    the best is at least its value, so no band after the first later bound
    at most that value is visited. A visited band whose second bound,
    sqrt(diam V1 + max_k |g_k|^2), is below the best so far or below that
    first value cannot be the argmax and is not solved; skipping it only
    lowers the running best, which can lengthen the visit but not change
    its maximum. The rest are solved in chunks, one batched DP per chunk,
    and their values are taken in visiting order under the same stop rule,
    so bands solved past the sequential stop (values at most their bound,
    hence at most the best) never change the answer.

    The pullback is centred over time once: centring commutes with the band
    weights, so each band's Gram matrix is that of its own centred rows,
    built from one contiguous slice. No band reaches mode 0, so every bin
    it covers has Parseval weight 2 and all its sums carry the factor 2L.
    """
    grid = path.grid
    band = _resolve_band(grid, band)
    L2 = 2.0 * grid.domain_length
    g = path.spectral_matrix * phase_matrix(grid, -1)
    bands = [(z,) + lp.band_row(grid, z) for z in band]
    bands = [(z, start, row) for z, start, row in bands if row.size]
    spans = [(start, row) for _, start, row in bands]
    energy = _energy(g)
    # V1: the K increments plus the terminal jump g[-1]
    chain = _band_columns(
        np.vstack([_energy(np.diff(g, axis=0)), energy[-1:]]), spans, L2)
    steps = chain[:-1].sum(axis=0)
    entries = [(lp.scale_value(b[0]) ** s * float(v + t), float(t), float(v), b)
               for b, v, t in zip(bands, steps, chain[-1]) if v + t > 0.0]
    entries.sort(key=lambda e: -e[0])
    g -= g.mean(axis=0)  # centred from here on
    spread = _energy(g)

    def unbeatable(e) -> bool:
        # no partition's sum of squared steps exceeds its largest step (at
        # most the diameter, min(V1, 2 max_k |g_k - mean|)) times its total
        # (at most V1), so V2^2 <= diam V1 + max_k |g_k|^2. A band below the
        # value of x cannot be the argmax either. The margin, far above the
        # DP's rounding, leaves near-ties to the DP.
        _, _, total, (z, start, row) = e
        span, w2 = slice(start, start + row.size), row * row
        diam = min(total, 2.0 * np.sqrt(L2 * (spread[:, span] @ w2).max()))
        top = diam * total + L2 * (energy[:, span] @ w2).max()
        return (1.0 + 1e-9) * lp.scale_value(z) ** s * np.sqrt(top) <= max(best, cut)

    m = g.shape[0]
    chunk = max(1, _ENGINE_BYTES // (24 * m * m))
    best = cut = 0.0
    arg = None
    vals = {}
    if entries:
        # the visit never reaches a band after x whose bound is at most x's value
        x = max(range(len(entries)), key=lambda k: entries[k][1])
        vals[x] = cut = _band_values(g, energy, [entries[x][3]], s, L2)[0]
        del entries[next((k for k in range(x + 1, len(entries))
                          if entries[k][0] <= cut), len(entries)):]
    i = 0
    while i < len(entries):
        todo = range(i, min(i + chunk, len(entries)))
        solve = [k for k in todo if k not in vals and not entries[k][0] <= best
                 and not unbeatable(entries[k])]
        if solve:
            vals.update(zip(solve, _band_values(
                g, energy, [entries[k][3] for k in solve], s, L2)))
        i = todo.stop
        for k in todo:
            bound, _, _, (z, _, _) = entries[k]
            if bound <= best:
                i = len(entries)
                break
            if vals.get(k, 0.0) > best:
                best = vals[k]
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
                                   _rescale_factor(m, p) * f.coefficients)


def rescale_path(path: Path, m: int, p: float) -> Path:
    """Snapshotwise critical rescaling; the grid's dt absorbs c^{-3}."""
    return Path.from_spectral_matrix(rescaled_grid(path.grid, m),
                                     _rescale_factor(m, p)
                                     * path.spectral_matrix)

"""Scale-indexed norms over the 1.01-adic band lattice and the critical rescaling.

Every supremum over scales reports its argmax; sup-norms fail opaquely
otherwise. Band arguments are ranges of lattice exponents; None means the
grid's full resolvable band.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import littlewood_paley as lp
from .airy import phase_matrix
from .grid import Field, GridSpec, Path, _unit_scaled
from .io import canonical_json
from .variation import gram_distances, vp_batch


@dataclass(frozen=True)
class CriticalIndex:
    """Nonlinearity power together with its scale-invariant regularity."""

    p: float

    def __post_init__(self):
        if not (self.p >= 5.0):
            raise ValueError("power must satisfy p >= 5")

    @property
    def s_p(self) -> float:
        return 0.5 - 2.0 / (self.p - 1.0)


def critical_index(p: float) -> CriticalIndex:
    return CriticalIndex(float(p))


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
    return _out_of_band(f.grid, f.bins(f.spectral_end), band)


def _out_of_band(grid: GridSpec, coeffs: np.ndarray, band) -> float:
    """out_of_band_fraction of the field whose stored bins begin with coeffs (the rest zero)."""
    band, e = _resolve_band(grid, band), coeffs.size
    c2 = grid.bin_weights[:e] * np.abs(_unit_scaled(coeffs)[0]) ** 2
    total = float(np.sum(c2))
    if total == 0.0:
        return 0.0
    mask = lp.partition_sum(grid, band)[:e]
    resid = float(np.sum((1.0 - mask) ** 2 * c2))
    return resid / total


def _band_value(f: Field, s: float, band: range, q: float) -> Tuple[float, Optional[float]]:
    """(value, argmax) of lam_z^s ||P_z f||_{L2} over the band: their sup if q = 1,
    their l2 sum if q = 2; the argmax is the lam of the first top term, if it is > 0."""
    lam = lp.scale_values(band)
    energies, e = lp.band_energies(f, band)  # of 2^e f
    terms = (lam ** s * np.sqrt(energies)) ** q
    k = int(np.argmax(terms)) if terms.size else 0
    value = terms.max(initial=0.0) if q == 1 else np.sqrt(terms.sum())
    return float(np.ldexp(value, -e)), float(lam[k]) if terms.size and terms[k] > 0 else None


def _band_report(name: str, f: Field, s: float, band, q: float) -> NormReport:
    """_band_value with the band and the out-of-band fraction."""
    band = _resolve_band(f.grid, band)
    return NormReport(name, float(s), band.start, band.stop - 1,
                      *_band_value(f, s, band, q), out_of_band_fraction(f, band))


def besov_report(f: Field, s: float, band=None) -> NormReport:
    """sup over band scales of lam^s ||P_z f||_{L2}, with argmax."""
    return _band_report("besov", f, s, band, 1)


def besov_norm(f: Field, s: float, band=None) -> float:
    """besov_report's value alone."""
    return _band_value(f, s, _resolve_band(f.grid, band), 1)[0]


def sobolev_report(f: Field, s: float, band=None) -> NormReport:
    """l2 over band scales of lam^s ||P_z f||_{L2}; argmax is the top term."""
    return _band_report("sobolev", f, s, band, 2)


# bytes the exact solves of xs_report may hold at once: the Gram, distance and
# powered distance tables (3 x m x m floats per band) of one chunk of bands
_ENGINE_BYTES = 1 << 23


def _energy(x: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """|x|^2 elementwise, written into out; tmp (x's shape) is overwritten."""
    np.square(x.real, out=out)
    out += np.square(x.imag, out=tmp)
    return out


def _band_values(grid: GridSpec, cen: np.ndarray, zs, nrm: np.ndarray,
                 lam_s: np.ndarray, L2: float) -> np.ndarray:
    """lam^s V2 of each band z of zs, one batched DP for all: the distances
    of a band are those of its span of the centred pullback weighted by the
    row, cut at the pullback's width, under the weight L2; every row starts
    below it. nrm[:, b] holds the norms ||psi g_k||."""
    D = np.stack([gram_distances(cen[:, start:start + row.size] * row[:cen.shape[1] - start], L2)
                  for start, row in (lp.band_row(grid, z) for z in zs)])
    return lam_s * np.array(vp_batch(D, nrm.T, 2.0))


def _dp_bounds(steps: np.ndarray, cen: np.ndarray, nrm: np.ndarray) -> np.ndarray:
    """Upper bounds of the V2 values _band_values computes, one per column
    of the band tables: steps[k] the norm of the step from row k to k+1
    (m-1 rows), cen[k] that of the centred row k, nrm[k] that of row k.

    Every distance is at most D'_jk = min(s_{j+1} + ... + s_k, c_j + c_k,
    r_j + r_k), the path length and the triangle inequality through the
    mean and through 0. The V2 dynamic program is monotone in its
    distances, so the DP over D' with the same terminal norms bounds V2.
    The margin, the second bound's, covers the rounding of both DPs.

    One k-loop for all bands forms only the column D'[:k, k] it adds, as
    S_k - S_j with S the cumulative path length, so no m x m table exists;
    each entry is summed as in vp_batch over the full table.
    """
    S = np.zeros((steps.shape[0] + 1, steps.shape[1]))
    np.cumsum(steps, axis=0, out=S[1:])
    M, col, pair = np.zeros(nrm.shape), np.empty(nrm.shape), np.empty(nrm.shape)
    for k in range(1, M.shape[0]):
        d, t = np.subtract(S[k], S[:k], out=col[:k]), pair[:k]
        np.minimum(d, np.add(cen[:k], cen[k], out=t), out=d)
        np.minimum(d, np.add(nrm[:k], nrm[k], out=t), out=d)
        np.square(d, out=d)
        d += M[:k]
        np.maximum.reduce(d, axis=0, out=M[k])
    best = np.max(M + nrm ** 2.0, axis=0)
    return (1.0 + 1e-9) * np.array([float(b) ** 0.5 for b in best])


def _xs_value(path: Path, s: float, band: range) -> Tuple[float, Optional[float]]:
    """xs_report's (value, argmax): the sup over band scales of lam^s V2.

    Exact V2 per band is a dynamic program, so bands are screened by the
    cheap full-chain V1 bound (V2 <= V1) and visited best-first: in order of
    bound descending, then z ascending, stopping at the first band whose
    bound is at most the best value so far. The argmax is the first visited
    band attaining the maximum.

    Four things cut the work without changing that answer. The band with
    the largest terminal jump is solved first; once the visit has passed it
    the best is at least its value, so no band after the first later bound
    at most that value is visited. A visited band whose second bound,
    sqrt(diam V1 + max_k |g_k|^2), is below the best so far or below that
    first value cannot be the argmax and is not solved; skipping it only
    lowers the running best, which can lengthen the visit but not change
    its maximum. A band that passes the second bound meets a third, the
    DP over D'_jk = min(path length from j to k, c_j + c_k, r_j + r_k)
    with c and r the norms of its centred and plain rows (_dp_bounds),
    and is skipped on the same terms. D' is at least every distance, so
    this bound is at least V2, and it is at most the second bound. It is
    formed in one pass per call, once x is solved, for every band the
    visit can still reach whose second bound is above the value of x: no
    other band can meet it. Both bounds carry the margin 1 + 1e-9. Either
    DP sums at most m squared distances, each at most V2^2 and rounded by
    a few ulp of the span length, so both values are exact to far less
    than the margin, and a
    band within it of the best is left to the exact DP. The rest are
    solved in chunks, one batched DP per chunk, and their values are taken
    in visiting order under the same stop rule, so bands solved past the
    sequential stop (values at most their bound, hence at most the best)
    never change the answer.

    Every band sum is one lp.band_sums call (a matmul per store block): the
    V1 screen of all bands (whose steps the DP bound reuses), then, for the
    bands the visit can still reach once x is solved, |g_k - mean|^2 and
    |g_k|^2 (the diameter, the norms of both bounds and the DP's terminal
    norms). The pullback is centred over time once:
    centring commutes with the band weights, so each band's Gram matrix is
    that of its own centred rows, built from one contiguous slice. Every bin
    a band covers has Parseval weight 2, so its sums carry the factor 2L.
    All of it runs over the bins below the path's spectral_end, past which
    every row is zero; band sums and band rows are clipped there. The
    pullback is the stored bins times the -1 phase columns below the
    spectral end, written into a new array of that width.
    """
    grid = path.grid
    L2 = 2.0 * grid.domain_length
    end = path.spectral_end
    pulled = phase_matrix(grid, -1, end)
    np.multiply(path.bins(end), pulled, out=pulled)
    g, e = _unit_scaled(pulled)
    m = g.shape[0]
    # rows 0..m-1 hold |g_k|^2; rows m.. the V1 screen, then |g_k - mean|^2
    stack, tmp = np.empty((2 * m, end)), np.empty((m, end))
    energy = _energy(g, stack[:m], tmp)
    # V1: the K increments |g_{k+1} - g_k|^2 plus the terminal jump |g_K|^2
    screen, d_im = stack[m:], np.subtract(g.imag[1:], g.imag[:-1], out=tmp[:-1])
    np.square(np.subtract(g.real[1:], g.real[:-1], out=screen[:-1]), out=screen[:-1])
    screen[:-1] += np.square(d_im, out=d_im)
    screen[-1] = energy[-1]
    chain = np.sqrt(L2 * lp.band_sums(grid, band, screen))
    steps, jump, lam = chain[:-1].sum(axis=0), chain[-1], lp.scale_values(band)
    lam_s = lam ** s
    bound = lam_s * (steps + jump)
    order = np.argsort(-bound, kind="stable")
    order = order[steps[order] + jump[order] > 0.0]
    # every per-band array from here on is in visiting order
    zs, lam, lam_s, bound, steps, jump = (a[order] for a in (
        np.arange(band.start, band.stop), lam, lam_s, bound, steps, jump))
    chain = chain[:-1, order]
    g -= g.mean(axis=0)  # centred from here on
    _energy(g, stack[m:], tmp)
    best, cut, arg, vals, n = 0.0, 0.0, None, {}, order.size
    if n:
        # the visit never reaches a band after x whose bound is at most x's value
        x = int(np.argmax(jump))
        z = zs[x:x + 1]
        vals[x] = cut = float(_band_values(
            grid, g, z, np.sqrt(L2 * lp.band_sums(grid, z, energy)), lam_s[x], L2)[0])
        n = x + 1 + int(np.argmax(np.append(bound[x + 1:] <= cut, True)))
    # no partition's sum of squared steps exceeds its largest step (at most
    # the diameter, min(V1, 2 max_k |g_k - mean|)) times its total (at most
    # V1), so V2^2 <= diam V1 + max_k |g_k|^2. A band below the value of x
    # cannot be the argmax either. The margin, far above the DP's rounding,
    # leaves near-ties to the DP.
    rank = np.argsort(zs[:n])
    sums = np.empty((2 * m, n))
    sums[:, rank] = lp.band_sums(grid, zs[rank], stack)
    nrm = sums[:m]
    r_norm, c_norm = np.sqrt(L2 * nrm), np.sqrt(L2 * sums[m:])
    diam = np.minimum(steps[:n], 2.0 * c_norm.max(axis=0, initial=0.0))
    top = (1.0 + 1e-9) * lam_s[:n] * np.sqrt(
        diam * steps[:n] + L2 * nrm.max(axis=0, initial=0.0))
    # one DP bound pass over every band the visit can still solve after x:
    # the floor is never below the value of x, so no other band meets the bound
    rest = [k for k in np.flatnonzero(~(top <= cut)).tolist() if k not in vals]
    upper = dict(zip(rest, (lam_s[rest] * _dp_bounds(
        chain[:, rest], c_norm[:, rest], r_norm[:, rest])).tolist())) if rest else {}
    chunk = max(1, _ENGINE_BYTES // (24 * m * m))
    i = 0
    while i < n:
        todo = range(i, min(i + chunk, n))
        floor = max(best, cut)
        solve = [k for k in todo if k not in vals and not bound[k] <= best
                 and not top[k] <= floor and not upper[k] <= floor]
        if solve:
            vals.update(zip(solve, _band_values(
                grid, g, zs[solve], r_norm[:, solve], lam_s[solve], L2).tolist()))
        i = todo.stop
        for k in todo:
            if bound[k] <= best:
                i = n
                break
            if vals.get(k, 0.0) > best:
                best, arg = vals[k], float(lam[k])
    return float(np.ldexp(best, -e)), arg


def xs_report(path: Path, s: float, band=None) -> NormReport:
    """sup over band scales of lam^s V2 of the flow-undone localized path
    (_xs_value), with argmax, and the out-of-band fraction of its data."""
    band = _resolve_band(path.grid, band)
    return NormReport("xs", float(s), band.start, band.stop - 1, *_xs_value(path, s, band),
                      _out_of_band(path.grid, path.bins(path.spectral_end)[0], band))


def xs_norm(path: Path, s: float, band=None) -> float:
    """xs_report's value alone."""
    return _xs_value(path, s, _resolve_band(path.grid, band))[0]


def rescaled_grid(g: GridSpec, m: int) -> GridSpec:
    """The grid of the critical rescaling by c = 1.01^m: length L/c and
    dt/c^3, so the lattice and paired time rescalings map onto themselves."""
    c = lp.scale_value(int(m))
    return GridSpec(g.domain_length / c, g.num_points, g.dt / c ** 3, g.num_steps)


def _rescale_factor(m: int, p: float) -> float:
    return lp.scale_value(int(m)) ** (2.0 / (critical_index(p).p - 1.0))


def rescale(f: Field, m: int, p: float) -> Field:
    """Critical rescaling by c = 1.01^m: x -> c x, amplitude c^{2/(p-1)}.

    The output lives on rescaled_grid(f.grid, m) with identical coefficient
    values scaled by c^{2/(p-1)}, shifted m slots up in frequency.
    """
    return Field.from_coefficients(rescaled_grid(f.grid, m),
                                   _rescale_factor(m, p) * f.coefficients)

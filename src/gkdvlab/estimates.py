"""Randomized scaling-law verification for the dispersive estimates.

Each verifier measures left-hand sides on ensembles of localized free
solutions, takes the right-hand side from their data (whose L2 and critical
Besov norms equal the paths' V2 and critical path norms; c05 checks both)
and regresses the log ratio against the swept scale. Implicit constants are
never asserted; worst ratios are reported as the empirical constants.

Frequency sweeps span decades, which no single grid resolves honestly, so
grids are scaling-adapted: either the whole grid rescales with the target
scale (self-similar families) or the resolution and time window grow with
it (crossing experiments). Reports embed the grid recipe.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import littlewood_paley as lp
from .airy import free_solution
from .grid import Field, GridSpec, _l2_rows, l2_norm, mixed_norm, time_weights, to_samples
from .io import canonical_json
from .norms import besov_norm, critical_index, rescaled_grid

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class TrialEnsemble:
    """Seeded trial plan; identical seed implies bitwise-identical data."""

    seed: int
    num_trials: int = 3
    schedule: Tuple = ()

    def __post_init__(self):
        if self.num_trials < 1:
            raise ValueError("need at least one trial")

    def rng(self, trial: int) -> np.random.Generator:
        children = np.random.SeedSequence(self.seed).spawn(self.num_trials)
        return np.random.default_rng(children[trial])


@dataclass
class EstimateReport:
    name: str
    config: Dict
    records: List[Dict]
    slope: Optional[float]
    slope_target: Optional[float]
    worst_ratio: Optional[float]
    flags: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "estimate": self.name,
            "config": self.config,
            "records": self.records,
            "slope": self.slope,
            "slope_target": self.slope_target,
            "worst_ratio": self.worst_ratio,
            "flags": self.flags,
        }

    def to_json(self) -> str:
        return canonical_json(self.to_dict())

    def to_csv(self) -> str:
        keys: List[str] = []
        for rec in self.records:
            for k in rec:
                if k not in keys:
                    keys.append(k)
        lines = [",".join(keys)]
        for rec in self.records:
            lines.append(",".join(_csv_cell(rec.get(k)) for k in keys))
        return "\n".join(lines) + "\n"


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (list, tuple)):
        return ";".join(str(x) for x in v)
    return str(v)


def _regress(logx: Sequence[float], logy: Sequence[float]) -> Optional[float]:
    if len(logx) < 2:
        return None
    x = np.asarray(logx)
    y = np.asarray(logy)
    a = np.vstack([x, np.ones_like(x)]).T
    sol, *_ = np.linalg.lstsq(a, y, rcond=None)
    return float(sol[0])


def annulus_field(grid: GridSpec, z: int, rng: np.random.Generator) -> Field:
    """Random real data supported where the band mask lives."""
    start, row = lp.band_row(grid, z)
    coeffs = np.zeros(grid.num_points // 2, dtype=np.complex128)
    if row.size:
        coeffs[start:start + row.size] = rng.standard_normal(row.size) \
            + 1j * rng.standard_normal(row.size)
    return Field.from_coefficients(grid, coeffs)


def flat_field(grid: GridSpec, top_bin: int, rng: np.random.Generator) -> Field:
    """Phase-aligned data with random magnitudes on every bin up to top_bin.

    Aligned phases make the sup norm attain the coefficient l1 sum at t = 0,
    the extremal profile of the height-vs-bandwidth inequality; random
    phases would blur the scaling with a sqrt(log) drift.
    """
    c = np.zeros(int(min(top_bin, grid.num_points // 2 - 1)) + 1, dtype=np.complex128)
    c[1:] = np.abs(rng.standard_normal(c.size - 1))
    return Field._adopt(grid, c, c.size)


def _ratio(lhs: float, rhs: float) -> float:
    return lhs / rhs if rhs > 0 else 0.0


class _Sweep:
    """The records of one sweep, and the log-log fit of lhs / norm against
    the swept scale over the records where both are positive."""

    def __init__(self):
        self.records: List[Dict] = []
        self.logx: List[float] = []
        self.logy: List[float] = []

    def add(self, rec: Dict, scale: float, norm: float) -> None:
        self.records.append(rec)
        if rec["lhs"] > 0 and norm > 0:
            self.logx.append(math.log(scale))
            self.logy.append(math.log(rec["lhs"] / norm))

    def report(self, name: str, cfg: Dict, slope_target: Optional[float],
               flags: Sequence[str] = ()) -> EstimateReport:
        worst = max((r["ratio"] for r in self.records), default=None)
        return EstimateReport(name, cfg, self.records,
                              _regress(self.logx, self.logy), slope_target,
                              worst, list(flags))


_STRICHARTZ_STEPS = (0, 58, 116, 174, 232, 290, 348, 406, 464, 522, 580,
                     638, 696)


def _linear_sweep(ensemble: TrialEnsemble, q: float, r: float,
                  exponent: float):
    """Band-localized free solutions across three decades of band scales.

    Trial data lives in band 0 of a mother grid; lattice step m rescales the
    whole grid by 1.01^m, which carries the same coefficients exactly into
    band m (the self-similar family). Each record holds lhs, the
    L^q_t L^r_x norm of the band piece of the free solution, against
    rhs = lam^exponent ||P_lam phi||_{L2}. Returns (mother, steps, sweep).
    """
    mother = GridSpec(512.0, 2048, 33.0 / 128, 128)
    steps = tuple(ensemble.schedule) or _STRICHARTZ_STEPS
    sweep = _Sweep()
    for trial in range(ensemble.num_trials):
        coeffs = annulus_field(mother, 0, ensemble.rng(trial)).coefficients
        for m in steps:
            z = int(m)
            phi = Field.from_coefficients(rescaled_grid(mother, z), coeffs)
            lam = lp.scale_value(z)
            dnorm = l2_norm(lp.project(phi, lp.scale(z)))
            lhs = mixed_norm(lp.band_piece(free_solution(phi), z, "psi"), q, r)
            rhs = lam ** exponent * dnorm
            sweep.add({"trial": trial, "lam": lam, "lhs": lhs, "rhs": rhs,
                       "ratio": _ratio(lhs, rhs)}, lam, dnorm)
    return mother, steps, sweep


def verify_strichartz(ensemble: TrialEnsemble, q: float) -> EstimateReport:
    """Space-time integrability of band-localized free solutions.

    Sweeps the band scale over three decades on a self-similar family of
    grids (the critical rescaling maps trial data exactly across scales);
    slope of log(LHS/||phi||) against log lambda is the admissible-pair
    exponent -1/q.
    """
    q = float(q)
    if not (q > 4):
        raise ValueError("not an admissible pair: need q > 4")
    r = 2.0 * q / (q - 4.0)
    mother, steps, sweep = _linear_sweep(ensemble, q, r, -1.0 / q)
    cfg = {"kind": "strichartz", "q": q, "r": r,
           "seed": ensemble.seed, "num_trials": ensemble.num_trials,
           "lattice_steps": list(steps),
           "mother_grid": [mother.domain_length, mother.num_points,
                           mother.dt, mother.num_steps]}
    return sweep.report("strichartz", cfg, -1.0 / q)


_BERNSTEIN_BINS = (25, 55, 120, 265, 580, 1270, 2790, 6130, 13470, 29600)
# one grid for every sweep, so that its frequencies and bin weights are built once
_BERNSTEIN_GRID = GridSpec(400.0, 131072, 1e-3, 12)


def verify_bernstein_linfty(ensemble: TrialEnsemble,
                            p: float) -> EstimateReport:
    """Height of low-pass pieces against the critical norm.

    Data is flat-spectrum and phase-aligned up to the swept cutoff: the sup
    then grows like the bin count while the critical norm grows like the
    top-scale power, exposing the exponent 1/2 - s_p. The low-pass path is
    the free solution of the projected data, and rhs scales the data's
    critical Besov norm, equal to the free path's flow norm by c05's identity.
    """
    ci = critical_index(p)
    grid = _BERNSTEIN_GRID
    steps = tuple(ensemble.schedule) or _BERNSTEIN_BINS
    sweep = _Sweep()
    for trial in range(ensemble.num_trials):
        rng = ensemble.rng(trial)
        for top_bin in steps:
            lam_target = top_bin * grid.delta_xi
            z = int(round(math.log(lam_target) / math.log(lp.BASE)))
            lam = lp.scale_value(z)
            phi = flat_field(grid, top_bin, rng)
            lhs = mixed_norm(free_solution(lp.band_piece(phi, z, "leq")), np.inf, np.inf)
            norm = besov_norm(phi, ci.s_p)
            rhs = lam ** (0.5 - ci.s_p) * norm
            sweep.add({"trial": trial, "lam": lam, "lhs": lhs, "rhs": rhs,
                       "ratio": _ratio(lhs, rhs)}, lam, norm)
    cfg = {"kind": "bernstein", "p": float(p), "s_p": ci.s_p,
           "seed": ensemble.seed, "num_trials": ensemble.num_trials,
           "cutoff_bins": list(steps),
           "grid": [grid.domain_length, grid.num_points, grid.dt,
                    grid.num_steps]}
    return sweep.report("bernstein_linfty", cfg, 0.5 - ci.s_p)


def _packet_coeffs(grid: GridSpec, z: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Gaussian-envelope wavepacket in band z with a random center."""
    xi = grid.frequencies[1:]
    start, row = lp.band_row(grid, z)
    lam = lp.scale_value(z)
    width = lam * 0.25
    x0 = rng.uniform(0, grid.domain_length)
    env = np.exp(-((xi - 1.45 * lam) / width) ** 2)
    bins = np.arange(1, xi.size + 1)
    env *= (bins >= start) & (bins < start + row.size)
    jitter = 1.0 + 0.1 * rng.standard_normal(xi.size)
    coeffs = np.zeros(xi.size + 1, dtype=np.complex128)
    coeffs[1:] = env * jitter * np.exp(-1j * xi * x0)
    return coeffs


def _crossing_lhs(grid: GridSpec, cv: np.ndarray, cu: np.ndarray,
                  q: float) -> float:
    """L^q norm in space and time of the product of two free solutions,
    streamed one snapshot at a time (grids here get large)."""
    xi3 = 1j * grid.frequencies ** 3
    wts = time_weights(grid)
    acc = 0.0
    for k in range(grid.num_steps + 1):
        ph = np.exp(xi3 * (k * grid.dt))
        v, u = to_samples(np.stack([ph * cv, ph * cu]), grid.num_points)
        prod = np.abs(v * u)
        acc += wts[k] * float(np.sum(prod ** q)) * grid.weight
    return acc ** (1.0 / q)


_CROSSING_LENGTH = 400.0
_CROSSING_Z_MU = -70
_CROSSING_TIME_STEPS = 384
_BILINEAR_STEPS = (10, 72, 134, 196, 258, 320, 382, 444, 506, 568, 630, 692)


def _crossing_sweep(ensemble: TrialEnsemble, steps: Sequence[int],
                    q: float, oversample: float):
    """Crossing wavepackets: one at the fixed low scale mu = 1.01^-70, one
    at lam = 1.01^(d - 70) for each separation d in steps.

    The time window is one relative circuit of the torus (the straight-line
    analogue of a full transversal crossing), and the grid resolves
    oversample times the top frequency 2 lam + 2 mu of the product. Yields
    (trial, d, lam, horizon, grid, cv, cu, lhs), lhs being the space-time
    L^q norm of the product of the two free solutions.
    """
    if any(int(d) < 10 for d in steps):
        raise ValueError("scale separation below 1.1 violates the hypothesis")
    length = _CROSSING_LENGTH
    mu = lp.scale_value(_CROSSING_Z_MU)
    dxi = 2.0 * np.pi / length
    for trial in range(ensemble.num_trials):
        rng = ensemble.rng(trial)
        for d in steps:
            z = _CROSSING_Z_MU + int(d)
            lam = lp.scale_value(z)
            top = 2.0 * lam + 2.0 * mu
            n = 1 << max(12, int(math.ceil(math.log2(oversample * top / dxi))))
            horizon = 1.2 * length / (3.0 * (lam ** 2 - mu ** 2))
            grid = GridSpec(length, n, horizon / _CROSSING_TIME_STEPS,
                            _CROSSING_TIME_STEPS)
            cv = _packet_coeffs(grid, _CROSSING_Z_MU, rng)
            cu = _packet_coeffs(grid, z, rng)
            yield (trial, int(d), lam, horizon, grid, cv, cu,
                   _crossing_lhs(grid, cv, cu, q))


def verify_bilinear(ensemble: TrialEnsemble) -> EstimateReport:
    """Crossing wavepackets: L2-in-spacetime product decay with separation.

    Fixed low scale mu, swept high scale lambda >= 1.1 mu. The resolution
    grows with lambda so the quadratic integrand never aliases into the
    mean: the squared product needs n > 2 * top / dxi.
    """
    mu = lp.scale_value(_CROSSING_Z_MU)
    steps = tuple(ensemble.schedule) or _BILINEAR_STEPS
    sweep = _Sweep()
    flags: List[str] = []
    for trial, d, lam, horizon, grid, cv, cu, lhs in \
            _crossing_sweep(ensemble, steps, 2.0, 2.1):
        nv, nu = (float(_l2_rows(grid, c)) for c in (cv, cu))
        rhs = lam ** -1.0 * nv * nu
        rec = {"trial": trial, "mu": mu, "lam": lam, "lhs": lhs,
               "rhs": rhs, "ratio": _ratio(lhs, rhs),
               "grid_points": grid.num_points, "horizon": horizon}
        if d == 10:
            rec["boundary"] = True
            if "boundary_separation" not in flags:
                flags.append("boundary_separation")
        sweep.add(rec, lam, nv * nu)
    cfg = {"kind": "bilinear", "seed": ensemble.seed,
           "num_trials": ensemble.num_trials, "length": _CROSSING_LENGTH,
           "z_mu": _CROSSING_Z_MU, "lattice_steps": [int(d) for d in steps],
           "time_steps": _CROSSING_TIME_STEPS}
    return sweep.report("bilinear", cfg, -1.0, flags)


def verify_interpolated(ensemble: TrialEnsemble, q: float, p: float = 5.0,
                        bilinear: bool = False) -> EstimateReport:
    """Interpolated space-time bounds (single-exponent L^q in both variables).

    Linear form: band piece against its flow norm, exponent 1/2 - 4/q.
    Bilinear form: crossing packets against the product of critical norms,
    lambda exponent 1/2 - 3/q - s_p; the mu exponent 1/2 - 1/q - s_p must
    stay positive, and configurations close to zero are flagged.
    """
    q = float(q)
    ci = critical_index(p)
    if not bilinear:
        if q < 6:
            raise ValueError("linear form needs q >= 6")
        _, steps, sweep = _linear_sweep(ensemble, q, q, 0.5 - 4.0 / q)
        cfg = {"kind": "interpolated_linear", "q": q, "p": float(p),
               "seed": ensemble.seed, "num_trials": ensemble.num_trials,
               "lattice_steps": list(steps)}
        return sweep.report("interpolated_linear", cfg, 0.5 - 4.0 / q)

    if not (q > 2 and q > (p - 1.0) / 2.0):
        raise ValueError("bilinear form needs q > max(2, (p-1)/2)")
    mu_exp = 0.5 - 1.0 / q - ci.s_p
    lam_exp = 0.5 - 3.0 / q - ci.s_p
    flags = []
    if mu_exp < 0.05:
        flags.append("near_degenerate_mu_exponent")
    mu = lp.scale_value(_CROSSING_Z_MU)
    steps = tuple(ensemble.schedule) or _BILINEAR_STEPS[:8]
    sweep = _Sweep()
    # |vu|^q has no finite bandwidth for fractional q; resolve the product
    # generously and let refinement studies cover the rest
    for trial, _, lam, _, grid, cv, cu, lhs in \
            _crossing_sweep(ensemble, steps, q, q + 0.5):
        xv, xu = (besov_norm(Field.from_coefficients(grid, c), ci.s_p)
                  for c in (cv, cu))
        rhs = mu ** mu_exp * lam ** lam_exp * xv * xu
        sweep.add({"trial": trial, "mu": mu, "lam": lam, "lhs": lhs,
                   "rhs": rhs, "ratio": _ratio(lhs, rhs)}, lam, xv * xu)
    cfg = {"kind": "interpolated_bilinear", "q": q, "p": float(p),
           "mu_exponent": mu_exp, "lam_exponent": lam_exp,
           "seed": ensemble.seed, "num_trials": ensemble.num_trials,
           "lattice_steps": [int(d) for d in steps]}
    return sweep.report("interpolated_bilinear", cfg, lam_exp, flags)


def _segment(coeffs: np.ndarray) -> Tuple[int, np.ndarray]:
    """(first bin, span) of the nonzero stored bins."""
    nz = np.flatnonzero(coeffs)
    return (int(nz[0]), coeffs[nz[0]:nz[-1] + 1]) if nz.size else (0, coeffs[:0])


def _convolution(segments) -> Tuple[int, np.ndarray]:
    """(first bin, span) of the exact convolution of (first bin, span)s."""
    off, seg = 0, np.ones(1, dtype=np.complex128)
    for o, s in segments:
        off, seg = off + o, np.convolve(seg, s)
    return off, seg


def _pairing_integral(segments) -> float:
    """sum over k_1 + ... + k_n = 0 of prod_j c_j(k_j), the mean of the
    product of the real mean-free fields whose stored bins are given as
    (first bin, span) segments with first bin >= 1.

    Each k_j is +m or -m for a stored bin m, with c_j(-m) = conj(c_j(m)). A
    sign pattern balances its positive frequencies against its negative
    ones, so it contributes the dot product of the convolution of the
    positive segments with that of the conjugated negative ones. Flipping
    every sign conjugates the term, so patterns with the last factor
    positive count twice their real part. A pattern whose two convolutions
    have disjoint supports contributes an exact 0.0 and is never convolved,
    so disjoint supports give exactly 0.0, never a small residue.
    """
    *rest, last = segments
    if any(s.size == 0 for _, s in segments):
        return 0.0
    total = 0.0
    for signs in itertools.product((1, -1), repeat=len(rest)):
        pos = [last] + [sg for sg, d in zip(rest, signs) if d > 0]
        neg = [(o, np.conj(s)) for (o, s), d in zip(rest, signs) if d < 0]
        lo = max(sum(o for o, _ in part) for part in (pos, neg))
        hi = min(sum(o + s.size - 1 for o, s in part) for part in (pos, neg))
        if lo > hi:
            continue
        (po, ps), (no, ns) = _convolution(pos), _convolution(neg)
        total += 2.0 * float(np.real(ps[lo - po:hi - po + 1]
                                     @ ns[lo - no:hi - no + 1]))
    return total


_MULTI_NEAR_Z5 = (-20, 20, 60, 100, 140, 180, 220, 255)
_MULTI_FAR_ZMU = (-60, -15, 30, 75, 120, 165, 210, 255, 300, 345)
_MULTI_ZERO_ZMU = (95, 140, 185, 230, 270)


def default_multilinear_schedule(case: str, num_points: int = 2048,
                                 p: float = 6.0):
    """(z2, z3, z4, z5, z_mu) tuples; near keeps mu within 1.1 of the top
    band, far pushes mu at least a 1.1 factor above it. The p = 5 far
    schedule puts mu above the reach of the five low supports so the
    pairing vanishes identically."""
    if case == "near":
        return tuple((-70, -50, -30, z5, z5 + 5) for z5 in _MULTI_NEAR_Z5)
    if case == "far":
        zs = (-190, -170, -150, -120)
        if p == 5.0:
            return tuple(zs + (zmu,) for zmu in _MULTI_ZERO_ZMU)
        top = 345 if num_points >= 4096 else 275
        return tuple(zs + (zmu,) for zmu in _MULTI_FAR_ZMU if zmu <= top)
    raise ValueError("case must be 'near' or 'far'")


def _mask_bins(grid: GridSpec, z: int, kind: str) -> Tuple[int, int]:
    """(lowest, highest) positive bin where the symbol is nonzero; (0, 0)
    for an empty symbol."""
    start, row = lp.band_row(grid, z, kind)
    return (start, start + row.size - 1) if row.size else (0, 0)


_NEAR_EPS, _NEAR_DELTA = 0.02, 0.01  # the near case's eps > delta > 0


def verify_multilinear(ensemble: TrialEnsemble, p: float, case: str,
                       num_points: int = 2048) -> EstimateReport:
    """Septilinear space-time pairing against the scale-power bound.

    near: top band scale within a 1.1 factor of the pairing scale mu;
    exponent triple (delta, -eps-s_p, -1-delta+eps) with eps = _NEAR_EPS >
    delta = _NEAR_DELTA > 0.
    far: mu at least 1.1 above the top band; exponents (1/15, -1/6-s_p,
    -9/10), stated for p > 5 only. For p = 5 the far pairing vanishes
    identically (six band-limited factors cannot sum to a frequency in the
    pairing band); that case is computed by exact spectral convolution and
    must return literal zeros.
    """
    ci = critical_index(p)
    if case not in ("near", "far"):
        raise ValueError("case must be 'near' or 'far'")
    grid = GridSpec(200.0, int(num_points), 1.0 / 32, 32)
    schedule = tuple(ensemble.schedule) or \
        default_multilinear_schedule(case, int(num_points), p)
    if case == "near":
        exps = (_NEAR_DELTA, -_NEAR_EPS - ci.s_p, -1.0 - _NEAR_DELTA + _NEAR_EPS)
    else:
        exps = (1.0 / 15.0, -1.0 / 6.0 - ci.s_p, -0.9)
    exact_zero_mode = (case == "far" and p == 5.0)
    pad = 4 * grid.num_points
    wts = time_weights(grid)
    sweep = _Sweep()
    flags = []
    if exact_zero_mode:
        flags.append("exact_zero_construction")
    for zt in schedule:
        z2, z3, z4, z5, zmu = (int(v) for v in zt)
        if not (z2 <= z3 <= z4 <= z5):
            raise ValueError("band exponents must be ordered")
        if case == "near" and not (zmu - z5 < 10):
            raise ValueError("near case requires mu below 1.1 of the top band")
        if case == "far" and not (zmu - z5 >= 10):
            raise ValueError("far case requires mu at least 1.1 above the top band")
    for trial in range(ensemble.num_trials):
        rng = ensemble.rng(trial)
        for zt in schedule:
            z2, z3, z4, z5, zmu = (int(v) for v in zt)
            lams = [lp.scale_value(z) for z in (z2, z3, z4, z5)]
            mu = lp.scale_value(zmu)
            fields = [annulus_field(grid, z, rng)
                      for z in (z2 - 15, z2 - 15, z2, z3, z4, z5)]
            fu = annulus_field(grid, zmu, rng)
            specs = [(z2, "leq"), (z2, "leq"),
                     (z2, "leq" if case == "far" else "psi"),
                     (z3, "psi"), (z4, "psi"), (z5, "psi")]
            if exact_zero_mode:
                reach = sum(_mask_bins(grid, z, kind)[1] for z, kind in specs[1:])
                if reach >= _mask_bins(grid, zmu, "psi")[0]:
                    raise ValueError(
                        "five-factor frequency reach meets the pairing band; "
                        "not an exact-zero configuration")
            paths = [lp.band_piece(free_solution(f), z, kind).spectral_matrix
                     for f, (z, kind) in zip(fields, specs)]
            path_u = lp.band_piece(free_solution(fu), zmu, "psi").spectral_matrix
            total = 0.0
            if exact_zero_mode:
                for k in range(grid.num_steps + 1):
                    segs = [_segment(rows[k]) for rows in paths[1:] + [path_u]]
                    total += wts[k] * grid.domain_length * _pairing_integral(segs)
            else:
                for k in range(grid.num_steps + 1):
                    prod = np.ones(pad)
                    if p != 5.0:  # at p = 5 the first factor is |v0|^0 = 1
                        v0 = to_samples(paths[0][k], pad)
                        prod *= np.maximum(np.abs(v0), 1e-300) ** (p - 5.0)
                    for rows in paths[1:]:
                        prod *= to_samples(rows[k], pad)
                    prod *= to_samples(path_u[k], pad)
                    total += wts[k] * grid.domain_length * float(np.mean(prod))
            lhs = abs(total)
            dnorms = [besov_norm(f, ci.s_p) for f in fields]
            nmu = l2_norm(lp.project(fu, lp.scale(zmu)))
            rhs = lams[0] ** exps[0] * lams[3] ** exps[1] * mu ** exps[2] \
                * dnorms[0] ** (p - 5.0) * float(np.prod(dnorms[1:])) * nmu
            sweep.add({"trial": trial, "lams": [round(v, 6) for v in lams],
                       "mu": mu, "lhs": lhs, "rhs": rhs,
                       "ratio": _ratio(lhs, rhs)},
                      mu if case == "far" else lams[3], rhs)
    cfg = {"kind": "multilinear", "case": case, "p": float(p),
           "eps": _NEAR_EPS, "delta": _NEAR_DELTA, "exponents": list(exps),
           "seed": ensemble.seed, "num_trials": ensemble.num_trials,
           "num_points": int(num_points),
           "schedule": [list(map(int, t)) for t in schedule]}
    return sweep.report("multilinear_" + case, cfg, None, flags)


_SMALLNESS_STEPS = 48


def l6_smallness_report(phi: Field, T: float, p: float) -> Dict:
    """The sup ("sup") over scales of lam^{1/6+s_p} times the space-time L6
    norm of the localized free solution on [0, T], sampled at
    _SMALLNESS_STEPS + 1 times, the quantity whose smallness puts the data
    inside the contraction regime, with its argmax scale and its ratio to
    the data's critical Besov norm."""
    ci = critical_index(p)
    g = phi.grid
    if T <= 0:
        raise ValueError("horizon must be positive")
    grid = GridSpec(g.domain_length, g.num_points, T / _SMALLNESS_STEPS,
                    _SMALLNESS_STEPS)
    f = Field.from_coefficients(grid, phi.coefficients)
    path = free_solution(f)
    band = lp.default_band(grid)
    L = grid.domain_length
    # L6 <= T^{1/6} Linf^{2/3} L2^{1/3} and Linf <= sqrt(n/L) L2
    entries, (energies, e) = [], lp.band_energies(f, band)
    for z, dn in zip(band, np.ldexp(np.sqrt(energies), -e)):
        if dn != 0.0:
            lam, nz = lp.scale_value(z), 2 * lp.band_row(grid, z)[1].size
            entries.append((lam ** (1.0 / 6.0 + ci.s_p) * T ** (1.0 / 6.0)
                            * (nz / L) ** (1.0 / 3.0) * dn, z, lam))
    entries.sort(key=lambda e: -e[0])
    best = 0.0
    arg = None
    for bound, z, lam in entries:
        if bound <= best:
            break
        piece = lp.band_piece(path, z, "psi")
        val = lam ** (1.0 / 6.0 + ci.s_p) * mixed_norm(piece, 6.0, 6.0)
        if val > best:
            best = val
            arg = lam
    b = besov_norm(f, ci.s_p)
    return {"sup": best, "argmax_scale": arg,
            "besov": b, "ratio": best / b if b > 0 else 0.0,
            "horizon": float(T), "p": float(p)}

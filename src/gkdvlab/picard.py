"""Constructive solver: correction iteration around the free evolution.

The solution is sought as psi = v + w with v the free evolution of the
data and w the fixed point of w -> -duhamel(d_x f_p(v + w)), w(0) = 0.
Both solvers integrate the Galerkin truncation of the equation to the stored
bins m < N/2: f_p(u) is formed on 2N samples (nonlinearity.DEALIAS_FACTOR)
and cut back to those bins, with no roll-off.
Contraction is measured, never assumed; the smallness boundary is located
empirically by amplitude bisection. A direct spectral integrator serves as
the independent oracle for converged runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, List, Tuple

import numpy as np

from .airy import duhamel_spectra, equation_defects, free_solution
from .grid import (Field, GridSpec, NonFiniteFieldError, Path, _finite,
                   _l2_rows, _unit_scaled, l2_norm, to_samples)
from .nonlinearity import power_spectra
from .norms import besov_norm, critical_index, xs_norm


class BlowUpError(RuntimeError):
    """Direct integration exceeded the height ceiling; carries the time."""

    def __init__(self, time: float, sup: float):
        super().__init__(f"solution height {sup:.3e} exceeded the ceiling at t = {time:.6g}")
        self.time = time
        self.sup = sup


class PicardDivergenceError(RuntimeError):
    """Iteration differences grew three times in a row; carries the trace.

    This is the expected outcome beyond the smallness regime, not a bug.
    """

    def __init__(self, trace: "IterationTrace"):
        super().__init__("iteration diverged: difference ratios held at or above 1")
        self.trace = trace


@dataclass(frozen=True)
class PicardConfig:
    p: float
    T: float
    max_iters: int
    contraction_target: float  # validated only; divergence is ratio >= 1
    initial_data: Field
    grid: GridSpec
    stop_tolerance: float = 1e-10

    def __post_init__(self):
        problems = []
        if not self.p >= 5.0:
            problems.append("p must be >= 5")
        if not self.T > 0:
            problems.append("horizon must be positive")
        elif abs(self.T - self.grid.horizon) > 1e-9 * self.T:
            problems.append("T must equal num_steps * dt of the grid")
        if self.max_iters < 1:
            problems.append("max_iters must be >= 1")
        if not (0.0 < self.contraction_target < 1.0):
            problems.append("contraction_target must lie in (0, 1)")
        if self.initial_data.grid != self.grid:
            problems.append("initial data lives on a different grid")
        if not self.stop_tolerance > 0:
            problems.append("stop_tolerance must be positive")
        if problems:
            raise ValueError("; ".join(problems))


@dataclass
class IterationTrace:
    """Per-iteration record: correction size, difference decay, residuals."""

    rows: List[dict] = field(default_factory=list)
    converged: bool = False
    alpha: float = 0.0

    @property
    def ratios(self) -> List[float]:
        return [r["ratio"] for r in self.rows if r["ratio"] is not None]

    def to_csv(self) -> str:
        lines = ["n,w_norm,diff_norm,ratio,residual"]
        for r in self.rows:
            ratio = "" if r["ratio"] is None else repr(r["ratio"])
            lines.append(f"{r['n']},{r['w_norm']!r},{r['diff_norm']!r},"
                         f"{ratio},{r['residual']!r}")
        return "\n".join(lines) + "\n"


def _correction(g: GridSpec, power: np.ndarray) -> Path:
    """-duhamel(d_x f) for the power spectra f on every row, sign folded into d_x."""
    return Path._adopt(g, duhamel_spectra(g, (-1j * g.frequencies) * power))


def _residual_from_power(u: Path, power: np.ndarray) -> float:
    """sup over interior times of the L2 equation defect of u, with the power
    spectra f of its interior rows, and a centered difference standing in for
    the time derivative (so O(dt^2) even for an exact solution). Times whose
    defect is NaN are skipped."""
    defects = equation_defects(u, (1j * u.grid.frequencies) * power)
    return float(np.fmax.reduce(defects, initial=0.0))


def solve_picard(cfg: PicardConfig) -> Tuple[Path, IterationTrace]:
    """Iterate the correction map from w = 0 until the difference is small
    in both the critical path norm and plain sup-in-time L2.

    Divergence (difference ratio >= 1 three times running) raises a
    structured error carrying the trace: that is the smallness boundary.
    """
    ci = critical_index(cfg.p)
    phi = cfg.initial_data
    v = free_solution(phi)
    w = Path.zero(cfg.grid)
    trace = IterationTrace()
    phi_besov = besov_norm(phi, ci.s_p)
    # the data's squares may overflow: scale them as the norms do
    c, e = _unit_scaled(phi.coefficients)
    phi_l2 = float(np.ldexp(_l2_rows(cfg.grid, c), -e))
    thr_xs = cfg.stop_tolerance * (phi_besov if phi_besov > 0 else 1.0)
    thr_l2 = cfg.stop_tolerance * (phi_l2 if phi_l2 > 0 else 1.0)
    prev_diff = None
    growing = 0
    # f(v + w) on every row, evaluated once per iterate: all of it gives the
    # next correction, its interior rows the residual of v + w
    with np.errstate(over="ignore", invalid="ignore"):
        power = power_spectra((v + w).spectral_matrix, cfg.grid, cfg.p)
    for n in range(1, cfg.max_iters + 1):
        # far beyond the smallness regime the iterates overflow within a
        # few steps; that is still divergence, not a numerical fault. A
        # non-finite interior row of f is refused by the residual, an edge
        # row by the next correction
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                w_next = _correction(cfg.grid, power)
                diff = w_next - w if n > 1 else w_next  # w = 0: bit for bit
                d_xs = xs_norm(diff, ci.s_p)
                d_l2 = float(_l2_rows(cfg.grid, diff.spectral_matrix).max())
                w_norm = xs_norm(w_next, ci.s_p) if n > 1 else d_xs
                u = v + w_next
                power = power_spectra(u.spectral_matrix, cfg.grid, cfg.p)
                resid = _residual_from_power(u, _finite(power[1:-1]))
        except NonFiniteFieldError:
            trace.rows.append({"n": n, "w_norm": math.inf,
                               "diff_norm": math.inf, "ratio": None,
                               "residual": math.inf})
            raise PicardDivergenceError(trace) from None
        if not (math.isfinite(d_xs) and math.isfinite(w_norm)):
            trace.rows.append({"n": n, "w_norm": w_norm, "diff_norm": d_xs,
                               "ratio": None, "residual": resid})
            raise PicardDivergenceError(trace)
        ratio = None
        if prev_diff is not None and prev_diff > 0:
            ratio = d_xs / prev_diff
        trace.rows.append({"n": n, "w_norm": w_norm, "diff_norm": d_xs,
                           "ratio": ratio, "residual": resid})
        trace.alpha = max(trace.alpha, w_norm)
        w = w_next
        prev_diff = d_xs
        if d_xs <= thr_xs and d_l2 <= thr_l2:
            trace.converged = True
            break
        if ratio is not None and ratio >= 1.0:
            growing += 1
            if growing >= 3:
                raise PicardDivergenceError(trace)
        else:
            growing = 0
    return w, trace


_CEILING_FACTOR = 1e6  # direct_solve's blow-up height, in initial heights


def direct_solve(phi: Field, p: float, substeps: int = 4) -> Path:
    """Independent oracle: fourth-order integrating-factor stepping of the
    full equation in spectral space, nonlinearity dealiased, over the
    data's grid.

    The mean mode never moves (divergence form is exact here) and the L2
    norm of smooth solutions drifts only through the time error. Height
    exceeding _CEILING_FACTOR times the initial height aborts with the time
    of explosion.
    """
    grid = phi.grid
    if substeps < 1:
        raise ValueError("need at least one substep")
    xi = grid.frequencies
    dxi = 1j * xi
    h = grid.dt / substeps
    e_half = np.exp((1j * xi ** 3) * (h / 2.0))
    e_full = e_half * e_half
    ceiling = _CEILING_FACTOR * float(np.abs(phi.values).max())

    def nl(c: np.ndarray) -> np.ndarray:
        # a non-finite c makes the power spectrum non-finite, which raises
        return -dxi * _finite(power_spectra(c, grid, p))

    cmat = np.zeros((grid.num_steps + 1, xi.size), dtype=np.complex128)
    cmat[0] = phi.coefficients
    c = phi.coefficients.copy()
    for k in range(grid.num_steps):
        # a violently unstable step can overflow between ceiling checks;
        # that is a blow-up report, not a numerics crash
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                for _ in range(substeps):
                    k1 = nl(c)
                    half = e_half * (c + (h / 2.0) * k1)
                    k2 = np.conj(e_half) * nl(half)
                    half2 = e_half * (c + (h / 2.0) * k2)
                    k3 = np.conj(e_half) * nl(half2)
                    full = e_full * (c + h * k3)
                    k4 = np.conj(e_full) * nl(full)
                    c = e_full * (c + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        except NonFiniteFieldError:
            raise BlowUpError((k + 1) * grid.dt, math.inf) from None
        sup = float(np.abs(to_samples(c, grid.num_points)).max())
        if not math.isfinite(sup) or (ceiling > 0 and sup > ceiling):
            raise BlowUpError((k + 1) * grid.dt, sup)
        cmat[k + 1] = c
    return Path._adopt(grid, cmat)


def lipschitz_probe(cfg: PicardConfig, dphis: Iterable[Field]) -> Iterator[float]:
    """Correction difference per unit data difference (critical norms), for
    the data cfg.initial_data plus each perturbation in turn.

    A zero perturbation gives 0 by convention. The unperturbed data is solved
    once, before the first nonzero perturbation. Either diverging run raises
    the structured iteration failure when its ratio is asked for.
    """
    ci = critical_index(cfg.p)
    w_a = None
    for dphi in dphis:
        denom = besov_norm(dphi, ci.s_p)
        if denom == 0.0:
            yield 0.0
            continue
        if w_a is None:
            w_a, _ = solve_picard(cfg)
        w_b, _ = solve_picard(replace(cfg, initial_data=cfg.initial_data + dphi))
        yield xs_norm(w_b - w_a, ci.s_p) / denom


def _converges(profile: Field, amp: float, p: float, grid: GridSpec,
               max_iters: int, stop_tolerance: float) -> bool:
    # solve_picard never reads contraction_target; 0.9 only passes validation
    cfg = PicardConfig(p, grid.horizon, max_iters, 0.9, profile * amp, grid,
                       stop_tolerance=stop_tolerance)
    try:
        _, trace = solve_picard(cfg)
    except PicardDivergenceError:
        return False
    return trace.converged


def amplitude_threshold(profile: Field, p: float,
                        max_iters: int = 12,
                        stop_tolerance: float = 1e-9,
                        rel_tol: float = 0.01) -> float:
    """Empirical smallness boundary: the amplitude separating converging
    from non-converging runs on the profile's grid, located by a doubling or
    halving scan from amplitude 1 plus log bisection to the requested relative
    width. Every probe solve uses stop_tolerance as its PicardConfig.stop_tolerance.

    Deterministic: same profile and settings give the same threshold.
    """
    if l2_norm(profile) == 0:
        raise ValueError("profile must be nonzero")
    if not (0 < rel_tol < 1):
        raise ValueError("rel_tol must lie in (0, 1)")
    grid = profile.grid
    amp = 1.0
    # double from a converging start until a probe diverges, halve from a
    # diverging one until a probe converges
    up = _converges(profile, amp, p, grid, max_iters, stop_tolerance)
    for _ in range(80):
        last, amp = amp, amp * (2.0 if up else 0.5)
        if _converges(profile, amp, p, grid, max_iters, stop_tolerance) != up:
            break
    else:
        raise RuntimeError("no divergence found within 80 doublings" if up
                           else "no convergence found within 80 halvings")
    lo, hi = (last, amp) if up else (amp, last)
    while hi / lo > 1.0 + rel_tol:
        mid = math.sqrt(lo * hi)
        if _converges(profile, mid, p, grid, max_iters, stop_tolerance):
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)

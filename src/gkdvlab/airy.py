"""The free dispersive group S(t) and the Duhamel integral.

S(t) multiplies mode xi by exp(+i xi^3 t); this is the sign for which
v(t) = S(t) phi satisfies the discretized v_t + v_xxx = 0 (plug in a single
harmonic: cos(xi x + xi^3 t) works). A global sign flip would change no norm
in this package, but the convention is fixed here once.

The propagator is unitary on the stored bins, and the unpaired Nyquist bin
is not stored (grid.py), so unitarity and the group law hold to rounding,
not just approximately.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .grid import Field, GridSpec, Path, apply_multiplier

_PHASE_CACHE_LIMIT = 1 << 23  # do not retain phase tables with (K+1)*N above this


def evolve(f: Field, t: float) -> Field:
    """S(t) f."""
    return apply_multiplier(f, np.exp(1j * f.grid.frequencies ** 3 * float(t)))


@lru_cache(maxsize=8)
def _phase_table(grid: GridSpec) -> list:
    """A slot for the grid's read-only +1 table, which phase_matrix fills."""
    return [None]


def _phase_matrix_compute(grid: GridSpec, sign: int, e=None) -> np.ndarray:
    xi3 = grid.frequencies[:e] ** 3
    return np.exp((sign * 1j) * np.outer(grid.times, xi3))


def phase_matrix(grid: GridSpec, sign: int = +1, e=None) -> np.ndarray:
    """exp(sign * i xi^3 t_k) for all sample times over the stored bins below
    e (all N/2 if None). One table per grid is cached, the +1 one, while
    (K+1) N <= _PHASE_CACHE_LIMIT, over the most columns asked for so far
    (rebuilt wider on demand; columns are elementwise, so no bit depends on
    the width): sign +1 reads a read-only view of its columns, and sign -1
    their conjugate, in a new array. Above the limit only the columns asked
    for are built, on each call. Multiply a -1 table on the right as
    np.multiply(x, table, ...): numpy may compute x * table, with a temporary
    table, as table * x, whose product can differ in the last bit."""
    if (grid.num_steps + 1) * grid.num_points > _PHASE_CACHE_LIMIT:
        return _phase_matrix_compute(grid, sign, e)
    held, half = _phase_table(grid), grid.num_points // 2
    n = half if e is None else min(e, half)
    table = held[0]
    if table is None or table.shape[1] < n:
        table = _phase_matrix_compute(grid, +1, n)
        table.flags.writeable = False
        held[0] = table
    return table[:, :n] if sign > 0 else np.conj(table[:, :n])


def free_solution(phi: Field) -> Path:
    """Path of S(t_k) phi over the grid's sample times, with phi's spectral end."""
    e = phi.spectral_end
    return Path._adopt(phi.grid, phase_matrix(phi.grid, +1, e) * phi.bins(e), e)


def duhamel(forcing: Path) -> Path:
    """t -> integral_0^t S(t-s) f(s) ds by interaction-picture quadrature.

    The integrand is pulled back to g(s) = S(-s) f(s), integrated by a
    cumulative composite Simpson rule (one trapezoid step onto odd indices),
    and pushed forward again. Exact for forcing of the form S(s) phi, linear
    in the forcing, and identically zero at t = 0.
    """
    g = forcing.grid
    return Path._adopt(g, duhamel_spectra(g, forcing.bins(forcing.spectral_end)))


def duhamel_spectra(g: GridSpec, forcing: np.ndarray) -> np.ndarray:
    """The spectra of duhamel's output from the forcing spectra, (K+1, e) for
    any e <= N/2: the bins below e, column by column."""
    e, dt = forcing.shape[1], g.dt
    p = phase_matrix(g, -1, e)
    np.multiply(forcing, p, out=p)
    acc = np.zeros_like(p)
    # even rows sum the Simpson panels; an odd row adds one trapezoid step
    np.cumsum((dt / 3.0) * (p[:-2:2] + 4.0 * p[1:-1:2] + p[2::2]), axis=0,
              out=acc[2::2])
    acc[1::2] = acc[:-1:2] + (dt / 2.0) * (p[:-1:2] + p[1::2])
    acc *= phase_matrix(g, +1, e)
    return acc


def equation_defects(path: Path, forcing=0.0) -> np.ndarray:
    """L2 norm, at each interior time, of the centered-difference defect of
    v_t + v_xxx + forcing (the forcing as spectra of the interior rows)."""
    g = path.grid
    c = path.spectral_matrix
    dt_c = (c[2:] - c[:-2]) / (2.0 * g.dt)
    d3 = (1j * g.frequencies) ** 3
    resid = dt_c + c[1:-1] * d3[None, :] + forcing
    return np.sqrt(g.domain_length
                   * np.sum((resid * np.conj(resid)).real * g.bin_weights, axis=1))

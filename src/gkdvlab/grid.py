"""Periodic grid, real spectral fields, and time-sampled paths.

A long periodic cell of length L sampled at N points stands in for the real
line; data is kept concentrated away from the cell boundary by the callers.
Everything downstream (projections, propagators, norms) is built on the
transform convention fixed here:

    c_m = fft(values)[m] / N  ~  (1/L) * integral f(x) exp(-i xi_m x) dx,
    xi_m = 2 pi m / L,   Parseval:  (L/N) sum |f_j|^2 = L sum |c_m|^2.

The unpaired Nyquist mode m = N/2 of an even-length real transform cannot be
evolved unitarily by a complex multiplier (its sine partner is aliased away),
so fields project it out once at construction and every multiplier keeps it
zero. The resolvable band is |m| <= N/2 - 1.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Sequence, Tuple

import numpy as np

NORMALIZATION_TAG = "coeff=dft/N;parseval=L*sum|c|^2;nyquist=projected"

_ROUNDTRIP_TOL = 1e-12


class GridError(ValueError):
    """Invalid grid parameters or mismatched grids."""


class GridMismatchError(GridError):
    """Operation mixing fields or paths from different grids."""


class NonFiniteFieldError(ValueError):
    """Field construction or transform saw NaN/inf samples."""


class MultiplierSymmetryError(ValueError):
    """Multiplier would produce a complex field where a real one is required."""


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class GridSpec:
    """Periodic spatial grid plus uniform time sampling.

    domain_length: cell length L > 0
    num_points: N, a power of two
    dt: time step > 0
    num_steps: K >= 1; sampled times are k*dt for k = 0..K
    dealias_factor: zero-padding ratio for nonlinear products, >= 1
    """

    domain_length: float
    num_points: int
    dt: float
    num_steps: int
    dealias_factor: float = 2.0

    def __post_init__(self):
        problems = []
        if not (self.domain_length > 0):
            problems.append("domain_length must be positive")
        if not _is_power_of_two(self.num_points):
            problems.append("num_points must be a positive power of two")
        if not (self.dt > 0):
            problems.append("dt must be positive")
        if not (self.num_steps >= 1):
            problems.append("num_steps must be >= 1")
        if not (self.dealias_factor >= 1):
            problems.append("dealias_factor must be >= 1")
        else:
            padded = self.dealias_factor * self.num_points
            if abs(padded - round(padded)) > 1e-9:
                problems.append("dealias_factor * num_points must be an integer")
        if problems:
            raise GridError("; ".join(problems))

    @cached_property
    def x(self) -> np.ndarray:
        v = np.arange(self.num_points) * (self.domain_length / self.num_points)
        v.flags.writeable = False
        return v

    @cached_property
    def frequencies(self) -> np.ndarray:
        """xi_m = 2 pi m / L in standard fft ordering."""
        v = 2.0 * np.pi * np.fft.fftfreq(self.num_points, d=self.domain_length / self.num_points)
        v.flags.writeable = False
        return v

    @cached_property
    def times(self) -> np.ndarray:
        v = np.arange(self.num_steps + 1) * self.dt
        v.flags.writeable = False
        return v

    @property
    def weight(self) -> float:
        """Spatial quadrature weight L/N (rectangle rule)."""
        return self.domain_length / self.num_points

    @property
    def delta_xi(self) -> float:
        return 2.0 * np.pi / self.domain_length

    @property
    def nyquist_index(self) -> int:
        return self.num_points // 2

    @property
    def resolvable_max(self) -> float:
        """Largest frequency magnitude that survives the Nyquist projection."""
        return (self.num_points // 2 - 1) * self.delta_xi

    @property
    def horizon(self) -> float:
        return self.num_steps * self.dt


def _real_spectra(grid: GridSpec, c: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(values, spectra) of the real fields whose spectra are c along the
    last axis: NaN/inf is refused, the Nyquist column of c (a fresh complex
    array the caller gives up) is zeroed in place, and the values come from
    one inverse transform."""
    if not np.all(np.isfinite(c)):
        raise NonFiniteFieldError("coefficients contain NaN or inf")
    c[..., grid.nyquist_index] = 0.0
    return np.fft.ifft(c * grid.num_points).real, c


class Field:
    """Real spatial state with a consistent spectral view.

    Immutable (both arrays are made read-only here). Both representations
    are stored; linear operations act on both so that identities like
    P_{<lam} = P_{<=lam} - P_lam hold bitwise.
    """

    __slots__ = ("grid", "_values", "_coeffs")

    def __init__(self, grid: GridSpec, values: np.ndarray, coeffs: np.ndarray, _internal: bool = False):
        if not _internal:
            raise TypeError("use Field.from_values or Field.from_coefficients")
        values.flags.writeable = False
        coeffs.flags.writeable = False
        self.grid = grid
        self._values = values
        self._coeffs = coeffs

    @classmethod
    def from_values(cls, grid: GridSpec, values) -> "Field":
        v = np.asarray(values, dtype=np.float64)
        if v.shape != (grid.num_points,):
            raise GridError(f"values shape {v.shape} does not match grid N={grid.num_points}")
        if not np.all(np.isfinite(v)):
            raise NonFiniteFieldError("field values contain NaN or inf")
        return cls(grid, *_real_spectra(grid, np.fft.fft(v) / grid.num_points), _internal=True)

    @classmethod
    def from_coefficients(cls, grid: GridSpec, coeffs, check: bool = True) -> "Field":
        c = np.array(coeffs, dtype=np.complex128)
        if c.shape != (grid.num_points,):
            raise GridError(f"coefficient shape {c.shape} does not match grid N={grid.num_points}")
        v, c = _real_spectra(grid, c)
        if check:
            # conjugate symmetry c_{N-m} = conj(c_m) guarantees a real field
            idx = np.arange(1, grid.nyquist_index)
            err = np.abs(c[grid.num_points - idx] - np.conj(c[idx])).max(initial=0.0)
            err += abs(c[0].imag)
            scale = np.abs(c).max(initial=0.0)
            if err > 1e-10 * max(scale, 1e-300):
                raise MultiplierSymmetryError(
                    f"coefficients break conjugate symmetry (err {err:.3e}, scale {scale:.3e})"
                )
        return cls(grid, v, c, _internal=True)

    @classmethod
    def zero(cls, grid: GridSpec) -> "Field":
        return cls(grid, np.zeros(grid.num_points),
                   np.zeros(grid.num_points, dtype=np.complex128), _internal=True)

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def coefficients(self) -> np.ndarray:
        return self._coeffs

    def _binary(self, other: "Field", op) -> "Field":
        if not isinstance(other, Field):
            return NotImplemented
        if other.grid != self.grid:
            raise GridMismatchError("fields live on different grids")
        return Field(self.grid, op(self._values, other._values),
                     op(self._coeffs, other._coeffs), _internal=True)

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, scalar):
        if not np.isscalar(scalar):
            return NotImplemented
        s = float(scalar)
        return Field(self.grid, self._values * s, self._coeffs * s, _internal=True)

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    def __repr__(self):
        return f"Field(N={self.grid.num_points}, L={self.grid.domain_length:g}, max|f|={np.abs(self._values).max():.3e})"


def forward_transform(f: Field) -> np.ndarray:
    """Fourier coefficients of the field under the documented normalization."""
    if not np.all(np.isfinite(f.values)):
        raise NonFiniteFieldError("field values contain NaN or inf")
    return f.coefficients


def inverse_transform(grid: GridSpec, coeffs) -> Field:
    return Field.from_coefficients(grid, coeffs)


def apply_multiplier(f: Field, m: Callable[[np.ndarray], np.ndarray] | np.ndarray,
                     check: bool = True) -> Field:
    """Apply the Fourier multiplier m(xi) to the field.

    m may be a callable evaluated on the grid frequencies or a precomputed
    table. A real output requires m(-xi) = conj(m(xi)); violations are
    rejected when check is on. The Nyquist bin of the output is zero.
    """
    grid = f.grid
    table = np.asarray(m(grid.frequencies) if callable(m) else m, dtype=np.complex128)
    if table.ndim == 0:
        table = np.full(grid.num_points, complex(table))
    if table.shape != (grid.num_points,):
        raise GridError("multiplier table has wrong shape")
    if check:
        # pair bins m and N-m; the Nyquist bin is projected out, skip it
        idx = np.arange(1, grid.nyquist_index)
        err = np.abs(table[grid.num_points - idx] - np.conj(table[idx])).max(initial=0.0)
        err += abs(table[0].imag)
        scale = max(np.abs(table).max(initial=0.0), 1e-300)
        if err > 1e-12 * scale:
            raise MultiplierSymmetryError(
                f"multiplier breaks conjugate symmetry (err {err:.3e})"
            )
    out = table * f.coefficients
    out[grid.nyquist_index] = 0.0
    return Field.from_coefficients(grid, out, check=False)


def derivative(f: Field, order: int = 1) -> Field:
    """Spectral derivative (i xi)^order."""
    xi = f.grid.frequencies
    return apply_multiplier(f, (1j * xi) ** order, check=False)


def l2_norm(f: Field) -> float:
    v = f.values
    return float(np.sqrt(f.grid.weight * np.dot(v, v)))


def lq_norm(f: Field, q) -> float:
    """L^q norm with rectangle weight L/N; q = inf gives max |f|."""
    if q == np.inf or q == "inf":
        return float(np.abs(f.values).max())
    q = float(q)
    if q < 1:
        raise ValueError("q must be >= 1 or inf")
    av = np.abs(f.values)
    return float((f.grid.weight * np.sum(av ** q)) ** (1.0 / q))


class Path:
    """Time-sampled sequence of fields on one grid, snapshots at t_k = k dt.

    Holds two read-only (K+1) x N matrices, the sample values and the
    spectra, one row per snapshot; `path[k]` is a Field view of row k.
    Arithmetic acts on both matrices, row by row exactly as on the fields.
    """

    __slots__ = ("grid", "_vmat", "_cmat")

    def __init__(self, grid: GridSpec, snapshots: Sequence[Field]):
        snaps = tuple(snapshots)
        if len(snaps) != grid.num_steps + 1:
            raise GridError(
                f"need num_steps+1 = {grid.num_steps + 1} snapshots, got {len(snaps)}"
            )
        for s in snaps:
            if s.grid != grid:
                raise GridMismatchError("snapshot grid differs from path grid")
        self._fill(grid, np.stack([s.values for s in snaps]),
                   np.stack([s.coefficients for s in snaps]))

    def _fill(self, grid: GridSpec, vmat: np.ndarray, cmat: np.ndarray) -> "Path":
        vmat.flags.writeable = False
        cmat.flags.writeable = False
        self.grid, self._vmat, self._cmat = grid, vmat, cmat
        return self

    @classmethod
    def _wrap(cls, grid: GridSpec, vmat: np.ndarray, cmat: np.ndarray) -> "Path":
        return cls.__new__(cls)._fill(grid, vmat, cmat)

    @classmethod
    def from_spectral_matrix(cls, grid: GridSpec, cmat) -> "Path":
        """Path whose row k has spectrum cmat[k], under the contract of
        Field.from_coefficients (without the symmetry check)."""
        cmat = np.array(cmat, dtype=np.complex128)
        if cmat.shape != (grid.num_steps + 1, grid.num_points):
            raise GridError("spectral matrix shape mismatch")
        return cls._wrap(grid, *_real_spectra(grid, cmat))

    @classmethod
    def zero(cls, grid: GridSpec) -> "Path":
        shape = (grid.num_steps + 1, grid.num_points)
        return cls._wrap(grid, np.zeros(shape), np.zeros(shape, dtype=np.complex128))

    @property
    def values_matrix(self) -> np.ndarray:
        return self._vmat

    @property
    def spectral_matrix(self) -> np.ndarray:
        return self._cmat

    def __len__(self):
        return self._vmat.shape[0]

    def __getitem__(self, k: int) -> Field:
        k = operator.index(k)
        return Field(self.grid, self._vmat[k], self._cmat[k], _internal=True)

    def __iter__(self) -> Iterator[Field]:
        return (self[k] for k in range(len(self)))

    def _binary(self, other: "Path", op) -> "Path":
        if not isinstance(other, Path):
            return NotImplemented
        if other.grid != self.grid:
            raise GridMismatchError("paths live on different grids")
        return Path._wrap(self.grid, op(self._vmat, other._vmat),
                          op(self._cmat, other._cmat))

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, scalar):
        if not np.isscalar(scalar):
            return NotImplemented
        s = float(scalar)
        return Path._wrap(self.grid, self._vmat * s, self._cmat * s)

    __rmul__ = __mul__


def time_weights(grid: GridSpec) -> np.ndarray:
    """Trapezoid weights dt*(1/2, 1, ..., 1, 1/2) over the K+1 sample times.

    Chosen so that the squared time integral of a norm-constant path over
    [0, T] comes out exactly T, e.g. a unitary free wave has space-time L2
    norm sqrt(T)*||phi||.
    """
    w = np.full(grid.num_steps + 1, grid.dt)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def mixed_norm(path: Path, q_time, q_space) -> float:
    """L^{q_time}_t L^{q_space}_x norm over [0, T] x the cell.

    Inner spatial norm per snapshot (rectangle weight L/N), outer temporal
    norm with trapezoid weights; q = inf takes sups.
    """
    for q in (q_time, q_space):
        if q != np.inf and not (float(q) >= 1):
            raise ValueError("exponents must lie in [1, inf]")
    vm = path.values_matrix
    grid = path.grid
    if q_space == np.inf:
        spatial = np.abs(vm).max(axis=1)
    else:
        qs = float(q_space)
        spatial = (grid.weight * np.sum(np.abs(vm) ** qs, axis=1)) ** (1.0 / qs)
    if q_time == np.inf:
        return float(spatial.max())
    qt = float(q_time)
    w = time_weights(grid)
    return float((np.sum(w * spatial ** qt)) ** (1.0 / qt))


def parseval_spectral_sum(f: Field) -> float:
    """L * sum |c_m|^2; equals the squared L2 norm under the normalization."""
    c = f.coefficients
    return float(f.grid.domain_length * np.sum((c * np.conj(c)).real))

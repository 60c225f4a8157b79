"""Periodic grid, real spectral fields, and time-sampled paths.

Every report is for the periodic problem on a cell of length L (N points),
not the line: radiation wraps round. The picard packet's alpha moved by
3.8e-8, 4.1e-6, 5.1e-4 relative, 400- vs 800-wide cell, at T = 1, 8, 16.
Everything downstream (projections, propagators, norms) is built on the
transform convention fixed here, and this module alone calls np.fft:

    c_m = rfft(values)[m] / N  ~  (1/L) * integral f(x) exp(-i xi_m x) dx,
    xi_m = 2 pi m / L,  m = 0 .. N/2 - 1.

Fields are real, so only the nonnegative bins are stored: bin m stands for
both m and -m (c_{-m} = conj(c_m)), and no mirror exists anywhere. Parseval
carries the bin weights w_0 = 1, w_m = 2 for m >= 1 (GridSpec.bin_weights):

    (L/N) sum_j |f_j|^2 = L sum_m w_m |c_m|^2.

The state of a Field or a Path is its stored bins, and only those below its
spectral end e, from which on every bin is zero: the data the estimates act
on (Littlewood-Paley pieces, free waves of them) is band-limited. Makers
that know e build only those columns; the others find it with one
_support_end scan when they adopt their array. `bins(n)` reads the first n
columns: a view up to e, a zero-padded copy past it. Sample values are always
the inverse transform of the stored bins, built on their first read and then
kept (irfft of a bin prefix is bitwise that of the zero-padded row).

The unpaired Nyquist mode m = N/2 of an even-length real transform cannot be
evolved unitarily by a complex multiplier (its sine partner is aliased away),
so it is not stored: values come back from irfft with that bin zero.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Sequence, Tuple

import numpy as np

NORMALIZATION_TAG = "coeff=dft/N;parseval=L*sum|c|^2;nyquist=projected"

# least length M of mixed_norm's short transforms, which cost per call: at N = 131072,
# K = 12 a mean-only sup takes 5.5 ms at M = 2, 1.2 ms at M = 256, 32 ms by the full transform
_SUP_MIN_POINTS = 256
# the sup's direct sums of kept cells x (r - 1) x e terms cost about what a row's transforms
# do at this times N log2 M (measured); they run in chunks of at most _SUP_CHUNK_BYTES
_SUP_DIRECT_RATIO, _SUP_CHUNK_BYTES = 4.0, 1 << 23


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
    num_points: N, a power of two, at least 2
    dt: time step > 0
    num_steps: K >= 1; sampled times are k*dt for k = 0..K

    Fields hold the bins m < N/2, and the solvers integrate the Galerkin
    truncation of the equation to those bins: f(u) is formed on
    nonlinearity.DEALIAS_FACTOR * N samples and cut back, with no roll-off.
    """

    domain_length: float
    num_points: int
    dt: float
    num_steps: int

    def __post_init__(self):
        problems = []
        if not (self.domain_length > 0):
            problems.append("domain_length must be positive")
        if not (_is_power_of_two(self.num_points) and self.num_points >= 2):
            problems.append("num_points must be a power of two, at least 2")
        if not (self.dt > 0):
            problems.append("dt must be positive")
        if not (self.num_steps >= 1):
            problems.append("num_steps must be >= 1")
        if problems:
            raise GridError("; ".join(problems))

    @cached_property
    def x(self) -> np.ndarray:
        v = np.arange(self.num_points) * (self.domain_length / self.num_points)
        v.flags.writeable = False
        return v

    @cached_property
    def frequencies(self) -> np.ndarray:
        """xi_m = 2 pi m / L for the stored bins m = 0 .. N/2 - 1."""
        v = 2.0 * np.pi * np.fft.rfftfreq(self.num_points, d=self.weight)[:-1]
        v.flags.writeable = False
        return v

    @cached_property
    def bin_weights(self) -> np.ndarray:
        """Parseval weights of the stored bins: 1 at mode 0, 2 above it."""
        v = np.full(self.num_points // 2, 2.0)
        v[0] = 1.0
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
    def resolvable_max(self) -> float:
        """Largest stored frequency."""
        return (self.num_points // 2 - 1) * self.delta_xi

    @property
    def horizon(self) -> float:
        return self.num_steps * self.dt


def to_samples(c: np.ndarray, m: int) -> np.ndarray:
    """Samples on m points of the real fields whose stored bins are c along
    the last axis; m >= 2 c.shape[-1], the bins above c zero-padded."""
    return np.fft.irfft(c, n=m, norm="forward")


def to_spectrum(v: np.ndarray, n: int) -> np.ndarray:
    """The n/2 stored bins of the real samples v along the last axis, for
    n at most the sample count; higher bins are truncated."""
    return np.fft.rfft(v, norm="forward")[..., :n // 2]


def _finite(c: np.ndarray) -> np.ndarray:
    """c itself; NaN/inf is refused (complex c with a contiguous last axis on its float view)."""
    v = c.view(np.float64) if c.dtype == np.complex128 and c.strides[-1:] == (16,) else c
    if not np.all(np.isfinite(v)):
        raise NonFiniteFieldError("coefficients contain NaN or inf")
    return c


def _support_end(x: np.ndarray) -> int:
    """1 + the last nonzero column of x (0 if none); a nonzero top costs O(rows)."""
    end, w = x.shape[1], 1
    while end and not x[:, max(end - w, 0):end].any():
        end, w = max(end - w, 0), 2 * w
    nz = np.flatnonzero(x[:, max(end - w, 0):end].any(axis=0))
    return max(end - w, 0) + int(nz[-1]) + 1 if nz.size else 0


def _unit_scaled(c: np.ndarray) -> Tuple[np.ndarray, int]:
    """(c 2^e, e): e = 0 (c itself) while the largest real or imaginary part
    of complex c lies in [2^-256, 2^256], else that part of c 2^e lies in
    [1/2, 1), where its squares neither under- nor overflow."""
    v = np.ascontiguousarray(c).view(np.float64)
    top = float(max(v.max(initial=0.0), -v.min(initial=0.0)))
    e = 0 if 2.0 ** -256 <= top <= 2.0 ** 256 else -int(np.frexp(top)[1])
    return (np.ldexp(v, e).view(np.complex128), e) if e else (c, 0)


def _check_mean(table: np.ndarray, tol: float, what: str) -> None:
    """A real field needs a real mode 0; the other bins are unconstrained."""
    scale = max(np.abs(table).max(initial=0.0), 1e-300)
    if abs(table[0].imag) > tol * scale:
        raise MultiplierSymmetryError(
            f"{what} has a non-real mode 0 ({table[0]!r}, scale {scale:.3e})")


class _Stored:
    """What Field and Path share: the read-only stored bins, shape (e,) or
    (K+1, e) for the spectral end e, and the values built from them."""

    __slots__ = ("grid", "_cmat", "_vmat")

    @classmethod
    def _make(cls, grid: GridSpec, cmat: np.ndarray, vmat=None):
        self = cls.__new__(cls)
        cmat.flags.writeable = False
        self.grid, self._cmat, self._vmat = grid, cmat, vmat
        return self

    @classmethod
    def _adopt(cls, grid: GridSpec, cmat: np.ndarray, end=None):
        """Over the columns of cmat below end (None: found by one scan), without
        a copy: for arrays their maker never touches again. Refuses NaN/inf."""
        end = _support_end(np.atleast_2d(cmat)) if end is None else end
        return cls._make(grid, _finite(cmat[..., :end]))

    @property
    def spectral_end(self) -> int:
        return self._cmat.shape[-1]

    def bins(self, n: int) -> np.ndarray:
        """The first n stored bins (of every row), read-only: a view up to the
        spectral end, a zero-padded copy past it."""
        c = self._cmat
        if n > c.shape[-1]:
            c = np.pad(c, [(0, 0)] * (c.ndim - 1) + [(0, n - c.shape[-1])])
            c.flags.writeable = False
        return c[..., :n]

    def _samples(self) -> np.ndarray:
        if self._vmat is None:
            # numpy's irfft of zero bins returns unset memory: transform one zero bin
            vmat = to_samples(self.bins(max(self.spectral_end, 1)), self.grid.num_points)
            vmat.flags.writeable = False
            self._vmat = vmat
        return self._vmat

    def _binary(self, other, op):
        if not isinstance(other, type(self)):
            return NotImplemented
        if other.grid != self.grid:
            raise GridMismatchError(f"{type(self).__name__.lower()}s live on different grids")
        e = max(self.spectral_end, other.spectral_end)
        return self._make(self.grid, op(self.bins(e), other.bins(e)))

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, scalar):
        if not np.isscalar(scalar):
            return NotImplemented
        s = float(scalar)
        # 0 * inf is NaN: a non-finite multiple fills every bin
        c = self._cmat if np.isfinite(s) else self.bins(self.grid.num_points // 2)
        return self._make(self.grid, c * s)

    __rmul__ = __mul__


class Field(_Stored):
    """Real spatial state: its stored bins below its spectral end, and its
    sample values, built from them on first read. Immutable; linear operations
    act on the bins, so identities like P_{<lam} = P_{<=lam} - P_lam hold
    bitwise on the coefficients."""

    __slots__ = ()  # made by from_values, from_coefficients and zero

    @classmethod
    def from_values(cls, grid: GridSpec, values) -> "Field":
        v = np.asarray(values, dtype=np.float64)
        if v.shape != (grid.num_points,):
            raise GridError(f"values shape {v.shape} does not match grid N={grid.num_points}")
        if not np.all(np.isfinite(v)):
            raise NonFiniteFieldError("field values contain NaN or inf")
        return cls._adopt(grid, to_spectrum(v, grid.num_points))

    @classmethod
    def from_coefficients(cls, grid: GridSpec, coeffs) -> "Field":
        """The real field with the stored bins coeffs (shape (N/2,))."""
        c = np.array(coeffs, dtype=np.complex128)
        if c.shape != (grid.num_points // 2,):
            raise GridError(f"coefficient shape {c.shape} does not match grid N={grid.num_points}")
        _check_mean(c, 1e-10, "coefficient vector")
        return cls._adopt(grid, c)

    @classmethod
    def zero(cls, grid: GridSpec) -> "Field":
        return cls._make(grid, np.zeros(0, dtype=np.complex128))

    @property
    def values(self) -> np.ndarray:
        return self._samples()

    @property
    def coefficients(self) -> np.ndarray:
        return self.bins(self.grid.num_points // 2)

    def __neg__(self):
        return self * (-1.0)

    def __repr__(self):
        return f"Field(N={self.grid.num_points}, L={self.grid.domain_length:g}, max|f|={np.abs(self.values).max():.3e})"


def apply_multiplier(f: Field, table: np.ndarray) -> Field:
    """Apply the Fourier multiplier m(xi) to the field, given as its table on
    the (nonnegative) grid frequencies, shape (N/2,); it acts on -xi as
    conj(m(xi)), so the output is real. A non-real m(0) has no real meaning
    and is rejected.
    """
    grid = f.grid
    table = np.asarray(table, dtype=np.complex128)
    if table.shape != (grid.num_points // 2,):
        raise GridError("multiplier table has wrong shape")
    _check_mean(table, 1e-12, "multiplier")
    e = f.spectral_end
    return Field._adopt(grid, table[:e] * f.bins(e))


def l2_norm(f: Field) -> float:
    v = f.values
    return float(np.sqrt(f.grid.weight * np.dot(v, v)))


def _l2_rows(g: GridSpec, c: np.ndarray) -> np.ndarray:
    """The L2 norm of each field whose stored bins are c along the last axis,
    by Parseval, so no sample value is built."""
    return np.sqrt(g.domain_length * (np.abs(c) ** 2 @ g.bin_weights))


class Path(_Stored):
    """Time-sampled sequence of fields on one grid, snapshots at t_k = k dt.

    The state is the read-only (K+1) x e matrix of stored bins, one row per
    snapshot, e being `spectral_end`: every bin from e on is zero (e is 1 +
    the last nonzero bin unless spectra cancel, as in a - a). Makers that know
    the end build only those columns (a sum or difference takes the wider
    operand's, a multiple its operand's, N/2 for a non-finite scalar); the
    others find it with one _support_end scan. The (K+1) x N matrix of sample
    values is the inverse transform of the stored bins, built on its first
    read and then kept, read-only; a batched transform is bitwise the per-row
    one, so row k's values are bitwise those of the snapshot's own bins.
    `path[k]` is a Field view of row k.
    """

    __slots__ = ()

    def __init__(self, grid: GridSpec, snapshots: Sequence[Field]):
        snaps = tuple(snapshots)
        if len(snaps) != grid.num_steps + 1:
            raise GridError(
                f"need num_steps+1 = {grid.num_steps + 1} snapshots, got {len(snaps)}"
            )
        for s in snaps:
            if s.grid != grid:
                raise GridMismatchError("snapshot grid differs from path grid")
        e = max(s.spectral_end for s in snaps)
        cmat = np.stack([s.bins(e) for s in snaps])
        self.grid, self._cmat, self._vmat = grid, cmat[:, :_support_end(cmat)], None
        self._cmat.flags.writeable = False

    @classmethod
    def from_spectral_matrix(cls, grid: GridSpec, cmat) -> "Path":
        """Path whose row k has spectrum cmat[k], under the contract of
        Field.from_coefficients (without the mode-0 check)."""
        c = np.array(cmat, dtype=np.complex128)
        if c.shape != (grid.num_steps + 1, grid.num_points // 2):
            raise GridError("spectral matrix shape mismatch")
        return cls._adopt(grid, c)

    @classmethod
    def zero(cls, grid: GridSpec) -> "Path":
        return cls._make(grid, np.zeros((grid.num_steps + 1, 0), dtype=np.complex128))

    @property
    def values_matrix(self) -> np.ndarray:
        return self._samples()

    @property
    def spectral_matrix(self) -> np.ndarray:
        return self.bins(self.grid.num_points // 2)

    def __len__(self):
        return self._cmat.shape[0]

    def __getitem__(self, k: int) -> Field:
        k = operator.index(k)
        return Field._make(self.grid, self._cmat[k], self.values_matrix[k])

    # the class's own attributes, which perfbench's tracer patches
    __add__, __sub__, __mul__, __rmul__ = (
        _Stored.__add__, _Stored.__sub__, _Stored.__mul__, _Stored.__rmul__)


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


@cache
def _roots(n: int) -> np.ndarray:
    """exp(2 pi i j/N) for j < N, read-only: one table per N, built on first use."""
    v = np.exp(np.arange(n) * (2j * np.pi / n))
    v.flags.writeable = False
    return v


def _twists(n: int, shifts, e: int) -> np.ndarray:
    """exp(2 pi i k a/N) for the shifts a (rows) and bins k < e, gathered from
    _roots(N) at k a reduced mod N in integers."""
    return _roots(n)[np.outer(shifts, np.arange(e)) % n]


def _sup(c: np.ndarray, n: int, m: int) -> float:
    """max |x_j| over the N samples of the fields with stored bins c (rows), m >= 2 c.shape[1]:
    the nodes, then the cells that the curvature bound keeps (mixed_norm)."""
    e, r, k, ac = c.shape[1], n // m, np.arange(c.shape[1]), np.abs(c)
    node = to_samples(c, m)
    best = np.abs(node, out=node).max()
    # no sample of a cell tops its higher node by more than (pi/M)^2 sum_k k^2 |c_k|, plus rounding
    curve = ((np.pi / m) ** 2 * (ac @ (k * k)) * (1 + 1e-9)
             + 64 * np.finfo(float).eps * (2 * ac.sum(1) - ac[:, 0]))
    keep = node > (best - curve)[:, None]
    keep |= np.roll(keep, -1, axis=1)  # cell i: the r - 1 points between nodes i and i + 1
    # the shifts 1 .. r-1 twist bin k by k a < r e <= N/2: no reduction mod N
    kept, tw = np.count_nonzero(keep, axis=1), _roots(n)[np.outer(np.arange(1, r), k)]
    dense = kept * (r - 1) * e > _SUP_DIRECT_RATIO * n * np.log2(m)
    if dense.any():
        v = to_samples(c[dense, None] * tw, m)
        best = max(best, v.max(), -v.min())
    sparse = np.flatnonzero((kept > 0) & ~dense)
    t, i = np.divmod(np.flatnonzero(keep[sparse]), m)
    step = max(1, _SUP_CHUNK_BYTES // (16 * (e + r)))
    cw = c[sparse] * np.where(k > 0, 2.0, 1.0)  # irfft's weights: a plain sum's real part is its sample
    for s in range(0, t.size, step):
        at = _twists(n, i[s:s + step] * r, e) * cw[t[s:s + step]]
        best = max(best, np.abs((at @ tw.T).real).max())
    return float(best)


def mixed_norm(path: Path, q_time, q_space) -> float:
    """L^{q_time}_t L^{q_space}_x norm over [0, T] x the cell.

    Inner spatial norm per snapshot (rectangle weight L/N), outer temporal
    norm with trapezoid weights; q = inf (or "inf") takes sups. The sup in
    space reads the values, except in the sup over space and time when r >= 2.
    With e the path's spectral_end (its stored width) and M the least power of
    two, at least _SUP_MIN_POINTS, with M >= 2e, the samples x_{a + r i}
    (r = N/M) are length-M inverse transforms of the bins k < e times
    exp(2 pi i k a/N), gathered from one table of the N roots of unity (_roots,
    built on first use).

    The sup over space and time transforms the shift a = 0 only: the nodes
    x_{r i}. As a function of a continuous j, f_j has |f''| <= M2 = sum_k w_k
    (2 pi k/N)^2 |c_k| (w_0 = 1, w_k = 2), so on a cell of r samples f lies within
    M2 r^2/8 = (pi/M)^2 sum_k k^2 |c_k| of the line through its two nodes, and no
    sample tops the higher node by more. The r - 1 points between two nodes are
    summed directly over k < e only if one of the two nodes plus that bound
    (1 + 1e-9) and 64 ulp of the row's l1 norm (rounding) exceeds the largest node;
    nodes are not summed again, so a sup on a node is bitwise the transform's. A
    row keeping cells whose sums would cost more than its transforms
    (_SUP_DIRECT_RATIO; random phases do) runs the shifts 1 .. r-1 instead.
    """
    q_time, q_space = float(q_time), float(q_space)
    if not (q_time >= 1 and q_space >= 1):
        raise ValueError("exponents must lie in [1, inf]")
    grid, n = path.grid, path.grid.num_points
    if q_space == np.inf:
        e = max(path.spectral_end, 1)
        m = max(_SUP_MIN_POINTS, 1 << (2 * e - 1).bit_length())
        if q_time == np.inf and n // m >= 2:
            return _sup(path.bins(e), n, m)
        vm = path.values_matrix
        spatial = np.maximum(np.abs(vm.max(axis=1)), np.abs(vm.min(axis=1)))
    else:
        spatial = (grid.weight * np.sum(np.abs(path.values_matrix) ** q_space, axis=1)) ** (1.0 / q_space)
    if q_time == np.inf:
        return float(spatial.max())
    w = time_weights(grid)
    return float((np.sum(w * spatial ** q_time)) ** (1.0 / q_time))

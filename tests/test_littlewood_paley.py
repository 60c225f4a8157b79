import numpy as np
import pytest

from gkdvlab.grid import Field, GridSpec, Path, l2_norm
from gkdvlab import littlewood_paley as lp

from conftest import random_field


def test_lambda_table_adjacent_ratio():
    for z in (-300, -5, 0, 1, 77, 400):
        assert lp.scale_value(z) == pytest.approx(1.01 ** z, rel=1e-12)
    # adjacent entries are exact float multiples on the positive side
    assert lp.scale_value(10) == lp.scale_value(9) * 1.01


def test_scale_factory_checks_table():
    s = lp.scale(12)
    assert s.lam == lp.scale_value(12)
    with pytest.raises(ValueError):
        lp.LPScale(12, s.lam * (1 + 1e-9))


class TestBump:
    def test_plateau_support_and_range(self):
        s = np.linspace(-3, 3, 1201)
        v = lp.bump(s)
        assert np.all((v >= 0) & (v <= 1))
        assert np.all(v[np.abs(s) <= 1.0] == 1.0)
        assert np.all(v[np.abs(s) >= 2.0] == 0.0)
        # strictly interior away from the edges (floats saturate right at them)
        inside = (np.abs(s) > 1.1) & (np.abs(s) < 1.9)
        assert np.all((v[inside] > 0) & (v[inside] < 1))

    def test_even(self):
        s = np.linspace(0.1, 2.5, 57)
        np.testing.assert_array_equal(lp.bump(s), lp.bump(-s))

    def test_smooth_transition_monotone(self):
        s = np.linspace(1.0, 2.0, 400)
        v = lp.bump(s)
        assert np.all(np.diff(v) <= 0)

    def test_clip_form_is_the_masked_form_bitwise(self):
        def masked(s):
            # the formula on the entries strictly inside (1, 2) only, 1 and 0
            # set by masks outside it
            arr = np.abs(np.asarray(s, dtype=np.float64))
            scalar = arr.ndim == 0
            if scalar:
                arr = arr[None]
            out = np.ones_like(arr)
            out[arr >= 2.0] = 0.0
            mid = (arr > 1.0) & (arr < 2.0)
            if mid.any():
                sm = arr[mid]
                up = np.exp(-1.0 / (2.0 - sm))
                dn = np.exp(-1.0 / (sm - 1.0))
                out[mid] = up / (up + dn)
            return float(out[0]) if scalar else out

        near = [np.nextafter(x, y) for x in (1.0, 2.0) for y in (0.0, 3.0)]
        edges = np.array([0.0, 1.0, 2.0, *near, np.inf, 1e300])
        edges = np.concatenate([edges, -edges])  # -0.0 among them
        dense = np.linspace(0.9, 2.1, 200001)
        for s in (dense, -dense, edges, np.stack([dense[:1000], -dense[-1000:]])):
            got = lp.bump(s)
            assert got.shape == s.shape and got.tobytes() == masked(s).tobytes()
        for x in edges.tolist():
            got = lp.bump(x)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(masked(x)).tobytes()
        assert type(lp.bump(np.float64(1.5))) is float
        # NaN: no mask catches it, so the masked form gives 1.0; the clip form gives NaN
        assert masked(np.nan) == 1.0
        assert np.isnan(lp.bump(np.nan)) and np.isnan(lp.bump(np.array([np.nan, 1.5]))[0])


class TestPsiSymbol:
    def test_zero_at_origin(self):
        for z in (-40, 0, 13):
            assert lp.psi_symbol(lp.scale(z), 0.0) == 0.0

    def test_nonnegative_and_supported(self):
        z = 25
        lam = lp.scale_value(z)
        xi = np.linspace(0, 3 * lam, 2000)
        v = lp.psi_symbol(lp.scale(z), xi)
        assert np.all(v >= 0)
        assert np.all(v[xi <= lam / 1.01] == 0.0)
        assert np.all(v[xi >= 2 * lam] == 0.0)
        # a fortiori zero outside the coarser advertised band
        assert np.all(v[xi <= lam / 2.02] == 0.0)

    def test_scaling_identity(self):
        rng = np.random.default_rng(0)
        xi = rng.uniform(0.01, 50.0, size=200)
        for z in (-30, 4, 60):
            lam = lp.scale_value(z)
            a = lp.psi_symbol(lp.scale(z), xi)
            b = lp.psi_symbol(lp.scale(0), xi / lam)
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_partition_of_unity_on_grid(self, grid):
        band = lp.default_band(grid)
        total = lp.partition_sum(grid, band)
        covered = np.ones(grid.num_points // 2, dtype=bool)
        covered[0] = False
        assert np.abs(total[covered] - 1.0).max() <= 1e-12
        assert total[0] == 0.0

    def test_partition_covers_extreme_frequencies(self, grid):
        band = lp.default_band(grid)
        zmin, zmax = band.start, band.stop - 1
        # bottom frequency and top resolvable frequency are both fully covered
        for xi in (grid.delta_xi, grid.resolvable_max):
            s = sum(lp.psi_symbol(lp.scale(z), xi) for z in range(zmin, zmax + 1))
            assert s == pytest.approx(1.0, abs=1e-12)


class TestProjection:
    def test_disjoint_single_harmonic_is_zero(self, small_grid):
        xi0 = 10 * small_grid.delta_xi
        f = Field.from_values(small_grid, np.cos(xi0 * small_grid.x))
        # a band whose support (lam/1.01, 2 lam) misses xi0 entirely
        z_far = lp.default_band(small_grid).stop - 1
        g = lp.project(f, lp.scale(z_far))
        assert np.abs(g.values).max() == 0.0

    def test_reconstruction(self, grid):
        rng = np.random.default_rng(42)
        band = lp.default_band(grid)
        for _ in range(3):
            f = random_field(grid, rng)
            pieces = lp.decompose(f, band)
            g = lp.reconstruct(pieces, lp.mean_mode(f))
            err = l2_norm(g - f)
            assert err <= 1e-10 * l2_norm(f)

    def test_band_disjoint_double_projection_exactly_zero(self, grid):
        rng = np.random.default_rng(3)
        f = random_field(grid, rng)
        band = lp.default_band(grid)
        z = band.start + 100
        # supports (lam_z/1.01, 2 lam_z) and (lam_w/1.01, 2 lam_w) are disjoint
        # once lam_w/1.01 >= 2 lam_z, i.e. w - z > log(2.02)/log(1.01) ~ 70.7
        w = z + 75
        g = lp.project(lp.project(f, lp.scale(z)), lp.scale(w))
        assert np.abs(g.coefficients).max() == 0.0
        assert np.abs(g.values).max() == 0.0

    def test_out_of_band_warns_and_zeroes(self, small_grid):
        rng = np.random.default_rng(5)
        f = random_field(small_grid, rng)
        with pytest.warns(lp.CoverageWarning):
            g = lp.project(f, lp.scale(lp.default_band(small_grid).stop + 200))
        assert np.abs(g.values).max() == 0.0
        with pytest.warns(lp.CoverageWarning):
            lp.project(f, lp.scale(lp.default_band(small_grid).start - 200))

    def test_projection_commutes_linearity(self, small_grid):
        rng = np.random.default_rng(6)
        f = random_field(small_grid, rng)
        g = random_field(small_grid, rng)
        sc = lp.scale(lp.default_band(small_grid).start + 150)
        lhs = lp.project(f + g * 2.0, sc)
        rhs = lp.project(f, sc) + lp.project(g, sc) * 2.0
        assert np.abs(lhs.values - rhs.values).max() <= 1e-12 * max(
            np.abs(rhs.values).max(), 1e-300)


class TestDecompose:
    def test_empty_band(self, small_grid):
        f = Field.zero(small_grid)
        assert lp.decompose(f, range(0)) == []

    def test_two_harmonic_two_clusters(self, grid):
        # harmonics separated by more than one octave activate two disjoint
        # contiguous runs of bands
        xi_a = 5 * grid.delta_xi
        xi_b = 40 * grid.delta_xi
        v = np.cos(xi_a * grid.x) + np.cos(xi_b * grid.x)
        f = Field.from_values(grid, v)
        band = lp.default_band(grid)
        flags = [l2_norm(piece) > 1e-12 for _, piece in lp.decompose(f, band)]
        runs = 0
        prev = False
        for fl in flags:
            if fl and not prev:
                runs += 1
            prev = fl
        assert runs == 2

    def test_near_orthogonality_constant(self, grid):
        rng = np.random.default_rng(7)
        band = lp.default_band(grid)
        for _ in range(3):
            f = random_field(grid, rng)
            pieces = lp.decompose(f, band)
            ssum = sum(l2_norm(piece) ** 2 for _, piece in pieces)
            assert l2_norm(f) ** 2 >= ssum / 4.0

    def test_coverage_rows_fractions(self, grid):
        rng = np.random.default_rng(8)
        f = random_field(grid, rng)
        # the fraction of ||f||^2 that each band's piece carries
        energies, e = lp.band_energies(f, lp.default_band(grid))
        fracs = np.ldexp(energies, -2 * e) / l2_norm(f) ** 2
        assert np.all((fracs >= 0) & (fracs <= 1))


def test_symbol_cache_reuse():
    # rows are kept per frequency set (L, N), on large grids as well, and
    # shared by grids that differ only in their time sampling
    for n in (1024, 16384):
        g = GridSpec(200.0, n, 0.05, 20)
        start, row = lp.band_row(g, 10, "psi")
        assert lp.band_row(g, 10, "psi")[1] is row
        other = lp.band_row(GridSpec(200.0, n, 0.1, 7), 10, "psi")
        assert other[0] == start and other[1] is row
        assert not row.flags.writeable


def test_band_store_does_not_thrash():
    g = GridSpec(200.0, 2048, 0.05, 20)
    band = lp.default_band(g)
    assert len(band) == 767

    def sweep():
        return [lp.band_row(g, z, kind)[1] for z in band for kind in ("psi", "leq")]

    first = sweep()
    second = sweep()
    assert sum(a is b for a, b in zip(first, second)) == 2 * len(band)


@pytest.mark.parametrize("n", [1024, 4096, 16384])
def test_band_rows_expand_to_symbols_bitwise(n):
    g = GridSpec(200.0, n, 0.05, 20)
    for z in lp.default_band(g):
        for kind, symbol in (("psi", lp.psi_symbol), ("leq", lp.leq_symbol)):
            ref = np.array(symbol(lp.scale(z), g.frequencies), dtype=np.float64)
            if kind == "leq":
                ref[0] = 0.0
            full = lp.symbol_array(g, z, kind)
            np.testing.assert_array_equal(full.view(np.int64), ref.view(np.int64))
            # the stored span is exactly the nonzero positive support
            start, row = lp.band_row(g, z, kind)
            nonzero = np.flatnonzero(ref)
            np.testing.assert_array_equal(np.arange(start, start + row.size), nonzero)


@pytest.mark.parametrize("n", [1, 2])
def test_default_band_empty_without_resolvable_modes(n):
    # N = 1 would store no bin, so GridSpec refuses it; N = 2 stores mode 0 alone
    from gkdvlab.grid import GridError
    from gkdvlab.norms import besov_norm

    if n == 1:
        with pytest.raises(GridError, match="at least 2"):
            GridSpec(10.0, n, 0.1, 1)
        return
    g = GridSpec(10.0, n, 0.1, 1)
    assert len(lp.default_band(g)) == 0
    f = Field.from_values(g, np.array([1.0, -0.5]))
    np.testing.assert_array_equal(f.values, [0.25, 0.25])
    assert besov_norm(f, 0.5) == 0.0


def _band_sums_by_loop(g, band, x):
    # the per-band loop band_sums replaced: one matvec over each stored span
    out = np.zeros((x.shape[0], len(band)))
    for i, z in enumerate(band):
        start, row = lp.band_row(g, z)
        out[:, i] = x[:, start:start + row.size] @ (row * row)
    return out


@pytest.mark.parametrize("n", [8, 1024, 4096, 16384])
def test_band_sums_match_per_band_loops(n):
    g = GridSpec(200.0, n, 0.05, 20)
    band = lp.default_band(g)
    x = np.random.default_rng(n).random((3, n // 2))
    wide = range(band.start - 5, band.stop + 5)  # runs past the grid both ways
    rng = np.random.default_rng(n + 1)
    subset = np.sort(rng.choice(np.arange(wide.start, wide.stop), 40, replace=False))
    for zs in (band, wide, range(band.start + 3, band.start + 9), subset, []):
        got = lp.band_sums(g, zs, x)
        want = _band_sums_by_loop(g, zs, x)
        assert got.shape == want.shape
        # one gemm per block against one matvec per band: two summation
        # orders of up to ~2000 positive terms, a few ulp apart
        np.testing.assert_allclose(got, want, rtol=4e-15, atol=0)
    # bands with no nonzero row give zero columns
    empty = [z for z in wide if lp.band_row(g, z)[1].size == 0]
    assert empty and not lp.band_sums(g, empty, x).any()
    if n == 8:
        assert any(lp.band_row(g, z)[1].size == 1 for z in band)


def _band_sums_every_block(g, band, x):
    # band_sums without the support rule: every block the band reaches, its
    # window clipped to the columns x has
    bank = lp._bank(g.domain_length, g.num_points)
    idx = np.asarray(band, dtype=np.int64) - bank.z0
    out = np.zeros((x.shape[0], idx.size))
    at = np.searchsorted(idx, bank.edges)
    for b in np.flatnonzero(at[1:] > at[:-1]):
        lo, blk, _ = bank.block(b)
        cols = max(0, min(blk.shape[1], x.shape[1] - lo))
        w = blk[idx[at[b]:at[b + 1]] - bank.edges[b], :cols] ** 2
        out[:, at[b]:at[b + 1]] = x[:, lo:lo + cols] @ w.T
    return out


@pytest.mark.parametrize("n", [1024, 16384, 131072])
@pytest.mark.parametrize("support", ["inside", "bin1", "zero"])
def test_band_sums_read_only_the_support(n, support, monkeypatch):
    # rows zero outside bins a .. e - 1: the sums are those over every block
    # bit for bit, no block whose window misses a .. e - 1 is read, and rows
    # cut at e give those of their own every-block sums bit for bit and the
    # full-width sums to rounding (BLAS sums fewer trailing zeros)
    g = GridSpec(400.0, n, 0.05, 12)
    band = lp.default_band(g)
    bank = lp._bank(400.0, n)
    # "inside" is set by bins, not by block index: the blocks move with the rule
    a, e = {"inside": (n // 64 + 1, n // 16 + 3), "bin1": (1, 2), "zero": (0, 0)}[support]
    x = np.zeros((3, n // 2))
    x[:, a:e] = np.random.default_rng(n).random((3, e - a))
    subset = band[::7]
    want = [_band_sums_every_block(g, zs, x) for zs in (band, subset)]
    cut = [_band_sums_every_block(g, zs, x[:, :e]) for zs in (band, subset)]
    read = []
    block = lp._Bank.block
    monkeypatch.setattr(lp._Bank, "block", lambda self, b: read.append(b) or block(self, b))
    for zs, w, c in zip((band, subset), want, cut):
        got = lp.band_sums(g, zs, x)
        assert got.tobytes() == w.tobytes()
        got = lp.band_sums(g, zs, x[:, :e])
        assert got.tobytes() == c.tobytes()
        np.testing.assert_allclose(got, w, rtol=4e-15, atol=0)
    meets = (bank.stop > a) & (bank.start < e)
    assert set(read) == set(np.flatnonzero(meets).tolist())
    # the cut rows end inside a block window that a full-width read runs past
    assert support != "inside" or e < bank.stop[bank.start < e].max() < n // 2


@pytest.mark.parametrize("n", [1024, 16384])
def test_band_rows_are_views_into_their_blocks(n):
    g = GridSpec(200.0, n, 0.05, 20)
    band = lp.default_band(g)
    lp.band_sums(g, band, np.ones((1, n // 2)))
    blocks = [blk for _, blk, _ in lp._bank(200.0, n).built.values()]
    spans = 0
    for z in band:
        row = lp.band_row(g, z)[1]
        spans += row.nbytes
        assert sum(np.shares_memory(row, blk) for blk in blocks) == (1 if row.size else 0)
    # zeros fill each block outside its rows' spans, within a bounded overhead
    assert sum(blk.nbytes for blk in blocks) <= 1.3 * spans


def _edges_by_rescan(g, floor=lp._FLOOR):
    # the block rule rescanning every span of the open block per band: a block
    # closes once its window exceeds both _SLACK times its least span and floor bins
    band = lp.default_band(g)
    cut = lp.scale_values(range(band.start - 2, band.stop + 1))
    lo = np.searchsorted(g.frequencies, cut[:-1], "right")
    hi = np.maximum(lo, np.searchsorted(g.frequencies, 2.0 * cut[1:]))
    edges = [0]
    for i in range(1, lo.size):
        window = hi[i] - lo[edges[-1]]
        if window > lp._SLACK * (hi - lo)[edges[-1]:i + 1].min() and window > floor:
            edges.append(i)
    return edges + [lo.size]


# the frequency sets of the c13 CLI cases but verify-bilinear: the fixed
# cells, and verify-strichartz's mother cell 512 rescaled by 1.01^(58 k)
_C13_SETS = ([(200.0, n) for n in (512, 1024, 2048)] + [(512.0, 2048)]
             + [(512.0 / lp.scale_value(58 * k), 2048) for k in range(1, 13)])


@pytest.mark.parametrize("length, n", _C13_SETS + [(400.0, 131072)])
def test_bank_block_edges_match_the_rescan(length, n):
    g = GridSpec(length, n, 1.0, 1)
    assert lp._Bank(g).edges == _edges_by_rescan(g)


def test_low_bands_share_blocks(monkeypatch):
    # the op at bin 580 of verify_bernstein_linfty's grid band-sums rows that
    # reach bin 1244: the floor merges the narrow low bands, so it reads fewer
    # blocks than the rule without a floor would (66)
    g = GridSpec(400.0, 131072, 1e-3, 12)
    x = np.zeros((1, g.num_points // 2))
    x[:, 1:1244] = 1.0
    read, block = [], lp._Bank.block
    monkeypatch.setattr(lp._Bank, "block", lambda self, b: read.append(b) or block(self, b))
    lp.band_sums(g, lp.default_band(g), x)
    monkeypatch.setattr(lp, "_FLOOR", 0)
    unmerged = lp._Bank(g)
    assert np.count_nonzero((unmerged.start < 1244) & (unmerged.stop > 1)) == 66
    assert len(read) < 66


@pytest.mark.parametrize("length, n", [(400.0, 4096), (400.0, 131072)])
def test_band_rows_are_the_computed_symbols_on_their_spans(length, n):
    # on the picard and bernstein frequency sets, each psi row read from a
    # merged block is bitwise _compute_symbol, trimmed to its nonzero span
    g = GridSpec(length, n, 1.0, 1)
    for z in lp.default_band(g):
        start, row = lp.band_row(g, z)
        ref = lp._compute_symbol(g.frequencies, z, "psi")
        nz = np.flatnonzero(ref)
        lo, hi = (nz[0], nz[-1] + 1) if nz.size else (start, start)
        assert start == lo and row.tobytes() == ref[lo:hi].tobytes()


@pytest.mark.parametrize("length, n, blocks, values", [
    (400.0, 4096, None, lp._BUMP_VALUES), (400.0, 4096, None, 1),
    (400.0, 131072, (0, 1, 40, 78, -2, -1), lp._BUMP_VALUES), (400.0, 4096, None, 700),
    (1.0, 4096, None, lp._BUMP_VALUES)])
def test_row_built_blocks_equal_the_one_shot_difference(length, n, blocks, values,
                                                        monkeypatch):
    # a block built a few cutoff rows at a time is bitwise the difference of
    # adjacent rows of bump(xi / lam) evaluated over the whole block at once,
    # and its build evaluates each of its cutoffs once over its window
    # 1: one cutoff row a call; 700: below the widest windows at N = 4096;
    # L = 1: a block whose window holds no bin
    monkeypatch.setattr(lp, "_BUMP_VALUES", values)
    bump, seen = lp.bump, []
    monkeypatch.setattr(lp, "bump", lambda s: seen.append(np.size(s)) or bump(s))
    bank = lp._Bank(GridSpec(length, n, 1.0, 1))
    nblocks = len(bank.edges) - 1
    windows = bank.stop - bank.start
    assert values != 700 or windows.min() < values < windows.max()
    assert length != 1.0 or windows.min() == 0
    # block 78 of N = 131072 is the first whose window passes 2^15 bins
    assert n != 131072 or windows[78] == 32969 and windows[:78].max() <= 1 << 15
    for b in range(nblocks) if blocks is None else [b % nblocks for b in blocks]:
        i, j = bank.edges[b], bank.edges[b + 1]
        cut = bump(bank.pos[bank.start[b]:bank.stop[b]] / bank.cut[i:j + 1, None])
        want = cut[1:] - cut[:-1]
        seen.clear()
        lo, blk, rows = bank.block(b)
        assert sum(seen) == (j - i + 1) * windows[b]
        assert lo == bank.start[b] and blk.tobytes() == want.tobytes()
        for r, (start, row) in enumerate(rows):
            k = np.flatnonzero(want[r])
            assert (start, row.size) == ((lo + k[0], k[-1] + 1 - k[0]) if k.size else (lo, 0))
            assert np.shares_memory(row, blk) or not row.size
            assert not row.flags.writeable


@pytest.mark.parametrize("n", [4096, 131072])
def test_band_piece_is_the_full_width_multiplier(n):
    # band_piece multiplies only the symbol's span over the stored bins; it
    # equals the full-width product apply_multiplier(f, symbol_array(...)) bit
    # for bit (that product's 0 * negative gives -0.0 below the span, and the
    # comparison adds +0.0 to read it as 0.0), and a path's row k is the piece
    # of snapshot k
    import math

    from gkdvlab.airy import free_solution
    from gkdvlab.estimates import flat_field
    from gkdvlab.grid import apply_multiplier

    def bits(a):
        return (np.asarray(a) + 0.0).view(np.int64)

    g = GridSpec(400.0, n, 1e-3, 3)
    rng = np.random.default_rng(n)
    wide = Field.from_values(g, rng.standard_normal(n))
    narrow = flat_field(g, 300, rng)  # bins 1 .. 300
    band = lp.default_band(g)
    straddle = int(round(math.log(300 * g.delta_xi) / math.log(lp.BASE)))
    for f in (wide, narrow):
        path = free_solution(f)
        for kind in ("psi", "leq"):
            for z in (band.start, band.start + 1, band.start + len(band) // 2,
                      straddle, band.stop - 2, band.stop - 1):
                got = lp.band_piece(f, z, kind)
                ref = apply_multiplier(f, lp.symbol_array(g, z, kind))
                assert type(got) is Field
                np.testing.assert_array_equal(bits(got.coefficients), bits(ref.coefficients))
                np.testing.assert_array_equal(got.values.view(np.int64), ref.values.view(np.int64))
                start, row = lp.band_row(g, z, kind)
                assert got.spectral_end <= min(f.spectral_end, start + row.size)
                piece = lp.band_piece(path, z, kind)
                assert type(piece) is Path
                assert piece.spectral_end <= min(path.spectral_end, start + row.size)
                for k in range(len(path)):
                    snap = lp.band_piece(path[k], z, kind)
                    np.testing.assert_array_equal(piece[k].coefficients.view(np.int64),
                                                  snap.coefficients.view(np.int64))
                    np.testing.assert_array_equal(piece.values_matrix[k].view(np.int64),
                                                  snap.values.view(np.int64))

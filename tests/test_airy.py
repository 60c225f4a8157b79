from functools import lru_cache

import numpy as np
import pytest

from gkdvlab import littlewood_paley as lp
from gkdvlab.airy import (
    duhamel,
    equation_defects,
    evolve,
    free_solution,
    phase_matrix,
)
from gkdvlab.grid import Field, GridSpec, Path, l2_norm

from conftest import gaussian_bump, random_field


# grids (L, N, dt, K) of the picard and bernstein workloads and two more
_GRIDS = [(400.0, 4096, 1 / 64, 64), (400.0, 131072, 1e-3, 12),
          (200.0, 1024, 1 / 32, 32), (512.0, 2048, 33 / 128, 128)]


@pytest.fixture
def phase_cache(monkeypatch):
    """airy's phase-table cache, emptied for the test and put back after it."""
    from gkdvlab import airy
    cached = lru_cache(maxsize=8)(airy._phase_table.__wrapped__)
    monkeypatch.setattr(airy, "_phase_table", cached)
    return cached


class TestEvolve:
    def test_identity_at_zero(self, small_grid):
        rng = np.random.default_rng(0)
        f = random_field(small_grid, rng)
        g = evolve(f, 0.0)
        np.testing.assert_allclose(g.values, f.values, rtol=0, atol=1e-14)

    def test_group_law(self, small_grid):
        rng = np.random.default_rng(1)
        f = random_field(small_grid, rng)
        a = evolve(evolve(f, 0.37), 0.21)
        b = evolve(f, 0.58)
        scale = np.abs(b.values).max()
        assert np.abs(a.values - b.values).max() <= 1e-12 * scale

    def test_unitarity(self, small_grid):
        rng = np.random.default_rng(2)
        f = random_field(small_grid, rng)
        n0 = l2_norm(f)
        for t in (1e-3, 0.7, 13.0, -4.2):
            assert l2_norm(evolve(f, t)) == pytest.approx(n0, rel=1e-12)

    def test_single_harmonic_phase_advance(self, small_grid):
        xi0 = 7 * small_grid.delta_xi
        f = Field.from_values(small_grid, np.cos(xi0 * small_grid.x))
        t = 0.3
        g = evolve(f, t)
        expect = np.cos(xi0 * small_grid.x + xi0 ** 3 * t)
        np.testing.assert_allclose(g.values, expect, atol=1e-12)

    def test_propagator_table_unitary(self, small_grid):
        # every stored bin of every phase row has modulus one
        for sign in (+1, -1):
            mags = np.abs(phase_matrix(small_grid, sign))
            assert mags.shape == (small_grid.num_steps + 1,
                                  small_grid.num_points // 2)
            np.testing.assert_allclose(mags, 1.0, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("L,n,dt,k", _GRIDS)
    def test_backward_table_is_conjugate_bitwise(self, L, n, dt, k):
        # the -1 table is read as the conjugate of the cached +1 table, and
        # is equal bit for bit to its own exponential on these grids
        from gkdvlab.airy import _phase_matrix_compute
        g = GridSpec(L, n, dt, k)
        own = _phase_matrix_compute(g, -1)
        for table in (np.conj(phase_matrix(g, +1)), phase_matrix(g, -1)):
            assert np.array_equal(table.view(np.int64), own.view(np.int64))
        assert phase_matrix(g, -1, 7).tobytes() == own[:, :7].tobytes()

    @pytest.mark.parametrize("L,n,dt,k", _GRIDS)
    def test_pullbacks_equal_those_of_the_explicit_table(self, L, n, dt, k,
                                                         monkeypatch):
        # xs_report and duhamel_spectra read the -1 table as the conjugate
        # of the +1 columns they use; their outputs are bitwise those formed
        # with the explicit -1 exponential, the forcing on the left
        from gkdvlab import norms
        from gkdvlab.airy import _phase_matrix_compute, duhamel_spectra
        g = GridSpec(L, n, dt, k)
        own, plus = _phase_matrix_compute(g, -1), phase_matrix(g, +1)
        rng = np.random.default_rng(k)
        e = 300
        c = np.zeros((k + 1, n // 2), dtype=np.complex128)
        c[:, 1:e] = rng.standard_normal((k + 1, e - 1)) + 1j * rng.standard_normal((k + 1, e - 1))
        path = Path.from_spectral_matrix(g, c)
        forcing = path.bins(e)
        p = forcing * own[:, :e]
        acc = np.zeros_like(p)
        np.cumsum((dt / 3.0) * (p[:-2:2] + 4.0 * p[1:-1:2] + p[2::2]), axis=0,
                  out=acc[2::2])
        acc[1::2] = acc[:-1:2] + (dt / 2.0) * (p[:-1:2] + p[1::2])
        acc *= plus[:, :e]
        assert duhamel_spectra(g, forcing).tobytes() == acc.tobytes()
        got = norms.xs_report(path, 0.1).to_json()

        def explicit(grid, sign, end):
            return own[:, :end].copy()

        monkeypatch.setattr(norms, "phase_matrix", explicit)
        assert got == norms.xs_report(path, 0.1).to_json()

    def test_phase_cache_holds_one_table_per_grid(self, monkeypatch, phase_cache):
        # both signs and every column range read the one cached +1 table,
        # which grows to the widest range asked for and is never rebuilt
        # narrower; above the cache limit only the columns asked for are built
        from gkdvlab import airy
        grids = [GridSpec(50.0, 256, 0.05, 20), GridSpec(40.0, 64, 0.1, 9)]
        for g in grids:
            widths = []
            for sign, e in ((+1, 5), (-1, 17), (+1, None), (-1, None), (-1, 17), (+1, 5)):
                table = phase_matrix(g, sign, e)
                assert table.shape == (g.num_steps + 1, e or g.num_points // 2)
                widths.append(phase_cache(g)[0].shape[1])
            assert widths == [5, 17] + [g.num_points // 2] * 4
        assert phase_cache.cache_info().currsize == len(grids)
        assert phase_cache.cache_info().misses == len(grids)
        g = grids[0]
        full = {sign: phase_matrix(g, sign) for sign in (+1, -1)}
        for limit in (airy._PHASE_CACHE_LIMIT, 0):
            monkeypatch.setattr(airy, "_PHASE_CACHE_LIMIT", limit)
            for sign in (+1, -1):
                table = phase_matrix(g, sign, 17)
                assert table.shape == (g.num_steps + 1, 17)
                assert table.tobytes() == full[sign][:, :17].tobytes()
        assert phase_cache.cache_info().misses == len(grids)

    @pytest.mark.parametrize("L,n,dt,k", _GRIDS[:2])
    def test_grown_table_columns_are_the_full_tables(self, L, n, dt, k, phase_cache):
        # a grid asked for e1 < e2 < all columns: every +1 column is bitwise
        # that of the full table, the +1 table a read-only view and the -1
        # one its conjugate in a new writable array; one table per grid
        from gkdvlab import airy
        g = GridSpec(L, n, dt, k)
        full = airy._phase_matrix_compute(g, +1)
        for e in (3, n // 8 + 1, None):
            plus, minus = phase_matrix(g, +1, e), phase_matrix(g, -1, e)
            width = e or n // 2
            assert plus.tobytes() == full[:, :width].tobytes()
            assert minus.tobytes() == np.conj(full[:, :width]).tobytes()
            assert not plus.flags.writeable and minus.flags.writeable
            assert not np.shares_memory(minus, phase_cache(g)[0])
            assert phase_cache(g)[0].shape[1] == width
        assert phase_cache.cache_info().currsize == 1

    def test_bernstein_cycle_builds_no_table_after_its_verify_op(self, monkeypatch, phase_cache):
        # the bernstein workload's verify op (bin 29600) asks for the widest
        # columns; the ten-bin cycle after it reads them and builds none
        from gkdvlab import airy
        from gkdvlab import estimates as est
        built, compute = [], airy._phase_matrix_compute
        monkeypatch.setattr(airy, "_phase_matrix_compute",
                            lambda g, sign, e=None: built.append(e) or compute(g, sign, e))
        est.verify_bernstein_linfty(est.TrialEnsemble(3, 1, schedule=(29600,)), 5.0)
        assert built == [29601]
        est.verify_bernstein_linfty(est.TrialEnsemble(4, 1), 5.0)
        assert built == [29601] and phase_cache.cache_info().currsize == 1

    def test_commutes_with_projections(self, grid):
        rng = np.random.default_rng(3)
        f = random_field(grid, rng)
        band = lp.default_band(grid)
        t = 0.11
        for z in (band.start + 50, band.start + 300, band.stop - 1):
            sc = lp.scale(z)
            a = lp.project(evolve(f, t), sc)
            b = evolve(lp.project(f, sc), t)
            scale = max(np.abs(b.values).max(), 1e-300)
            assert np.abs(a.values - b.values).max() <= 1e-12 * scale


class TestFreeSolution:
    def test_zero_data(self, small_grid):
        p = free_solution(Field.zero(small_grid))
        assert np.abs(p.values_matrix).max() == 0.0

    def test_norm_constant_in_time(self, small_grid):
        rng = np.random.default_rng(4)
        phi = random_field(small_grid, rng)
        p = free_solution(phi)
        n0 = l2_norm(phi)
        for s in p:
            assert l2_norm(s) == pytest.approx(n0, rel=1e-12)

    def test_snapshots_match_evolve(self, small_grid):
        phi = gaussian_bump(small_grid, width=4.0, carrier=1.0)
        p = free_solution(phi)
        k = 7
        direct = evolve(phi, small_grid.times[k])
        np.testing.assert_allclose(p[k].values, direct.values, atol=1e-13)

    def test_residual_second_order_in_dt(self):
        # centered-difference residual of the free equation drops like dt^2
        L, N = 60.0, 512
        res = []
        for K in (40, 80):
            g = GridSpec(L, N, 0.5 / K, K)
            phi = gaussian_bump(g, width=3.0, carrier=2.0)
            res.append(equation_defects(free_solution(phi)).max())
        order = np.log2(res[0] / res[1])
        assert order > 1.7


class TestDuhamel:
    def test_zero_forcing(self, small_grid):
        out = duhamel(Path.zero(small_grid))
        assert np.abs(out.values_matrix).max() == 0.0

    def test_vanishes_at_zero(self, small_grid):
        rng = np.random.default_rng(5)
        forcing = Path(small_grid, [random_field(small_grid, rng)
                                    for _ in range(small_grid.num_steps + 1)])
        out = duhamel(forcing)
        assert np.abs(out[0].values).max() == 0.0

    def test_free_forcing_gives_t_times_free(self, small_grid):
        # f(s) = S(s) phi is constant in the interaction picture, so the
        # quadrature is exact: result is t * S(t) phi
        phi = gaussian_bump(small_grid, width=4.0, carrier=1.5)
        out = duhamel(free_solution(phi))
        for k in (1, 5, small_grid.num_steps):
            t = small_grid.times[k]
            expect = evolve(phi, t) * t
            scale = max(np.abs(expect.values).max(), 1e-300)
            err = np.abs(out[k].values - expect.values).max()
            assert err <= 1e-12 * scale * (1 + t)

    def test_linearity(self, small_grid):
        rng = np.random.default_rng(6)
        f1 = Path(small_grid, [random_field(small_grid, rng)
                               for _ in range(small_grid.num_steps + 1)])
        f2 = Path(small_grid, [random_field(small_grid, rng)
                               for _ in range(small_grid.num_steps + 1)])
        a, b = 2.5, -1.25
        lhs = duhamel(f1 * a + f2 * b)
        rhs = duhamel(f1) * a + duhamel(f2) * b
        scale = max(np.abs(rhs.values_matrix).max(), 1e-300)
        assert np.abs(lhs.values_matrix - rhs.values_matrix).max() <= 1e-12 * scale

    @pytest.mark.parametrize("K", [1, 2, 3, 8, 9, 64, 65])
    def test_cumulative_rule_matches_stepwise_loop_bitwise(self, K):
        # even rows: Simpson panels summed in order; odd rows: the even row
        # below plus one trapezoid step
        g = GridSpec(40.0, 64, 0.3 / K, K)
        rng = np.random.default_rng(K)
        forcing = Path(g, [random_field(g, rng) for _ in range(K + 1)])
        p = forcing.spectral_matrix * phase_matrix(g, -1)
        acc = np.zeros_like(p)
        for k in range(1, K + 1):
            if k % 2 == 0:
                acc[k] = acc[k - 2] + (g.dt / 3.0) * (p[k - 2] + 4.0 * p[k - 1] + p[k])
            else:
                acc[k] = acc[k - 1] + (g.dt / 2.0) * (p[k - 1] + p[k])
        want = Path.from_spectral_matrix(g, acc * phase_matrix(g, +1))
        got = duhamel(forcing)
        assert np.array_equal(got.spectral_matrix, want.spectral_matrix)
        assert np.array_equal(got.values_matrix, want.values_matrix)

    def test_spectra_core_matches_duhamel(self, small_grid):
        # the solver's correction calls the core with the sign folded into
        # the derivative symbol: equal by value to minus duhamel
        from gkdvlab.airy import duhamel_spectra
        rng = np.random.default_rng(8)
        forcing = Path(small_grid, [random_field(small_grid, rng)
                                    for _ in range(small_grid.num_steps + 1)])
        got = duhamel_spectra(small_grid, forcing.spectral_matrix)
        assert np.array_equal(got, duhamel(forcing).spectral_matrix)
        xi = small_grid.frequencies
        folded = duhamel_spectra(small_grid, (-1j * xi) * forcing.spectral_matrix)
        plain = duhamel(Path.from_spectral_matrix(
            small_grid, (1j * xi) * forcing.spectral_matrix)) * (-1.0)
        assert np.array_equal(folded, plain.spectral_matrix)

    def test_smooth_forcing_second_order(self):
        # forcing with genuine interaction-picture time dependence; compare
        # against a doubled-resolution run
        L, N = 60.0, 256
        vals = {}
        for K in (32, 64):
            g = GridSpec(L, N, 1.0 / K, K)
            phi = gaussian_bump(g, width=3.0, carrier=1.0)
            mod = [np.sin(1.7 * t) for t in g.times]
            forcing = Path(g, [phi * m for m in mod])
            vals[K] = duhamel(forcing)
        coarse = vals[32].values_matrix[-1]
        fine = vals[64].values_matrix[-1]
        err = np.abs(coarse - fine).max()
        assert err <= 5e-4 * max(np.abs(fine).max(), 1e-300)

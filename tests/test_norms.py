"""Band-lattice norms, critical index, and the exact-lattice rescaling."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gkdvlab import airy, norms
from gkdvlab import littlewood_paley as lp
from gkdvlab.airy import phase_matrix
from gkdvlab.estimates import annulus_field, flat_field
from gkdvlab.grid import Field, GridSpec, Path, l2_norm
from gkdvlab.io import canonical_json
from gkdvlab.nonlinearity import power_spectra
from gkdvlab.picard import _correction
from gkdvlab.variation import vp_norm

from conftest import gaussian_bump, random_field


def _dp_bounds_by_tables(steps, cen, nrm):
    """The DP bound over full (m, m, B) tables D'_jk = min(|S_j - S_k|,
    c_j + c_k, r_j + r_k), solved by vp_batch: the reference that
    norms._dp_bounds must equal bit for bit."""
    from gkdvlab.variation import vp_batch
    S = np.zeros((steps.shape[0] + 1, steps.shape[1]))
    np.cumsum(steps, axis=0, out=S[1:])
    D = np.abs(S[:, None] - S[None, :])
    for v in (cen, nrm):
        np.minimum(D, v[:, None] + v[None, :], out=D)
    return (1.0 + 1e-9) * np.array(vp_batch(D.transpose(2, 0, 1), nrm.T, 2.0))


def mean_free(f):
    c = f.coefficients.copy()
    c[0] = 0.0
    return Field.from_coefficients(f.grid, c)


class TestCriticalIndex:
    def test_p5_is_zero(self):
        assert norms.critical_index(5.0).s_p == 0.0

    def test_p9_is_quarter(self):
        assert norms.critical_index(9.0).s_p == 0.25

    def test_monotone_to_half(self):
        ps = [5.0, 6.0, 9.0, 20.0, 1e3, 1e9]
        vals = [norms.critical_index(p).s_p for p in ps]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.5
        assert vals[-1] == pytest.approx(0.5, abs=1e-8)

    def test_below_five_rejected(self):
        with pytest.raises(ValueError):
            norms.critical_index(4.999)
        with pytest.raises(ValueError):
            norms.CriticalIndex(3.0)

    def test_s_p_is_derived_from_p(self):
        # s_p is a property of p, not a second field that could disagree
        assert norms.CriticalIndex(9.0).s_p == norms.critical_index(9).s_p == 0.25
        assert norms.critical_index(7).p == 7.0
        with pytest.raises(TypeError):
            norms.CriticalIndex(5.0, 0.9)


class TestBesov:
    def test_zero_field(self, small_grid):
        rep = norms.besov_report(Field.zero(small_grid), 0.3)
        assert rep.value == 0.0
        assert rep.argmax_scale is None
        assert rep.out_of_band_fraction == 0.0

    def test_single_harmonic_weight(self, small_grid):
        # for one harmonic the band norms are Psi_z(xi0) * ||f||, so the
        # sup is the largest mask value at that frequency
        k = 17
        xi0 = k * small_grid.delta_xi
        f = Field.from_values(small_grid,
                              np.cos(xi0 * small_grid.x))
        band = lp.default_band(small_grid)
        psi_at = [lp.psi_symbol(lp.scale(z), np.array([xi0]))[0] for z in band]
        want = max(psi_at) * l2_norm(f)
        got = norms.besov_report(f, 0.0)
        assert got.value == pytest.approx(want, rel=1e-10)
        assert got.value <= l2_norm(f) * (1.0 + 1e-12)

    def test_report_fields_and_json(self, small_grid):
        f = gaussian_bump(small_grid, 1.0, 4.0, 2.0)
        rep = norms.besov_report(f, 0.25)
        d = json.loads(canonical_json(rep.to_dict()))
        assert d["norm"] == "besov"
        assert d["s"] == 0.25
        assert d["value"] == rep.value
        assert d["argmax_scale"] == rep.argmax_scale
        assert 0.0 <= d["out_of_band_fraction"] < 1.0

    def test_mean_mode_never_covered(self, small_grid):
        f = Field.from_values(small_grid, np.ones(small_grid.num_points))
        rep = norms.besov_report(f, 0.0)
        assert rep.value == 0.0
        assert rep.out_of_band_fraction == pytest.approx(1.0)


    def test_besov_and_sobolev_match_per_band_loop(self, small_grid):
        # the loop both reports once ran over the stored spans: band_sums
        # sums them in another order, so values agree to a few ulp and the
        # argmax is the same band
        rng = np.random.default_rng(41)
        f = random_field(small_grid, rng, decay=1.0)
        band = lp.default_band(small_grid)
        c2 = small_grid.bin_weights * np.abs(f.coefficients) ** 2
        for s in (0.0, 0.1, -0.3):
            terms = []
            for z in band:
                start, row = lp.band_row(small_grid, z)
                energy = float((row * row * c2[start:start + row.size]).sum())
                terms.append(lp.scale_value(z) ** s
                             * np.sqrt(small_grid.domain_length * energy))
            sq = [t * t for t in terms]
            b, so = norms.besov_report(f, s), norms.sobolev_report(f, s)
            assert b.value == pytest.approx(max(terms), rel=4e-15, abs=0)
            assert b.argmax_scale == lp.scale_value(band[int(np.argmax(terms))])
            assert so.value == pytest.approx(np.sqrt(sum(sq)), rel=4e-15, abs=0)
            assert so.argmax_scale == lp.scale_value(band[int(np.argmax(sq))])


class TestSobolev:
    def test_zero_field(self, small_grid):
        assert norms.sobolev_report(Field.zero(small_grid), 0.1).value == 0.0

    @pytest.mark.parametrize("c", [1e160, 1e-170])
    def test_scaled_field_matches_unscaled(self, c):
        # squared coefficients overflow near 1e160 and underflow near 1e-170
        # unless the coefficients are first scaled by a power of two
        g = GridSpec(50.0, 128, 0.05, 12)
        f = random_field(g, np.random.default_rng(0), decay=1.0)
        fc = Field.from_coefficients(g, c * f.coefficients)
        for report in (norms.besov_report, norms.sobolev_report):
            ref, rep = report(f, 0.1), report(fc, 0.1)
            assert rep.value / c == pytest.approx(ref.value, rel=1e-13)
            assert rep.argmax_scale == ref.argmax_scale
            assert rep.out_of_band_fraction == pytest.approx(ref.out_of_band_fraction, rel=1e-13)
        ref, rep = (norms.xs_report(airy.free_solution(h), 0.1) for h in (f, fc))
        assert rep.out_of_band_fraction == pytest.approx(ref.out_of_band_fraction, rel=1e-13)
        # the band energies of 2^e c f are (2^e c)^2 those of f, which has e = 0
        band = lp.default_band(g)
        got, e = lp.band_energies(fc, band)
        want, e0 = lp.band_energies(f, band)
        assert e0 == 0 and e != 0
        assert got == pytest.approx(np.ldexp(c, e) ** 2 * want, rel=1e-13)

    def test_besov_below_sobolev(self, small_grid):
        rng = np.random.default_rng(100)
        for _ in range(100):
            f = random_field(small_grid, rng, decay=float(rng.uniform(0, 2)))
            s = float(rng.uniform(-0.5, 0.5))
            b = norms.besov_norm(f, s)
            so = norms.sobolev_report(f, s).value
            assert b <= so * (1.0 + 1e-12)

    def test_s0_bracket_from_overlap_count(self, small_grid):
        # the l2 sum over bands rescales ||f|| by the partition's squared
        # overlap factor theta(xi) = sum_z Psi_z(xi)^2; compute theta on the
        # grid and bracket by its range over the present frequencies
        band = lp.default_band(small_grid)
        theta = np.zeros(small_grid.num_points // 2)
        for z in band:
            theta += lp.symbol_array(small_grid, z, "psi") ** 2
        rng = np.random.default_rng(5)
        for _ in range(10):
            f = mean_free(random_field(small_grid, rng, decay=1.0))
            present = np.abs(f.coefficients) > 1e-13
            lo = np.sqrt(theta[present].min())
            hi = np.sqrt(theta[present].max())
            v = norms.sobolev_report(f, 0.0).value
            n = l2_norm(f)
            assert lo * n * (1 - 1e-9) <= v <= hi * n * (1 + 1e-9)

    def test_weighted_identity_on_harmonic_pair(self, small_grid):
        # two well-separated harmonics: sobolev^2 splits into the two
        # single-harmonic contributions exactly
        x = small_grid.x
        d = small_grid.delta_xi
        f1 = Field.from_values(small_grid, np.cos(5 * d * x))
        f2 = Field.from_values(small_grid, np.sin(60 * d * x))
        s = 0.2
        v2 = norms.sobolev_report(f1 + f2, s).value ** 2
        want = norms.sobolev_report(f1, s).value ** 2 + norms.sobolev_report(f2, s).value ** 2
        assert v2 == pytest.approx(want, rel=1e-10)


class TestXs:
    def test_zero_path(self, small_grid):
        assert norms.xs_norm(Path.zero(small_grid), 0.0) == 0.0

    def test_free_solution_matches_besov(self, small_grid):
        # localized pullbacks of a free solution are constant in time, so
        # each band's V2 collapses to the terminal jump ||P_z phi||
        rng = np.random.default_rng(31)
        for s in (0.0, 0.25):
            phi = mean_free(random_field(small_grid, rng, decay=2.0))
            path = airy.free_solution(phi)
            got = norms.xs_report(path, s)
            want = norms.besov_report(phi, s)
            assert got.value == pytest.approx(want.value, rel=1e-10)
            assert got.argmax_scale == pytest.approx(want.argmax_scale,
                                                     rel=1e-12)

    def test_duhamel_time_refinement(self):
        # halving dt changes the value by at most 2 percent
        vals = []
        for k in (24, 48):
            g = GridSpec(50.0, 256, 1.2 / k, k)
            forcing = airy.free_solution(gaussian_bump(g, 0.7, 4.0, 1.5))
            path = airy.duhamel(forcing)
            vals.append(norms.xs_norm(path, 0.0))
        assert abs(vals[1] - vals[0]) <= 0.02 * abs(vals[0])

    @staticmethod
    def _exhaustive(path, s):
        """(value, argmax scale) of every band's V2 by vp_norm, no pruning;
        the argmax is the lowest z attaining the maximum. Bands never reach
        mode 0, so every bin they cover has Parseval weight 2."""
        from gkdvlab.airy import phase_matrix
        from gkdvlab.variation import vp_norm
        grid = path.grid
        g = path.spectral_matrix * phase_matrix(grid, -1)
        best, arg = 0.0, None
        for z in lp.default_band(grid):
            psi = lp.symbol_array(grid, z, "psi")
            v = lp.scale_value(z) ** s \
                * vp_norm(g * psi, 2.0 * grid.domain_length, 2.0)
            if v > best:
                best, arg = v, lp.scale_value(z)
        return best, arg

    def test_screening_matches_exhaustive(self, small_grid):
        # the V1 screen must not change the answer: compare value and argmax
        # against every band solved without pruning
        phi = gaussian_bump(small_grid, 0.8, 3.0, 2.0)
        path = airy.duhamel(airy.free_solution(phi))
        s = 0.1
        best, arg = self._exhaustive(path, s)
        rep = norms.xs_report(path, s)
        assert rep.value == pytest.approx(best, rel=1e-12)
        assert rep.argmax_scale == arg

    # the exact-solve chunk sizes, and the bands the DP bound bounded, of
    # the engine that bounded each chunk before solving it (bound values are
    # bitwise those of the one bound pass, so the chunks cannot change)
    _PER_CHUNK = {
        0.1: ([1] + [2] * 12 + [1] * 4 + [2] + [1] * 3 + [2] + [1] * 2 + [2]
              + [1] * 6 + [2],
              [*range(-260, -240), *range(-151, -53), *range(-52, 107)]),
        -0.3: ([1, 2, 2, 2], [*range(-263, -237), *range(-147, -138)]),
    }

    @pytest.mark.parametrize("s", [0.1, -0.3])
    def test_screening_matches_exhaustive_over_chunks(self, small_grid, s,
                                                      monkeypatch):
        # a path whose rows are independent random fields leaves many bands
        # in contention; with a budget of two bands per chunk they are
        # solved over many chunks, and the answer must still be the
        # exhaustive one
        m = small_grid.num_steps + 1
        L2 = 2.0 * small_grid.domain_length
        monkeypatch.setattr(norms, "_ENGINE_BYTES", 2 * 24 * m * m)
        chunks = []
        solve = norms.vp_batch
        monkeypatch.setattr(norms, "vp_batch",
                            lambda D, *a: chunks.append(len(D)) or solve(D, *a))
        solved = []
        values = norms._band_values
        monkeypatch.setattr(norms, "_band_values",
                            lambda *a: solved.append(len(a[2])) or values(*a))
        # a band is known by its column of terminal norms, bitwise those of
        # the band_sums call over the rows |g_k|^2 and |g_k - mean|^2
        sums, bounded = [], []
        band_sums, dp_bounds = lp.band_sums, norms._dp_bounds
        monkeypatch.setattr(lp, "band_sums", lambda g, band, x: sums.append(
            (list(band), band_sums(g, band, x))) or sums[-1][1])
        monkeypatch.setattr(norms, "_dp_bounds", lambda steps, cen, nrm: bounded.append(
            nrm.copy()) or dp_bounds(steps, cen, nrm))
        rng = np.random.default_rng(34)
        path = Path.from_spectral_matrix(small_grid, np.stack(
            [random_field(small_grid, rng, decay=1.0).coefficients
             for _ in range(m)]))
        rep = norms.xs_report(path, s)
        monkeypatch.setattr(lp, "band_sums", band_sums)
        best, arg = self._exhaustive(path, s)
        assert rep.value == pytest.approx(best, rel=1e-12)
        assert rep.argmax_scale == arg
        # vp_batch runs only the exact solves, in the per-chunk engine's chunks
        want_chunks, want_bounded = self._PER_CHUNK[s]
        assert chunks == solved == want_chunks and max(chunks) == 2
        # one bound pass, over every band the per-chunk engine bounded
        band, out = [c for c in sums if c[1].shape[0] == 2 * m][-1]
        known = {np.sqrt(L2 * out[:m, i]).tobytes(): z for i, z in enumerate(band)}
        assert len(bounded) == 1
        covered = {known[bounded[0][:, j].tobytes()] for j in range(bounded[0].shape[1])}
        assert covered >= set(want_bounded)

    @pytest.mark.parametrize("kind", ["flat3", "flat25", "annulus", "zero"])
    def test_band_limited_paths_match_exhaustive(self, kind):
        # rows zero above a few bins: xs_report reads only the bins below the
        # spectral end, and value and argmax are still the exhaustive ones, on
        # a free path (constant pullback) and on its Duhamel integral (a line)
        grid = GridSpec(100.0, 2048, 0.01, 12)
        rng = np.random.default_rng(41)
        phi = {"flat3": lambda: flat_field(grid, 3, rng),
               "flat25": lambda: flat_field(grid, 25, rng),
               "annulus": lambda: annulus_field(grid, 110, rng),
               "zero": lambda: Field.zero(grid)}[kind]()
        assert phi.spectral_end < grid.num_points // 4
        for path in (airy.free_solution(phi), airy.duhamel(airy.free_solution(phi))):
            best, arg = self._exhaustive(path, 0.1)
            rep = norms.xs_report(path, 0.1)
            assert rep.value == pytest.approx(best, rel=1e-12)
            assert rep.argmax_scale == arg

    def test_band_limited_path_reads_no_bin_past_its_end(self, monkeypatch):
        # one xs_report of a band-limited path at N = 131072: no band_sums
        # argument, pullback handed to the exact solves or band slice of it
        # is wider than the path's spectral end
        grid = GridSpec(400.0, 131072, 1e-3, 12)
        path = airy.free_solution(flat_field(grid, 2790, np.random.default_rng(5)))
        end = path.spectral_end
        sums, values, grams = [], [], []
        band_sums, band_values, gram = lp.band_sums, norms._band_values, norms.gram_distances
        monkeypatch.setattr(lp, "band_sums", lambda g, band, x:
                            sums.append(x.shape[1]) or band_sums(g, band, x))
        monkeypatch.setattr(norms, "_band_values", lambda g, cen, *a:
                            values.append(cen.shape[1]) or band_values(g, cen, *a))
        monkeypatch.setattr(norms, "gram_distances", lambda x, w:
                            grams.append(x.shape[1]) or gram(x, w))
        norms.xs_report(path, norms.critical_index(5.0).s_p)
        assert end < grid.num_points // 16
        assert sums and values and grams
        assert max(sums + values + grams) <= end

    @pytest.mark.parametrize("c", [1e-150, 1e-170, 1e160])
    def test_scaled_path_matches_unscaled(self, small_grid, c):
        # band V2 values near 1e-160 come from subnormal squares and |g|^2
        # overflows near 1e154 unless the pullback is scaled by a power of two
        rng = np.random.default_rng(43)
        path = airy.duhamel(airy.free_solution(random_field(small_grid, rng, decay=1.0)))
        ref = norms.xs_report(path, 0.1)
        rep = norms.xs_report(Path.from_spectral_matrix(
            small_grid, c * path.spectral_matrix), 0.1)
        assert rep.value / c == pytest.approx(ref.value, rel=1e-12)
        assert rep.argmax_scale == ref.argmax_scale

    @staticmethod
    def _picard_difference(grid):
        """w_2 - w_1 of the correction iteration for a packet on grid."""
        v = airy.free_solution(gaussian_bump(grid, 0.6, 3.0, 2.0))

        def step(w):  # the solver's correction of w
            return _correction(grid, power_spectra((v + w).spectral_matrix, grid, 5.0))

        w1 = step(Path.zero(grid))
        return step(w1) - w1

    @pytest.mark.parametrize("s", [0.0, 0.25])
    @pytest.mark.parametrize("tiny", [False, True])
    def test_dp_bound_matches_exhaustive_on_picard_difference(
            self, small_grid, s, tiny, monkeypatch):
        # a real Picard difference, with the default engine budget and with
        # two bands per chunk: value and argmax are the exhaustive ones, and
        # the DP bound keeps bands that pass the second bound from a solve
        m = small_grid.num_steps + 1
        if tiny:
            monkeypatch.setattr(norms, "_ENGINE_BYTES", 2 * 24 * m * m)
        bounded, solved = [], []
        dp_bounds, values = norms._dp_bounds, norms._band_values
        monkeypatch.setattr(norms, "_dp_bounds", lambda steps, *a: bounded.append(
            steps.shape[1]) or dp_bounds(steps, *a))
        monkeypatch.setattr(norms, "_band_values",
                            lambda *a: solved.append(len(a[2])) or values(*a))
        path = self._picard_difference(small_grid)
        best, arg = self._exhaustive(path, s)
        rep = norms.xs_report(path, s)
        assert rep.value == pytest.approx(best, rel=1e-12)
        assert rep.argmax_scale == arg
        # every solved band but the first (x, solved before the visit) was
        # bounded, and some bounded band was not solved
        assert sum(solved) - 1 < sum(bounded)

    @staticmethod
    def _pulled_rows(grid, kind, seed):
        """Pulled-back spectral rows of one of several path shapes; "line"
        and "alternating" move along one direction through 0, where the DP
        bound is exact."""
        rng = np.random.default_rng(seed)
        m = grid.num_steps + 1

        def rand():
            return random_field(grid, rng, decay=1.0).coefficients

        if kind == "duhamel":
            path = airy.duhamel(airy.free_solution(random_field(grid, rng, decay=1.0)))
            return path.spectral_matrix * phase_matrix(grid, -1)
        if kind == "nearly_constant":
            steps = np.stack([rand() for _ in range(m)])
            return rand() + 1e-9 * np.cumsum(steps, axis=0)
        if kind in ("line", "alternating"):
            k = np.arange(m, dtype=float)
            t = k / (m - 1) if kind == "line" else (-1.0) ** k
            return t[:, None] * rand()
        rows = np.stack([rand() for _ in range(m)])
        if kind == "zero_first_row":
            rows[0] = 0.0
        return rows

    @given(kind=st.sampled_from(["random", "duhamel", "nearly_constant",
                                 "zero_first_row", "line", "alternating"]),
           scale=st.sampled_from([1.0, 1e150, 1e-150]),
           seed=st.integers(0, 2 ** 16))
    @example(kind="line", scale=1.0, seed=0)
    @example(kind="alternating", scale=1e-150, seed=1)
    @settings(max_examples=40, deadline=None)
    def test_dp_bound_above_every_band_value(self, kind, scale, seed):
        # the DP bound of every band is at least its V2 (vp_norm over the
        # localized rows) and at most the second bound; the tables are
        # formed directly from the rows. Bands whose squared V2 is
        # subnormal are left out: both sides are rounding there
        grid = GridSpec(50.0, 128, 0.05, 12)
        g = scale * self._pulled_rows(grid, kind, seed)
        L2 = 2.0 * grid.domain_length
        band = lp.default_band(grid)
        tables = np.empty((3, grid.num_steps + 1, len(band)))
        exact = np.empty(len(band))
        for b, z in enumerate(band):
            x = g * lp.symbol_array(grid, z, "psi")
            for t, rows in zip(tables, (np.diff(x, axis=0), x - x.mean(axis=0), x)):
                t[:rows.shape[0], b] = np.sqrt(L2 * np.sum(np.abs(rows) ** 2, axis=1))
            exact[b] = vp_norm(x, L2, 2.0)
        steps, cen, nrm = tables[0, :-1], tables[1], tables[2]
        up = norms._dp_bounds(steps, cen, nrm)
        assert up.tobytes() == _dp_bounds_by_tables(steps, cen, nrm).tobytes()
        v1 = steps.sum(axis=0)
        top = (1.0 + 1e-9) * np.sqrt(np.minimum(v1, 2.0 * cen.max(axis=0)) * v1
                                     + nrm.max(axis=0) ** 2)
        normal = exact ** 2 >= np.finfo(float).tiny
        assert np.all(np.isfinite(exact)) and normal.mean() > 0.5
        assert np.all(up[normal] >= exact[normal])
        assert np.all(up[normal] <= (1.0 + 1e-12) * top[normal])

    @pytest.mark.parametrize("m", [2, 13, 65, 257])
    @pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150])
    def test_dp_bound_equals_full_tables_bitwise(self, m, scale):
        # the column-wise bound forms each D'[:k, k] inside the k-loop; it is
        # the bound over the full tables bit for bit, on tables where each of
        # the three terms is the least somewhere (and zero bands and rows)
        rng = np.random.default_rng(m)
        bands = 9
        steps = scale * rng.exponential(size=(m - 1, bands)) ** 3
        cen = scale * rng.uniform(0.1, 2.0, (m, bands)) * np.sqrt(m)
        nrm = scale * rng.uniform(0.5, 3.0, (m, bands)) * np.sqrt(m)
        steps[:, 0], cen[:, 0], nrm[:, 0] = 0.0, 0.0, 0.0
        steps[: m // 3, 1] = 0.0
        nrm[0, 2] = 0.0
        up = norms._dp_bounds(steps, cen, nrm)
        assert up.shape == (bands,)
        assert up.tobytes() == _dp_bounds_by_tables(steps, cen, nrm).tobytes()

    def test_nearly_constant_path_matches_direct_differences(self, small_grid):
        # a constant plus increments of 1e-9 of its size after the pullback;
        # the oracle forms every band's differences directly
        from gkdvlab.airy import phase_matrix
        rng = np.random.default_rng(33)
        m = small_grid.num_steps + 1
        base = random_field(small_grid, rng, decay=1.0).coefficients
        steps = np.stack([random_field(small_grid, rng, decay=1.0).coefficients
                          for _ in range(m)])
        steps *= 1e-9 * np.linalg.norm(base) \
            / np.linalg.norm(steps, axis=1, keepdims=True)
        pulled = base[None, :] + np.cumsum(steps, axis=0)
        path = Path.from_spectral_matrix(small_grid,
                                         pulled * phase_matrix(small_grid, +1))
        g = path.spectral_matrix * phase_matrix(small_grid, -1)
        L2 = 2.0 * small_grid.domain_length  # bin weight 2 on every band
        s = 0.2
        best, arg = 0.0, None
        for z in lp.default_band(small_grid):
            x = g * lp.symbol_array(small_grid, z, "psi")
            d2 = L2 * np.sum(np.abs(x[:, None, :] - x[None, :, :]) ** 2, axis=2)
            top = np.zeros(m)
            for k in range(1, m):
                top[k] = np.max(top[:k] + d2[:k, k])
            v = lp.scale_value(z) ** s * np.sqrt(
                np.max(top + L2 * np.sum(np.abs(x) ** 2, axis=1)))
            if v > best:
                best, arg = v, lp.scale_value(z)
        rep = norms.xs_report(path, s)
        assert rep.value == pytest.approx(best, rel=1e-9)
        assert rep.argmax_scale == arg


class TestNormIsTheReportsValue:
    # besov_norm and xs_norm run the reports' cores and leave out only the
    # out-of-band fraction, so each equals its report's value bit for bit

    @staticmethod
    def _check(phi, path, bands=(None,), ss=(0.0, 0.25)):
        for band in bands:
            for s in ss:
                assert repr(norms.besov_norm(phi, s, band)) == repr(
                    norms.besov_report(phi, s, band).value)
                assert repr(norms.xs_norm(path, s, band)) == repr(
                    norms.xs_report(path, s, band).value)

    def test_random_field(self, small_grid):
        phi = random_field(small_grid, np.random.default_rng(28), decay=1.0)
        band = lp.default_band(small_grid)
        self._check(phi, airy.duhamel(airy.free_solution(phi)),
                    bands=(None, (band.start + 40, band.stop - 60)), ss=(0.0, 0.25, -0.3))

    def test_path_scaled_by_1e160(self, small_grid):
        phi = random_field(small_grid, np.random.default_rng(29), decay=1.0) * 1e160
        path = airy.duhamel(airy.free_solution(phi))
        assert norms.xs_norm(path, 0.1) > 1e150
        self._check(phi, path)

    def test_band_limited_path_at_131072(self):
        grid = GridSpec(400.0, 131072, 1e-3, 12)
        phi = flat_field(grid, 2790, np.random.default_rng(30))
        self._check(phi, airy.free_solution(phi), ss=(norms.critical_index(5.0).s_p,))


class TestRescale:
    def test_exact_lattice_invariance(self, small_grid):
        # criterion preview: besov at s_p is invariant under the critical
        # rescaling along the 1.01 lattice
        rng = np.random.default_rng(41)
        f = mean_free(random_field(small_grid, rng, decay=1.5))
        for p in (5.0, 6.0, 9.0):
            sp = norms.critical_index(p).s_p
            base = norms.besov_norm(f, sp)
            for m in (-20, 20):
                g = norms.rescale(f, m, p)
                assert norms.besov_norm(g, sp) == pytest.approx(base,
                                                                rel=1e-6)

    def test_argmax_shifts_by_lattice_step(self, small_grid):
        f = gaussian_bump(small_grid, 1.0, 4.0, 2.0)
        p = 6.0
        sp = norms.critical_index(p).s_p
        m = 30
        a = norms.besov_report(f, sp)
        b = norms.besov_report(norms.rescale(f, m, p), sp)
        assert b.argmax_scale / a.argmax_scale == pytest.approx(
            lp.scale_value(m), rel=1e-9)

    def test_l2_scaling_law(self, small_grid):
        # ||f_c||_2 = c^{2/(p-1) - 1/2} ||f||_2
        f = gaussian_bump(small_grid, 1.0, 4.0, 2.0)
        p, m = 7.0, 15
        c = lp.scale_value(m)
        g = norms.rescale(f, m, p)
        assert l2_norm(g) == pytest.approx(
            c ** (2.0 / (p - 1.0) - 0.5) * l2_norm(f), rel=1e-12)

    def test_round_trip(self, small_grid):
        f = gaussian_bump(small_grid, 1.0, 4.0, 2.0)
        g = norms.rescale(norms.rescale(f, 12, 5.0), -12, 5.0)
        assert g.grid.domain_length == pytest.approx(
            small_grid.domain_length, rel=1e-12)
        np.testing.assert_allclose(g.coefficients, f.coefficients,
                                   rtol=0, atol=1e-15)

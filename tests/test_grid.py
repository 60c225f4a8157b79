import json
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkdvlab.grid import (
    Field,
    GridError,
    GridMismatchError,
    GridSpec,
    MultiplierSymmetryError,
    NonFiniteFieldError,
    Path,
    apply_multiplier,
    l2_norm,
    mixed_norm,
    time_weights,
)

from conftest import random_field


class TestGridSpec:
    def test_rejects_bad_parameters(self):
        with pytest.raises(GridError):
            GridSpec(-1.0, 64, 0.1, 4)
        with pytest.raises(GridError):
            GridSpec(10.0, 100, 0.1, 4)  # not a power of two
        with pytest.raises(GridError):
            GridSpec(10.0, 64, -0.1, 4)
        with pytest.raises(GridError):
            GridSpec(10.0, 64, 0.1, 0)
        # N = 1 holds only the Nyquist bin, so it would store no bin at all
        with pytest.raises(GridError, match="at least 2"):
            GridSpec(10.0, 1, 0.1, 1)

    def test_frequency_layout(self):
        g = GridSpec(10.0, 8, 0.1, 2)
        dxi = 2 * np.pi / 10.0
        assert g.frequencies.shape == (4,)
        assert g.frequencies[0] == 0.0
        assert g.frequencies[1] == pytest.approx(dxi, rel=1e-15)
        assert g.frequencies[-1] == pytest.approx(3 * dxi, rel=1e-15)
        assert g.resolvable_max == pytest.approx(3 * dxi, rel=1e-15)
        assert g.bin_weights.tolist() == [1.0, 2.0, 2.0, 2.0]
        assert g.horizon == pytest.approx(0.2)

    def test_aggregated_error_message(self):
        with pytest.raises(GridError) as exc:
            GridSpec(-1.0, 100, -0.1, 0)
        msg = str(exc.value)
        assert "domain_length" in msg and "num_points" in msg and "dt" in msg


class TestTransform:
    def test_constant_field_single_mode(self, small_grid):
        f = Field.from_values(small_grid, np.full(small_grid.num_points, 3.5))
        c = f.coefficients
        assert c.shape == (small_grid.num_points // 2,)
        assert c[0] == pytest.approx(3.5, rel=1e-14)
        assert np.abs(c[1:]).max() < 1e-14

    def test_single_harmonic_split(self, small_grid):
        L = small_grid.domain_length
        v = np.cos(2 * np.pi * small_grid.x / L)
        f = Field.from_values(small_grid, v)
        c = f.coefficients
        # bin 1 stands for both +xi and -xi, each carrying half the cosine
        assert c[1] == pytest.approx(0.5, abs=1e-14)
        mask = np.ones(c.size, bool)
        mask[1] = False
        assert np.abs(c[mask]).max() < 1e-13
        assert l2_norm(f) ** 2 == pytest.approx(L / 2, rel=1e-14)

    def test_round_trip(self, grid):
        rng = np.random.default_rng(11)
        for _ in range(5):
            f = random_field(grid, rng)
            g = Field.from_coefficients(grid, f.coefficients)
            err = np.abs(g.values - f.values).max()
            assert err <= 1e-12 * np.abs(f.values).max()

    def test_rejects_non_finite(self, small_grid):
        v = np.zeros(small_grid.num_points)
        v[3] = np.nan
        with pytest.raises(NonFiniteFieldError):
            Field.from_values(small_grid, v)

    def test_finite_check_reads_every_part_in_any_layout(self):
        from gkdvlab.grid import _finite
        # a contiguous complex array is tested on its float view, others as is
        c = np.zeros((3, 8), dtype=np.complex128)
        views = (c, c[:, ::2], c.T)
        assert all(_finite(v) is v for v in views)
        for bad in (complex(np.inf, 0.0), complex(0.0, np.nan)):
            c[2, 6] = bad
            for v in views:
                with pytest.raises(NonFiniteFieldError):
                    _finite(v)

    def test_nyquist_mode_projected_out(self, small_grid):
        v = np.cos(np.pi * np.arange(small_grid.num_points))  # pure Nyquist
        f = Field.from_values(small_grid, v)
        assert np.abs(f.values).max() < 1e-12
        assert np.abs(f.coefficients).max() == 0.0

    def test_parseval(self, grid):
        rng = np.random.default_rng(7)
        for _ in range(5):
            f = random_field(grid, rng)
            a = l2_norm(f) ** 2
            b = grid.domain_length * float(np.abs(f.coefficients) ** 2
                                           @ grid.bin_weights)
            assert abs(a - b) <= 1e-12 * a

    def test_non_real_mean_rejected(self, small_grid):
        c = np.zeros(small_grid.num_points // 2, dtype=np.complex128)
        c[3] = 1.0 + 2.0j
        Field.from_coefficients(small_grid, c)  # any phase above mode 0
        c[0] = 1e-3j
        with pytest.raises(MultiplierSymmetryError):
            Field.from_coefficients(small_grid, c)
        with pytest.raises(GridError):
            Field.from_coefficients(small_grid, np.zeros(small_grid.num_points))


class TestMultiplier:
    def test_identity(self, small_grid):
        rng = np.random.default_rng(1)
        f = random_field(small_grid, rng)
        g = apply_multiplier(f, np.ones_like(small_grid.frequencies))
        np.testing.assert_allclose(g.values, f.values, rtol=0, atol=1e-14)

    def test_derivative_of_cosine(self, small_grid):
        L = small_grid.domain_length
        k = 2 * np.pi / L
        f = Field.from_values(small_grid, np.cos(k * small_grid.x))
        g = apply_multiplier(f, 1j * small_grid.frequencies)
        expect = -k * np.sin(k * small_grid.x)
        np.testing.assert_allclose(g.values, expect, atol=1e-13)

    def test_composition_second_derivative(self, small_grid):
        rng = np.random.default_rng(2)
        f = random_field(small_grid, rng, decay=2.0)
        xi = small_grid.frequencies
        once_twice = apply_multiplier(apply_multiplier(f, 1j * xi), 1j * xi)
        direct = apply_multiplier(f, -(xi ** 2))
        scale = np.abs(direct.values).max()
        assert np.abs(once_twice.values - direct.values).max() <= 1e-12 * scale

    def test_symmetry_violation_rejected(self, small_grid):
        # the only multiplier without a real output is one with m(0) not real
        rng = np.random.default_rng(3)
        f = random_field(small_grid, rng)
        with pytest.raises(MultiplierSymmetryError):
            apply_multiplier(f, np.where(small_grid.frequencies > 0, 1.0 + 0j, 1.0 + 1j))
        with pytest.raises(GridError):
            apply_multiplier(f, np.ones(small_grid.num_points))

    @given(a=st.floats(-3, 3), b=st.floats(-3, 3), seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, a, b, seed):
        g = GridSpec(25.0, 128, 0.1, 2)
        rng = np.random.default_rng(seed)
        f1 = random_field(g, rng)
        f2 = random_field(g, rng)
        m = np.exp(1j * g.frequencies ** 3 * 0.37)
        lhs = apply_multiplier(f1 * a + f2 * b, m)
        rhs = apply_multiplier(f1, m) * a + apply_multiplier(f2, m) * b
        scale = max(np.abs(rhs.values).max(), 1.0)
        assert np.abs(lhs.values - rhs.values).max() <= 1e-12 * scale

    def test_spectral_derivative_order(self, small_grid):
        k = 3 * 2 * np.pi / small_grid.domain_length
        f = Field.from_values(small_grid, np.sin(k * small_grid.x))
        d3 = apply_multiplier(f, (1j * small_grid.frequencies) ** 3)
        expect = -k ** 3 * np.cos(k * small_grid.x)
        np.testing.assert_allclose(d3.values, expect, atol=1e-12)


class TestNorms:
    def test_constant_l2(self):
        g = GridSpec(10.0, 64, 0.1, 2)
        f = Field.from_values(g, np.ones(64))
        assert l2_norm(f) == pytest.approx(np.sqrt(10.0), rel=1e-14)


class TestPath:
    def _ramp_path(self, g):
        base = np.sin(2 * np.pi * g.x / g.domain_length)
        snaps = [Field.from_values(g, (k + 1.0) * base) for k in range(g.num_steps + 1)]
        return Path(g, snaps)

    def test_snapshot_count_enforced(self, small_grid):
        f = Field.zero(small_grid)
        with pytest.raises(GridError):
            Path(small_grid, [f] * 3)

    def test_mixed_norm_constant_in_time(self, small_grid):
        f = Field.from_values(small_grid, np.ones(small_grid.num_points))
        p = Path(small_grid, [f] * (small_grid.num_steps + 1))
        assert mixed_norm(p, np.inf, 2) == pytest.approx(l2_norm(f), rel=1e-12)

    def test_mixed_norm_qq_collapse(self, small_grid):
        p = self._ramp_path(small_grid)
        q = 4.0
        w = time_weights(small_grid)
        flat = (np.sum(w[:, None] * small_grid.weight
                       * np.abs(p.values_matrix) ** q)) ** (1 / q)
        assert mixed_norm(p, q, q) == pytest.approx(flat, rel=1e-12)

    def test_mixed_norm_sup_in_space_is_max_abs(self, small_grid):
        # the sup over space is max |u| of each snapshot bit for bit, also
        # where troughs are deeper than crests, and +0.0 on the zero path
        g = small_grid
        rows = np.random.default_rng(5).standard_normal((g.num_steps + 1, g.num_points))
        rows[:, 7] = -10.0 - np.arange(g.num_steps + 1)
        w = time_weights(g)
        for p in (Path(g, [Field.from_values(g, r) for r in rows]), Path.zero(g)):
            sup = np.abs(p.values_matrix).max(axis=1)
            assert repr(mixed_norm(p, np.inf, np.inf)) == repr(float(sup.max()))
            assert mixed_norm(p, 2.0, np.inf) == float(np.sum(w * sup ** 2.0) ** 0.5)

    @pytest.mark.parametrize("min_points", [None, 2])
    @pytest.mark.parametrize("n", [8, 1024, 131072])
    def test_mixed_norm_sup_in_space_from_the_support(self, n, min_points, monkeypatch):
        # narrow spectra take the sup from short twisted transforms, at the
        # default floor on their length and at none; it agrees with max |u|
        # to 5.7e-16 relative (the largest drift seen), troughs deeper than crests
        from gkdvlab import grid as grid_mod
        if min_points:
            monkeypatch.setattr(grid_mod, "_SUP_MIN_POINTS", min_points)
        g = GridSpec(10.0, n, 0.1, 3)
        w = time_weights(g)
        rng = np.random.default_rng(n)
        for e in sorted({0, 1, 2, n // 8, n // 4, n // 4 + 1}):
            c = np.zeros((g.num_steps + 1, n // 2), dtype=np.complex128)
            c[:, :e] = rng.standard_normal((4, e)) + 1j * rng.standard_normal((4, e))
            c[:, :e] -= 3.0 * np.sqrt(e)  # a trough at x = 0
            c[:, 0] = c[:, 0].real
            p = Path.from_spectral_matrix(g, c)
            vm = grid_mod.to_samples(c, n)
            sup = np.abs(vm).max(axis=1)
            if e == 0:
                assert repr(mixed_norm(p, np.inf, np.inf)) == "0.0"
                assert repr(mixed_norm(p, 2.0, np.inf)) == "0.0"
                continue
            assert -vm.min() > vm.max()
            assert mixed_norm(p, np.inf, np.inf) == pytest.approx(sup.max(), rel=1e-14)
            m = max(grid_mod._SUP_MIN_POINTS, 1 << (2 * e - 1).bit_length())
            assert (p._vmat is None) == (n // m >= 2)  # no values built if r >= 2
            assert mixed_norm(p, 2.0, np.inf) == pytest.approx(
                float(np.sum(w * sup ** 2.0) ** 0.5), rel=1e-14)

    def test_mixed_norm_sup_does_not_depend_on_read_values(self):
        g = GridSpec(50.0, 1024, 0.05, 8)  # 20 bins: r = 4 short transforms
        c = np.zeros((g.num_steps + 1, g.num_points // 2), dtype=np.complex128)
        c[:, :20] = np.random.default_rng(8).standard_normal((g.num_steps + 1, 20))
        a, b = (Path.from_spectral_matrix(g, c) for _ in range(2))
        for p, q in ((a, b), (a + a * 0.5, b + b * 0.5)):
            q.values_matrix  # q's values are built, p's are not
            assert repr(mixed_norm(p, np.inf, np.inf)) == repr(mixed_norm(q, np.inf, np.inf))
            assert repr(mixed_norm(p, 3.0, np.inf)) == repr(mixed_norm(q, 3.0, np.inf))

    def test_mixed_norm_sup_of_low_pass_runs_no_full_transform(self, monkeypatch):
        # the bernstein low-pass path at bin 580: nonzero on 581 bins of 65536
        from gkdvlab import grid as grid_mod
        from gkdvlab import littlewood_paley as lp
        from gkdvlab.airy import free_solution
        from gkdvlab.estimates import flat_field

        lengths = []
        real = grid_mod.to_samples
        monkeypatch.setattr(grid_mod, "to_samples",
                            lambda c, m: lengths.append(m) or real(c, m))
        g = GridSpec(400.0, 131072, 1e-3, 12)  # verify_bernstein_linfty's grid
        phi = flat_field(g, 580, np.random.default_rng(3))
        low = lp.band_piece(free_solution(phi), 222, "leq")  # the op's z at bin 580
        lengths.clear()
        sup = mixed_norm(low, np.inf, np.inf)
        assert lengths == [2048] and low._vmat is None
        want = np.abs(real(low.spectral_matrix, g.num_points)).max()
        assert sup == pytest.approx(want, rel=1e-14)

    @staticmethod
    def _shifted_sup(c, n):
        # the sup over space and time by every twisted short transform, as it
        # was computed before the coarse screen
        from gkdvlab import grid as grid_mod
        e = max(grid_mod._support_end(c), 1)
        m = max(256, 1 << (2 * e - 1).bit_length())
        ka = np.outer(np.arange(n // m), np.arange(e)) % n
        vm = grid_mod.to_samples(c[:, None, :e] * np.exp(ka * (2j * np.pi / n)), m)
        vm = vm.reshape(len(c), -1)
        return float(np.maximum(np.abs(vm.max(axis=1)), np.abs(vm.min(axis=1))).max())

    @pytest.mark.parametrize("top_bin", [25, 55, 120, 265, 580, 1270, 2790, 6130, 13470, 29600])
    def test_mixed_norm_sup_of_bernstein_data_from_one_coarse_transform(self, top_bin, monkeypatch):
        # the op's low-pass path: one transform of the nodes, every other cell
        # screened out or summed directly; bitwise the shifted transforms' sup.
        # The cells summed (the rows of the twist tables) are those the
        # curvature bound keeps
        import math

        from gkdvlab import grid as grid_mod
        from gkdvlab import littlewood_paley as lp
        from gkdvlab.airy import free_solution
        from gkdvlab.estimates import flat_field

        g = GridSpec(400.0, 131072, 1e-3, 12)  # verify_bernstein_linfty's grid
        z = int(round(math.log(top_bin * g.delta_xi) / math.log(lp.BASE)))
        phi = flat_field(g, top_bin, np.random.default_rng(top_bin))
        low = lp.band_piece(free_solution(phi), z, "leq")
        shapes, real = [], grid_mod.to_samples
        monkeypatch.setattr(grid_mod, "to_samples",
                            lambda c, m: shapes.append(c.shape[:-1] + (m,)) or real(c, m))
        cells, twists = [], grid_mod._twists
        monkeypatch.setattr(grid_mod, "_twists", lambda n, a, e: cells.append(len(a)) or twists(n, a, e))
        sup = mixed_norm(low, np.inf, np.inf)
        e = low.spectral_end
        m = max(256, 1 << (2 * e - 1).bit_length())
        assert shapes == [(13, m)] and low._vmat is None  # 13 x 256 at bin 25
        assert sum(cells) == {25: 26, 55: 26, 120: 26, 265: 26, 580: 8}.get(top_bin, 2)
        c = low.spectral_matrix
        assert repr(sup) == repr(self._shifted_sup(c, g.num_points))
        assert sup == pytest.approx(np.abs(real(c, g.num_points)).max(), rel=1e-14)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("case", ["aligned", "random", "off_node", "mid_cell"])
    def test_mixed_norm_sup_screens_are_safe(self, case, seed):
        # random band-limited paths on random grids: row 0 peaks on a node, the
        # others (of random sign) are aligned on a node, of random phases,
        # aligned at a point off the nodes, or midway between two nodes, where
        # the curvature bound is loosest; each is scaled so that its own peak
        # tops row 0's by a small part of its drop to its highest node, so
        # only a safe screen keeps that cell. The sup is the full transform's
        # to 1e-14, and bitwise the shifted transforms' when it sits on a node
        rng = np.random.default_rng(100 * seed + len(case))
        n = int(rng.choice([4096, 8192, 32768]))
        g = GridSpec(50.0, n, 0.01, int(rng.integers(1, 6)))
        rows = g.num_steps + 1
        e = int(rng.integers(2, n // 4 + 1))
        m = max(256, 1 << (2 * e - 1).bit_length())
        r = n // m
        shift = r * rng.integers(m, size=rows) + {
            "aligned": 0, "random": 0, "off_node": rng.integers(1, r, size=rows), "mid_cell": r // 2}[case]
        shift[0] -= shift[0] % r
        phase = -2 * np.pi * np.outer(shift, np.arange(e)) / n
        if case == "random":
            phase[1:] = rng.uniform(0, 2 * np.pi, (rows - 1, e))
        c = np.zeros((rows, n // 2), dtype=np.complex128)
        c[:, :e] = np.abs(rng.standard_normal((rows, e))) * np.exp(1j * phase)
        c[:, 0] = c[:, 0].real
        c[1:] *= rng.choice([-1.0, 1.0], (rows - 1, 1))
        vm = np.abs(np.fft.irfft(c, n, norm="forward"))
        peak, node = vm.max(axis=1), vm[:, ::r].max(axis=1)
        c[1:] *= (peak[0] / (peak - rng.uniform(0.02, 0.3) * (peak - node)))[1:, None]
        sup, vm = mixed_norm(Path.from_spectral_matrix(g, c), np.inf, np.inf), np.fft.irfft(c, n, norm="forward")
        assert sup == pytest.approx(np.abs(vm).max(), rel=1e-14, abs=0.0)
        if int(np.argmax(np.abs(vm))) % n % r == 0:  # the max sits on a node
            assert repr(sup) == repr(self._shifted_sup(c, n))
        else:
            assert case != "aligned"

    @pytest.mark.parametrize("case", ["off_node", "trough", "mid_cell", "random", "mean",
                                      "one_bin", "zero", "wide"])
    def test_mixed_norm_sup_screen_refines_or_falls_back(self, case, monkeypatch):
        # off_node: an aligned peak one fine point past every node (c_k
        # exp(-2 pi i k/N)), which only the direct sums reach; trough: a deeper
        # trough one point before every node, in the cell that ends there;
        # mid_cell: row 0 peaks on node 0, the others 10% higher midway between
        # nodes that lie below row 0's peak, so only the bound delta keeps them;
        # random: random phases keep every cell, so the rows run the shifted
        # transforms; mean: delta is 0; wide: e > N/4 reads the values
        from gkdvlab import grid as grid_mod
        g = GridSpec(50.0, 8192, 0.01, 3)
        n, rows = g.num_points, g.num_steps + 1
        rng = np.random.default_rng(16)
        e = {"wide": n // 4 + 1, "mean": 1, "one_bin": 41, "zero": 0}.get(case, 100)
        c = np.zeros((rows, n // 2), dtype=np.complex128)
        if case in ("off_node", "trough", "mid_cell"):
            shift = {"off_node": 1, "trough": -1, "mid_cell": n // 512}[case]  # r / 2 = 16
            c[:, :e] = np.abs(rng.standard_normal((rows, e))) * np.exp(-2j * np.pi * np.arange(e) * shift / n)
            c[:, 0] = 0.5
            if case == "trough":
                c[:, 1:] *= -1.0
            if case == "mid_cell":
                c[0], c[1:] = np.abs(c[0]), 1.1 * c[0]
        elif case == "one_bin":
            c[:, e - 1] = rng.standard_normal(rows) + 1j * rng.standard_normal(rows)
        elif case != "zero":
            c[:, :e] = rng.standard_normal((rows, e)) + 1j * rng.standard_normal((rows, e))
            c[:, 0] = c[:, 0].real
        p = Path.from_spectral_matrix(g, c)
        calls, real = [], grid_mod.to_samples
        monkeypatch.setattr(grid_mod, "to_samples", lambda v, m: calls.append(v.ndim) or real(v, m))
        sup, vm = mixed_norm(p, np.inf, np.inf), real(c, n)
        monkeypatch.undo()
        if case == "zero":
            assert repr(sup) == "0.0" and calls == [2]
            return
        assert sup == pytest.approx(np.abs(vm).max(), rel=1e-14)
        assert sup == pytest.approx(self._shifted_sup(c, n), rel=1e-15, abs=0.0)
        if case in ("off_node", "trough", "mid_cell"):
            assert calls == [2] and p._vmat is None
            assert sup > np.abs(vm[:, ::n // 256]).max()  # not a node's value
            assert (-vm.min() > vm.max()) == (case == "trough")
        elif case == "wide":
            assert p._vmat is not None and repr(sup) == repr(float(np.abs(vm).max()))
        elif case != "one_bin":  # the nodes or the shifted transforms set the sup
            assert calls == ([2, 3] if case == "random" else [2])
            assert repr(sup) == repr(self._shifted_sup(c, n))

    def test_mixed_norm_takes_inf_as_string(self):
        # "inf", np.inf and float("inf") are one exponent, in either place
        g = GridSpec(50.0, 256, 0.05, 4)
        f = Field.from_values(g, 3.0 * np.cos(2 * np.pi * g.x / g.domain_length))
        p = Path(g, [f] * (g.num_steps + 1))
        infs, sup = ("inf", np.inf, float("inf")), mixed_norm(p, np.inf, np.inf)
        assert sup == pytest.approx(3.0, rel=1e-14)
        for q in infs:
            assert {repr(mixed_norm(p, q, r)) for r in infs} == {repr(sup)}
            assert repr(mixed_norm(p, 2.0, q)) == repr(mixed_norm(p, 2.0, np.inf))
            assert repr(mixed_norm(p, q, 2.0)) == repr(mixed_norm(p, np.inf, 2.0))
        assert mixed_norm(p, 2.0, "inf") == pytest.approx(3.0 * np.sqrt(g.horizon), rel=1e-14)

    @pytest.mark.parametrize("n", [256, 4096, 131072])
    def test_twists_gather_exp_of_their_angles_bitwise(self, n):
        # the shift rows 1 .. r-1 of the sup's table and the cell starts i r,
        # whose products k i r run past N, are np.exp of the angle they stood
        # for, bit for bit; one read-only table of roots per N
        from gkdvlab import grid as grid_mod
        for m in {256, n // 4} - {n}:
            r, e = n // m, m // 2
            starts = np.r_[np.arange(0, m, max(1, m // 16)), m - 1] * r
            for shifts, past in ((np.arange(1, r), False), (starts, True)):
                ka = np.outer(shifts, np.arange(e))
                assert (ka.max() >= n) == past
                got = grid_mod._twists(n, shifts, e)
                assert got.tobytes() == np.exp((ka % n) * (2j * np.pi / n)).tobytes()
        roots = grid_mod._roots(n)
        assert roots.shape == (n,) and not roots.flags.writeable
        assert grid_mod._roots(n) is roots and grid_mod._roots(n // 2) is not roots

    def test_mixed_norm_rejects_bad_exponent(self, small_grid):
        p = Path.zero(small_grid)
        with pytest.raises(ValueError):
            mixed_norm(p, 0.5, 2)

    def test_norm_constant_path_sqrt_T(self, small_grid):
        # trapezoid time weights make a norm-constant path integrate to exactly T
        f = Field.from_values(small_grid, np.ones(small_grid.num_points))
        p = Path(small_grid, [f] * (small_grid.num_steps + 1))
        T = small_grid.horizon
        assert mixed_norm(p, 2, 2) == pytest.approx(np.sqrt(T) * l2_norm(f), rel=1e-12)

    def test_algebra_and_mismatch(self, small_grid):
        p = self._ramp_path(small_grid)
        q = p * 2.0
        np.testing.assert_allclose((q - p).values_matrix, p.values_matrix, rtol=1e-14)
        other = GridSpec(60.0, 256, 0.05, 20)
        with pytest.raises(GridMismatchError):
            p + Path.zero(other)

    def test_matrices_read_only(self, small_grid):
        p = self._ramp_path(small_grid)
        built = Path.from_spectral_matrix(small_grid, p.spectral_matrix)
        for path in (p, built, Path.zero(small_grid), p + built, p - built, p * 2.0):
            for m in (path.values_matrix, path.spectral_matrix):
                assert not m.flags.writeable
                with pytest.raises(ValueError):
                    m[0, 0] = 1.0

    def test_snapshots_are_views_of_rows(self, small_grid):
        p = self._ramp_path(small_grid)
        assert len(list(p)) == len(p) == small_grid.num_steps + 1
        for k in (0, 5, small_grid.num_steps, -1):
            assert np.shares_memory(p[k].values, p.values_matrix[k])
            assert np.shares_memory(p[k].coefficients, p.spectral_matrix[k])
        for k, f in enumerate(p):
            assert np.array_equal(f.values, p.values_matrix[k])
            assert np.array_equal(f.coefficients, p.spectral_matrix[k])

    def test_transform_built_path_costs_16_bytes_per_sample(self, small_grid):
        from gkdvlab.airy import free_solution

        rng = np.random.default_rng(14)
        p = free_solution(random_field(small_grid, rng))
        vm, cm = p.values_matrix, p.spectral_matrix
        rows = small_grid.num_steps + 1
        assert vm.shape == (rows, small_grid.num_points) and vm.base is None
        assert cm.shape == (rows, small_grid.num_points // 2)
        assert vm.nbytes + cm.nbytes == 16 * rows * small_grid.num_points

    def test_algebra_matches_snapshot_algebra_bitwise(self, small_grid):
        rng = np.random.default_rng(12)
        a = Path(small_grid, [random_field(small_grid, rng)
                              for _ in range(small_grid.num_steps + 1)])
        b = Path.from_spectral_matrix(small_grid, a.spectral_matrix[::-1] * 0.5)
        for path, expect in ((a + b, lambda k: a[k] + b[k]),
                             (a - b, lambda k: a[k] - b[k]),
                             (-1.5 * a, lambda k: a[k] * -1.5)):
            for k in range(len(path)):
                assert np.array_equal(path[k].values, expect(k).values)
                assert np.array_equal(path[k].coefficients, expect(k).coefficients)

    def test_from_spectral_matrix_contract(self, small_grid):
        from gkdvlab.airy import duhamel

        shape = (small_grid.num_steps + 1, small_grid.num_points // 2)
        c = np.zeros(shape, dtype=np.complex128)
        c[:, 3] = 0.5
        p = Path.from_spectral_matrix(small_grid, c)
        xi = 3 * small_grid.delta_xi
        np.testing.assert_allclose(p.values_matrix[2], np.cos(xi * small_grid.x),
                                   rtol=0, atol=1e-14)
        c[0, 3] = 2.0
        assert p.spectral_matrix[0, 3] == 0.5  # the input is copied
        c[4, 7] = np.nan
        with pytest.raises(NonFiniteFieldError):
            Path.from_spectral_matrix(small_grid, c)
        # internal makers hand their spectra over uncopied, under the same check
        with np.errstate(invalid="ignore"):
            forcing = Path.zero(small_grid) * np.inf  # inf * 0: NaN in every bin
        with pytest.raises(NonFiniteFieldError):
            duhamel(forcing)
        with pytest.raises(GridError):
            Path.from_spectral_matrix(small_grid, c[:-1])

    def test_lazy_values_equal_the_eager_formulas_bitwise(self, small_grid):
        rng = np.random.default_rng(21)
        shape = (small_grid.num_steps + 1, small_grid.num_points // 2)
        ca, cb = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                  for _ in range(2))
        cb[:, 5:] = 0.0  # b stores 5 bins, a all 128
        a = Path.from_spectral_matrix(small_grid, ca)
        b = Path.from_spectral_matrix(small_grid, cb)
        assert (a.spectral_end, b.spectral_end) == (128, 5)
        total, gap, twice = a + b, a - b, 2.0 * a

        def values(c):  # of the combined spectra: the values are their transform
            return np.fft.irfft(c, n=small_grid.num_points, norm="forward")

        assert np.array_equal(total.values_matrix, values(ca + cb))
        assert np.array_equal(gap.values_matrix, values(ca - cb))
        assert np.array_equal(twice.values_matrix, values(ca * 2.0))
        assert np.array_equal(a.values_matrix, values(ca))
        assert np.array_equal(b.values_matrix, values(cb))
        assert np.array_equal((b + b).values_matrix, values(cb + cb))
        assert total.values_matrix is total.values_matrix  # built once, kept

    def test_spectral_reads_run_no_inverse_transform(self, monkeypatch):
        from gkdvlab import grid as grid_mod
        from gkdvlab.airy import free_solution
        from gkdvlab.estimates import flat_field
        from gkdvlab.norms import xs_norm

        calls = []
        real = grid_mod.to_samples
        monkeypatch.setattr(grid_mod, "to_samples",
                            lambda c, m: calls.append(c.shape) or real(c, m))
        g = GridSpec(400.0, 131072, 1e-3, 12)  # verify_bernstein_linfty's grid
        phi = flat_field(g, 580, np.random.default_rng(3))
        calls.clear()  # the datum, a Field, has its values
        path = free_solution(phi)
        assert xs_norm(path, 0.0) > 0.0
        assert calls == []
        vm = path.values_matrix
        assert calls == [(len(path), path.spectral_end)]  # the stored bins only
        assert np.array_equal(vm, real(path.spectral_matrix, g.num_points))

    def test_long_chain_of_sums_reads_its_values(self):
        g = GridSpec(1.0, 8, 0.5, 1)
        one = Path.from_spectral_matrix(g, np.full((2, 4), 0.25 + 0j))
        total = one
        for _ in range(9999):
            total = total + one
        assert np.array_equal(total.values_matrix[:, 0],
                              np.full(2, 10000 * one.values_matrix[0, 0]))

    @pytest.mark.parametrize("data", ["flat", "annulus", "packet", "zero"])
    def test_stated_spectral_end_is_the_support_end(self, data, tmp_path):
        # every maker stores its bins up to 1 + the last nonzero one, or finds
        # it by a scan; only cancelling spectra (a - a) leave the end above it
        from gkdvlab import io
        from gkdvlab import littlewood_paley as lp
        from gkdvlab.airy import duhamel, free_solution
        from gkdvlab.estimates import annulus_field, flat_field
        from gkdvlab.grid import _support_end

        g = GridSpec(400.0, 4096, 1.0 / 64, 12)
        rng = np.random.default_rng(14)
        if data == "flat":
            phi = flat_field(g, 300, rng)
        elif data == "annulus":
            phi = annulus_field(g, 100, rng)  # bins 171 .. 344
        elif data == "packet":  # the picard workload's packet: every bin nonzero
            x = g.x - 180.0
            phi = Field.from_values(g, 0.25 * np.exp(-(x / 1.5) ** 2) * np.cos(2.5 * x))
        else:
            phi = Field.zero(g)
        free = free_solution(phi)
        paths = {"free_solution": free, "zero": Path.zero(g)}
        for z in (50, 100, 200, 300):  # symbols ending below, inside and above the data
            for kind in ("leq", "psi"):
                paths[f"{kind}{z}"] = lp.band_piece(free, z, kind)
        low = paths["leq50"]
        paths.update({"sum": free + low, "difference": low - free, "multiple": 0.5 * low,
                      "duhamel": duhamel(low), "snapshots": Path(g, list(free))})
        io.save_path(free, tmp_path / "free.path")
        paths["io load"] = io.load(tmp_path / "free.path")
        with np.errstate(invalid="ignore"):
            paths["times inf"] = low * np.inf  # 0 * inf is NaN: every bin is nonzero
        for name, p in paths.items():
            assert p.spectral_end == _support_end(p.spectral_matrix), name
        assert (free.spectral_end == g.num_points // 2) == (data == "packet")
        none = free - free
        assert none.spectral_end == free.spectral_end and not none.spectral_matrix.any()
        assert repr(mixed_norm(none, np.inf, np.inf)) == "0.0"


class TestSerialization:
    def test_field_container_is_an_unknown_kind(self, tmp_path, small_grid):
        from gkdvlab import io

        target = tmp_path / "f.gkdv"
        target.write_bytes(io._pack(small_grid, "field", np.zeros((1, small_grid.num_points))))
        with pytest.raises(io.ContainerError, match="unknown kind"):
            io.load(target)

    def test_path_round_trip(self, tmp_path, small_grid):
        from gkdvlab import io

        rng = np.random.default_rng(9)
        snaps = [random_field(small_grid, rng) for _ in range(small_grid.num_steps + 1)]
        p = Path(small_grid, snaps)
        target = tmp_path / "p.gkdv"
        io.save_path(p, target)
        q = io.load(target)
        scale = np.abs(p.values_matrix).max()
        np.testing.assert_allclose(q.values_matrix, p.values_matrix,
                                   rtol=0, atol=1e-14 * scale)

    def test_header_keeps_the_padding_key_and_load_ignores_it(self, tmp_path):
        from gkdvlab import io
        from gkdvlab.grid import to_spectrum

        # the header bytes of containers written while the padding ratio was a
        # GridSpec field, which took any ratio >= 1 (here 2.0 and 3.0)
        head = (b'{"count":3,"dealias_factor":2.0,"domain_length":10.0,"dt":0.125,'
                b'"endianness":"little","kind":"path","normalization":'
                b'"coeff=dft/N;parseval=L*sum|c|^2;nyquist=projected",'
                b'"num_points":16,"num_steps":2,"schema_version":1}')
        grid = GridSpec(10.0, 16, 0.125, 2)
        rows = np.random.default_rng(5).standard_normal((3, 16))
        blob = io.MAGIC + len(head).to_bytes(4, "little") + head + rows.astype("<f8").tobytes()
        assert io._pack(grid, "path", rows) == blob
        target = tmp_path / "old.gkdv"
        for factor in (b"2.0", b"3.0"):
            target.write_bytes(blob.replace(b'"dealias_factor":2.0', b'"dealias_factor":' + factor))
            q = io.load(target)
            assert q.grid == grid
            np.testing.assert_array_equal(q.spectral_matrix, to_spectrum(rows, 16))

    def test_path_with_nan_sample_rejected(self, tmp_path, small_grid):
        from gkdvlab import io

        target = tmp_path / "p.gkdv"
        io.save_path(Path.zero(small_grid), target)
        blob = target.read_bytes()
        target.write_bytes(blob[:-8] + np.float64(np.nan).tobytes())
        with pytest.raises(NonFiniteFieldError):
            io.load(target)

    def test_bad_magic_rejected(self, tmp_path):
        from gkdvlab import io

        target = tmp_path / "junk.gkdv"
        target.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(io.ContainerError):
            io.load(target)

    @staticmethod
    def _load_with_header(tmp_path, grid, edit):
        """io.load of a path container whose header bytes edit(head) returns."""
        from gkdvlab import io

        blob = io._pack(grid, "path", np.zeros((grid.num_steps + 1, grid.num_points)))
        hlen = int.from_bytes(blob[8:12], "little")
        head = edit(blob[12:12 + hlen])
        target = tmp_path / "edited.gkdv"
        target.write_bytes(io.MAGIC + len(head).to_bytes(4, "little") + head + blob[12 + hlen:])
        return io.load(target)

    def test_truncated_file_rejected(self, tmp_path):
        from gkdvlab import io

        target = tmp_path / "short.gkdv"
        target.write_bytes(io.MAGIC + b"\x05\x00")
        with pytest.raises(io.ContainerError):
            io.load(target)

    def test_non_json_header_rejected(self, tmp_path, small_grid):
        from gkdvlab import io

        with pytest.raises(io.ContainerError):
            self._load_with_header(tmp_path, small_grid, lambda h: b"{not json" + h[9:])

    def test_header_without_domain_length_rejected(self, tmp_path, small_grid):
        from gkdvlab import io

        def drop(head):
            d = json.loads(head)
            del d["domain_length"]
            return json.dumps(d).encode()

        with pytest.raises(io.ContainerError):
            self._load_with_header(tmp_path, small_grid, drop)

    def test_non_integer_count_rejected(self, tmp_path, small_grid):
        from gkdvlab import io

        count = f'"count":{small_grid.num_steps + 1}'.encode()
        with pytest.raises(io.ContainerError):
            self._load_with_header(tmp_path, small_grid, lambda h: h.replace(count, count + b".0"))

    def test_other_schema_version_rejected(self, tmp_path, small_grid):
        from gkdvlab import io

        with pytest.raises(io.ContainerError):
            self._load_with_header(tmp_path, small_grid, lambda h: h.replace(
                b'"schema_version":1', b'"schema_version":99'))

    def test_big_endian_container_rejected(self, tmp_path, small_grid):
        from gkdvlab import io

        # the unedited header loads, so the byte order alone is refused
        assert self._load_with_header(tmp_path, small_grid, lambda h: h).grid == small_grid
        with pytest.raises(io.ContainerError):
            self._load_with_header(tmp_path, small_grid, lambda h: h.replace(
                b'"endianness":"little"', b'"endianness":"big"'))

    def test_atomic_write_replaces(self, tmp_path):
        from gkdvlab import io

        target = tmp_path / "out.txt"
        io.atomic_write_text(target, "one")
        io.atomic_write_text(target, "two")
        assert target.read_text() == "two"
        assert list(tmp_path.iterdir()) == [target]


def test_only_grid_calls_numpy_fft():
    # grid.py owns the stored-bin layout and its transforms
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "gkdvlab"
    callers = sorted(f.name for f in src.glob("*.py")
                     if re.search(r"\bfft\.", f.read_text()))
    assert callers == ["grid.py"]

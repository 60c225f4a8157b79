"""Power nonlinearity and the band decomposition identities."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkdvlab import littlewood_paley as lp
from gkdvlab import nonlinearity as nl
from gkdvlab.grid import (Field, GridSpec, NonFiniteFieldError, l2_norm, to_samples,
                          to_spectrum)

from conftest import gaussian_bump


def lowpass(f: Field, frac: float) -> Field:
    cut = frac * f.grid.resolvable_max
    keep = np.abs(f.grid.frequencies) <= cut
    return Field.from_coefficients(f.grid, np.where(keep, f.coefficients, 0.0))


def dealiased_product(f: Field, g: Field) -> Field:
    """Pointwise product via the padded grid; exact for bandwidths that fit."""
    if f.grid != g.grid:
        raise ValueError("fields live on different grids")
    m = nl._padded_size(f.grid)
    out = to_spectrum(to_samples(f.coefficients, m) * to_samples(g.coefficients, m),
                      f.grid.num_points)
    return Field.from_coefficients(f.grid, out)


def product_power5(f: Field) -> Field:
    # |u|^4 u == u^5 for real u, so a dealiased product chain is an
    # independent route to the p = 5 power
    g2 = dealiased_product(f, f)
    g4 = dealiased_product(g2, g2)
    return dealiased_product(g4, f)


class TestPowerLaw:
    def test_p5_derivative_ladder(self):
        # x^5 at x = 2: value 32, then 5x^4, 20x^3, 60x^2, 120x
        law = nl.PowerLaw(5.0)
        want = [32.0, 80.0, 160.0, 240.0, 240.0]
        got = [float(law.derivative(2.0, k)) for k in range(5)]
        assert got == want

    def test_parity_ladder(self):
        # f odd makes the even-order derivatives odd and odd orders even
        law = nl.PowerLaw(5.0)
        for k in range(5):
            a = float(law.derivative(-2.0, k))
            b = float(law.derivative(2.0, k))
            assert a == (-b if k % 2 == 0 else b)

    def test_first_derivative_nonnegative(self):
        law = nl.PowerLaw(6.5)
        xs = np.linspace(-3.0, 3.0, 101)
        assert np.all(law.derivative(xs, 1) >= 0.0)

    @settings(max_examples=50, deadline=None)
    @given(x=st.floats(-50.0, 50.0), p=st.floats(5.0, 9.0))
    def test_odd(self, x, p):
        law = nl.PowerLaw(p)
        assert law(-x) == -law(x)

    def test_zero_stays_zero(self):
        law = nl.PowerLaw(5.5)
        for k in range(5):
            assert float(law.derivative(0.0, k)) == 0.0

    def test_order_range(self):
        law = nl.PowerLaw(5.0)
        with pytest.raises(ValueError):
            law.derivative(1.0, 5)
        with pytest.raises(ValueError):
            law.derivative(1.0, -1)

    @pytest.mark.parametrize("p", [5.0, 6.0, 7.0])
    def test_whole_powers_match_pow(self, p):
        # squarings and products against the general float pow
        law = nl.PowerLaw(p)
        x = np.random.default_rng(int(p)).standard_normal(4096) * 0.6
        x[:3] = (0.0, 1e-310, -3e5)
        ax = np.maximum(np.abs(x), 1e-300)
        for k in range(5):
            even = k % 2 == 0
            want = law.coefficients[k] * ax ** (p - k - even) * (x if even else 1.0)
            np.testing.assert_allclose(law.derivative(x, k), want, rtol=1e-15, atol=0)

    def test_real_power_keeps_pow_bitwise(self):
        law = nl.PowerLaw(5.5)
        x = np.random.default_rng(55).standard_normal(4096)
        ax = np.maximum(np.abs(x), 1e-300)
        for k in range(5):
            want = (law.coefficients[k] * ax ** (4.5 - k) * x if k % 2 == 0
                    else law.coefficients[k] * ax ** (5.5 - k))
            got = law.derivative(x, k)
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    def test_subcritical_power_rejected(self):
        with pytest.raises(ValueError):
            nl.PowerLaw(4.999)

    def test_expansion_constant(self):
        assert nl.expansion_constant(5.0) == 120.0
        # four telescoping levels differentiate four times, so the constant
        # is p(p-1)(p-2)(p-3); the p = 6 value separates that from the
        # five-factor alternative (360 vs 720)
        assert nl.expansion_constant(6.0) == 360.0


class TestEvaluatePower:
    def test_constant_one(self, small_grid):
        f = Field.from_values(small_grid, np.ones(small_grid.num_points))
        out = nl.evaluate_power(f, 5.0)
        assert np.allclose(out.values, 1.0, atol=1e-12)

    def test_constant_minus_two(self, small_grid):
        f = Field.from_values(small_grid, np.full(small_grid.num_points, -2.0))
        out = nl.evaluate_power(f, 5.0)
        assert np.allclose(out.values, -32.0, atol=1e-10)

    def test_bump_matches_product_chain(self, grid):
        f = gaussian_bump(grid, width=8.0)
        direct = nl.evaluate_power(f, 5.0)
        chain = product_power5(f)
        rel = np.linalg.norm(direct.values - chain.values)
        rel /= np.linalg.norm(chain.values)
        assert rel <= 1e-10

    def test_random_lowpass_matches_product_chain(self, grid):
        # at cut 0.2 the quintic fills the band up to its top bin
        rng = np.random.default_rng(3)
        noise = Field.from_values(grid, rng.standard_normal(grid.num_points))
        for cut in (0.125, 0.2):
            f = lowpass(noise, cut)
            f = f * (1.0 / l2_norm(f))
            direct = nl.evaluate_power(f, 5.0)
            chain = product_power5(f)
            rel = np.linalg.norm(direct.values - chain.values)
            rel /= np.linalg.norm(chain.values)
            assert rel <= 1e-10, cut

    def test_odd_symmetry(self, small_grid):
        rng = np.random.default_rng(8)
        f = Field.from_values(small_grid, rng.standard_normal(small_grid.num_points))
        a = nl.evaluate_power(f * -1.0, 5.5)
        b = nl.evaluate_power(f, 5.5) * -1.0
        scale = np.max(np.abs(b.values))
        assert np.max(np.abs(a.values - b.values)) <= 1e-12 * scale

    @pytest.mark.parametrize("c", [2.0, -2.0])
    def test_homogeneity(self, small_grid, c):
        rng = np.random.default_rng(2)
        f = Field.from_values(small_grid, rng.standard_normal(small_grid.num_points))
        a = nl.evaluate_power(f * c, 5.0)
        b = nl.evaluate_power(f, 5.0) * (abs(c) ** 4 * c)
        rel = np.linalg.norm(a.values - b.values) / np.linalg.norm(b.values)
        assert rel <= 1e-10

    def test_overflow_is_refused(self, small_grid):
        # power_spectra returns the overflow; the field refuses it
        f = gaussian_bump(small_grid) * 1e70
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.all(np.isfinite(
                nl.power_spectra(f.coefficients, small_grid, 5.0)))
            with pytest.raises(NonFiniteFieldError):
                nl.evaluate_power(f, 5.0)

    @pytest.mark.parametrize("rows", [(65,), ()], ids=["65-rows", "1-D"])
    @pytest.mark.parametrize("p", [5.0, 5.5])
    @pytest.mark.parametrize("block_rows", [None, 1, 2, 3])
    def test_row_blocks_are_the_one_shot_power_bitwise(self, monkeypatch, block_rows, p, rows):
        # the one-shot formula, every row's padded samples at once, is the
        # reference; no block size divides 65 rows, and row 7 overflows
        grid = GridSpec(400.0, 4096, 1.0 / 64, 64)
        m = 2 * grid.num_points
        if block_rows is not None:
            monkeypatch.setattr(nl, "_POWER_BLOCK_BYTES", 8 * m * block_rows)
        rng = np.random.default_rng(31)
        c = rng.standard_normal(rows + (2048, 2)).view(np.complex128)[..., 0]
        c *= 0.05 / (1.0 + np.arange(2048)) ** 0.5
        if rows:
            c[7] *= 1e70
        with np.errstate(over="ignore", invalid="ignore"):
            want = to_spectrum(nl.PowerLaw(p)(to_samples(c, m)), grid.num_points)
            tracemalloc.start()
            try:
                got = nl.power_spectra(c, grid, p)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert got.shape == c.shape[:-1] + (grid.num_points // 2,)
        assert got.flags.c_contiguous and got.flags.owndata
        assert got.view(np.float64).tobytes() == want.view(np.float64).tobytes()
        if rows:
            assert not np.isfinite(want[7]).any() and np.isfinite(np.delete(want, 7, 0)).all()
        assert peak <= got.nbytes + 4 * nl._POWER_BLOCK_BYTES

    def test_product_grid_mismatch(self, grid, small_grid):
        a = gaussian_bump(grid)
        b = gaussian_bump(small_grid)
        with pytest.raises(ValueError):
            dealiased_product(a, b)


class TestTelescoping:
    def test_zero_input(self, small_grid):
        assert nl.telescoping_check(Field.zero(small_grid), 5.0) == 0.0

    def test_single_harmonic(self, small_grid):
        xi0 = 40 * small_grid.delta_xi
        u = Field.from_values(small_grid, np.cos(xi0 * small_grid.x))
        assert nl.telescoping_check(u, 5.0, nodes=16) <= 1e-8

    def test_random_band_limited(self, small_grid):
        rng = np.random.default_rng(11)
        u = Field.from_values(small_grid, rng.standard_normal(small_grid.num_points))
        c = u.coefficients * ((1.0 + np.abs(small_grid.frequencies)) ** -2.0)
        u = Field.from_coefficients(small_grid, c)
        assert nl.telescoping_check(u, 5.0, nodes=16) <= 1e-6

    @pytest.mark.parametrize("p", [5.0, 5.5, 7.0])
    def test_refinement_floor(self, small_grid, p):
        # f' along the blend has degree p-1 in tau at odd integer p, so 4
        # Gauss-Legendre nodes are exact at p=5 and p=7 and the residual is
        # already on the rounding floor (at p=5.5 it is about 1e-15 there).
        # Refining to 16 nodes must stay on the floor, not descend through it
        rng = np.random.default_rng(11)
        u = Field.from_values(small_grid, rng.standard_normal(small_grid.num_points))
        c = u.coefficients * ((1.0 + np.abs(small_grid.frequencies)) ** -2.0)
        u = Field.from_coefficients(small_grid, c)
        r4 = nl.telescoping_check(u, p, nodes=4)
        r16 = nl.telescoping_check(u, p, nodes=16)
        assert r16 <= 1e-12
        assert r16 <= 2.0 * r4 + 1e-13

    def test_node_count_validated(self, small_grid):
        u = gaussian_bump(small_grid)
        with pytest.raises(ValueError):
            nl.telescoping_check(u, 5.0, nodes=0)


def two_band_field(grid: GridSpec, seed: int = 7) -> Field:
    band = lp.default_band(grid)
    rng = np.random.default_rng(seed)
    w = Field.from_values(grid, rng.standard_normal(grid.num_points))
    za, zb = band.start + 60, band.stop - 80
    return lp.project(w, lp.scale(za)) + lp.project(w, lp.scale(zb))


class TestQuinticExpansion:
    def test_zero_input(self, small_grid):
        assert nl.quintic_expansion_check(Field.zero(small_grid), 5.0) == 0.0

    def test_two_band_p5(self, small_grid):
        u = two_band_field(small_grid)
        assert nl.quintic_expansion_check(u, 5.0, nodes=8) <= 1e-5

    def test_two_band_p6(self, small_grid):
        u = two_band_field(small_grid)
        assert nl.quintic_expansion_check(u, 6.0, nodes=8) <= 1e-6

    def test_constant_is_load_bearing(self, small_grid, monkeypatch):
        # the five-factor constant (720 at p = 6) does not close the
        # identity; the residual jumps to order one
        u = two_band_field(small_grid)
        monkeypatch.setattr(nl, "expansion_constant", lambda p: 720.0)
        assert nl.quintic_expansion_check(u, 6.0, nodes=8) >= 0.3

    def test_budget_rejected(self, small_grid, monkeypatch):
        u = two_band_field(small_grid)
        monkeypatch.setattr(nl, "_EXPANSION_BUDGET", 10)
        with pytest.raises(nl.ExpansionBudgetError, match="budget"):
            nl.quintic_expansion_check(u, 5.0, nodes=8)

    def test_quiet_without_limit(self, small_grid):
        u = two_band_field(small_grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nl.quintic_expansion_check(u, 5.0, nodes=4)

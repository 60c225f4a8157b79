"""Correction iteration, the direct integrator oracle, and the smallness probes."""

import math
import warnings

import numpy as np
import pytest

import gkdvlab as g
from gkdvlab.airy import free_solution
from gkdvlab.cli import seeded_profile
from gkdvlab.grid import (Field, GridSpec, NonFiniteFieldError, Path, _finite,
                          apply_multiplier, l2_norm, mixed_norm)
from gkdvlab.nonlinearity import evaluate_power, power_spectra
from gkdvlab.picard import (BlowUpError, PicardConfig, PicardDivergenceError,
                            _correction, _residual_from_power, amplitude_threshold,
                            direct_solve, lipschitz_probe, solve_picard)


@pytest.fixture(scope="module")
def medium():
    grid = GridSpec(200.0, 1024, 1.0 / 32, 32)
    return grid, seeded_profile(grid, 9, amplitude=1.0)


def _step(v, w, p=5.0):
    """The solver's correction of w: minus the retarded integral of d_x f_p(v + w)."""
    return _correction(v.grid, power_spectra((v + w).spectral_matrix, v.grid, p))


def _residual(u, p=5.0):
    """The solver's residual of u, from f_p of its interior rows (refused if not finite)."""
    return _residual_from_power(u, _finite(power_spectra(u.spectral_matrix[1:-1], u.grid, p)))


def _first_iterate(phi, p=5.0):
    """w_1 of solve_picard, the correction of the free evolution of phi."""
    grid = phi.grid
    w, trace = solve_picard(PicardConfig(p, grid.horizon, 1, 0.9, phi, grid))
    assert len(trace.rows) == 1
    return w


class TestPicardConfig:
    def test_problems_aggregated(self, medium):
        grid, prof = medium
        with pytest.raises(ValueError) as exc:
            PicardConfig(4.0, -1.0, 0, 1.5, prof, grid)
        msg = str(exc.value)
        assert "p must be >= 5" in msg
        assert "max_iters" in msg
        assert "contraction_target" in msg
        assert msg.count(";") >= 2

    def test_horizon_must_match_grid(self, medium):
        grid, prof = medium
        with pytest.raises(ValueError, match="num_steps"):
            PicardConfig(5.0, 2.0, 8, 0.9, prof, grid)

    def test_data_grid_must_match(self, medium):
        grid, prof = medium
        other = GridSpec(100.0, 512, 1.0 / 16, 16)
        with pytest.raises(ValueError, match="different grid"):
            PicardConfig(5.0, grid.horizon, 8, 0.9,
                         seeded_profile(other, 1), grid)


class TestPicardStep:
    # the solver's first iterate w_1, the correction of the free evolution

    def test_grid_mismatch(self, medium):
        # data sampled at other times than the solve's grid is refused with
        # the config, before any iterate
        grid, prof = medium
        other = GridSpec(grid.domain_length, grid.num_points, grid.dt / 2, grid.num_steps)
        data = Field.from_coefficients(other, prof.coefficients)
        with pytest.raises(ValueError, match="different grid"):
            PicardConfig(5.0, grid.horizon, 1, 0.9, data, grid)

    def test_zero_data_gives_zero_correction(self, small_grid):
        w = _first_iterate(Field.zero(small_grid))
        assert mixed_norm(w, np.inf, 2.0) == 0.0

    def test_output_starts_at_zero_exactly(self, medium):
        grid, prof = medium
        w = _first_iterate(prof * 0.1)
        assert l2_norm(w[0]) == 0.0 and l2_norm(w[1]) > 0.0

    def test_first_correction_magnitude(self):
        # independent route: dense trapezoid of the retarded integral of the
        # free-flow forcing; agreement is to the shared dealiasing floor
        grid = GridSpec(50.0, 512, 0.02, 10)
        prof = seeded_profile(grid, 3, amplitude=1.0)
        phi = prof * 1e-3
        w1 = _first_iterate(phi)
        M = 16
        fine = GridSpec(50.0, 512, grid.dt / M, grid.num_steps * M)
        vf = free_solution(Field.from_coefficients(fine, phi.coefficients))
        xi = fine.frequencies
        F = np.stack([apply_multiplier(evaluate_power(s, 5.0), 1j * xi).coefficients
                      for s in vf])
        out = np.zeros((grid.num_steps + 1, grid.num_points // 2),
                       dtype=np.complex128)
        for k in range(1, grid.num_steps + 1):
            t = k * grid.dt
            ss = np.arange(0, k * M + 1) * fine.dt
            ph = np.exp(1j * xi[None, :] ** 3 * (t - ss[:, None]))
            out[k] = -np.trapezoid(ph * F[:k * M + 1], dx=fine.dt, axis=0)
        wq = Path.from_spectral_matrix(grid, out)
        rel = mixed_norm(w1 - wq, np.inf, 2.0) / mixed_norm(wq, np.inf, 2.0)
        assert rel <= 0.05

    def test_first_correction_quintic_scaling(self):
        grid = GridSpec(50.0, 512, 0.02, 10)
        prof = seeded_profile(grid, 3, amplitude=1.0)
        small, big = _first_iterate(prof * 1e-3), _first_iterate(prof * 2e-3)
        ratio = mixed_norm(big, np.inf, 2.0) / mixed_norm(small, np.inf, 2.0)
        assert ratio == pytest.approx(32.0, rel=1e-10)


class TestSolvePicard:
    def test_contraction_below_threshold(self, medium):
        grid, prof = medium
        cfg = PicardConfig(5.0, 1.0, 12, 0.9, prof * 0.17, grid)
        w, trace = solve_picard(cfg)
        assert trace.converged
        assert len(trace.rows) <= 8
        assert all(r <= 0.5 for r in trace.ratios)
        assert trace.alpha == max(r["w_norm"] for r in trace.rows)
        assert l2_norm(w[0]) == 0.0

    def test_consistency_with_direct_oracle(self, medium):
        grid, prof = medium
        phi = prof * 0.17
        cfg = PicardConfig(5.0, 1.0, 12, 0.9, phi, grid)
        w, _ = solve_picard(cfg)
        u = free_solution(phi) + w
        d = direct_solve(phi, 5.0)
        assert mixed_norm(u - d, np.inf, 2.0) <= 1e-5 * l2_norm(phi)

    def test_divergence_is_structured(self, medium):
        grid, prof = medium
        cfg = PicardConfig(5.0, 1.0, 16, 0.9, prof * 6.8, grid)
        with pytest.raises(PicardDivergenceError) as exc:
            solve_picard(cfg)
        rows = exc.value.trace.rows
        assert len(rows) >= 1
        assert not exc.value.trace.converged

    def test_data_whose_squares_overflow_warn_nothing(self):
        # the squared L2 norm of the data overflows at amplitude 1e200: the
        # stop threshold scales the coefficients first, as the norms do
        grid = GridSpec(100.0, 512, 1.0 / 16, 16)
        phi = seeded_profile(grid, 9, amplitude=1.0) * 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PicardDivergenceError) as exc:
                solve_picard(PicardConfig(5.0, grid.horizon, 8, 0.9, phi, grid))
        assert [r["residual"] for r in exc.value.trace.rows] == [math.inf]

    def test_residual_tracks_truncation(self, medium):
        grid, prof = medium
        phi = prof * 0.17
        cfg = PicardConfig(5.0, 1.0, 12, 0.9, phi, grid)
        w, trace = solve_picard(cfg)
        assert trace.rows[-1]["residual"] == pytest.approx(
            _residual(free_solution(phi) + w), rel=1e-9)

    def test_trace_csv(self, medium):
        grid, prof = medium
        cfg = PicardConfig(5.0, 1.0, 12, 0.9, prof * 0.17, grid)
        _, trace = solve_picard(cfg)
        lines = trace.to_csv().splitlines()
        assert lines[0] == "n,w_norm,diff_norm,ratio,residual"
        first = lines[1].split(",")
        assert first[0] == "1" and first[3] == ""
        assert float(lines[2].split(",")[3]) == trace.ratios[0]

    def test_solve_builds_no_sample_values(self, medium, monkeypatch):
        # the stop test reads Parseval sums of the spectra: no inverse
        # transform at N points runs during a solve (f(u) transforms on
        # the padded grid)
        from gkdvlab import grid as grid_mod, nonlinearity
        grid, prof = medium
        phi = prof * 0.1
        sizes = []
        for mod in (grid_mod, nonlinearity):
            monkeypatch.setattr(mod, "to_samples", lambda c, m, f=mod.to_samples:
                                sizes.append(m) or f(c, m))
        _, trace = solve_picard(PicardConfig(5.0, grid.horizon, 8, 0.9, phi, grid))
        assert trace.converged and sizes
        assert sizes.count(grid.num_points) == 0

    def test_dp_bound_halves_the_solved_bands(self, medium, monkeypatch):
        # xs_report solves 13 bands exactly over this 3-iterate solve; with
        # the second bound alone it solved 45
        from gkdvlab import norms
        grid, prof = medium
        solved = []
        values = norms._band_values
        monkeypatch.setattr(norms, "_band_values",
                            lambda *a: solved.append(len(a[2])) or values(*a))
        _, trace = solve_picard(PicardConfig(5.0, grid.horizon, 8, 0.9,
                                             prof * 0.1, grid))
        assert trace.converged and len(trace.rows) == 3
        assert sum(solved) <= 45 // 2


class TestBatchedPower:
    def test_power_spectra_match_evaluate_power_bitwise(self, medium):
        from gkdvlab.nonlinearity import power_spectra

        grid, prof = medium
        v = free_solution(prof * 0.3)
        for p in (5.0, 5.5):
            batched = power_spectra(v.spectral_matrix, grid, p)
            for k in range(grid.num_steps + 1):
                assert np.array_equal(batched[k],
                                      evaluate_power(v[k], p).coefficients)

    @staticmethod
    def _residual_by_snapshot(u, p):
        # the solver's residual as a per-snapshot loop; Python max skips NaN
        grid = u.grid
        c = u.spectral_matrix
        dt_c = (c[2:] - c[:-2]) / (2.0 * grid.dt)
        d3 = (1j * grid.frequencies) ** 3
        worst = 0.0
        for k in range(1, grid.num_steps):
            fp = evaluate_power(u[k], p)
            resid = dt_c[k - 1] + c[k] * d3 + (1j * grid.frequencies) * fp.coefficients
            val = math.sqrt(grid.domain_length * float(np.sum(
                (resid * np.conj(resid)).real * grid.bin_weights)))
            worst = max(worst, val)
        return worst

    def test_gkdv_residual_matches_snapshot_loop(self, medium):
        grid, prof = medium
        v = free_solution(prof * 0.3)
        u = v + _step(v, Path.zero(grid))
        assert _residual(u) == self._residual_by_snapshot(u, 5.0)
        # a non-finite first row makes the k = 1 defect NaN; it is skipped
        c = np.zeros((grid.num_steps + 1, grid.num_points // 2), dtype=np.complex128)
        c[0, 3] = 1e300
        with np.errstate(over="ignore", invalid="ignore"):
            big = Path.from_spectral_matrix(grid, c) * 1e10
            bad = u + (big - big)
            expect = self._residual_by_snapshot(bad, 5.0)
            got = _residual(bad)
        assert math.isfinite(expect) and expect > 0
        assert got == expect

    def test_gkdv_residual_refuses_an_interior_overflow(self, medium):
        grid, prof = medium
        c = free_solution(prof * 0.3).spectral_matrix.copy()
        c[5] *= 1e70
        u = Path.from_spectral_matrix(grid, c)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteFieldError):
                _residual(u)

    @pytest.mark.parametrize("amp", [0.1, 3.0, 3.96, 1e70])
    def test_trace_matches_two_evaluations_per_iterate(self, medium, amp,
                                                       monkeypatch):
        # solve_picard evaluates f(v + w) once per iterate, plus once for
        # v; the rows must be those of evaluating f for the correction and
        # again for the residual of each iterate. At amplitude 3.96 the
        # last row of f(v + w_3) overflows while the interior does not: the
        # residual reads the interior alone and the next correction raises.
        # At 3 the interior rows of f(v + w_4) overflow too, and the residual
        # raises. At 1e70 f(v) itself overflows: one all-inf row.
        from gkdvlab import norms, picard
        grid, prof = medium
        phi = prof * amp
        cfg = PicardConfig(5.0, grid.horizon, 8, 0.9, phi, grid)
        calls = []
        monkeypatch.setattr(picard, "power_spectra",
                            lambda *a: calls.append(1) or power_spectra(*a))
        diverged = False
        try:
            _, trace = solve_picard(cfg)
        except PicardDivergenceError as exc:
            trace, diverged = exc.trace, True
        assert len(calls) <= len(trace.rows) + 1 and diverged == (amp > 1.0)
        s_p = norms.critical_index(5.0).s_p
        v = free_solution(phi)
        w = Path.zero(grid)
        want = []
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in trace.rows:
                try:
                    w_next = _step(v, w)
                    want.append((norms.xs_norm(w_next, s_p),
                                 norms.xs_norm(w_next - w, s_p),
                                 _residual(v + w_next)))
                except NonFiniteFieldError:
                    want.append((math.inf, math.inf, math.inf))
                    break
                w = w_next
        assert [(r["w_norm"], r["diff_norm"], r["residual"])
                for r in trace.rows] == want
        if amp in (3.0, 3.96):
            # w = w_3 is the last iterate kept; the overflowing f is that of
            # v + w_3 at 3.96, and that of v + w_4 at 3
            with np.errstate(over="ignore", invalid="ignore"):
                if amp == 3.0:
                    w = _step(v, w)
                f = power_spectra((v + w).spectral_matrix, grid, 5.0)
            finite = np.all(np.isfinite(f), axis=1)
            assert len(want) == 4 and not finite[-1]
            assert finite[1:-1].all() == (amp == 3.96)
        if amp == 1e70:
            assert want == [(math.inf, math.inf, math.inf)]

    def test_first_iterate_reuses_its_norm(self, medium, monkeypatch):
        # from w = 0 the first difference is w_1 itself: the solver takes
        # its critical norm once, so n iterates cost 2n - 1 xs_norm calls,
        # and the rows are those of a loop that makes both calls
        from gkdvlab import norms, picard
        grid, prof = medium
        calls = []
        monkeypatch.setattr(picard, "xs_norm",
                            lambda path, s: calls.append(1) or norms.xs_norm(path, s))
        _, trace = solve_picard(PicardConfig(5.0, grid.horizon, 8, 0.9,
                                             prof * 0.1, grid))
        n = len(trace.rows)
        assert n >= 3 and trace.converged and len(calls) == 2 * n - 1
        s_p = norms.critical_index(5.0).s_p
        v, w = free_solution(prof * 0.1), Path.zero(grid)
        for row in trace.rows:
            w_next = _step(v, w)
            assert row["w_norm"] == norms.xs_norm(w_next, s_p)
            assert row["diff_norm"] == norms.xs_norm(w_next - w, s_p)
            w = w_next


class TestDirectSolve:
    def test_zero_data(self, small_grid):
        path = direct_solve(Field.zero(small_grid), 5.0)
        assert mixed_norm(path, np.inf, 2.0) == 0.0

    def test_linear_regime_matches_free_flow(self):
        sg = GridSpec(50.0, 256, 0.02, 25)
        phi = seeded_profile(sg, 4, amplitude=1e-4)
        d = direct_solve(phi, 5.0)
        fs = free_solution(phi)
        assert mixed_norm(d - fs, np.inf, 2.0) <= 1e-12 * l2_norm(phi)

    def test_richardson_order(self):
        sg = GridSpec(50.0, 256, 0.02, 25)
        phi = seeded_profile(sg, 4, amplitude=0.8)
        p2 = direct_solve(phi, 5.0, substeps=2)
        p4 = direct_solve(phi, 5.0, substeps=4)
        p8 = direct_solve(phi, 5.0, substeps=8)
        v1 = mixed_norm(p2 - p4, np.inf, 2.0)
        v2 = mixed_norm(p4 - p8, np.inf, 2.0)
        assert math.log2(v1 / v2) >= 3.5

    def test_mean_mode_frozen(self):
        sg = GridSpec(50.0, 256, 0.02, 25)
        phi = seeded_profile(sg, 4, amplitude=0.8)
        path = direct_solve(phi, 5.0)
        c0 = phi.coefficients[0]
        drift = max(abs(s.coefficients[0] - c0) for s in path)
        assert drift == 0.0

    def test_l2_drift_small(self):
        sg = GridSpec(50.0, 256, 0.02, 25)
        phi = seeded_profile(sg, 4, amplitude=0.8)
        path = direct_solve(phi, 5.0)
        base = l2_norm(phi)
        worst = max(abs(l2_norm(s) - base) for s in path)
        assert worst <= 1e-6 * sg.horizon

    def test_blow_up_detected(self, monkeypatch):
        import gkdvlab.picard as picard_mod
        sg = GridSpec(50.0, 256, 0.02, 25)
        phi = seeded_profile(sg, 4, amplitude=40.0)
        monkeypatch.setattr(picard_mod, "_CEILING_FACTOR", 1e3)
        with pytest.raises(BlowUpError) as exc:
            direct_solve(phi, 5.0)
        assert exc.value.time > 0.0
        assert not math.isfinite(exc.value.sup) or exc.value.sup > 1e3

    def test_overflow_in_the_last_combination_is_a_blow_up(self, small_grid, monkeypatch):
        # finite power spectra whose RK4 combination overflows: the step's
        # height is not finite, which is a blow-up, not a NaN/inf error
        import gkdvlab.picard as picard_mod
        big = 1e308 / small_grid.resolvable_max
        monkeypatch.setattr(picard_mod, "power_spectra",
                            lambda c, grid, p: np.full(c.shape, big, dtype=np.complex128))
        with pytest.raises(BlowUpError) as exc:
            direct_solve(seeded_profile(small_grid, 4, amplitude=0.1), 5.0)
        assert exc.value.time == small_grid.dt and not math.isfinite(exc.value.sup)

    def test_substeps_validated(self, small_grid):
        with pytest.raises(ValueError):
            direct_solve(Field.zero(small_grid), 5.0, substeps=0)


class TestLipschitz:
    def test_zero_perturbation(self, medium):
        grid, prof = medium
        phi = prof * 0.17
        cfg = PicardConfig(5.0, 1.0, 12, 0.9, phi, grid)
        assert list(lipschitz_probe(cfg, [Field.zero(grid)])) == [0.0]

    def test_stable_under_halving(self, medium):
        grid, prof = medium
        phi = prof * 0.17
        cfg = PicardConfig(5.0, 1.0, 12, 0.9, phi, grid)
        vals = list(lipschitz_probe(cfg, (phi * (0.02 * 0.5 ** lev)
                                          for lev in range(4))))
        assert all(v > 0 for v in vals)
        assert max(vals) <= 2.0 * min(vals)

    def test_rescale_invariance(self, medium):
        from gkdvlab import littlewood_paley as lp
        from gkdvlab.norms import rescale
        grid, prof = medium
        phi = prof * 0.17
        cfg = PicardConfig(5.0, 1.0, 12, 0.9, phi, grid)
        phi_c = rescale(phi, 30, 5.0)
        grid_c = phi_c.grid
        cfg_c = PicardConfig(5.0, grid_c.horizon, 12, 0.9, phi_c, grid_c)
        a, = lipschitz_probe(cfg, [phi * 0.02])
        b, = lipschitz_probe(cfg_c, [phi_c * 0.02])
        assert abs(a - b) <= 1e-6 * a


class TestAmplitudeThreshold:
    def test_deterministic(self):
        fast = GridSpec(100.0, 512, 1.0 / 16, 16)
        prof = seeded_profile(fast, 6, amplitude=1.0)
        a = amplitude_threshold(prof, 5.0, max_iters=8, rel_tol=0.05)
        b = amplitude_threshold(prof, 5.0, max_iters=8, rel_tol=0.05)
        assert abs(a - b) <= 0.01 * a

    def test_brackets_the_boundary(self):
        fast = GridSpec(100.0, 512, 1.0 / 16, 16)
        prof = seeded_profile(fast, 6, amplitude=1.0)
        thr = amplitude_threshold(prof, 5.0, max_iters=8, rel_tol=0.05)
        below = PicardConfig(5.0, fast.horizon, 8, 0.9, prof * (thr / 2), fast,
                             stop_tolerance=1e-9)
        _, trace = solve_picard(below)
        assert trace.converged
        above = PicardConfig(5.0, fast.horizon, 8, 0.9, prof * (2 * thr), fast,
                             stop_tolerance=1e-9)
        diverged = False
        try:
            _, t2 = solve_picard(above)
            diverged = not t2.converged
        except PicardDivergenceError:
            diverged = True
        assert diverged

    @pytest.mark.parametrize("boundary, probes", [
        # a converging start doubles, a diverging one halves; recorded
        # before the two scans became one loop
        (5.3, [1.0, 2.0, 4.0, 8.0, 5.656854249492381, 4.756828460010884,
               5.187358218604039, 5.4170221877475715]),
        (0.07, [1.0, 0.5, 0.25, 0.125, 0.0625, 0.08838834764831845,
                0.07432544468767006, 0.0681567332915786, 0.07117428967229322]),
    ])
    def test_scan_probes(self, small_grid, monkeypatch, boundary, probes):
        import gkdvlab.picard as picard_mod
        seen = []
        monkeypatch.setattr(picard_mod, "_converges",
                            lambda profile, amp, *rest: seen.append(amp) or amp <= boundary)
        amplitude_threshold(seeded_profile(small_grid, 1), 5.0, rel_tol=0.05)
        assert seen == probes

    @pytest.mark.parametrize("verdict, message", [
        (True, "no divergence found within 80 doublings"),
        (False, "no convergence found within 80 halvings"),
    ])
    def test_scan_gives_up_after_80_steps(self, small_grid, monkeypatch, verdict, message):
        import gkdvlab.picard as picard_mod
        seen = []
        monkeypatch.setattr(picard_mod, "_converges",
                            lambda profile, amp, *rest: seen.append(amp) or verdict)
        with pytest.raises(RuntimeError, match=message):
            amplitude_threshold(seeded_profile(small_grid, 1), 5.0)
        assert len(seen) == 81 and seen[-1] == 2.0 ** (80 if verdict else -80)

    def test_zero_profile_rejected(self, small_grid):
        with pytest.raises(ValueError):
            amplitude_threshold(Field.zero(small_grid), 5.0)

    def test_rel_tol_validated(self, small_grid):
        prof = seeded_profile(small_grid, 1)
        with pytest.raises(ValueError):
            amplitude_threshold(prof, 5.0, rel_tol=0.0)

"""Scaling-law verifiers: seeded ensembles, slopes, and report formats."""

import json

import numpy as np
import pytest

from gkdvlab import estimates as est
from gkdvlab import littlewood_paley as lp
from gkdvlab.airy import free_solution
from gkdvlab.grid import Field, GridSpec, Path, mixed_norm
from gkdvlab.norms import critical_index, rescale


class TestTrialEnsemble:
    def test_rng_reproducible(self):
        e = est.TrialEnsemble(seed=42, num_trials=2)
        a = e.rng(0).standard_normal(8)
        b = e.rng(0).standard_normal(8)
        assert np.array_equal(a, b)

    def test_trials_independent(self):
        e = est.TrialEnsemble(seed=42, num_trials=2)
        assert not np.array_equal(e.rng(0).standard_normal(8),
                                  e.rng(1).standard_normal(8))

    def test_needs_one_trial(self):
        with pytest.raises(ValueError):
            est.TrialEnsemble(seed=0, num_trials=0)


class TestTrialFields:
    def test_annulus_field_is_real(self, small_grid):
        e = est.TrialEnsemble(seed=3, num_trials=1)
        f = est.annulus_field(small_grid, 30, e.rng(0))
        assert np.max(np.abs(f.values.imag)) == 0.0

    def test_annulus_field_band_limited(self, small_grid):
        e = est.TrialEnsemble(seed=3, num_trials=1)
        f = est.annulus_field(small_grid, 30, e.rng(0))
        psi = lp.symbol_array(small_grid, 30, "psi")
        assert not np.any(f.coefficients[psi == 0.0])

    def test_flat_field_sup_attains_l1(self, small_grid):
        # aligned phases stack at x = 0
        e = est.TrialEnsemble(seed=5, num_trials=1)
        f = est.flat_field(small_grid, 40, e.rng(0))
        l1 = float(np.abs(f.coefficients) @ small_grid.bin_weights)
        assert np.max(f.values) == pytest.approx(l1, rel=1e-12)


class TestStrichartz:
    def test_slope_and_constant(self):
        e = est.TrialEnsemble(seed=7, num_trials=1, schedule=(0, 232, 464, 696))
        rep = est.verify_strichartz(e, 6.0)
        assert rep.slope_target == pytest.approx(-1.0 / 6.0)
        assert abs(rep.slope - rep.slope_target) <= 0.05
        assert 0.0 < rep.worst_ratio < 10.0

    def test_deterministic_reports(self):
        sch = (0, 232, 464)
        a = est.verify_strichartz(
            est.TrialEnsemble(seed=7, num_trials=1, schedule=sch), 6.0)
        b = est.verify_strichartz(
            est.TrialEnsemble(seed=7, num_trials=1, schedule=sch), 6.0)
        assert a.to_json() == b.to_json()

    def test_inadmissible_pair_rejected(self):
        e = est.TrialEnsemble(seed=1, num_trials=1)
        with pytest.raises(ValueError, match="admissible"):
            est.verify_strichartz(e, 4.0)


class TestBernstein:
    def test_height_exponent_p5(self):
        e = est.TrialEnsemble(seed=5, num_trials=1, schedule=(25, 580, 13470))
        rep = est.verify_bernstein_linfty(e, 5.0)
        assert rep.slope_target == pytest.approx(0.5)
        assert abs(rep.slope - 0.5) <= 0.07
        assert np.isfinite(rep.worst_ratio)

    def test_free_paths_critical_norm_is_the_datas_on_the_op_grid(self):
        # the identity rhs relies on, on verify_bernstein_linfty's grid: the
        # critical flow norm of a flat field's free path is its data's
        # critical Besov norm, at the same scale
        from gkdvlab.norms import besov_report, xs_report

        g = GridSpec(400.0, 131072, 1e-3, 12)
        s_p = critical_index(5.0).s_p
        rng = np.random.default_rng(2600)
        for top_bin in (25, 580, 13470, 29600):
            phi = est.flat_field(g, top_bin, rng)
            flow, data = xs_report(free_solution(phi), s_p), besov_report(phi, s_p)
            assert flow.value == pytest.approx(data.value, rel=1e-12, abs=0.0)
            assert flow.argmax_scale == data.argmax_scale

    def test_op_takes_rhs_from_the_data(self, monkeypatch):
        # no flow norm is solved: rhs is lam^(1/2 - s_p) times the data's
        # critical Besov norm, bit for bit, for each trial's data in order
        from gkdvlab import norms

        calls = []
        monkeypatch.setattr(norms, "xs_report", lambda *args: calls.append(args))
        ens = est.TrialEnsemble(9, 2, schedule=(25, 580, 13470))
        rep = est.verify_bernstein_linfty(ens, 5.0)
        assert not calls
        g, s_p = GridSpec(*rep.config["grid"]), critical_index(5.0).s_p
        recs = iter(rep.records)
        for trial in range(ens.num_trials):
            rng = ens.rng(trial)
            for top_bin in ens.schedule:
                rec = next(recs)
                want = rec["lam"] ** (0.5 - s_p) * norms.besov_norm(
                    est.flat_field(g, top_bin, rng), s_p)
                assert rec["trial"] == trial and rec["rhs"] == want

    def test_op_reads_only_the_reach_of_its_support(self, monkeypatch):
        # bin 25 of 65536 stored bins: no NaN/inf check and no support scan
        # of one op reads an array wider than the support end 26
        from gkdvlab import grid as grid_mod

        def spy(real, seen):
            return lambda x: seen.append(x.shape[-1]) or real(x)

        widths = {"_support_end": [], "_finite": []}
        for name, seen in widths.items():
            wrapped = spy(getattr(grid_mod, name), seen)
            for mod in (grid_mod, lp):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, wrapped)
        rep = est.verify_bernstein_linfty(est.TrialEnsemble(7, 1, schedule=(25,)), 5.0)
        g = GridSpec(*rep.config["grid"])
        assert g.num_points == 131072 and all(widths.values())
        assert max(max(w) for w in widths.values()) <= 26

    def test_warm_op_allocates_less_than_one_full_spectral_matrix(self):
        # bin 25 of 65536 stored bins: with the caches filled, one op's peak
        # traced allocation stays below one (K+1) x N/2 complex matrix (13.6 MB)
        import tracemalloc

        ens = est.TrialEnsemble(7, 1, schedule=(25,))
        est.verify_bernstein_linfty(ens, 5.0)
        tracemalloc.start()
        try:
            rep = est.verify_bernstein_linfty(ens, 5.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        g = GridSpec(*rep.config["grid"])
        assert peak < 16 * (g.num_steps + 1) * (g.num_points // 2)

    def test_op_forms_no_out_of_band_diagnostic(self, monkeypatch):
        # rhs needs the critical norm's value alone: no partition sum and no
        # out-of-band fraction is formed
        from gkdvlab import norms

        calls = []
        for mod, name in ((lp, "partition_sum"), (norms, "out_of_band_fraction"),
                          (norms, "_out_of_band")):
            monkeypatch.setattr(mod, name, lambda *a, name=name: calls.append(name))
        rep = est.verify_bernstein_linfty(est.TrialEnsemble(3, 1, schedule=(25, 29600)), 5.0)
        assert not calls and len(rep.records) == 2

    def test_warm_op_builds_no_frequency_table(self, monkeypatch):
        # the op's grid is built afresh on each call; once the caches are
        # filled, its phase columns are read by count alone, so no call
        # computes the grid's N/2 frequencies
        from functools import cached_property

        built = []
        real = GridSpec.frequencies

        def counted(self):
            built.append(self.num_points)
            return real.func(self)

        spy = cached_property(counted)
        spy.__set_name__(GridSpec, "frequencies")
        est.verify_bernstein_linfty(est.TrialEnsemble(4, 1, schedule=(29600,)), 5.0)
        monkeypatch.setattr(GridSpec, "frequencies", spy)
        for top_bin in (25, 29600):
            est.verify_bernstein_linfty(est.TrialEnsemble(4, 1, schedule=(top_bin,)), 5.0)
        assert built == []


class TestBilinear:
    def test_separation_decay(self):
        e = est.TrialEnsemble(seed=11, num_trials=1, schedule=(72, 280, 486, 692))
        rep = est.verify_bilinear(e)
        assert rep.slope_target == -1.0
        assert abs(rep.slope - (-1.0)) <= 0.15
        assert rep.flags == []
        assert 0.0 < rep.worst_ratio < 10.0

    def test_boundary_separation_flagged(self):
        e = est.TrialEnsemble(seed=1, num_trials=1, schedule=(10, 72))
        rep = est.verify_bilinear(e)
        assert "boundary_separation" in rep.flags
        assert rep.records[0].get("boundary") is True
        assert "boundary" not in rep.records[1]

    def test_below_minimum_separation_rejected(self):
        e = est.TrialEnsemble(seed=1, num_trials=1, schedule=(9,))
        with pytest.raises(ValueError, match="separation"):
            est.verify_bilinear(e)


class TestInterpolated:
    def test_linear_exponent(self):
        e = est.TrialEnsemble(seed=7, num_trials=1, schedule=(0, 232, 464, 696))
        rep = est.verify_interpolated(e, 10.0)
        assert rep.slope_target == pytest.approx(0.5 - 4.0 / 10.0)
        assert abs(rep.slope - rep.slope_target) <= 0.02

    def test_linear_matches_strichartz_at_q6(self):
        # r = 2q/(q-4) = q at q = 6: the same experiment; only the rhs
        # exponents -1/6 and 1/2 - 4/6 differ, in their last bit
        e = est.TrialEnsemble(seed=7, num_trials=1, schedule=(0, 232, 464))
        a = est.verify_strichartz(e, 6.0)
        b = est.verify_interpolated(e, 6.0)
        assert a.slope == b.slope
        assert len(a.records) == len(b.records) == 3
        for ra, rb in zip(a.records, b.records):
            assert ra["lam"] == rb["lam"]
            assert ra["lhs"] == rb["lhs"]
            assert abs(ra["rhs"] - rb["rhs"]) <= np.spacing(
                max(ra["rhs"], rb["rhs"]))

    def test_linear_needs_q_at_least_six(self):
        e = est.TrialEnsemble(seed=1, num_trials=1)
        with pytest.raises(ValueError, match="q >= 6"):
            est.verify_interpolated(e, 5.0)

    def test_bilinear_near_degenerate_flag(self):
        # q = 2.1 at p = 5 leaves the mu exponent barely positive; the
        # measured decay is allowed to beat the stated power one-sidedly
        e = est.TrialEnsemble(seed=3, num_trials=1, schedule=(72, 280, 486))
        rep = est.verify_interpolated(e, 2.1, 5.0, bilinear=True)
        assert "near_degenerate_mu_exponent" in rep.flags
        assert rep.slope <= rep.slope_target + 0.1
        assert np.isfinite(rep.worst_ratio) and rep.worst_ratio > 0.0

    def test_bilinear_exponent_range_rejected(self):
        e = est.TrialEnsemble(seed=1, num_trials=1)
        with pytest.raises(ValueError, match="bilinear form"):
            est.verify_interpolated(e, 2.0, 5.0, bilinear=True)


NEAR_SCHEDULE = ((-70, -50, -30, -20, -15), (-70, -50, -30, 100, 105),
                 (-70, -50, -30, 220, 225))
FAR_SCHEDULE = ((-190, -170, -150, -120, -60), (-190, -170, -150, -120, 120),
                (-190, -170, -150, -120, 255))
ZERO_SCHEDULE = ((-190, -170, -150, -120, 95), (-190, -170, -150, -120, 185),
                 (-190, -170, -150, -120, 270))


class TestMultilinear:
    def test_near_bounded(self):
        e = est.TrialEnsemble(seed=2, num_trials=1, schedule=NEAR_SCHEDULE)
        rep = est.verify_multilinear(e, 6.0, "near")
        assert 0.0 < rep.worst_ratio < 1.0

    def test_far_bounded(self):
        e = est.TrialEnsemble(seed=2, num_trials=1, schedule=FAR_SCHEDULE)
        rep = est.verify_multilinear(e, 6.0, "far")
        assert 0.0 < rep.worst_ratio < 1.0

    def test_far_p5_vanishes_identically(self):
        # six disjoint band supports cannot reach the pairing band, and the
        # spectral-convolution route returns literal zeros
        e = est.TrialEnsemble(seed=2, num_trials=1, schedule=ZERO_SCHEDULE)
        rep = est.verify_multilinear(e, 5.0, "far")
        assert "exact_zero_construction" in rep.flags
        assert all(r["lhs"] == 0.0 for r in rep.records)
        assert rep.worst_ratio == 0.0

    def test_pairing_integral_matches_mean_of_product(self):
        # the sign-pattern convolution against the sample mean of the
        # product, which is exact while the summed bandwidths stay below N
        g = GridSpec(30.0, 512, 0.1, 1)
        rng = np.random.default_rng(21)

        def field(lo, hi):
            c = np.zeros(g.num_points // 2, dtype=np.complex128)
            c[lo:hi] = rng.standard_normal(hi - lo) \
                + 1j * rng.standard_normal(hi - lo)
            return Field.from_coefficients(g, c)

        fields = [field(lo, hi) for lo, hi in ((3, 9), (5, 20), (1, 4), (12, 30))]
        prod = np.prod([f.values for f in fields], axis=0)
        got = est._pairing_integral([est._segment(f.coefficients) for f in fields])
        assert abs(got - float(np.mean(prod))) <= 1e-12 * float(np.mean(np.abs(prod)))
        # two factors below bin 4 cannot reach a third from bin 12 up
        low = [field(1, 4), field(1, 4), field(12, 30)]
        assert est._pairing_integral([est._segment(f.coefficients) for f in low]) == 0.0

    def test_zero_mode_requires_disjoint_supports(self):
        sch = ((-190, -170, -150, -120, 40),)
        e = est.TrialEnsemble(seed=2, num_trials=1, schedule=sch)
        with pytest.raises(ValueError, match="exact-zero"):
            est.verify_multilinear(e, 5.0, "far")

    def test_schedule_ordering_validated(self):
        e = est.TrialEnsemble(seed=2, num_trials=1,
                              schedule=((-30, -50, -70, -20, -15),))
        with pytest.raises(ValueError, match="ordered"):
            est.verify_multilinear(e, 6.0, "near")

    def test_case_separation_validated(self):
        near_like = ((-70, -50, -30, -20, -15),)
        e = est.TrialEnsemble(seed=2, num_trials=1, schedule=near_like)
        with pytest.raises(ValueError, match="far case"):
            est.verify_multilinear(e, 6.0, "far")
        far_like = ((-190, -170, -150, -120, 120),)
        e2 = est.TrialEnsemble(seed=2, num_trials=1, schedule=far_like)
        with pytest.raises(ValueError, match="near case"):
            est.verify_multilinear(e2, 6.0, "near")

    def test_bad_case_and_exponents(self):
        e = est.TrialEnsemble(seed=2, num_trials=1, schedule=NEAR_SCHEDULE)
        with pytest.raises(ValueError, match="case"):
            est.verify_multilinear(e, 6.0, "middle")


def smallness_profile():
    g = GridSpec(50.0, 512, 0.05, 20)
    x = g.x - 25.0
    return Field.from_values(g, 0.7 * np.exp(-(x / 3.0) ** 2) * np.cos(2.0 * x))


class TestSmallness:
    def test_prune_matches_exhaustive(self):
        phi = smallness_profile()
        T = 0.5
        rep = est.l6_smallness_report(phi, T, 5.0)
        ci = critical_index(5.0)
        n = est._SMALLNESS_STEPS
        g2 = GridSpec(50.0, 512, T / n, n)
        f2 = Field.from_coefficients(g2, phi.coefficients)
        path = free_solution(f2)
        best = 0.0
        for z in lp.default_band(g2):
            sym = lp.symbol_array(g2, z, "psi")
            if not np.any(sym * f2.coefficients):
                continue
            piece = Path.from_spectral_matrix(
                g2, path.spectral_matrix * sym[None, :])
            val = lp.scale_value(z) ** (1.0 / 6.0 + ci.s_p) \
                * mixed_norm(piece, 6.0, 6.0)
            best = max(best, val)
        assert rep["sup"] == pytest.approx(best, rel=1e-12)
        assert rep["argmax_scale"] is not None

    def test_rescale_invariance(self):
        phi = smallness_profile()
        T = 0.5
        c = lp.scale_value(40)
        phi_c = rescale(phi, 40, 5.0)
        s1 = est.l6_smallness_report(phi, T, 5.0)["sup"]
        s2 = est.l6_smallness_report(phi_c, T / c ** 3, 5.0)["sup"]
        assert abs(s1 - s2) / s1 <= 1e-4

    def test_positive_horizon_required(self):
        with pytest.raises(ValueError):
            est.l6_smallness_report(smallness_profile(), 0.0, 5.0)


class TestReports:
    def test_json_shape(self):
        e = est.TrialEnsemble(seed=7, num_trials=1, schedule=(0, 232))
        rep = est.verify_strichartz(e, 6.0)
        d = json.loads(rep.to_json())
        assert d["schema_version"] == est.SCHEMA_VERSION
        assert d["estimate"] == "strichartz"
        assert d["config"]["seed"] == 7
        assert len(d["records"]) == 2

    def test_csv_union_of_keys(self):
        # boundary column only exists on the d = 10 record; missing cells
        # stay empty
        e = est.TrialEnsemble(seed=1, num_trials=1, schedule=(10, 72))
        rep = est.verify_bilinear(e)
        lines = rep.to_csv().splitlines()
        assert lines[0].endswith(",boundary")
        assert lines[1].endswith(",True")
        assert lines[2].endswith(",")

    def test_csv_roundtrip_floats(self):
        e = est.TrialEnsemble(seed=7, num_trials=1, schedule=(0,))
        rep = est.verify_strichartz(e, 6.0)
        lines = rep.to_csv().splitlines()
        header = lines[0].split(",")
        row = lines[1].split(",")
        lhs = float(row[header.index("lhs")])
        assert lhs == rep.records[0]["lhs"]

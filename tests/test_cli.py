"""Command-line front door: config resolution, exit codes, report files."""

import json
import os

import pytest

from gkdvlab import cli, picard
from gkdvlab import littlewood_paley as lp


def run(args, outdir):
    return cli.main(list(args) + ["--outdir", str(outdir)])


class TestConfigResolution:
    def test_defaults(self):
        cfg, dry = cli.resolve_config(["solve"])
        assert not dry
        assert cfg.kind == "solve"
        assert cfg.points == 2048
        assert cfg.dt == pytest.approx(1.0 / 64)
        assert cfg.grid().horizon == pytest.approx(cfg.T)

    def test_subcritical_power_rejected(self, capsys):
        rc = cli.main(["solve", "--p", "4.5"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "p must be >= 5" in err
        assert "supercritical scope" in err

    def test_problems_reported_together(self, capsys):
        rc = cli.main(["solve", "--p", "4", "--trials", "0", "--points", "1000"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "p must be >= 5" in err
        assert "trials must be >= 1" in err
        assert "power of two" in err

    def test_time_grid_consistency(self, capsys):
        rc = cli.main(["solve", "--dt", "0.1", "--steps", "64", "--T", "1.0"])
        assert rc == 2
        assert "inconsistent" in capsys.readouterr().err

    def test_band_flags_paired(self, capsys):
        rc = cli.main(["norms", "--band-lo", "-5"])
        assert rc == 2
        assert "band-lo and band-hi" in capsys.readouterr().err

    @pytest.mark.parametrize("args, problem", [
        (["norms", "--length", "inf"], "length must be finite"),
        (["norms", "--amplitude", "inf"], "amplitude must be finite"),
        (["picard", "--T", "inf"], "T must be finite"),
        (["norms", "--p", "inf"], "p must be finite"),
        (["verify-strichartz", "--q", "nan"], "q must be finite"),
    ])
    def test_non_finite_option_rejected(self, args, problem, tmp_path, capsys):
        assert run(args, tmp_path) == 2
        assert problem in capsys.readouterr().err
        assert not os.listdir(tmp_path)

    def test_non_finite_config_value_rejected(self, tmp_path, capsys):
        cfile = tmp_path / "run.cfg"
        cfile.write_text("amplitude = inf\n")
        assert cli.main(["norms", "--config", str(cfile)]) == 2
        assert "amplitude must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("lo, hi", [(71330, 71335), (0, 10 ** 9),
                                        (-10 ** 9, 0)])
    def test_band_beyond_finite_scales_rejected(self, lo, hi, tmp_path, capsys):
        # refused by the bound alone: the lattice table does not grow
        size = lp._powers.size
        rc = run(["norms", "--points", "1024", "--p", "7",
                  "--band-lo", str(lo), "--band-hi", str(hi)], tmp_path)
        assert rc == 2
        assert "band-lo and band-hi must lie in [-71332, 71332]" \
            in capsys.readouterr().err
        assert lp._powers.size == size
        assert not os.listdir(tmp_path)

    def test_band_at_finite_scale_limit_accepted(self):
        m = lp.MAX_EXPONENT
        cfg, _ = cli.resolve_config(["norms", "--band-lo", str(-m),
                                     "--band-hi", str(m)])
        assert (cfg.band_lo, cfg.band_hi) == (-m, m)

    def test_config_file_and_override(self, tmp_path):
        cfile = tmp_path / "run.cfg"
        cfile.write_text("# comment line\np = 6.0\nmax-iters = 4\n")
        cfg, _ = cli.resolve_config(["picard", "--config", str(cfile)])
        assert cfg.p == 6.0
        assert cfg.max_iters == 4
        cfg2, _ = cli.resolve_config(["picard", "--config", str(cfile),
                                      "--p", "7.0"])
        assert cfg2.p == 7.0
        assert cfg2.max_iters == 4

    def test_config_file_unknown_key(self, tmp_path, capsys):
        cfile = tmp_path / "run.cfg"
        cfile.write_text("warp = 9\n")
        rc = cli.main(["solve", "--config", str(cfile)])
        assert rc == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_config_file_missing(self, capsys):
        rc = cli.main(["solve", "--config", "/nonexistent/run.cfg"])
        assert rc == 2
        assert "cannot read config file" in capsys.readouterr().err

    def test_outdir_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GKDVLAB_OUTDIR", str(tmp_path))
        rc = cli.main(["norms", "--points", "256", "--length", "50"])
        assert rc == 0
        assert (tmp_path / "norms-report.json").exists()


_SEEDED = {"T", "dt", "steps", "length", "points", "p", "seed", "amplitude"}
_ENSEMBLE = {"seed", "trials", "format"}
# the options each kind reads in its default mode, besides outdir
ROWS = {
    "solve": _SEEDED,
    "picard": _SEEDED | {"max_iters", "tolerance", "amplitude_bisect"},
    "norms": _SEEDED | {"band_lo", "band_hi"},
    "lipschitz": _SEEDED | {"max_iters", "tolerance", "levels", "delta_scale"},
    "verify-smallness": {"T", "length", "points", "p", "seed", "amplitude"},
    "verify-strichartz": _ENSEMBLE | {"estimate", "q"},
    "verify-bilinear": _ENSEMBLE,
    "verify-multilinear": _ENSEMBLE | {"p", "case", "points"},
}
# options read only in a mode other than the default one
MODE_ONLY = {"verify-strichartz": {"p", "bilinear_form"}}
# a valid value of every option but outdir, which every kind reads
SAMPLE = {"T": "1.0", "dt": "0.015625", "steps": "64", "length": "200.0",
          "points": "2048", "p": "5.0", "seed": "0", "trials": "3",
          "levels": "4", "max_iters": "16", "tolerance": "1e-10",
          "amplitude": "0.1", "band_lo": "-5", "band_hi": "5", "q": "6.0",
          "estimate": "pair", "bilinear_form": "true", "case": "near",
          "amplitude_bisect": "true", "delta_scale": "0.001", "format": "json"}


def _flag(name):
    flag = ["--" + name.replace("_", "-")]
    return flag if name in ("bilinear_form", "amplitude_bisect") \
        else flag + [SAMPLE[name]]


class TestKindTable:
    def test_every_option_is_sampled(self):
        assert set(SAMPLE) | {"outdir"} == set(cli._OPTION)
        accepted = sum(len(ROWS[k] | MODE_ONLY.get(k, set())) + 1 for k in ROWS)
        assert set(ROWS) == set(cli._KINDS) and accepted == 71

    @pytest.mark.parametrize("source", ["flag", "config key"])
    @pytest.mark.parametrize("kind", sorted(ROWS))
    def test_unread_option_rejected(self, kind, source, tmp_path, capsys):
        cfile = tmp_path / "run.cfg"
        out = tmp_path / "out"
        for name in sorted(set(SAMPLE) - ROWS[kind]):
            if source == "flag":
                args = [kind] + _flag(name)
            else:
                cfile.write_text(f"{name.replace('_', '-')} = {SAMPLE[name]}\n")
                args = [kind, "--config", str(cfile)]
            assert run(args, out) == 2, name
            lines = capsys.readouterr().err.splitlines()
            assert any(ln.strip().startswith(kind) and
                       ln.endswith(f"does not read {name.replace('_', '-')}")
                       for ln in lines), (name, lines)
            assert not out.exists()

    @pytest.mark.parametrize("kind", sorted(ROWS))
    def test_every_read_option_accepted(self, kind):
        row = ROWS[kind] | MODE_ONLY.get(kind, set())
        args = [kind] + [a for name in sorted(row - {"amplitude_bisect", "estimate"})
                         for a in _flag(name)]
        if kind == "verify-strichartz":
            args += ["--estimate", "interpolated"]
        cfg, _ = cli.resolve_config(args)
        assert set(cfg.echo()) == row | {"outdir", "kind", "version"}

    @pytest.mark.parametrize("kind", sorted(ROWS))
    def test_echo_is_the_row(self, kind):
        cfg, _ = cli.resolve_config([kind])
        assert set(cfg.echo()) == ROWS[kind] | {"outdir", "kind", "version"}

    @pytest.mark.parametrize("args, problem", [
        (["picard", "--amplitude-bisect", "--amplitude", "0.3"],
         "picard with amplitude-bisect=True does not read amplitude"),
        (["verify-strichartz", "--estimate", "bernstein", "--q", "8"],
         "verify-strichartz with estimate=bernstein does not read q"),
        (["verify-strichartz", "--estimate", "pair", "--bilinear-form"],
         "verify-strichartz with estimate=pair does not read bilinear-form"),
    ])
    def test_mode_leaves_option_unread(self, args, problem, tmp_path, capsys):
        assert run(args, tmp_path) == 2
        assert problem in capsys.readouterr().err
        assert not os.listdir(tmp_path)

    def test_modes_echo_what_they_read(self):
        cfg, _ = cli.resolve_config(["verify-strichartz", "--estimate", "interpolated",
                                     "--q", "8", "--p", "7", "--bilinear-form"])
        assert (cfg.q, cfg.p, cfg.bilinear_form) == (8.0, 7.0, True)
        cfg, _ = cli.resolve_config(["verify-strichartz", "--estimate", "bernstein"])
        assert set(cfg.echo()) == _ENSEMBLE | {"estimate", "p", "outdir", "kind",
                                               "version"}
        cfg, _ = cli.resolve_config(["picard", "--amplitude-bisect"])
        assert set(cfg.echo()) == ROWS["picard"] - {"amplitude"} | {
            "outdir", "kind", "version"}


class TestDryRun:
    def test_plan_printed_nothing_written(self, tmp_path, capsys):
        rc = run(["verify-strichartz", "--dry-run", "--trials", "2"], tmp_path)
        assert rc == 0
        out = capsys.readouterr().out
        assert "kind: verify-strichartz" in out
        assert "trials: 2" in out
        # the kind builds no grid of its options, so the plan shows none
        assert "grid:" not in out and "bands:" not in out
        assert "memory" not in out
        assert list(tmp_path.iterdir()) == []

    def test_path_memory_counts_values_and_spectrum(self, tmp_path, capsys):
        # (K+1) N samples at 8 B of values plus 8 B of stored bins each
        rc = run(["picard", "--dry-run", "--points", "4096", "--steps", "256"],
                 tmp_path)
        assert rc == 0
        out = capsys.readouterr().out
        assert "path memory estimate: 16.8 MB" in out
        assert "trials" not in out


class TestSolve:
    def test_report_and_path(self, tmp_path):
        rc = run(["solve", "--amplitude", "0.1", "--points", "512",
                  "--length", "100", "--steps", "32"], tmp_path)
        assert rc == 0
        rep = json.loads((tmp_path / "solve-report.json").read_text())
        assert rep["schema_version"] == 1
        assert rep["config"]["kind"] == "solve"
        assert rep["mass_drift"] <= 1e-10
        assert rep["l2_drift"] <= 1e-6
        assert (tmp_path / "solve-path.bin").exists()

    def test_blow_up_exit_code_with_report(self, tmp_path):
        rc = run(["solve", "--amplitude", "60", "--points", "512",
                  "--length", "100", "--steps", "32"], tmp_path)
        assert rc == 3
        rep = json.loads((tmp_path / "solve-report.json").read_text())
        assert rep["failure"] == "blow_up"
        assert rep["time"] > 0


class TestPicard:
    ARGS = ["picard", "--points", "1024", "--steps", "32", "--seed", "9"]

    def test_converged_report(self, tmp_path):
        rc = run(self.ARGS + ["--amplitude", "0.1"], tmp_path)
        assert rc == 0
        rep = json.loads((tmp_path / "picard-report.json").read_text())
        assert rep["converged"] is True
        assert rep["iterations"] >= 1
        assert all(r < 1 for r in rep["ratios"])
        trace = (tmp_path / "picard-trace.csv").read_text().splitlines()
        assert trace[0] == "n,w_norm,diff_norm,ratio,residual"
        assert len(trace) == rep["iterations"] + 1

    def test_divergence_exit_code_with_trace(self, tmp_path):
        rc = run(self.ARGS + ["--amplitude", "8.0", "--max-iters", "12"],
                 tmp_path)
        assert rc == 3
        rep = json.loads((tmp_path / "picard-report.json").read_text())
        assert rep["failure"] == "divergence"
        assert (tmp_path / "picard-trace.csv").exists()

    def test_amplitude_bisect(self, tmp_path):
        rc = run(["picard", "--amplitude-bisect", "--points", "512",
                  "--steps", "16", "--length", "100", "--T", "1.0",
                  "--seed", "6", "--max-iters", "8"], tmp_path)
        assert rc == 0
        rep = json.loads((tmp_path / "picard-threshold.json").read_text())
        assert 0.05 < rep["amplitude_threshold"] < 20.0

    def test_amplitude_bisect_uses_tolerance(self, tmp_path, monkeypatch):
        seen = []
        solve = picard.solve_picard

        def recording_solve(cfg):
            seen.append(cfg.stop_tolerance)
            return solve(cfg)

        monkeypatch.setattr(picard, "solve_picard", recording_solve)
        rc = run(["picard", "--amplitude-bisect", "--points", "256",
                  "--steps", "8", "--length", "100", "--seed", "6",
                  "--max-iters", "6", "--tolerance", "1e-7"], tmp_path)
        assert rc == 0
        assert seen and all(t == 1e-7 for t in seen)


class TestReports:
    def test_norms_report(self, tmp_path):
        rc = run(["norms", "--points", "256", "--length", "50"], tmp_path)
        assert rc == 0
        rep = json.loads((tmp_path / "norms-report.json").read_text())
        for key in ("besov", "sobolev", "free_path"):
            assert "value" in rep[key]

    def test_smallness_report(self, tmp_path):
        rc = run(["verify-smallness", "--points", "256", "--length", "50"],
                 tmp_path)
        assert rc == 0
        rep = json.loads((tmp_path / "smallness-report.json").read_text())
        assert rep["sup"] > 0
        assert rep["horizon"] == 1.0

    def test_lipschitz_levels(self, tmp_path):
        rc = run(["lipschitz", "--points", "1024", "--steps", "32",
                  "--amplitude", "0.15", "--seed", "9", "--levels", "2"],
                 tmp_path)
        assert rc == 0
        rep = json.loads((tmp_path / "lipschitz-report.json").read_text())
        assert len(rep["records"]) == 2
        assert rep["records"][1]["delta_scale"] == pytest.approx(
            rep["records"][0]["delta_scale"] / 2)

    LIPSCHITZ = ["lipschitz", "--points", "512", "--steps", "16", "--levels", "2",
                 "--seed", "5", "--amplitude", "0.05"]

    def test_lipschitz_solves_the_data_once(self, tmp_path, monkeypatch):
        calls = []
        solve = picard.solve_picard
        monkeypatch.setattr(picard, "solve_picard",
                            lambda cfg: calls.append(cfg) or solve(cfg))
        assert run(self.LIPSCHITZ, tmp_path) == 0
        assert len(calls) == 3

    def test_lipschitz_divergence_keeps_finished_levels(self, tmp_path, monkeypatch):
        calls = []
        solve = picard.solve_picard

        def failing_third(cfg):
            calls.append(cfg)
            if len(calls) == 3:
                raise picard.PicardDivergenceError(picard.IterationTrace())
            return solve(cfg)

        monkeypatch.setattr(picard, "solve_picard", failing_third)
        assert run(self.LIPSCHITZ, tmp_path) == 3
        rep = json.loads((tmp_path / "lipschitz-report.json").read_text())
        assert rep["failure"] == "divergence"
        assert [r["level"] for r in rep["records"]] == [0]

    def test_multilinear_report(self, tmp_path):
        rc = run(["verify-multilinear", "--trials", "1", "--case", "near"],
                 tmp_path)
        assert rc == 0
        rep = json.loads((tmp_path / "multilinear-report.json").read_text())
        assert rep["estimate"] == "multilinear_near"
        assert rep["worst_ratio"] < 1.0

    @pytest.mark.parametrize("args, estimate", [
        (["--estimate", "bernstein"], "bernstein_linfty"),
        (["--estimate", "interpolated", "--q", "8"], "interpolated_linear"),
        (["--estimate", "interpolated", "--bilinear-form", "--q", "3"],
         "interpolated_bilinear"),
    ])
    def test_strichartz_estimate_modes(self, args, estimate, tmp_path):
        assert run(["verify-strichartz", "--trials", "1"] + args, tmp_path) == 0
        rep = json.loads((tmp_path / "strichartz-report.json").read_text())
        assert rep["estimate"] == estimate
        read = {"seed", "trials", "format", "estimate", "outdir", "kind", "version"}
        read |= {"bernstein": {"p"}}.get(args[1], {"q", "p", "bilinear_form"})
        assert set(rep["config"]["cli"]) == read

    def test_csv_format(self, tmp_path):
        rc = run(["verify-strichartz", "--trials", "1", "--format", "csv"],
                 tmp_path)
        assert rc == 0
        lines = (tmp_path / "strichartz-report.csv").read_text().splitlines()
        assert lines[0].startswith("trial,lam,")

    def test_csv_format_refused_for_json_kinds(self, tmp_path, capsys):
        rc = run(["norms", "--points", "256", "--length", "50",
                  "--format", "csv"], tmp_path)
        assert rc == 2
        err = capsys.readouterr().err
        assert "norms does not read format" in err
        assert list(tmp_path.iterdir()) == []


class TestRemovedOptions:
    @pytest.mark.parametrize("flag", [["--workers", "2"], ["--s", "0.5"],
                                      ["--contraction-target", "0.5"]])
    def test_flag_rejected(self, flag, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["norms", "--points", "256", "--length", "50"] + flag,
                tmp_path)
        assert exc.value.code == 2

    def test_config_key_rejected(self, tmp_path, capsys):
        cfile = tmp_path / "run.cfg"
        cfile.write_text("workers = 2\n")
        rc = cli.main(["norms", "--config", str(cfile)])
        assert rc == 2
        assert "unknown config key" in capsys.readouterr().err


class TestDeterminism:
    def test_reports_byte_identical(self, tmp_path):
        args = ["verify-strichartz", "--trials", "1", "--seed", "7"]
        assert run(args, tmp_path) == 0
        first = (tmp_path / "strichartz-report.json").read_bytes()
        assert run(args, tmp_path) == 0
        second = (tmp_path / "strichartz-report.json").read_bytes()
        assert first == second

    def test_no_temp_leftovers(self, tmp_path):
        assert run(["norms", "--points", "256", "--length", "50"],
                   tmp_path) == 0
        names = [p.name for p in tmp_path.iterdir()]
        assert names == ["norms-report.json"]

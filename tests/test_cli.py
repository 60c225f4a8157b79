"""Command-line front door: config resolution, exit codes, report files."""

import json
import os

import pytest

from gkdvlab import cli, picard


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

    def test_config_file_and_override(self, tmp_path):
        cfile = tmp_path / "run.cfg"
        cfile.write_text("# comment line\np = 6.0\nmax-iters = 4\n")
        cfg, _ = cli.resolve_config(["solve", "--config", str(cfile)])
        assert cfg.p == 6.0
        assert cfg.max_iters == 4
        cfg2, _ = cli.resolve_config(["solve", "--config", str(cfile),
                                      "--p", "7.0"])
        assert cfg2.p == 7.0

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


class TestDryRun:
    def test_plan_printed_nothing_written(self, tmp_path, capsys):
        rc = run(["verify-strichartz", "--dry-run", "--trials", "2"], tmp_path)
        assert rc == 0
        out = capsys.readouterr().out
        assert "kind: verify-strichartz" in out
        assert "grid:" in out and "bands:" in out
        assert "trials: 2" in out
        assert "memory" in out
        assert list(tmp_path.iterdir()) == []

    def test_path_memory_counts_values_and_spectrum(self, tmp_path, capsys):
        # (K+1) N samples at 8 B of values plus 8 B of stored bins each
        rc = run(["picard", "--dry-run", "--points", "4096", "--steps", "256"],
                 tmp_path)
        assert rc == 0
        out = capsys.readouterr().out
        assert "path memory estimate: 16.8 MB" in out


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
        assert "format csv" in err and "norms" in err
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

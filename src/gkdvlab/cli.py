"""Batch front door: one experiment per invocation, reports on disk.

Config comes from an optional flat key=value file plus flag overrides; all
validation problems are reported together before any computation starts.
Outputs are deterministic for a fixed config and seed (canonical JSON, no
timestamps) and written atomically. Exit codes: 0 success, 2 invalid
config, 3 numerical failure (divergence or blow-up) with the diagnostic
report still written.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import asdict, make_dataclass
from typing import Callable, Dict, List, NamedTuple, Optional

import numpy as np

from . import __version__
from . import littlewood_paley as lp
from .estimates import (EstimateReport, TrialEnsemble, l6_smallness_report,
                        verify_bernstein_linfty, verify_bilinear,
                        verify_interpolated, verify_multilinear,
                        verify_strichartz)
from .grid import Field, GridSpec, l2_norm
from .io import atomic_write_text, canonical_json, save_path
from .norms import besov_report, critical_index, sobolev_report, xs_report
from .airy import free_solution
from .picard import (BlowUpError, PicardConfig, PicardDivergenceError,
                     amplitude_threshold, direct_solve, lipschitz_probe,
                     solve_picard)

KINDS = ("solve", "picard", "norms", "verify-strichartz", "verify-bilinear",
         "verify-multilinear", "verify-smallness", "lipschitz")


class _Option(NamedTuple):
    """One option: flag --name (dashes for underscores) and config key name.

    type is float, int, str, bool (a switch) or a tuple of choices; check
    maps a value to the text of its problem, or None when it is valid.
    """

    name: str
    type: object
    default: object = None
    check: Optional[Callable[[object], Optional[str]]] = None
    help: Optional[str] = None


def _need(ok: Callable[[object], bool], problem: str) -> Callable:
    return lambda v: None if ok(v) else problem


def _positive(name: str) -> Callable:
    return _need(lambda v: v > 0, f"{name} must be positive")


def _at_least_one(name: str) -> Callable:
    return _need(lambda v: v >= 1, f"{name} must be >= 1")


_OPTIONS = (
    _Option("T", float, 1.0, _positive("T")),
    _Option("dt", float, None, _positive("dt")),
    _Option("steps", int, 64, _at_least_one("steps")),
    _Option("length", float, 200.0, _positive("length")),
    _Option("points", int, 2048,
            _need(lambda v: v >= 16 and not v & (v - 1),
                  "points must be a power of two, at least 16")),
    _Option("p", float, 5.0,
            _need(lambda v: v >= 5.0, "p must be >= 5 (the supercritical "
                                      "scope of this laboratory)")),
    _Option("seed", int, 0, _need(lambda v: v >= 0, "seed must be nonnegative")),
    _Option("trials", int, 3, _at_least_one("trials")),
    _Option("levels", int, 4, _at_least_one("levels")),
    _Option("max_iters", int, 16, _at_least_one("max_iters")),
    _Option("tolerance", float, 1e-10, _positive("tolerance")),
    _Option("amplitude", float, 0.1, _positive("amplitude")),
    _Option("band_lo", int),
    _Option("band_hi", int),
    _Option("q", float, 6.0),
    _Option("estimate", ("pair", "bernstein", "interpolated"), "pair"),
    _Option("bilinear_form", bool, False,
            help="interpolated estimate: use the two-factor form"),
    _Option("case", ("near", "far"), "near"),
    _Option("amplitude_bisect", bool, False),
    _Option("delta_scale", float, 1e-3),
    _Option("format", ("json", "csv"), "json"),
    _Option("outdir", str,
            help="output directory (default $GKDVLAB_OUTDIR or .)"),
)
_OPTION = {opt.name: opt for opt in _OPTIONS}

# the kinds whose report is an EstimateReport, which alone has a CSV form
_CSV_KINDS = ("verify-strichartz", "verify-bilinear", "verify-multilinear")


class _RunConfigMethods:
    def grid(self) -> GridSpec:
        return GridSpec(self.length, self.points, self.dt, self.steps)

    def echo(self) -> Dict:
        d = asdict(self)
        d["version"] = __version__
        return d


RunConfig = make_dataclass(
    "RunConfig",
    [("kind", str)] + [(opt.name, opt.type if isinstance(opt.type, type)
                        else str) for opt in _OPTIONS],
    bases=(_RunConfigMethods,))
RunConfig.__doc__ = "A resolved run: the kind plus one field per option."


def _parse_config_file(path: str) -> Dict[str, str]:
    out: Dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{ln}: expected key=value, got {line!r}")
            key, _, val = line.partition("=")
            out[key.strip().replace("-", "_")] = val.strip()
    return out


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gkdvlab",
        description="experiments for the supercritical dispersive laboratory")
    ap.add_argument("kind", choices=KINDS)
    ap.add_argument("--config", help="flat key=value config file")
    ap.add_argument("--dry-run", action="store_true")
    # every option defaults to None so that a given flag can be told apart
    for opt in _OPTIONS:
        flag = "--" + opt.name.replace("_", "-")
        if opt.type is bool:
            ap.add_argument(flag, action="store_true", default=None,
                            help=opt.help)
        elif isinstance(opt.type, tuple):
            ap.add_argument(flag, choices=opt.type, help=opt.help)
        else:
            ap.add_argument(flag, type=opt.type, help=opt.help)
    return ap


def _coerce(opt: _Option, raw: str):
    if opt.type is bool:
        return raw.lower() in ("1", "true", "yes", "on")
    if isinstance(opt.type, tuple):
        if raw not in opt.type:
            raise ValueError(raw)
        return raw
    return opt.type(raw)


def resolve_config(argv: List[str]) -> tuple:
    """(RunConfig, dry_run) from argv; raises ValueError listing every
    problem at once. A flag overrides the config file, which overrides the
    option's default."""
    ns = _build_parser().parse_args(argv)
    problems: List[str] = []
    file_vals: Dict = {}
    if ns.config:
        try:
            raw = _parse_config_file(ns.config)
        except OSError as e:
            raise ValueError(f"cannot read config file: {e}")
        for k, v in raw.items():
            if k not in _OPTION:
                problems.append(f"unknown config key {k!r}")
                continue
            try:
                file_vals[k] = _coerce(_OPTION[k], v)
            except ValueError:
                problems.append(f"config key {k!r}: cannot parse {v!r}")
    vals: Dict = {}
    for opt in _OPTIONS:
        v = getattr(ns, opt.name)
        if v is None:
            v = file_vals.get(opt.name, opt.default)
        problem = opt.check(v) if opt.check and v is not None else None
        if problem:
            problems.append(problem)
        vals[opt.name] = v
    T, dt, steps = vals["T"], vals["dt"], vals["steps"]
    if dt is not None and steps and abs(steps * dt - T) > 1e-9 * max(T, 1.0):
        problems.append("dt, steps and T are inconsistent (need T = steps*dt)")
    if dt is None and steps:
        vals["dt"] = T / steps
    if (vals["band_lo"] is None) != (vals["band_hi"] is None):
        problems.append("band-lo and band-hi must be given together")
    elif vals["band_lo"] is not None and vals["band_lo"] > vals["band_hi"]:
        problems.append("band-lo must not exceed band-hi")
    if vals["format"] == "csv" and ns.kind not in _CSV_KINDS:
        problems.append(f"format csv is written only by {', '.join(_CSV_KINDS)}; "
                        f"{ns.kind} always writes JSON")
    vals["outdir"] = vals["outdir"] or os.environ.get("GKDVLAB_OUTDIR") or "."
    if problems:
        raise ValueError("invalid configuration:\n  " + "\n  ".join(problems))
    return RunConfig(kind=ns.kind, **vals), ns.dry_run


def seeded_profile(grid: GridSpec, seed: int, amplitude: float = 1.0) -> Field:
    """Deterministic localized oscillating bump; the standard CLI data."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    center = grid.domain_length * rng.uniform(0.35, 0.65)
    width = grid.domain_length / 25.0
    carrier = 0.8 * (1.0 + 0.1 * rng.standard_normal())
    x = grid.x
    vals = amplitude * np.exp(-(((x - center) / width) ** 2)) \
        * np.cos(carrier * (x - center))
    return Field.from_values(grid, vals)


def _data(cfg: RunConfig) -> Field:
    return seeded_profile(cfg.grid(), cfg.seed, cfg.amplitude)


def _band(cfg: RunConfig):
    if cfg.band_lo is None:
        return None
    return range(cfg.band_lo, cfg.band_hi + 1)


def _write_estimate(cfg: RunConfig, rep: EstimateReport, name: str) -> str:
    rep.config["cli"] = cfg.echo()
    path = os.path.join(cfg.outdir, f"{name}.{cfg.format}")
    atomic_write_text(path, rep.to_csv() if cfg.format == "csv"
                      else rep.to_json() + "\n")
    return path


def _write_json(cfg: RunConfig, payload: Dict, name: str) -> str:
    payload = dict(payload)
    payload["schema_version"] = 1
    payload["config"] = cfg.echo()
    path = os.path.join(cfg.outdir, f"{name}.json")
    atomic_write_text(path, canonical_json(payload) + "\n")
    return path


def _dry_run_plan(cfg: RunConfig) -> str:
    lines = [f"kind: {cfg.kind}"]
    grid = cfg.grid()
    band = _band(cfg) or lp.default_band(grid)
    # 8 B of values plus a 16 B stored bin per two samples
    mem = (grid.num_steps + 1) * grid.num_points * 16 / 1e6
    lines.append(f"grid: L={grid.domain_length} N={grid.num_points} "
                 f"dt={grid.dt:.6g} K={grid.num_steps}")
    lines.append(f"bands: {len(band)} (z={band.start}..{band.stop - 1})")
    if cfg.kind.startswith("verify-"):
        lines.append(f"trials: {cfg.trials}")
    lines.append(f"path memory estimate: {mem:.1f} MB")
    lines.append(f"outputs: {cfg.outdir}")
    return "\n".join(lines)


def _run_solve(cfg: RunConfig) -> int:
    phi = _data(cfg)
    try:
        path = direct_solve(phi, cfg.p)
    except BlowUpError as e:
        # overflow reports sup = inf, which strict json cannot carry
        sup = e.sup if math.isfinite(e.sup) else "overflow"
        _write_json(cfg, {"failure": "blow_up", "time": e.time, "sup": sup},
                    "solve-report")
        return 3
    means = np.real(path.spectral_matrix[:, 0])
    l2s = [l2_norm(s) for s in path]
    save_path(path, os.path.join(cfg.outdir, "solve-path.bin"))
    _write_json(cfg, {
        "mass_drift": float(np.max(np.abs(means - means[0]))
                            * phi.grid.domain_length),
        "l2_initial": l2s[0], "l2_final": l2s[-1],
        "l2_drift": max(abs(v - l2s[0]) for v in l2s),
        "sup_final": float(np.abs(path.values_matrix[-1]).max()),
    }, "solve-report")
    return 0


def _picard_config(cfg: RunConfig, phi: Field) -> PicardConfig:
    # solve_picard never reads contraction_target; 0.9 only passes validation
    return PicardConfig(cfg.p, cfg.T, cfg.max_iters, 0.9, phi, phi.grid,
                        stop_tolerance=cfg.tolerance)


def _run_picard(cfg: RunConfig) -> int:
    if cfg.amplitude_bisect:
        shape = seeded_profile(cfg.grid(), cfg.seed, 1.0)
        thr = amplitude_threshold(shape, cfg.p, max_iters=cfg.max_iters,
                                  stop_tolerance=cfg.tolerance)
        _write_json(cfg, {"amplitude_threshold": thr}, "picard-threshold")
        return 0
    try:
        w, trace = solve_picard(_picard_config(cfg, _data(cfg)))
    except PicardDivergenceError as e:
        atomic_write_text(os.path.join(cfg.outdir, "picard-trace.csv"),
                          e.trace.to_csv())
        _write_json(cfg, {"failure": "divergence",
                          "iterations": len(e.trace.rows)}, "picard-report")
        return 3
    atomic_write_text(os.path.join(cfg.outdir, "picard-trace.csv"),
                      trace.to_csv())
    ci = critical_index(cfg.p)
    _write_json(cfg, {
        "converged": trace.converged,
        "iterations": len(trace.rows),
        "alpha": trace.alpha,
        "ratios": trace.ratios,
        "w_final_norm": trace.rows[-1]["w_norm"] if trace.rows else 0.0,
        "s_p": ci.s_p,
    }, "picard-report")
    return 0


def _run_norms(cfg: RunConfig) -> int:
    phi = _data(cfg)
    ci = critical_index(cfg.p)
    band = _band(cfg)
    rb = besov_report(phi, ci.s_p, band)
    rs = sobolev_report(phi, ci.s_p, band)
    rx = xs_report(free_solution(phi), ci.s_p, band)
    _write_json(cfg, {"besov": rb.to_dict(), "sobolev": rs.to_dict(),
                      "free_path": rx.to_dict()}, "norms-report")
    return 0


def _run_lipschitz(cfg: RunConfig) -> int:
    phi = _data(cfg)
    pc = _picard_config(cfg, phi)
    scales = [cfg.delta_scale * 0.5 ** level for level in range(cfg.levels)]
    records = []
    try:
        # the ratios come one level at a time, so a divergence keeps the
        # levels before it
        for level, (scale, ratio) in enumerate(
                zip(scales, lipschitz_probe(pc, (phi * s for s in scales)))):
            records.append({"level": level, "delta_scale": scale, "ratio": ratio})
    except PicardDivergenceError:
        _write_json(cfg, {"failure": "divergence", "records": records},
                    "lipschitz-report")
        return 3
    _write_json(cfg, {"records": records}, "lipschitz-report")
    return 0


def _run_estimates(cfg: RunConfig) -> int:
    ens = TrialEnsemble(cfg.seed, cfg.trials)
    if cfg.kind == "verify-strichartz":
        if cfg.estimate == "bernstein":
            rep = verify_bernstein_linfty(ens, cfg.p)
        elif cfg.estimate == "interpolated":
            rep = verify_interpolated(ens, cfg.q, cfg.p,
                                      bilinear=cfg.bilinear_form)
        else:
            rep = verify_strichartz(ens, cfg.q)
    elif cfg.kind == "verify-bilinear":
        rep = verify_bilinear(ens)
    else:
        rep = verify_multilinear(ens, cfg.p, cfg.case,
                                 num_points=cfg.points)
    _write_estimate(cfg, rep, cfg.kind.replace("verify-", "") + "-report")
    return 0


def _run_smallness(cfg: RunConfig) -> int:
    _write_json(cfg, l6_smallness_report(_data(cfg), cfg.T, cfg.p),
                "smallness-report")
    return 0


_RUNNERS = {"solve": _run_solve, "picard": _run_picard, "norms": _run_norms,
            "lipschitz": _run_lipschitz, "verify-smallness": _run_smallness}


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        cfg, dry = resolve_config(argv)
    except ValueError as e:
        print(str(e), file=sys.stderr)
        return 2
    if dry:
        print(_dry_run_plan(cfg))
        return 0
    os.makedirs(cfg.outdir, exist_ok=True)
    return _RUNNERS.get(cfg.kind, _run_estimates)(cfg)


if __name__ == "__main__":
    sys.exit(main())

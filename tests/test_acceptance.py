"""Acceptance gate: thirteen numbered criteria, one verdict line each.

Every test prints exactly one line of the form

    criterion NN <label>: PASS|FAIL (<measured numbers>)

and then asserts the same condition, so `pytest -v` shows one pass/fail
line per criterion and `-s` additionally shows the measurements.

Criterion 07's refinement clause follows the tau-quadrature error down
to the rounding floor. n-node Gauss-Legendre is exact for polynomials of
degree up to 2n-1, and at p=5 the integrand f'(low + tau*band) = 5(...)^4
has degree p-1 = 4 in tau, so 3 nodes are already exact. The residual must
therefore drop strictly, by at least 1e3 per step, over 1 -> 2 -> 3 nodes,
and then saturate under 1e-14 at 4, 8 and 16 nodes, where it is rounding
noise whose order is not a property of the method.
"""

import itertools
import math
import time

import numpy as np

from gkdvlab import cli
from gkdvlab import littlewood_paley as lp
from gkdvlab import nonlinearity as nl
from gkdvlab import variation as var
from gkdvlab.airy import evolve, free_solution
from gkdvlab.cli import seeded_profile
from gkdvlab.estimates import (TrialEnsemble, verify_bernstein_linfty,
                               verify_bilinear, verify_multilinear,
                               verify_strichartz)
from gkdvlab.grid import Field, GridSpec, l2_norm, mixed_norm
from gkdvlab.norms import besov_norm, critical_index, rescale, xs_norm
from gkdvlab.picard import (PicardConfig, amplitude_threshold, direct_solve,
                            lipschitz_probe, solve_picard)


def verdict(num: int, label: str, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d} {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def localized_bump(grid: GridSpec, rng: np.random.Generator) -> Field:
    x = grid.x
    center = grid.domain_length * rng.uniform(0.3, 0.7)
    width = rng.uniform(0.03, 0.1) * grid.domain_length
    carrier = rng.uniform(0.0, 1.5)
    amp = rng.uniform(0.5, 2.0)
    vals = amp * np.exp(-((x - center) / width) ** 2) \
        * np.cos(carrier * (x - center))
    return Field.from_values(grid, vals)


def random_field(grid: GridSpec, rng: np.random.Generator) -> Field:
    return Field.from_values(grid, rng.standard_normal(grid.num_points))


def test_c01_spectral_core():
    t0 = time.perf_counter()
    grid = GridSpec(100.0, 4096, 0.01, 4)
    rng = np.random.default_rng(101)
    worst_rt = 0.0
    worst_par = 0.0
    for _ in range(100):
        f = random_field(grid, rng)
        back = Field.from_coefficients(grid, f.coefficients)
        scale_v = float(np.max(np.abs(f.values)))
        worst_rt = max(worst_rt, float(np.max(np.abs(back.values - f.values)))
                       / scale_v)
        again = Field.from_values(grid, f.values)
        scale_c = float(np.max(np.abs(f.coefficients)))
        worst_rt = max(worst_rt,
                       float(np.max(np.abs(again.coefficients - f.coefficients)))
                       / scale_c)
        spectral = grid.domain_length * float(np.abs(f.coefficients) ** 2
                                              @ grid.bin_weights)
        pointwise = grid.weight * float(np.sum(f.values ** 2))
        worst_par = max(worst_par, abs(spectral - pointwise) / pointwise)
    elapsed = time.perf_counter() - t0
    ok = worst_rt <= 1e-12 and worst_par <= 1e-12 and elapsed < 5.0
    verdict(1, "spectral core", ok,
            f"roundtrip {worst_rt:.2e}, parseval {worst_par:.2e}, "
            f"{elapsed:.2f}s of 5s")


def test_c02_partition_and_reconstruction():
    worst_sum = 0.0
    for grid in (GridSpec(50.0, 256, 0.05, 20), GridSpec(200.0, 4096, 0.02, 4)):
        band = lp.default_band(grid)
        total = lp.partition_sum(grid, band)
        xi = np.abs(grid.frequencies)
        covered = (xi > 0) & (xi <= grid.resolvable_max)
        worst_sum = max(worst_sum, float(np.max(np.abs(total[covered] - 1.0))))

    grid = GridSpec(200.0, 1024, 0.05, 20)
    band = lp.default_band(grid)
    rng = np.random.default_rng(202)
    worst_rec = 0.0
    for _ in range(20):
        f = random_field(grid, rng)
        rec = lp.reconstruct(lp.decompose(f, band), lp.mean_mode(f))
        worst_rec = max(worst_rec, l2_norm(rec - f) / l2_norm(f))
    ok = worst_sum <= 1e-12 and worst_rec <= 1e-10
    verdict(2, "scale partition", ok,
            f"partition sum defect {worst_sum:.2e}, "
            f"reconstruction {worst_rec:.2e}")


def test_c03_dispersive_group():
    grid = GridSpec(50.0, 256, 0.05, 20)
    rng = np.random.default_rng(303)
    fields = [random_field(grid, rng) for _ in range(5)]
    worst_uni = 0.0
    worst_grp = 0.0
    for f in fields:
        nrm = l2_norm(f)
        for t in (0.37, -1.3, 4.2):
            worst_uni = max(worst_uni, abs(l2_norm(evolve(f, t)) - nrm) / nrm)
        for s, t in ((0.37, 0.58), (-0.21, 1.7), (2.5, -2.5)):
            two = evolve(evolve(f, s), t)
            one = evolve(f, s + t)
            worst_grp = max(worst_grp, l2_norm(two - one) / nrm)
    worst_com = 0.0
    band = lp.default_band(grid)
    for f in fields[:3]:
        nrm = l2_norm(f)
        moved = evolve(f, 0.41)
        for z in band:
            sc = lp.scale(z)
            comm = evolve(lp.project(f, sc), 0.41) - lp.project(moved, sc)
            worst_com = max(worst_com, l2_norm(comm) / nrm)
    ok = worst_uni <= 1e-12 and worst_grp <= 1e-12 and worst_com <= 1e-12
    verdict(3, "dispersive group", ok,
            f"unitarity {worst_uni:.2e}, group law {worst_grp:.2e}, "
            f"commutation {worst_com:.2e} over {len(band)} scales")


def brute_vp(rows: np.ndarray, weight: float, p: float) -> float:
    """Exhaustive partition search sharing the DP's increment tables, so any
    disagreement isolates the search strategy."""
    D, nrm = var.increment_tables(rows, weight)
    Dp = D ** p
    Tp = nrm ** p
    best = 0.0
    for size in range(1, len(rows) + 1):
        for chain in itertools.combinations(range(len(rows)), size):
            s = 0.0
            for a, b in zip(chain, chain[1:]):
                s = s + Dp[a, b]
            s = s + Tp[chain[-1]]
            if s > best:
                best = s
    return best ** (1.0 / p)


def random_sampled(rng: np.random.Generator) -> tuple:
    """(rows, weight) of a random path. The sample times and a terminal
    switch are drawn and dropped, so the seeded paths are those drawn with
    them."""
    m = int(rng.integers(2, 13))
    dim = int(rng.integers(1, 5))
    vecs = rng.standard_normal((m, dim)) + 1j * rng.standard_normal((m, dim))
    rng.uniform(0.1, 1.0, size=m)
    weight = float(rng.uniform(0.5, 3.0))
    rng.integers(0, 2)
    return vecs, weight


def test_c04_variation_oracle():
    rng = np.random.default_rng(404)
    mismatches = 0
    for _ in range(200):
        rows, w = random_sampled(rng)
        p = float(rng.choice([1.0, 1.5, 2.0, 3.0, 4.5]))
        if var.vp_norm(rows, w, p) != brute_vp(rows, w, p):
            mismatches += 1
    worst_mono = 0.0
    for _ in range(100):
        rows, w = random_sampled(rng)
        p_lo = float(rng.uniform(1.0, 4.0))
        p_hi = p_lo + float(rng.uniform(0.5, 3.0))
        lo, hi = var.vp_norm(rows, w, p_lo), var.vp_norm(rows, w, p_hi)
        if lo > 0:
            worst_mono = max(worst_mono, (hi - lo) / lo)
    ok = mismatches == 0 and worst_mono <= 1e-12
    verdict(4, "variation norms", ok,
            f"{mismatches} of 200 DP/enumeration mismatches, "
            f"monotonicity defect {worst_mono:.2e}")


def test_c05_free_solution_identities():
    grid = GridSpec(100.0, 512, 0.05, 16)
    rng = np.random.default_rng(505)
    s_vals = (critical_index(5.0).s_p, 0.5)
    worst_v2 = 0.0
    worst_xs = 0.0
    for _ in range(50):
        phi = localized_bump(grid, rng)
        path = free_solution(phi)
        nrm = l2_norm(phi)
        worst_v2 = max(worst_v2, abs(var.v2_kdv_norm(path) - nrm) / nrm)
        for s in s_vals:
            ref = besov_norm(phi, s)
            worst_xs = max(worst_xs, abs(xs_norm(path, s) - ref) / ref)
    ok = worst_v2 <= 1e-10 and worst_xs <= 1e-10
    verdict(5, "free-solution identities", ok,
            f"V2 vs L2 {worst_v2:.2e}, flow norm vs scale norm {worst_xs:.2e}")


def test_c06_critical_scaling_invariance():
    grid = GridSpec(200.0, 2048, 1.0 / 32, 32)
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(2):
        phi = localized_bump(grid, rng)
        for p in (5.0, 6.0, 9.0):
            s_p = critical_index(p).s_p
            ref = besov_norm(phi, s_p)
            for m in (20, -20, 50, -50):
                moved = besov_norm(rescale(phi, m, p), s_p)
                worst = max(worst, abs(moved - ref) / ref)
    ok = worst <= 1e-6
    verdict(6, "critical scaling", ok, f"worst relative drift {worst:.2e}")


def three_octave_field(grid: GridSpec, rng: np.random.Generator,
                       lo: float = 0.5) -> Field:
    f = random_field(grid, rng)
    xi = np.abs(grid.frequencies)
    c = f.coefficients * ((xi >= lo) & (xi < 8.0 * lo))
    g = Field.from_coefficients(grid, c)
    return g * (1.0 / l2_norm(g))


def test_c07_telescoping_refinement():
    grid = GridSpec(200.0, 1024, 1.0 / 16, 16)
    rng = np.random.default_rng(707)
    descent_nodes = (1, 2, 3)
    floor_nodes = (4, 8, 16)
    min_drop = 1e3
    floor = 1e-14
    worst_tel = 0.0
    worst_qui = 0.0
    rows = []
    for _ in range(3):
        u = three_octave_field(grid, rng)
        rows.append([nl.telescoping_check(u, 5.0, nodes=n)
                     for n in descent_nodes + floor_nodes])
        worst_tel = max(worst_tel, rows[-1][-1])
        worst_qui = max(worst_qui, nl.quintic_expansion_check(u, 5.0, nodes=8))
    descending = all(r[0] >= min_drop * r[1] and r[1] >= min_drop * r[2]
                     for r in rows)
    saturated = all(max(r[3:]) <= floor for r in rows)
    shown = "; ".join("/".join(f"{x:.2e}" for x in r) for r in rows)
    ok = (worst_tel <= 1e-6 and worst_qui <= 1e-5
          and descending and saturated)
    verdict(7, "band telescoping", ok,
            f"telescoping {worst_tel:.2e} vs 1e-6, "
            f"nested expansion {worst_qui:.2e} vs 1e-5, "
            f"residual at 1/2/3/4/8/16 nodes {shown}; "
            f"drop >= {min_drop:.0e} per step over 1->2->3: {descending}, "
            f"4/8/16 under {floor:.0e}: {saturated}")


def test_c08_dispersive_estimate_slopes():
    t0 = time.perf_counter()
    rep_s = verify_strichartz(TrialEnsemble(seed=815, num_trials=3), 6.0)
    rep_b = verify_bilinear(TrialEnsemble(seed=816, num_trials=3))
    rep_h = verify_bernstein_linfty(TrialEnsemble(seed=817, num_trials=3), 5.0)
    elapsed = time.perf_counter() - t0
    trials_ok = all(len(r.records) <= 200 for r in (rep_s, rep_b, rep_h))
    ok = (abs(rep_s.slope - (-1.0 / 6.0)) <= 0.05
          and abs(rep_b.slope - (-1.0)) <= 0.15
          and abs(rep_h.slope - 0.5) <= 0.07
          and trials_ok and elapsed <= 600.0)
    verdict(8, "estimate slopes", ok,
            f"pair {rep_s.slope:+.4f} vs -1/6 +-0.05, "
            f"crossing {rep_b.slope:+.4f} vs -1 +-0.15, "
            f"height {rep_h.slope:+.4f} vs 1/2 +-0.07, "
            f"{elapsed:.0f}s of 600s")


def test_c09_multilinear_stability():
    near = ((-70, -50, -30, 100, 105),)
    far = ((-190, -170, -150, -120, 120),)
    worst = {}
    for pts in (2048, 4096):
        for case, sched in (("near", near), ("far", far)):
            rep = verify_multilinear(
                TrialEnsemble(seed=909, num_trials=100, schedule=sched),
                6.0, case, num_points=pts)
            worst[(case, pts)] = rep.worst_ratio
    finite = all(math.isfinite(v) and v > 0 for v in worst.values())
    drifts = [worst[(c, 2048)] / worst[(c, 4096)] for c in ("near", "far")]
    stable = all(0.5 < d < 2.0 for d in drifts)

    zero = verify_multilinear(TrialEnsemble(seed=910, num_trials=20), 5.0, "far")
    vanished = all(r["lhs"] == 0.0 for r in zero.records) \
        and zero.worst_ratio == 0.0
    ok = finite and stable and vanished
    verdict(9, "multilinear pairing", ok,
            f"resolution drift near x{drifts[0]:.3f} far x{drifts[1]:.3f} "
            f"(need within x2), disjoint-support pairings exactly zero: "
            f"{vanished} ({len(zero.records)} cases)")


def test_c10_contraction_at_quarter_threshold():
    t0 = time.perf_counter()
    grid = GridSpec(200.0, 1024, 1.0 / 32, 32)
    profile = seeded_profile(grid, 9)
    thr = amplitude_threshold(profile, 5.0, max_iters=10)
    phi = profile * (thr / 4.0)
    cfg = PicardConfig(5.0, grid.horizon, 16, 0.9, phi, grid)
    w, trace = solve_picard(cfg)
    ratios = trace.ratios
    consistency = mixed_norm((free_solution(phi) + w) - direct_solve(phi, 5.0),
                             np.inf, 2.0) / l2_norm(phi)
    elapsed = time.perf_counter() - t0
    ok = (trace.converged and len(trace.rows) <= 8
          and all(q <= 0.5 for q in ratios)
          and consistency <= 1e-5 and elapsed <= 300.0)
    verdict(10, "contraction solver", ok,
            f"threshold {thr:.4f}, {len(trace.rows)} iterations, "
            f"max ratio {max(ratios):.2e}, consistency {consistency:.2e} "
            f"vs 1e-5, {elapsed:.0f}s of 300s")


def test_c11_data_to_solution_stability():
    grid = GridSpec(200.0, 1024, 1.0 / 32, 32)
    profile = seeded_profile(grid, 9)
    phi = profile * 0.17
    cfg = PicardConfig(5.0, grid.horizon, 16, 0.9, phi, grid)
    # the direction must overlap the data: a disjoint bump only probes the
    # quartic self-interaction of the perturbation, not the linear response
    ratios = list(lipschitz_probe(cfg, (profile * (0.02 * 0.5 ** k)
                                        for k in range(5))))
    ok = all(r > 0 and math.isfinite(r) for r in ratios) \
        and max(ratios) <= 2.0 * min(ratios)
    verdict(11, "lipschitz stability", ok,
            f"ratios over four halvings {min(ratios):.3e}..{max(ratios):.3e}, "
            f"spread x{max(ratios) / min(ratios):.3f} of allowed x2")


def test_c12_horizon_sweep():
    base = GridSpec(400.0, 4096, 1.0 / 64, 64)
    x = base.x
    vals = np.exp(-(((x - 120.0) / 1.5) ** 2)) * np.cos(2.5 * (x - 120.0))
    shape = Field.from_values(base, vals)
    thr = amplitude_threshold(shape, 5.0, max_iters=10, rel_tol=0.02)
    coeffs = (shape * (thr / 4.0)).coefficients
    s_p = critical_index(5.0).s_p
    horizons = (1.0, 2.0, 4.0, 8.0)
    norms = []
    for T in horizons:
        steps = int(64 * T)
        g = GridSpec(400.0, 4096, T / steps, steps)
        data = Field.from_coefficients(g, coeffs)
        w, trace = solve_picard(PicardConfig(5.0, T, 16, 0.9, data, g))
        assert trace.converged
        norms.append(xs_norm(w, s_p))
    slope = float(np.polyfit(np.log(horizons), np.log(norms), 1)[0])
    ok = slope < 0.05
    verdict(12, "horizon growth", ok,
            f"correction norms {', '.join(f'{v:.3e}' for v in norms)} "
            f"over T={horizons}, log-log trend {slope:+.4f} vs 0.05")


_CLI_CASES = (
    ["solve", "--points", "1024", "--steps", "32", "--seed", "3",
     "--amplitude", "0.05"],
    ["picard", "--points", "1024", "--steps", "32", "--seed", "9",
     "--amplitude", "0.1"],
    ["norms", "--points", "1024", "--seed", "4"],
    ["lipschitz", "--points", "512", "--steps", "16", "--levels", "2",
     "--seed", "5", "--amplitude", "0.05"],
    ["verify-smallness", "--points", "1024", "--seed", "8"],
    ["verify-strichartz", "--trials", "1", "--seed", "7"],
    ["verify-bilinear", "--trials", "1", "--seed", "11"],
    ["verify-multilinear", "--case", "near", "--trials", "1", "--seed", "6"],
)


def test_c13_cli_determinism(tmp_path):
    unstable = []
    for args in _CLI_CASES:
        outdir = tmp_path / args[0]
        outdir.mkdir()
        # reports echo the output directory, so the rerun reuses it
        rc1 = cli.main(args + ["--outdir", str(outdir)])
        first = {f.name: f.read_bytes() for f in outdir.iterdir()}
        rc2 = cli.main(args + ["--outdir", str(outdir)])
        second = {f.name: f.read_bytes() for f in outdir.iterdir()}
        if not (rc1 == rc2 == 0 and first and first == second):
            unstable.append(args[0])
    ok = not unstable
    verdict(13, "run reproducibility", ok,
            f"{len(_CLI_CASES)} experiment kinds rerun byte-identical"
            + (f"; unstable: {', '.join(unstable)}" if unstable else ""))

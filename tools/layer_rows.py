"""Layer rows of the bernstein shape (the path layers and the sup in space),
or of Picard solves on given grids.

For each cutoff bin of `verify_bernstein_linfty` (L=400, N=131072, K=12)
and each source tree given, a fresh process runs one bernstein op at that
bin (caches cold, then filled), timing that cold op in CPU seconds
(time.process_time) and counting the values it passes to `lp.bump` while it
builds its band blocks and low-pass row, then times in CPU seconds:

- `mixed_norm(low, inf, inf)` of a new low-pass path per call, the median
  of CALLS calls (`low` is `free_solution(lp.band_piece(phi, z, "leq"))`
  for `phi = flat_field(grid, bin, default_rng(bin))`, as in the op);
- the layers of the op, each the median of CALLS calls: the low-pass path
  built both ways, `free_solution(lp.band_piece(phi, z, "leq"))` (project,
  then evolve) and `lp.band_piece(free_solution(phi), z, "leq")` (evolve,
  then project), and the critical norm both ways, `besov_norm(phi, s_p)` of
  the data and `xs_report(free_solution(phi), s_p)` of the path; both forms
  run in every tree, whichever of them its op runs;
- the whole op at that bin, the median of OPS ops;

and reports the peak traced allocation of one more warm op (tracemalloc),
the process's peak RSS (ru_maxrss) and three deterministic counts: the
band blocks the cold op built (`_Bank.built` of the op's frequency set),
the sample points (rows x transform length, summed over calls) that one
`mixed_norm(low, inf, inf)` call passes through `grid.to_samples`, and the
band blocks (`_Bank.block` reads) of one `xs_report(path, s_p)`. Processes
alternate between the trees; each list in a row holds the sorted values of PROCS
processes. OPENBLAS_NUM_THREADS is pinned to 1 in every child.

    python tools/layer_rows.py parent=/path/to/parent/checkout change=.

takes the trees as LABEL=PATH and the bins from --bins (default: all ten).

With --picard "L,N,K,T ..." it times `solve_picard` instead, on each grid
(L, N, K, T) for the picard workload's packet of seed 303
(perfbench/workloads.py; dt = T/K): a fresh process solves once (caches
filled), then reports the median of SOLVES warm solves, the CPU seconds spent
in `xs_norm` (as `picard` calls it), in its DP bound `norms._dp_bounds` and in
`power_spectra` during that solve, the band blocks read in one warm solve
(deterministic), the minor page faults (ru_minflt) per timed solve, the
process's peak RSS (ru_maxrss) after the timed solves, and the peak traced
allocation (tracemalloc) of one more warm solve, run after them. The last
two split an RSS change into working set and allocator: the traced peak
follows the arrays the solve holds at once, while the RSS also holds what
the allocator keeps mapped.

    python tools/layer_rows.py parent=... change=. --picard "400,4096,64,1 400,4096,256,4"

prints one JSON list of rows, one per (bin, tree), in BENCH_*.json form.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
import tracemalloc

BINS = (25, 55, 120, 265, 580, 1270, 2790, 6130, 13470, 29600)
GRID = (400.0, 131072, 1e-3, 12)
PROCS, CALLS, OPS, SOLVES = 3, 7, 5, 5
PICARD_SEED = 303


def _median(xs):
    xs = sorted(xs)
    return xs[len(xs) // 2]


def _count_blocks(lp, run):
    """_Bank.block reads while run() runs."""
    read, block = [], lp._Bank.block
    lp._Bank.block = lambda self, b: read.append(b) or block(self, b)
    try:
        run()
    finally:
        lp._Bank.block = block
    return len(read)


def measure(top_bin: int) -> dict:
    """One bin's timings in this process (gkdvlab importable)."""
    import math

    import numpy as np

    from gkdvlab import estimates, grid, littlewood_paley as lp, norms
    from gkdvlab.airy import free_solution

    g = grid.GridSpec(*GRID)
    z = int(round(math.log(top_bin * g.delta_xi) / math.log(lp.BASE)))
    op = lambda: estimates.verify_bernstein_linfty(  # noqa: E731
        estimates.TrialEnsemble(top_bin, 1, schedule=(top_bin,)), 5.0)
    bump, values = lp.bump, []
    lp.bump = lambda s: values.append(np.size(s)) or bump(s)
    try:
        t = time.process_time()
        op()
        cold_s = time.process_time() - t
    finally:
        lp.bump = bump
    built = len(lp._bank(g.domain_length, g.num_points).built)
    phi = estimates.flat_field(g, top_bin, np.random.default_rng(top_bin))
    s_p = norms.critical_index(5.0).s_p
    path = free_solution(phi)
    layers = {  # both forms of the low-pass path and of the critical norm
        "free_solution_of_band_piece": lambda: free_solution(lp.band_piece(phi, z, "leq")),
        "band_piece_of_free_solution": lambda: lp.band_piece(free_solution(phi), z, "leq"),
        "besov_norm_of_data": lambda: norms.besov_norm(phi, s_p),
        "xs_report_of_path": lambda: norms.xs_report(path, s_p),
    }
    layers_s = {}
    for name, layer in layers.items():
        calls = []
        for _ in range(CALLS):
            t = time.process_time()
            layer()
            calls.append(time.process_time() - t)
        layers_s[name] = _median(calls)
    sup_s = []
    for _ in range(CALLS):
        low = layers["free_solution_of_band_piece"]()
        t = time.process_time()
        grid.mixed_norm(low, np.inf, np.inf)
        sup_s.append(time.process_time() - t)
    real, points = grid.to_samples, []
    grid.to_samples = lambda c, m: points.append(c[..., 0].size * m) or real(c, m)
    try:
        grid.mixed_norm(low, np.inf, np.inf)
    finally:
        grid.to_samples = real
    blocks = _count_blocks(lp, lambda: norms.xs_report(path, s_p))
    tracemalloc.start()
    op()
    op_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    op_s = []
    for _ in range(OPS):
        t = time.process_time()
        op()
        op_s.append(time.process_time() - t)
    return {"sup_s": _median(sup_s), "op_s": _median(op_s),
            "layers_s": layers_s,
            "op_peak_mb": op_peak / 2.0 ** 20,
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "sup_points": sum(points), "blocks": blocks, "built": built,
            "cold_s": cold_s, "bump_values": sum(values)}


def _picard_grid(arg: str):
    """(L, N, K, T) from "L,N,K,T"."""
    length, n, k, horizon = arg.split(",")
    return float(length), int(n), int(k), float(horizon)


def measure_picard(grid_arg: str, tree: str) -> dict:
    """One Picard grid's timings in this process (gkdvlab importable)."""
    sys.path.insert(0, os.path.join(tree, "perfbench"))
    from workloads import Picard

    from gkdvlab import grid, littlewood_paley as lp, norms, picard

    length, n, k, horizon = _picard_grid(grid_arg)
    wl = Picard()
    wl.T, wl.grid = horizon, grid.GridSpec(length, n, horizon / k, k)
    phi = wl.inputs(PICARD_SEED, 1)[0]
    spent = {"xs": 0.0, "dp": 0.0, "power": 0.0}

    def timed(key, fn):
        def wrapper(*args, **kwargs):
            t = time.process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[key] += time.process_time() - t
        return wrapper

    wl.op(phi)
    blocks = _count_blocks(lp, lambda: wl.op(phi))
    real = picard.xs_norm, norms._dp_bounds, picard.power_spectra
    picard.xs_norm, norms._dp_bounds, picard.power_spectra = (
        timed(key, fn) for key, fn in zip(("xs", "dp", "power"), real))
    rounds, minflt = [], resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(SOLVES):
        spent.update(xs=0.0, dp=0.0, power=0.0)
        t = time.process_time()
        wl.op(phi)
        rounds.append((time.process_time() - t, spent["xs"], spent["dp"], spent["power"]))
    usage = resource.getrusage(resource.RUSAGE_SELF)
    picard.xs_norm, norms._dp_bounds, picard.power_spectra = real
    tracemalloc.start()
    wl.op(phi)
    traced_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    solve_s, xs_s, dp_s, power_s = _median(rounds)
    return {"solve_s": solve_s, "xs_s": xs_s, "dp_s": dp_s, "power_s": power_s, "blocks": blocks,
            "minflt": (usage.ru_minflt - minflt) / SOLVES, "traced_peak_mb": traced_peak / 2.0 ** 20,
            "rss_mb": usage.ru_maxrss / 1024.0}


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trees", nargs="+", help="LABEL=PATH of a source checkout")
    ap.add_argument("--bins", default=",".join(map(str, BINS)))
    ap.add_argument("--picard", metavar="GRIDS",
                    help='Picard rows on the grids "L,N,K,T L,N,K,T ..." instead')
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not all("=" in t for t in args.trees):
        ap.error("trees are given as LABEL=PATH")
    trees = [t.split("=", 1) for t in args.trees]
    if args.child is not None:
        import gkdvlab
        tree = os.path.join(os.path.abspath(trees[0][1]), "src")
        if not os.path.abspath(gkdvlab.__file__).startswith(tree + os.sep):
            raise SystemExit(f"gkdvlab imported from {gkdvlab.__file__}, not {tree}")
        print(json.dumps(measure_picard(args.child, os.path.abspath(trees[0][1]))
                         if args.picard else measure(int(args.child))))
        return
    got = {}
    cases = args.picard.split() if args.picard else args.bins.split(",")
    for k in range(PROCS):
        for case in cases:
            for label, path in (trees if k % 2 == 0 else trees[::-1]):
                env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                           PYTHONPATH=os.path.join(os.path.abspath(path), "src"))
                mode = ["--picard", args.picard] if args.picard else []
                out = subprocess.run(
                    [sys.executable, os.path.abspath(__file__), f"{label}={path}",
                     *mode, "--child", case],
                    env=env, check=True, capture_output=True, text=True).stdout
                got.setdefault((case, label), []).append(json.loads(out))
    if args.picard:
        rows = [{"grid": list(_picard_grid(g)), "side": label,
                 "layer": f"picard.solve_picard warm, picard workload packet of seed {PICARD_SEED}",
                 "solve_warm_p50_s": sorted(round(r["solve_s"], 4) for r in runs),
                 "xs_norm_in_solve_s": sorted(round(r["xs_s"], 4) for r in runs),
                 "dp_bounds_in_solve_s": sorted(round(r["dp_s"], 4) for r in runs),
                 "power_spectra_in_solve_s": sorted(round(r["power_s"], 4) for r in runs),
                 "band_blocks_read_per_solve": runs[0]["blocks"],
                 "minflt_per_solve": sorted(round(r["minflt"]) for r in runs),
                 "traced_peak_mb": sorted(round(r["traced_peak_mb"], 2) for r in runs),
                 "peak_rss_mb": sorted(round(r["rss_mb"], 1) for r in runs)}
                for (g, label), runs in got.items()]
        print(json.dumps(rows, indent=1))
        return
    rows = [{"grid": [GRID[0], GRID[1], GRID[3]], "cutoff_bin": int(b), "side": label,
             "layer": "grid.mixed_norm(low, inf, inf) warm",
             "mixed_norm_warm_p50_s": sorted(round(r["sup_s"], 4) for r in runs),
             "mixed_norm_sample_points": runs[0]["sup_points"],
             "band_sums_blocks_read": runs[0]["blocks"],
             "bank_blocks_built_by_cold_op": runs[0]["built"],
             "cold_op_s": sorted(round(r["cold_s"], 4) for r in runs),
             "bump_values": runs[0]["bump_values"],
             **{f"{name}_warm_p50_s": sorted(round(r["layers_s"][name], 6) for r in runs)
                for name in runs[0]["layers_s"]},
             "bernstein_op_warm_p50_s": sorted(round(r["op_s"], 4) for r in runs),
             "bernstein_op_tracemalloc_peak_mb": sorted(round(r["op_peak_mb"], 2) for r in runs),
             "peak_rss_mb": sorted(round(r["rss_mb"], 1) for r in runs)}
            for (b, label), runs in got.items()]
    print(json.dumps(rows, indent=1))


if __name__ == "__main__":
    main()

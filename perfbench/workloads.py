"""The benchmark's workloads: seeded inputs, the timed op, and its checks.

Each workload makes every op input from the run seed before timing starts
(`inputs`; `verify_input` is the input of the first op, on a fixed seed),
runs one op per `op` call, and checks each op's output outside the timed
region (`check`, which returns a list of problems). `values` picks the
numbers compared with the recorded reference values of the verification
input, and `digest` fingerprints an output bit for bit, so a traced op can
be shown to return exactly what an untraced op returns. `check_run` makes
the once-per-run checks.

Calls into gkdvlab go through module attributes (``picard.solve_picard``)
so that the tracer's wrappers see them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from collections import defaultdict

import numpy as np

from gkdvlab import estimates, grid, littlewood_paley as lp, picard

HERE = os.path.dirname(os.path.abspath(__file__))
VERIFY_SEED = 20120923

# relative drift allowed against the recorded reference values: room for
# reassociated sums and real transforms, far below what a wrong result moves
REFERENCE_RTOL = 1e-6
REFERENCE_ATOL = 1e-14


def _seed(*parts: int) -> int:
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part).tobytes()
                 if isinstance(part, np.ndarray) else repr(part).encode())
    return h.hexdigest()


class Workload:
    """Defaults shared by the workloads."""

    def verify_input(self):
        return self.inputs(VERIFY_SEED, 1)[0]

    def traced_op(self, tracer, op_id, inp):
        """(output, seconds, self time per metric, inclusive time per span
        name, counts) of one traced op."""
        out, seconds = tracer.run_op(op_id, self.op, inp)
        return (out, seconds, tracer.layer_times(op_id),
                tracer.inclusive_times(op_id), dict(tracer.counts[op_id]))

    def check_run(self, vals):
        """Once-per-run checks over the values of the run's ops."""
        return []


class Picard(Workload):
    """`solve_picard` on c12's grid at its first horizon, T = 1, for a
    Gaussian packet whose centre comes from the seed."""

    name = "picard"
    L, N, K, T, P = 400.0, 4096, 64, 1.0, 5.0
    AMPLITUDE, WIDTH, CARRIER = 0.25, 1.5, 2.5
    ORACLE_TOL = 1e-5  # c10's consistency bound against direct_solve

    def __init__(self):
        self.grid = grid.GridSpec(self.L, self.N, self.T / self.K, self.K)

    def inputs(self, seed: int, count: int):
        centre = np.random.default_rng(seed).uniform(0.25 * self.L, 0.75 * self.L)
        x = self.grid.x
        vals = self.AMPLITUDE * np.exp(-(((x - centre) / self.WIDTH) ** 2)) \
            * np.cos(self.CARRIER * (x - centre))
        phi = grid.Field.from_values(self.grid, vals)
        return [phi] * count

    def op(self, phi):
        cfg = picard.PicardConfig(self.P, self.T, 16, 0.9, phi, self.grid)
        return picard.solve_picard(cfg)

    def check(self, phi, out):
        _, trace = out
        problems = []
        if not trace.converged:
            problems.append("picard did not converge")
        bad = [r for r in trace.ratios if not r <= 0.5]
        if bad:
            problems.append(f"picard contraction ratios above 0.5: {bad}")
        return problems

    def values(self, out):
        _, trace = out
        rows = trace.rows
        return {"iterations": len(rows), "alpha": trace.alpha,
                "w_norm_first": rows[0]["w_norm"],
                "diff_norm_second": rows[1]["diff_norm"],
                "residual_last": rows[-1]["residual"]}

    def digest(self, out):
        w, trace = out
        return _sha(w.spectral_matrix, trace.rows)

    def check_run(self, vals):
        """c10's gate against the IFRK4 oracle, on c10's grid and data (the
        profile of seed 9 at c11's amplitude 0.17): sup-in-time L2 distance
        over ||phi|| at most 1e-5. At this workload's own shape the two
        solvers differ by about 2e-4 of ||phi|| (see CHANGES.md), so the
        oracle runs where the Picard time quadrature resolves the flow."""
        from gkdvlab import airy, cli
        g = grid.GridSpec(200.0, 1024, 1.0 / 32, 32)
        phi = cli.seeded_profile(g, 9) * 0.17
        w, _ = picard.solve_picard(
            picard.PicardConfig(self.P, g.horizon, 16, 0.9, phi, g))
        err = grid.mixed_norm((airy.free_solution(phi) + w)
                              - picard.direct_solve(phi, self.P),
                              np.inf, 2.0) / grid.l2_norm(phi)
        if not err <= self.ORACLE_TOL:
            return [f"picard differs from direct_solve by {err:.3e} "
                    f"(allowed {self.ORACLE_TOL:g})"]
        return []


class Bernstein(Workload):
    """`verify_bernstein_linfty`, one trial and one cutoff bin per op."""

    name = "bernstein"
    P = 5.0
    # the default cutoff bins of verify_bernstein_linfty, in sweep order
    BINS = (25, 55, 120, 265, 580, 1270, 2790, 6130, 13470, 29600)
    VERIFY_BIN = 29600  # the bin that holds the most band symbols at once
    SLOPE, SLOPE_TOL = 0.5, 0.07  # c08's gate on a full sweep
    SANDWICH_RTOL = 1e-9

    def inputs(self, seed: int, count: int):
        """Op i takes bin i mod 10; one ensemble seed per 10-bin cycle."""
        return [(_seed(seed, i // len(self.BINS)), self.BINS[i % len(self.BINS)])
                for i in range(count)]

    def verify_input(self):
        return (_seed(VERIFY_SEED, 0), self.VERIFY_BIN)

    def op(self, inp):
        ens_seed, top_bin = inp
        ens = estimates.TrialEnsemble(ens_seed, 1, schedule=(top_bin,))
        return estimates.verify_bernstein_linfty(ens, self.P)

    def check(self, inp, rep):
        """For phase-aligned data the sup sits between 2 sum leq_b c_b
        (attained at t = 0, x = 0) and 2 sum c_b."""
        ens_seed, top_bin = inp
        L, n, dt, k = rep.config["grid"]
        g = grid.GridSpec(L, int(n), dt, int(k))
        rng = estimates.TrialEnsemble(ens_seed, 1).rng(0)
        c = estimates.flat_field(g, top_bin, rng).coefficients.real[1:top_bin + 1]
        rec = rep.records[0]
        z = int(round(math.log(rec["lam"]) / math.log(lp.BASE)))
        leq = lp.leq_symbol(lp.scale(z), g.frequencies[1:top_bin + 1])
        lower, upper = 2.0 * float(leq @ c), 2.0 * float(c.sum())
        lhs = rec["lhs"]
        tol = self.SANDWICH_RTOL * upper
        if not (lower - tol <= lhs <= upper + tol):
            return [f"bernstein bin {top_bin}: lhs {lhs!r} outside "
                    f"[{lower!r}, {upper!r}]"]
        return []

    def check_run(self, vals):
        """c08's slope gate on every complete 10-bin cycle of the run: the
        slope of log(lhs / xs) against log(lam), xs = rhs / lam^(1/2 - s_p)."""
        s_p = 0.5 - 2.0 / (self.P - 1.0)
        per = len(self.BINS)
        problems = []
        for start in range(0, len(vals) - per + 1, per):
            cyc = vals[start:start + per]
            lam = np.array([v["lam"] for v in cyc])
            ratio = np.array([v["lhs"] / v["rhs"] for v in cyc]) * lam ** (0.5 - s_p)
            slope = float(np.polyfit(np.log(lam), np.log(ratio), 1)[0])
            if not abs(slope - self.SLOPE) <= self.SLOPE_TOL:
                problems.append(f"bernstein cycle from op {start}: slope "
                                f"{slope:.4f} outside {self.SLOPE}+-{self.SLOPE_TOL}")
        return problems

    def values(self, rep):
        rec = rep.records[0]
        return {"lam": rec["lam"], "lhs": rec["lhs"], "rhs": rec["rhs"]}

    def digest(self, rep):
        return _sha(rep.to_json())


class CliSuite(Workload):
    """One pass over the c13 CLI cases other than verify-bilinear, each in a
    fresh interpreter started through perfbench/cli_child.py."""

    name = "cli-suite"
    CASES = (
        ["solve", "--points", "1024", "--steps", "32", "--seed", "3",
         "--amplitude", "0.05"],
        ["picard", "--points", "1024", "--steps", "32", "--seed", "9",
         "--amplitude", "0.1"],
        ["norms", "--points", "1024", "--seed", "4"],
        ["lipschitz", "--points", "512", "--steps", "16", "--levels", "2",
         "--seed", "5", "--amplitude", "0.05"],
        ["verify-smallness", "--points", "1024", "--seed", "8"],
        ["verify-strichartz", "--trials", "1", "--seed", "7"],
        ["verify-multilinear", "--case", "near", "--trials", "1", "--seed", "6"],
    )
    CHILD_TIMEOUT = 120.0

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.first_pass = {}  # output directories -> the first pass's results

    def inputs(self, seed: int, count: int):
        """The cases with their seeds offset by the run seed; every pass of
        a run reuses one output directory per case, since reports echo it."""
        cases = []
        for args in self.CASES:
            args = list(args)
            i = args.index("--seed") + 1
            args[i] = str(int(args[i]) + seed)
            outdir = os.path.join(self.workdir, f"seed{seed}", args[0])
            cases.append((args, outdir))
        return [cases] * count

    def op(self, cases, trace=False):
        results = []
        for args, outdir in cases:
            os.makedirs(outdir, exist_ok=True)
            cmd = [sys.executable, os.path.join(HERE, "cli_child.py")]
            if trace:
                cmd += ["--spans", self._spans_file(args[0])]
            cmd += ["--"] + args + ["--outdir", outdir]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=self.CHILD_TIMEOUT)
            res = _last_json(proc.stdout) if proc.returncode == 0 else {}
            res["returncode"] = proc.returncode
            res["kind"] = args[0]
            res["files"] = {name: _read(os.path.join(outdir, name))
                            for name in sorted(os.listdir(outdir))}
            results.append(res)
        return results

    def check(self, cases, results):
        problems = [f"cli {r['kind']}: exit code {r['returncode']}"
                    for r in results if r["returncode"] != 0]
        problems += [f"cli {r['kind']}: no report written"
                     for r in results if not r["files"]]
        # c13: every pass over the same cases writes byte-identical reports
        key = tuple(outdir for _, outdir in cases)
        first = self.first_pass.setdefault(key, results)
        if first is not results:
            problems += [f"cli {b['kind']}: reports differ between passes"
                         for a, b in zip(first, results) if a["files"] != b["files"]]
        return problems

    def values(self, results):
        """Every number in the JSON and CSV reports, outside the echoed
        config (which holds the output directory)."""
        out = {}
        for r in results:
            for name, blob in r["files"].items():
                prefix = f"{r['kind']}/{name}"
                if name.endswith(".json"):
                    doc = json.loads(blob)
                    doc.pop("config", None)
                    _flatten(doc, prefix, out)
                elif name.endswith(".csv"):
                    rows = blob.decode().splitlines()
                    for i, row in enumerate(rows[1:]):
                        for j, cell in enumerate(row.split(",")):
                            if cell:
                                out[f"{prefix}[{i}][{j}]"] = float(cell)
                else:
                    out[f"{prefix}:bytes"] = len(blob)
        return out

    def digest(self, results):
        return _sha([(r["kind"], sorted(r["files"].items())) for r in results])

    def _spans_file(self, kind):
        return os.path.join(self.workdir, f"spans-{kind}.npz")

    def traced_op(self, tracer, op_id, cases):
        """A pass whose children trace themselves. Each child's fresh import
        and main() call count as covered time; its spans join the tracer's."""
        start = time.perf_counter()
        results = self.op(cases, trace=True)
        seconds = time.perf_counter() - start
        layers, inclusive, counts = (defaultdict(float), defaultdict(float),
                                     defaultdict(int))
        for r in results:
            if r["returncode"] != 0:
                continue
            for key, val in r["layers"].items():
                if key != "covered_s":
                    layers[key] += val
            for key, val in r["inclusive"].items():
                inclusive[key] += val
            for key, val in r["counts"].items():
                counts[key] += val
            layers["cli.startup_s"] += r["startup_s"] / len(results)
            layers[f"cli.{r['kind']}_s"] += r["main_s"]
            layers["covered_s"] += r["startup_s"] + r["main_s"]
            tracer.load(self._spans_file(r["kind"]), op_id)
        return results, seconds, dict(layers), dict(inclusive), dict(counts)


def _flatten(doc, prefix, out):
    if isinstance(doc, dict):
        for k, v in doc.items():
            _flatten(v, f"{prefix}.{k}", out)
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            _flatten(v, f"{prefix}[{i}]", out)
    elif isinstance(doc, bool) or doc is None or isinstance(doc, str):
        out[prefix] = doc
    else:
        out[prefix] = float(doc)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _last_json(text: str) -> dict:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    return json.loads(lines[-1]) if lines else {}


def compare_reference(got: dict, want: dict):
    """Problems where recorded reference values and this run disagree."""
    problems = []
    for key in sorted(set(got) | set(want)):
        if key not in got or key not in want:
            problems.append(f"reference key {key} missing on one side")
            continue
        a, b = got[key], want[key]
        if isinstance(a, float) or isinstance(b, float):
            if not (isinstance(a, (int, float)) and isinstance(b, (int, float))
                    and abs(a - b) <= REFERENCE_RTOL * max(abs(a), abs(b))
                    + REFERENCE_ATOL):
                problems.append(f"reference {key}: {a!r} vs recorded {b!r}")
        elif a != b:
            problems.append(f"reference {key}: {a!r} vs recorded {b!r}")
    return problems


WORKLOADS = {"picard": Picard, "bernstein": Bernstein, "cli-suite": CliSuite}

"""The workload process: a fresh interpreter for one run of one workload.

usage: python3 perfbench/worker.py --workload W --seed S --seconds R
                                   --workdir DIR [--trace]
                                   [--setup-only | --cold-only]

Prints "ready" and the CPU seconds spent so far once gkdvlab is imported
and every op input of the run is made from the seed; with --setup-only it
exits there. Then it runs the first op, on the fixed verification seed;
with --cold-only it reports that op and exits. Otherwise it goes on with
the closed loop of warm ops on the run's inputs (one client: the next op
starts when the previous one has finished and been checked) until the ops
have taken R seconds of wall time. With --trace each warm op is followed
by a traced op on the same input, and both count towards the R seconds.
Op times are CPU seconds (cpu_seconds). The last line printed is one JSON
object with the timings, the check results and, when traced, the
per-layer numbers.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

MAX_OPS = 500


def cpu_seconds() -> float:
    """CPU seconds this process and its waited-for children have run. On a
    shared virtual machine the wall clock also counts time the hypervisor
    gives to other guests (steal), up to 40 s in a 60 s run; the CPU clocks
    of the guest leave it out."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(traced, untraced_s):
    """Per-op layer numbers from the traced ops: self times averaged over
    the traced ops, counts from the first traced op (they repeat exactly for
    a seed), and the overhead against the untraced ops of the same inputs."""
    seconds = [t["seconds"] for t in traced]
    times, inclusive = {}, {}
    for t in traced:
        for key, val in t["layers"].items():
            times[key] = times.get(key, 0.0) + val / len(traced)
        for key, val in t["inclusive"].items():
            inclusive[key] = inclusive.get(key, 0.0) + val / len(traced)
    times["bench.unattributed_s"] = statistics.fmean(
        t["seconds"] - t["layers"].get("covered_s", 0.0) for t in traced)
    times.pop("covered_s", None)
    counts = traced[0]["counts"]
    out = dict(times)
    out.update(counts)
    out["littlewood_paley.symbol_hit_ratio"] = _ratio(
        counts.get("littlewood_paley.symbol_calls", 0)
        - counts.get("littlewood_paley.symbol_computes", 0),
        counts.get("littlewood_paley.symbol_calls", 0))
    out["norms.xs_solved_ratio"] = _ratio(
        counts.get("norms.xs_bands_solved", 0),
        counts.get("norms.xs_bands_in_range", 0))
    out["bench.trace_overhead"] = (statistics.median(seconds)
                                   / statistics.median(untraced_s) - 1.0)
    out["bench.traced_ops"] = len(traced)
    return out, inclusive


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--cold-only", action="store_true")
    args = ap.parse_args()

    import workloads
    from tracing import Tracer
    cls = workloads.WORKLOADS[args.workload]
    wl = cls(args.workdir) if cls is workloads.CliSuite else cls()
    inputs = wl.inputs(args.seed, MAX_OPS)
    verify_inp = wl.verify_input()
    print(f"ready {cpu_seconds()!r}", flush=True)
    if args.setup_only:
        return 0

    problems, vals = [], []
    attempted = failed = 0

    def tally(label, found):
        nonlocal attempted, failed
        attempted += 1
        if found:
            failed += 1
            problems.extend(f"op {label}: {p}" for p in found)

    # the first op runs on the fixed verification seed: it is timed cold,
    # and its output is compared with the recorded reference values
    with open(os.path.join(HERE, "reference.json")) as fh:
        want = json.load(fh)[args.workload]
    c = cpu_seconds()
    out = wl.op(verify_inp)
    first_s = cpu_seconds() - c
    tally("verify", wl.check(verify_inp, out)
          + workloads.compare_reference(wl.values(out), want))
    if args.cold_only:
        print(json.dumps({"first_op_s": first_s, "attempted": attempted,
                          "failed": failed, "problems": problems}), flush=True)
        return 0

    warm_s, warm_wall_s, traced = [], [], []
    tracer = Tracer() if args.trace else None
    measured = 0.0
    i = 0
    while i < MAX_OPS and (not warm_s or measured < args.seconds):
        inp = inputs[i]
        c, t = cpu_seconds(), time.perf_counter()
        out = wl.op(inp)
        warm_wall_s.append(time.perf_counter() - t)
        warm_s.append(cpu_seconds() - c)
        measured += warm_wall_s[-1]
        tally(i, wl.check(inp, out))
        vals.append(wl.values(out))
        if tracer is not None:
            t_out, t_s, layers, inclusive, counts = wl.traced_op(tracer, i, inp)
            found = wl.check(inp, t_out)
            if wl.digest(t_out) != wl.digest(out):
                found.append("traced output differs from the untraced op's")
            tally(f"{i} traced", found)
            traced.append({"seconds": t_s, "layers": layers,
                           "inclusive": inclusive, "counts": counts})
            measured += t_s
        i += 1
    problems += wl.check_run(vals)

    who = resource.RUSAGE_CHILDREN if cls is workloads.CliSuite \
        else resource.RUSAGE_SELF
    result = {"first_op_s": first_s, "warm_s": warm_s, "warm_wall_s": warm_wall_s,
              "attempted": attempted, "failed": failed, "problems": problems,
              "peak_rss_kb": resource.getrusage(who).ru_maxrss}
    if tracer is not None:
        result["layers"], result["inclusive"] = per_layer(traced, warm_wall_s)
        result["untraced_targets"] = tracer.missing
        path = os.path.join(args.workdir,
                            f"spans-{args.workload}-seed{args.seed}.npz")
        tracer.save(path)
        result["spans_file"] = path
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

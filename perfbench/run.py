"""gkdvlab benchmark: one seeded closed-loop workload per run.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it runs the gkdvlab sources under
src/ as they are (pure Python, nothing to build). Each run starts the
workload in fresh interpreters with OPENBLAS_NUM_THREADS=1:

* eight extra starts, half before and half after the workload process,
  and the workload process itself give nine set-up times (interpreter
  start, gkdvlab import, seeded inputs);
* the workload process runs the first op, on a fixed verification seed,
  and warm ops for S seconds of wall time (see worker.py and
  workloads.py);
* with --trace 0, COLD_STARTS[workload] of the extra starts also run that
  first op and exit, so the reported first op is a median over several
  fresh processes; the others exit once set up.

Set-up and op times are CPU seconds of the worker and the processes it
waits for (see worker.cpu_seconds), so that time the hypervisor gives to
other guests stays out of them.

With --trace 0 it reports the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer metrics from spans around each layer's functions.
A readable table comes first; the last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. Scratch files
go under .bench_build/perfbench/ in the checkout.
"""

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

import report

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
EXTRA_STARTS = 8
# extra starts that also time the first op: one cold op is a single sample
# of a machine whose speed moves by tens of percent from minute to minute;
# bernstein's cold op takes 7-9 s, so it gets one extra start, not two
COLD_STARTS = {"picard": 2, "bernstein": 1, "cli-suite": 2}
RUN_LIMIT_S = 170.0  # the worker is killed beyond this, the run fails
BLAS_THREADS = "1"


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def start_worker(argv, env, deadline):
    """Start a worker and wait for its "ready" line; (process, CPU seconds
    the worker spent getting ready)."""
    proc = subprocess.Popen([sys.executable, WORKER] + argv, cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    ready, _, _ = select.select([proc.stdout], [], [],
                                max(deadline - time.monotonic(), 0.0))
    words = (proc.stdout.readline() if ready else "").split()
    if len(words) != 2 or words[0] != "ready":
        stop(proc)
        raise RuntimeError(f"worker did not become ready: {words!r}")
    return proc, float(words[1])


def run_worker(argv, env, deadline):
    """Run a worker to its end; (its last output line as JSON, or None when
    it printed nothing after "ready"; set-up seconds)."""
    proc, seconds = start_worker(argv, env, deadline)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    finally:
        stop(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    lines = out.strip().splitlines()
    return (json.loads(lines[-1]) if lines else None), seconds


def stop(proc) -> None:
    """Kill the worker and everything it started, and wait for it."""
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    proc.wait()


def steal_ticks():
    """CPU time the hypervisor gave to other guests, in clock ticks since
    boot (the steal column of /proc/stat), or None where there is none."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def environment(load_before, steal_before) -> dict:
    import numpy
    steal_after = steal_ticks()
    steal = None if None in (steal_before, steal_after) else \
        (steal_after - steal_before) / os.sysconf("SC_CLK_TCK")
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "OPENBLAS_NUM_THREADS": BLAS_THREADS,
            "loadavg_before": [round(v, 2) for v in load_before],
            "loadavg_after": [round(v, 2) for v in os.getloadavg()],
            "cpu_steal_s": steal}


def end_to_end(setup_s, first_s, res) -> dict:
    warm = res["warm_s"]
    return {"setup_s": statistics.median(setup_s),
            "first_op_s": statistics.median(first_s),
            "op_p50_s": statistics.median(warm),
            "ops_per_min": 60.0 * len(warm) / sum(warm),
            "peak_rss_mb": res["peak_rss_kb"] / 1024.0}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench_file = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "gkdvlab", "__init__.py")):
        return fail(f"no gkdvlab sources under {ROOT}/src")
    if not os.path.isfile(bench_file):
        return fail(f"no BENCHMARK.json in {ROOT}")
    with open(bench_file) as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        return fail(f"unknown workload {args.workload!r}")
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    if args.seed < 0:
        return fail("--seed must not be negative")

    load_before, steal_before = os.getloadavg(), steal_ticks()
    deadline = time.monotonic() + RUN_LIMIT_S
    scratch = os.path.join(ROOT, ".bench_build", "perfbench")
    workdir = os.path.join(scratch, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS)
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--workdir", workdir]

    # the extra starts go before and after the workload process, so that
    # the medians do not rest on one stretch of the machine's speed
    cold = 0 if args.trace else COLD_STARTS[args.workload]
    extra = ["--cold-only"] * cold + ["--setup-only"] * (EXTRA_STARTS - cold)
    setup_s, first_s, res, colds = [], [], {}, []
    try:
        for flag in extra[0::2]:
            colds.append(run_worker(argv + [flag], env, deadline))
        res, seconds = run_worker(argv + (["--trace"] if args.trace else []),
                                  env, deadline)
        setup_s.append(seconds)
        first_s.append(res["first_op_s"])
        for flag in extra[1::2]:
            colds.append(run_worker(argv + [flag], env, deadline))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError,
            TypeError, KeyError) as e:
        res = {"attempted": 1, "failed": 1, "problems": [f"run failed: {e}"],
               "first_op_s": 0.0, "warm_s": [], "peak_rss_kb": 0}
    finally:
        if "spans_file" in res:
            os.replace(res["spans_file"], os.path.join(
                scratch, os.path.basename(res["spans_file"])))
        shutil.rmtree(workdir, ignore_errors=True)
    for c, seconds in colds:
        setup_s.append(seconds)
        if c is not None:
            first_s.append(c["first_op_s"])
            res["attempted"] += c["attempted"]
            res["failed"] += c["failed"]
            res["problems"] += [f"cold start: {p}" for p in c["problems"]]

    env_rec = environment(load_before, steal_before)
    correct = res["failed"] == 0 and not res["problems"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + json.dumps(env_rec, sort_keys=True))
    metrics = {}
    if res["warm_s"]:
        if args.trace:
            values = res["layers"]
            report.print_layers(args.workload, values, res)
        else:
            values = end_to_end(setup_s, first_s, res)
            report.print_end_to_end(values, spec["end_to_end"], res,
                                    setup_s, first_s)
        wanted = spec["per_layer" if args.trace else "end_to_end"]
        metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                               "unit": m["unit"]} for m in wanted}
    print(f"fail_ratio {res['failed']}/{res['attempted']} = "
          f"{res['failed'] / res['attempted']:.4g}")
    for p in res["problems"]:
        print(f"problem: {p}")
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

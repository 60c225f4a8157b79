"""Records the verification op's values in perfbench/reference.json.

usage: python3 perfbench/reference.py [workload ...]

Run it only on code whose results are known good: the benchmark compares
every run's verification op with these values.
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
os.environ["OPENBLAS_NUM_THREADS"] = "1"  # as in every benchmark process


def main() -> int:
    import workloads
    path = os.path.join(HERE, "reference.json")
    recorded = {}
    if os.path.exists(path):
        with open(path) as fh:
            recorded = json.load(fh)
    names = sys.argv[1:] or list(workloads.WORKLOADS)
    scratch = os.path.join(ROOT, ".bench_build", "perfbench")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as workdir:
        for name in names:
            cls = workloads.WORKLOADS[name]
            wl = cls(workdir) if cls is workloads.CliSuite else cls()
            inp = wl.verify_input()
            out = wl.op(inp)
            problems = wl.check(inp, out)
            if problems:
                print(f"{name}: not recorded: {problems}", file=sys.stderr)
                return 1
            recorded[name] = wl.values(out)
            print(f"{name}: {len(recorded[name])} values", flush=True)
    with open(path, "w") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

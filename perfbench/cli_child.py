"""Runs one gkdvlab CLI case in a fresh interpreter for the cli-suite workload.

usage: python3 perfbench/cli_child.py [--spans FILE] -- <gkdvlab arguments>

Times the fresh ``import gkdvlab.cli`` and the ``main()`` call, prints one
JSON line with startup_s and main_s, and exits with main()'s exit code.
With --spans the tracer's wrappers are installed around ``main()``; the
line then also holds the self time per layer, the inclusive time per span
name and the counts, and the spans are saved to FILE.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main() -> int:
    argv = sys.argv[1:]
    split = argv.index("--")
    spans_file = argv[argv.index("--spans") + 1] if "--spans" in argv[:split] else None
    args = argv[split + 1:]
    t0 = time.perf_counter()
    import gkdvlab.cli
    startup = time.perf_counter() - t0
    out = {"startup_s": startup}
    if spans_file:
        from tracing import Tracer
        tracer = Tracer()
        rc, out["main_s"] = tracer.run_op(0, gkdvlab.cli.main, args)
        out["layers"] = tracer.layer_times(0)
        out["inclusive"] = tracer.inclusive_times(0)
        out["counts"] = dict(tracer.counts[0])
        tracer.save(spans_file)
    else:
        t1 = time.perf_counter()
        rc = gkdvlab.cli.main(args)
        out["main_s"] = time.perf_counter() - t1
    print(json.dumps(out))
    return rc


if __name__ == "__main__":
    sys.exit(main())

"""Byte fingerprints of the program's outputs, compared across source trees.

For each source tree given as LABEL=PATH, a fresh process (gkdvlab imported
from PATH/src, OPENBLAS_NUM_THREADS=1) computes sha256 values of:

- every file that each CLI case of `_CLI_CASES` (tests/test_acceptance.py)
  writes to its --outdir; reports echo the outdir, so every tree writes one
  case to the same scratch directory, emptied before each run;
- the bernstein workload's op digests (perfbench/workloads.py, read as it is)
  for its verification input and for three 10-bin cycles at each of the
  seeds 303, 404 and 8080;
- the picard workload's op digests for its verification input and seed 303;
- the stdout of each demo (PATH/demos/*.py), run in a fresh process.

    python tools/fingerprints.py parent=/path/to/parent/checkout change=.

prints one JSON object: the digests per item and tree, the item count, and
the items whose digests differ between the trees. The exit status is 1 when
any item differs, so a byte check of a pure refactor is this one command.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
BERNSTEIN_SEEDS, CYCLES = (303, 404, 8080), 3
PICARD_SEED = 303


def fingerprints(tree: str, scratch: str, cases) -> dict:
    """item -> sha256 hex digest, in this process (gkdvlab importable)."""
    from gkdvlab import cli

    sys.path.insert(0, os.path.join(tree, "perfbench"))
    from workloads import Bernstein, Picard

    out = {}
    for args in cases:
        outdir = os.path.join(scratch, args[0])
        shutil.rmtree(outdir, ignore_errors=True)
        os.makedirs(outdir)
        if cli.main(list(args) + ["--outdir", outdir]) != 0:
            raise SystemExit(f"cli {args[0]} failed")
        for name in sorted(os.listdir(outdir)):
            with open(os.path.join(outdir, name), "rb") as fh:
                out[f"cli {args[0]}/{name}"] = hashlib.sha256(fh.read()).hexdigest()
    wl = Bernstein()
    out["bernstein verify input"] = wl.digest(wl.op(wl.verify_input()))
    for seed in BERNSTEIN_SEEDS:
        for i, inp in enumerate(wl.inputs(seed, CYCLES * len(wl.BINS))):
            out[f"bernstein seed {seed} op {i} (bin {inp[1]})"] = wl.digest(wl.op(inp))
    wl = Picard()
    out["picard verify input"] = wl.digest(wl.op(wl.verify_input()))
    out[f"picard seed {PICARD_SEED}"] = wl.digest(wl.op(wl.inputs(PICARD_SEED, 1)[0]))
    # the environment (PYTHONPATH on this tree's src) passes on to the demos
    for demo in sorted(glob.glob(os.path.join(tree, "demos", "*.py"))):
        stdout = subprocess.run([sys.executable, demo], check=True, capture_output=True,
                                cwd=scratch).stdout
        out[f"demo {os.path.basename(demo)}"] = hashlib.sha256(stdout).hexdigest()
    return out


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trees", nargs="+", help="LABEL=PATH of a source checkout")
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not all("=" in t for t in args.trees):
        ap.error("trees are given as LABEL=PATH")
    trees = [(label, os.path.abspath(path)) for label, path in
             (t.split("=", 1) for t in args.trees)]
    if args.child is not None:
        import gkdvlab
        src = os.path.join(trees[0][1], "src")
        if not os.path.abspath(gkdvlab.__file__).startswith(src + os.sep):
            raise SystemExit(f"gkdvlab imported from {gkdvlab.__file__}, not {src}")
        scratch, cases = json.loads(args.child)
        print(json.dumps(fingerprints(trees[0][1], scratch, cases)))
        return
    sys.path[:0] = [os.path.join(HERE, os.pardir, "src"), os.path.join(HERE, os.pardir, "tests")]
    from test_acceptance import _CLI_CASES

    scratch = tempfile.mkdtemp(prefix="fingerprints-")
    try:
        got = {}
        for label, path in trees:
            env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                       PYTHONPATH=os.path.join(path, "src"))
            out = subprocess.run(
                [sys.executable, os.path.abspath(__file__), f"{label}={path}",
                 "--child", json.dumps([scratch, [list(c) for c in _CLI_CASES]])],
                env=env, check=True, capture_output=True, text=True, cwd=scratch).stdout
            got[label] = json.loads(out.splitlines()[-1])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    items = list(dict.fromkeys(k for digests in got.values() for k in digests))
    table = {k: {label: got[label].get(k) for label, _ in trees} for k in items}
    differ = [k for k, row in table.items() if len(set(row.values())) > 1]
    print(json.dumps({"trees": [label for label, _ in trees], "items": len(items),
                      "equal": len(items) - len(differ), "differ": differ,
                      "digests": table}, indent=1))
    if differ:
        raise SystemExit(1)


if __name__ == "__main__":
    main()

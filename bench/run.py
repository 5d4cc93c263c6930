"""Benchmark of nodeparse: one workload, one seed, one run.

    python3 bench/run.py --workload {tu-molecules,hubs,iso,numeric} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of the repository. It generates the workload's inputs
from the seed into bench/work/, then starts the workload in a fresh
interpreter (worker.py) with PYTHONHASHSEED fixed, waits for it, and prints
its result as the last line: one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``, the end-to-end metrics with ``--trace 0`` and the
per-layer metrics with ``--trace 1``. Results and spans are also kept in
bench/results/. The exit code is 0 only when every output checked out.
"""

from __future__ import annotations

import argparse
import compileall
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402

WORKER_TIMEOUT_S = 170


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "nodeparse" / "__init__.py").is_file():
        print(f"error: no nodeparse sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    # Byte-compile first, so every run's set-up imports from the same cache.
    compileall.compile_dir(src / "nodeparse", quiet=1)

    # Relative paths: the CLI echoes its input path, so outputs and out_mb do
    # not depend on where the checkout lives.
    bench = HERE.relative_to(root) if HERE.is_relative_to(root) else HERE
    name = f"{args.workload}-seed{args.seed}"
    work = bench / "work" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    gen.generate(args.workload, args.seed, work, small=args.small)
    results = bench / "results"
    results.mkdir(exist_ok=True)

    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(src))
    cmd = [sys.executable, str(bench / "worker.py"), "--workload", args.workload,
           "--work", str(work), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", str(results / f"{name}.spans")]
    try:
        proc = subprocess.run(cmd, env=env,
                              stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: {args.workload} did not finish within {WORKER_TIMEOUT_S} s",
              file=sys.stderr)
        return 3
    lines = proc.stdout.strip().splitlines()
    if not lines:
        print(f"error: worker exited with code {proc.returncode} and no result",
              file=sys.stderr)
        return proc.returncode or 4
    (results / f"{name}-trace{args.trace}.json").write_text(lines[-1] + "\n")
    print(lines[-1])
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

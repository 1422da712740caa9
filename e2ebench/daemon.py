"""Set up one session's inputs, then become its query daemon.

    python3 e2ebench/daemon.py --workload NAME --seed N --dir DIR [--small]

Exports the workload's circuits from the benchmark registry as an OpenQASM
corpus under ``DIR/corpus``, builds the base store under ``DIR/store`` when
the workload builds it at set-up (otherwise leaves it empty for the session
to fill), and replaces itself with ``python -m repro.sweeps serve
DIR/store --port 0``.  The caller times this process from spawn to the
daemon's ``SERVE ready`` line: that span is the workload's set-up.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--small", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    from repro.benchcircuits.io import export_benchmark_suite, suite_workload_ids
    from workloads import grid, make_workload

    workload = make_workload(args.workload, args.seed, args.small)
    root = Path(args.dir)
    corpus = root / "corpus"
    store_dir = root / "store"
    export_benchmark_suite(str(corpus), benchmarks=workload.benchmarks)
    store_dir.mkdir(parents=True, exist_ok=True)
    if workload.build_at_setup:
        from repro.qasm.corpus import activate_corpus
        from repro.sweeps import SweepStore
        from repro.sweeps.runner import run_sweep

        activate_corpus(str(corpus))
        run_sweep(grid(workload, suite_workload_ids(str(corpus))), SweepStore(store_dir),
                  seal=True, merge=True)
    sys.stdout.flush()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    command = [sys.executable, "-m", "repro.sweeps", "serve", str(store_dir), "--port", "0"]
    os.execve(sys.executable, command, env)


if __name__ == "__main__":
    main()

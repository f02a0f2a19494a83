"""Benchmark of the mondrian-forest CLI fit and the public query API.

Run from the root of a checkout:

    python3 bench/run.py --workload regress-d2 --seed 1 --seconds 30 --trace 0

A run repeats whole rounds until ``--seconds`` have passed. Each round
draws the workload's inputs from the seed and writes them as a
``x1,...,xd[,y]`` CSV (the set-up), fits with a
``python -m mondrian_forest fit``/``density`` child, loads the saved model
through the public API, scores the batch query set, and scores single
points in a closed loop with one caller. It checks the outputs against
the benchmark's own computations (checks.py) and prints one JSON line
with the end-to-end metrics.

With ``--trace 1`` the fit runs in-process through ``cli.main`` under the
tracer (tracing.py), the same rounds yield the per-layer metrics, and the
spans and the tracing overhead are written to ``bench/runs/``.

This file imports only the standard library: it forks the process that
starts the CLI children before numpy is loaded (see :class:`Spawner`).
"""

from __future__ import annotations

import os

# numpy and BLAS thread pools are held to one thread, here and in the CLI children
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import select
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
IDLE_S = 0.02


class Spawner:
    """Starts ``python -m mondrian_forest`` children from a small helper process.

    Linux carries a process's peak RSS across fork and exec, so a child
    started from the benchmark, which holds the query sets and models,
    would report the benchmark's peak as its own. The helper is forked
    while this process is still small.
    """

    def __init__(self) -> None:
        req_r, req_w = os.pipe()
        rep_r, rep_w = os.pipe()
        sys.stdout.flush()
        sys.stderr.flush()
        self.pid = os.fork()
        if self.pid == 0:
            os.close(req_w)
            os.close(rep_r)
            try:
                with os.fdopen(req_r) as requests, os.fdopen(rep_w, "w") as replies:
                    _serve(requests, replies)
            except BaseException:  # the helper must never return into main()
                traceback.print_exc()
                os._exit(1)
            os._exit(0)
        os.close(req_r)
        os.close(rep_w)
        self._requests = os.fdopen(req_w, "w")
        self._replies = os.fdopen(rep_r)

    def run(self, argv: list[str], log_path: Path, idle=None) -> tuple[float, float, int]:
        """Wall time (s), peak RSS (MB) and exit code of one child.

        While the child runs, ``idle()`` is called after every
        :data:`IDLE_S` seconds without a reply.
        """
        env = dict(os.environ, PYTHONPATH=str(SRC))
        request = [[sys.executable, "-m", "mondrian_forest", *argv], str(log_path), str(ROOT), env]
        self._requests.write(json.dumps(request) + "\n")
        self._requests.flush()
        while idle is not None and not select.select([self._replies], [], [], IDLE_S)[0]:
            idle()
        wall, rss_mb, code = json.loads(self._replies.readline())
        return wall, rss_mb, code

    def close(self) -> None:
        self._requests.close()
        self._replies.close()
        os.waitpid(self.pid, 0)


def _serve(requests, replies) -> None:
    for line in requests:
        argv, log_path, cwd, env = json.loads(line)
        with open(log_path, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=log, stderr=subprocess.STDOUT)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        replies.write(json.dumps([wall, usage.ru_maxrss / 1024.0, proc.returncode]) + "\n")
        replies.flush()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the workload to a few seconds (self-test)")
    args = parser.parse_args(argv)
    if not (SRC / "mondrian_forest" / "__init__.py").is_file():
        sys.stderr.write(f"run.py: no program source under {SRC}; "
                         "run it from the root of a checkout\n")
        return 2
    # One CPU for the benchmark and its children: each timed operation is
    # scaled by reference walks run right around it or, for the CLI fit,
    # during it (reference.py), and on a shared host each CPU is slowed by
    # its own neighbours.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    spawner = Spawner()
    try:
        sys.path.insert(0, str(SRC))
        import pipeline

        return pipeline.main(args, spawner)
    finally:
        spawner.close()


if __name__ == "__main__":
    sys.exit(main())

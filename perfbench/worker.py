"""One round of one workload, in a fresh process.

Started by run.py. Imports kronspec from the checkout's ``src/``, writes the
round's config files, and prints ``READY``: that is the end of set-up. It
then runs the round's commands through ``kronspec.cli.main``, exactly as
``kronspec experiment <config.json>`` and ``kronspec theory`` would, times
them, checks the reports they wrote, and prints one JSON line.

    python3 perfbench/worker.py --workload theory --seed 1 --round 0 --dir DIR
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
THREAD_VARS = ("KRONSPEC_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--round", type=int, required=True)
    p.add_argument("--dir", required=True, help="directory for this round's configs and reports")
    p.add_argument("--trace", action="store_true", help="record spans of kronspec's functions")
    p.add_argument("--deep", action="store_true", help="also run the exact-spectrum checks")
    p.add_argument("--small", action="store_true", help="reduced sizes, for the smoke test")
    p.add_argument("--setup-only", action="store_true", help="stop after set-up")
    return p.parse_args(argv)


def prepare(commands: list[dict], round_dir: Path) -> list[list[str]]:
    """Write each experiment's config file; return the CLI argv of every command."""
    configs = round_dir / "configs"
    configs.mkdir(parents=True, exist_ok=True)
    argvs = []
    for cmd in commands:
        out = str(round_dir / "out" / cmd["name"])
        if cmd["kind"] == "theory":
            argvs.append(["theory", *cmd["args"], "--output-dir", out])
            continue
        path = configs / f"{cmd['name']}.json"
        path.write_text(json.dumps({**cmd["config"], "output_dir": out}, indent=2))
        argvs.append(["experiment", str(path)])
    return argvs


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        **{var: os.environ.get(var) for var in THREAD_VARS},
    }


def directory_kib(path: Path) -> float:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file()) / 1024


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kronspec" / "__init__.py").is_file():
        print(f"error: no kronspec sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from kronspec import cli

    import tracing
    import verify
    import workloads

    commands = workloads.commands(args.workload, args.seed, args.round, args.small)
    round_dir = Path(args.dir)
    argvs = prepare(commands, round_dir)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    completed = []
    with open(os.devnull, "w") as devnull:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for cmd, cmd_argv in zip(commands, argvs):
            try:
                with contextlib.redirect_stdout(devnull):
                    status = cli.main(cmd_argv)
            except (Exception, SystemExit):
                traceback.print_exc()
                status = None
            if status == 0:
                completed.append(cmd)
            else:
                print(f"{cmd['name']}: failed (exit status {status})", file=sys.stderr)
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracing.summarize(tracer.spans)
        layers["experiments.report_kb"] = directory_kib(round_dir / "out")

    result = {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(commands),
        "failed": len(commands) - len(completed),
        "problems": verify.check_round(completed, round_dir, args.deep),
        "layers": layers,
        "env": environment(),
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

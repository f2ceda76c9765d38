"""Run one workload of the layered serving benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold_sweep --seed 1 --seconds 10 --trace 0

Prints the environment, one line per figure, and as the last line one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end metrics of ``BENCHMARK.json``;
with ``--trace 1`` the per-layer metrics of a traced run.  Exits 1 when a
correctness check fails and 2 when the benchmark cannot run at all (for
example without the ``repro`` sources next to it).
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.environment import pin_blas  # noqa: E402

pin_blas()

#: Scratch space for checkpoints, daemon logs and spans (inside the checkout).
WORK_ROOT = ROOT / ".perfbench_work"
END_TO_END = ("setup_s", "peak_rss_mb", "p50_ms", "per_s", "error_pct")


def parse_args(argv):
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from perfbench import environment
    from perfbench.workloads import PER_LAYER, WORKLOADS

    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    print("env " + json.dumps(environment.describe(ROOT), sort_keys=True))
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        result = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()  # only when no other run is using it
        except OSError:
            pass

    wanted = [name for name, _ in PER_LAYER] if args.trace else list(END_TO_END)
    missing = [name for name in wanted if name not in result.metrics]
    result.problems.extend(f"metric {name} was not measured" for name in missing)
    for line in result.notes:
        print(f"{args.workload}: {line}")
    for name in wanted:
        if name in result.metrics:
            value, unit = result.metrics[name]
            print(f"{args.workload}: {name} = {value!r} {unit}")
    if result.attempted:
        print(f"{args.workload}: failed_share = {result.failed / result.attempted!r} "
              f"({result.failed} of {result.attempted})")
    for problem in result.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = not result.problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": result.metrics[name][0], "unit": result.metrics[name][1]}
                    for name in wanted
                    if name in result.metrics
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

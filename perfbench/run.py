"""Run one workload of the lobfib benchmark and print its metrics.

    python3 perfbench/run.py --workload lobell_pipeline --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a checkout: it uses the lobfib sources in
``src/`` next to this directory and writes only below ``.perfbench/``.
The last line of standard output is the JSON result; see README.md.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOADS = ("lobell_pipeline", "fibonacci_pipeline", "cli_cold", "census")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float, help="measured time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if not (SRC / "lobfib" / "__init__.py").is_file():
        print(f"error: no lobfib sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench  # imports lobfib, which must come from SRC

    if Path(bench.lobfib.__file__).resolve().parent != SRC / "lobfib":
        print(f"error: imported lobfib from {bench.lobfib.__file__}, not {SRC}", file=sys.stderr)
        return 2
    bench.report(bench.run(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload eclipse_serve --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (every end-to-end
metric with ``--trace 0``, every per-layer metric with ``--trace 1``);
the line before it is the run's detail report (phases, failure census,
environment). The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv: list[str] | None = None) -> int:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: {src}/repro not found; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    from albabench.harness import WORKLOADS, run

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    result, line = run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, **result.detail}, default=str))
    print(json.dumps(line))
    if not result.correct:
        for problem in result.problems:
            print(f"check failed: {problem}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

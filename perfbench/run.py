"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload backbone_train --seed 0 --seconds 10 --trace 0

BLAS is pinned to one thread before numpy loads.  Every metric is printed
with its unit; the last line of standard output is the result as one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  The full record, with the environment, goes to
``.perfbench/`` at the repository root.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # the benchmark measures the esgnn source next to it, never an installed copy
    if not (SRC / "esgnn" / "__init__.py").is_file():
        print(f"perfbench: no esgnn sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    record = harness.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("environment " + json.dumps(record["environment"]))
    print("detail " + json.dumps(record["detail"]))
    result = harness.result_line(record)
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']} {metric['unit']}")
    print(f"operations failed {record['failed']} of {record['attempted']} attempted")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload plan|sim|live --seed N \\
        --seconds S --trace 0|1

Run from the root of a source checkout.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics, or with ``--trace 1`` the per-layer
metrics, each as ``{"value": ..., "unit": ...}``).  A traced run also
writes its spans to ``.perfbench_out/`` in the checkout.  Exits 2,
printing no result, when the checkout holds no program source.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("plan", "sim", "live"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro

    if SRC not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from perfbench import workloads

    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    # A fresh, empty disk cache for the program's engine, removed after.
    cache = tempfile.mkdtemp(prefix="cache-", dir=out)
    os.environ["REPRO_CACHE_DIR"] = cache
    try:
        trace_path = (out / f"spans-{args.workload}-seed{args.seed}.jsonl"
                      if args.trace else None)
        result = workloads.run(args.workload, args.seed, args.seconds,
                               bool(args.trace), trace_path)
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

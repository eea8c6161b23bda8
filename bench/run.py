"""Launcher of the chaintomo benchmark.

    python3 bench/run.py --workload short_chain --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout.  It fixes the BLAS thread count
before numpy loads, so the single closed-loop process never asks for
more threads than the machine has, and imports chaintomo from this
checkout's ``src`` only.  See bench/README.md for the workloads and
metrics.
"""

import os
import sys
import time
from pathlib import Path

BLAS_THREADS = 1
SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    started = time.perf_counter()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "chaintomo" / "__init__.py").is_file():
        print(f"chaintomo sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import chaintomo

    if not Path(chaintomo.__file__).resolve().is_relative_to(SRC):
        print(f"chaintomo imported from {chaintomo.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness

    return harness.main(sys.argv[1:], started)


if __name__ == "__main__":
    sys.exit(main())

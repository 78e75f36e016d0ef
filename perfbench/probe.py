"""Short fresh-interpreter probes started by the benchmark.

  probe.py setup WORKLOAD   import lisopt, do the workload's set-up (spec
                            load, child spawn or objective build) and print
                            time.monotonic() when done
  probe.py blas BUDGET      run_liso on sphere d=4 and print the sha256 of
                            trace.estimates; run under different BLAS thread
                            counts to test bit-invariance
"""

import hashlib
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def main(argv):
    if argv[0] == "setup":
        import lisopt  # noqa: F401  (the import is what is timed)
        from workloads import WORKLOADS

        WORKLOADS[argv[1]].setup()
        print(time.monotonic())
    elif argv[0] == "blas":
        import numpy as np
        from lisopt import IsotropicGaussian, StaticConfig, benchmark, run_liso

        config = StaticConfig(budget=int(argv[1]), alpha0=1.0, seed=3,
                              q0=IsotropicGaussian(mean=np.full(4, 0.5), variance=0.25))
        _, trace = run_liso(benchmark("sphere", 4), config)
        print(hashlib.sha256(trace.estimates.tobytes()).hexdigest())
    else:
        raise SystemExit(f"unknown probe {argv[0]!r}")


if __name__ == "__main__":
    main(sys.argv[1:])

"""One cold set-up of a workload, in a fresh process.

Prints one JSON object: ``setup_s`` is the time from just before the
library is imported to the end of one warm-up op.  It covers the imports
(numpy included), building the workload's code from a cold ``bch_build``
cache (or the generic code), the field tables, and the op.  Drawing the
warm-up op's input is not counted.  ``gauge_factor`` comes from the
interpreter-speed gauge (see gauge.py), run right after the set-up.

    python3 perfbench/setup_child.py --workload records-255 --seed 1
"""

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
GAUGE_TICKS = 10


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    t0 = perf_counter()
    import workloads
    from spans import NoTrace

    wl = workloads.WORKLOADS[args.workload]
    code = wl.build_code()
    t_build = perf_counter()
    inp = wl.make_input(code, args.seed, 0, NoTrace())
    t_input = perf_counter()
    wl.run_op(code, inp, NoTrace())
    t_end = perf_counter()
    from gauge import Gauge

    gauge = Gauge()
    for _ in range(GAUGE_TICKS):
        gauge.tick()
    print(json.dumps({
        "setup_s": (t_end - t0) - (t_input - t_build),
        "gauge_factor": gauge.factor(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
